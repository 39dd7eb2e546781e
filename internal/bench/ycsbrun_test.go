package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ufork/internal/bench/ycsb"
)

// ycsbReport is the BENCH_8.json document: the quick-mode YCSB sweep's
// measured rows, checked in so the repo carries the load-harness numbers
// the README discusses. Virtual-time outputs are deterministic, so any
// host regenerates the file byte-identically (`go test ./internal/bench
// -run TestGoldenYCSB -update`).
type ycsbReport struct {
	Description string            `json:"description"`
	Window      string            `json:"window"`
	Units       map[string]string `json:"units"`
	Rows        []ycsbJSONRow     `json:"rows"`
}

type ycsbJSONRow struct {
	Workload     string  `json:"workload"`
	Mix          string  `json:"mix"`
	Chooser      string  `json:"chooser"`
	Locks        string  `json:"locks"`
	Cores        int     `json:"cores"`
	Keys         int     `json:"keys"`
	Chaos        bool    `json:"chaos"`
	Ops          int     `json:"ops"`
	Reads        int     `json:"reads"`
	Updates      int     `json:"updates"`
	Errs         int     `json:"errs"`
	BGSaves      int     `json:"bgsaves"`
	Injected     int     `json:"injected"`
	WindowNS     uint64  `json:"window_ns"`
	ThroughputPS float64 `json:"throughput_per_sec"`
	P50NS        uint64  `json:"p50_ns"`
	P99NS        uint64  `json:"p99_ns"`
	P999NS       uint64  `json:"p999_ns"`
	SLO          string  `json:"slo"`
	SLOPass      bool    `json:"slo_pass"`
}

func ycsbJSON(rows []YCSBRow) ([]byte, error) {
	rep := ycsbReport{
		Description: "YCSB-style load harness (PR 8): deterministic A/B/C mixes over scrambled-zipfian keys (theta=0.99) against the kvstore with BGSAVE snapshot forks firing mid-run and against the httpd worker fleet, under the big kernel lock (locks=bkl) and the split fine-grained hierarchy (locks=smp) at 1 and 4 simulated cores, plus one fault-injected cell per workload (EINTR storm + spurious write faults). Per-op latency is virtual-time ns; every row is gated by its SLO (slo_pass). Quick scale: 4096 keys, 6000 ops/cell; the paper-scale soak (100k keys, 1M ops) runs via `ufork-bench -exp ycsb -full`. Regenerate with: go test ./internal/bench -run TestGoldenYCSB -update",
		Window:      "per-cell virtual window, fleet launch to last op retired",
		Units: map[string]string{
			"throughput_per_sec": "ops/s, virtual time",
			"p50_ns":             "per-op latency percentile, virtual ns",
			"window_ns":          "virtual ns",
		},
	}
	for _, r := range rows {
		rep.Rows = append(rep.Rows, ycsbJSONRow{
			Workload: r.Workload, Mix: r.Mix.Name, Chooser: r.Chooser,
			Locks: r.Locks, Cores: r.Cores, Keys: r.Keys, Chaos: r.Chaos,
			Ops: r.Ops, Reads: r.Reads, Updates: r.Updates, Errs: r.Errs,
			BGSaves: r.BGSaves, Injected: r.Injected,
			WindowNS: r.WindowNS, ThroughputPS: r.Throughput(),
			P50NS: r.Lat.P50, P99NS: r.Lat.P99, P999NS: r.Lat.P999,
			SLO: r.SLO.String(), SLOPass: len(r.Breaches) == 0,
		})
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// TestGoldenYCSB pins the quick-mode sweep: the rendered table against
// its golden, the checked-in BENCH_8.json against a fresh marshal of the
// same rows, and the acceptance properties of the harness itself — every
// cell completed its op budget, every clean cell ran error-free under
// its SLO, every kvstore cell took BGSAVE forks mid-run, and both chaos
// cells actually injected faults yet still held their (looser) SLOs.
func TestGoldenYCSB(t *testing.T) {
	t.Parallel()
	rows, err := YCSBSweep(Env{}, YCSBOpts{})
	if err != nil {
		t.Fatal(err)
	}
	got := RenderYCSB(rows)
	jsonBytes, err := ycsbJSON(rows)
	if err != nil {
		t.Fatal(err)
	}
	benchPath := filepath.Join("..", "..", "BENCH_8.json")
	if *update {
		if err := os.WriteFile(filepath.Join("testdata", "golden_ycsb.txt"), []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(benchPath, jsonBytes, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	goldenCompare(t, got, "golden_ycsb.txt")

	chaosCells := 0
	for _, r := range rows {
		// 6000 splits evenly across both fleet widths (4 workers, 8
		// drivers), so every cell must retire its whole budget.
		if r.Ops != YCSBOpsQuick {
			t.Errorf("%s/%s/%s/%dc: completed %d ops, want %d", r.Workload, r.Mix.Name, r.Locks, r.Cores, r.Ops, YCSBOpsQuick)
		}
		if r.Workload == "kvstore" && r.BGSaves == 0 {
			t.Errorf("%s/%s/%s/%dc: no BGSAVE forks completed mid-run", r.Workload, r.Mix.Name, r.Locks, r.Cores)
		}
		if r.Chaos {
			chaosCells++
			if r.Injected == 0 {
				t.Errorf("%s/%s/%s/%dc: chaos cell injected no faults", r.Workload, r.Mix.Name, r.Locks, r.Cores)
			}
			if r.Errs == 0 {
				t.Errorf("%s/%s/%s/%dc: chaos cell saw no errored ops — injection not reaching the op path", r.Workload, r.Mix.Name, r.Locks, r.Cores)
			}
		} else if r.Errs != 0 {
			t.Errorf("%s/%s/%s/%dc: %d errors in a clean cell", r.Workload, r.Mix.Name, r.Locks, r.Cores, r.Errs)
		}
		if len(r.Breaches) > 0 {
			t.Errorf("%s/%s/%s/%dc: SLO %s breached: %v", r.Workload, r.Mix.Name, r.Locks, r.Cores, r.SLO, r.Breaches)
		}
	}
	if chaosCells != len(YCSBWorkloads) {
		t.Errorf("sweep carried %d chaos cells, want one per workload (%d)", chaosCells, len(YCSBWorkloads))
	}
	if err := YCSBFailures(rows); err != nil {
		t.Errorf("YCSBFailures on a passing sweep: %v", err)
	}

	want, err := os.ReadFile(benchPath)
	if err != nil {
		t.Fatalf("read BENCH_8.json: %v", err)
	}
	if !bytes.Equal(jsonBytes, want) {
		t.Fatalf("BENCH_8.json is stale; regenerate with -update\ngot:\n%s", jsonBytes)
	}
}

// TestYCSBRaceSMPReplay is the -race regression cell: a short mix-A run
// against the split-lock machine at 4 cores with BGSAVE forks firing
// mid-run — the configuration with the most concurrent lock traffic —
// executed twice with the same seed. Both runs must be structurally
// identical (ops, errors, window, every latency percentile): the replay
// determinism the golden tables and chaos repro lines rely on, checked
// under the race detector in CI.
func TestYCSBRaceSMPReplay(t *testing.T) {
	t.Parallel()
	opts := YCSBOpts{
		Mixes: []ycsb.Mix{ycsb.MixA},
		Keys:  1024, Ops: 2000,
		Cores: []int{4},
		Locks: []string{LocksSMP},
		Seed:  42,
	}
	runs := make([][]YCSBRow, 2)
	for i := range runs {
		rows, err := YCSBSweep(Env{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = rows
	}
	kvSeen := false
	for _, r := range runs[0] {
		if r.Workload == "kvstore" && !r.Chaos {
			kvSeen = true
			if r.BGSaves == 0 {
				t.Error("kvstore cell took no BGSAVE forks mid-run")
			}
		}
	}
	if !kvSeen {
		t.Fatal("sweep produced no clean kvstore cell")
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatalf("same-seed replay diverged:\nfirst:\n%s\nsecond:\n%s",
			RenderYCSB(runs[0]), RenderYCSB(runs[1]))
	}
}

// TestYCSBChaosCellsSurviveEINTR runs the cells of the all-chaos sweep
// (-exp ycsb -chaos) in which an injected EINTR once failed the whole
// cell: a worker fork in kvstore/A/bkl/4c and the master's reap in
// httpd/B/bkl/4c. Every cell must come back as a row; an SLO verdict is
// the gate's business, not an error.
func TestYCSBChaosCellsSurviveEINTR(t *testing.T) {
	t.Parallel()
	rows, err := YCSBSweep(Env{}, YCSBOpts{
		Mixes: []ycsb.Mix{ycsb.MixA, ycsb.MixB},
		Cores: []int{4},
		Locks: []string{LocksBKL},
		Chaos: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("sweep returned %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Ops != YCSBOpsQuick || r.Injected == 0 {
			t.Errorf("%s/%s: %d ops with %d faults injected, want %d ops under faults", r.Workload, r.Mix.Name, r.Ops, r.Injected, YCSBOpsQuick)
		}
	}
}

// TestYCSBSLOBreachFires sabotages the gate: an impossible SLO (p99
// under 1 virtual ns, zero error budget) must fail every cell, and the
// failure error must carry the want-vs-got gate report and the
// flight-recorder tail of the breaching run.
func TestYCSBSLOBreachFires(t *testing.T) {
	t.Parallel()
	impossible := ycsb.SLO{MaxP99: 1, MaxErrorRate: -1}
	rows, err := YCSBSweep(Env{}, YCSBOpts{
		Mixes: []ycsb.Mix{ycsb.MixA},
		Keys:  512, Ops: 800,
		Cores: []int{1},
		Locks: []string{LocksBKL},
		Seed:  7,
		Chaos: true, // no extra chaos cells; every cell chaos-armed
		SLO:   &impossible,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if len(r.Breaches) == 0 {
			t.Errorf("%s/%s: impossible SLO not breached (p99=%d)", r.Workload, r.Mix.Name, r.Lat.P99)
		}
		if r.flightDump == "" {
			t.Errorf("%s/%s: breach captured no flight dump", r.Workload, r.Mix.Name)
		}
		if r.traceDump == "" {
			t.Errorf("%s/%s: breach captured no causal trace trees", r.Workload, r.Mix.Name)
		}
	}
	ferr := YCSBFailures(rows)
	if ferr == nil {
		t.Fatal("YCSBFailures nil on a breached sweep")
	}
	msg := ferr.Error()
	// The breach report must carry the gate verdicts, the top-k classified
	// slow-op trace trees (with the classifier's cause line), and the
	// flight-recorder tail — where the tail went, not just that it blew.
	for _, want := range []string{
		"p99", "want <= 1ns",
		"causal exemplars — top", "cause=", "trace #",
		"flight recorder: last", "sysret",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("breach error missing %q:\n%s", want, msg)
		}
	}
}

// TestStressSLOGate covers the stress-side gate both ways on one small
// soak: the measured rows clear the default SLO, and a sabotaged
// one-virtual-ns p99 ceiling makes the gate fire with the offending
// cells named.
func TestStressSLOGate(t *testing.T) {
	t.Parallel()
	rows := Stress(Env{}, 1, 1, 600)
	if err := StressFailures(rows); err != nil {
		t.Fatal(err)
	}
	if err := CheckStressSLO(rows, DefaultStressSLO()); err != nil {
		t.Errorf("default stress SLO breached on a clean soak: %v", err)
	}
	sampled := false
	for _, r := range rows {
		if StressLatency(r).Count > 0 {
			sampled = true
			break
		}
	}
	if !sampled {
		t.Fatal("no stress cell recorded syscall latencies — flight plane not feeding the gate")
	}
	err := CheckStressSLO(rows, ycsb.SLO{MaxP99: 1, MaxErrorRate: -1})
	if err == nil {
		t.Fatal("sabotaged stress SLO did not fire")
	}
	for _, want := range []string{"stress SLO", "p99", "seed=1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("stress gate error missing %q:\n%v", want, err)
		}
	}
}
