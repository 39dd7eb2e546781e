package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden_contention.txt and BENCH_7.json from this run")

// contentionReport is the BENCH_7.json document: the pre/post lock-split
// scaling experiment's measured rows, checked in so the repo carries the
// numbers the README discusses (BENCH_6.json remains on disk as the
// pre-split historical baseline). Virtual-time outputs are deterministic,
// so the file is regenerated byte-identically by any host (`go test
// ./internal/bench -run TestGoldenContention -update`).
type contentionReport struct {
	Description string              `json:"description"`
	Window      string              `json:"window"`
	Units       map[string]string   `json:"units"`
	Rows        []contentionJSONRow `json:"rows"`
}

type contentionJSONRow struct {
	Workload        string  `json:"workload"`
	Locks           string  `json:"locks"`
	Cores           int     `json:"cores"`
	Ops             int     `json:"ops"`
	ThroughputPS    float64 `json:"throughput_per_sec"`
	BKLWaitNS       uint64  `json:"bkl_wait_ns"`
	LockWaitNS      uint64  `json:"lock_wait_ns"`
	CoreWaitNS      uint64  `json:"core_wait_ns"`
	BKLShare        float64 `json:"bkl_share"`
	BKLAcquisitions uint64  `json:"bkl_acquisitions"`
	BKLWaitersHigh  int64   `json:"bkl_waiters_high_water"`
}

func contentionJSON(rows []ContentionRow) ([]byte, error) {
	rep := contentionReport{
		Description: "Lock-split scaling experiment (PR 7): μFork httpd worker fleet and kvstore-with-BGSAVE at 1/2/4/8 simulated cores, under the big kernel lock (locks=bkl) and the fine-grained split hierarchy (locks=smp). bkl_* columns describe the global serializing lock of each configuration — the BKL itself, or the narrow residual lock after the split; bkl_share = bkl_wait / (lock_wait + core_wait). The bkl rows reproduce the §4.5 ceiling (the global lock owns essentially all wait, throughput stops scaling); the smp rows show the split converting that wait into real multicore scaling with a residual share near zero. Regenerate with: go test ./internal/bench -run TestGoldenContention -update",
		Window:      "20ms (quick)",
		Units: map[string]string{
			"throughput_per_sec": "requests/s (httpd) or ops/s (kvstore), virtual time",
			"bkl_wait_ns":        "virtual ns queued on the global serializing lock (BKL or residual)",
			"lock_wait_ns":       "virtual ns queued on all kernel locks",
			"core_wait_ns":       "virtual ns runnable but waiting for a core",
		},
	}
	for _, r := range rows {
		rep.Rows = append(rep.Rows, contentionJSONRow{
			Workload: r.Workload, Locks: r.Locks, Cores: r.Cores, Ops: r.Ops,
			ThroughputPS: r.ThroughputPerSec,
			BKLWaitNS:    r.BKLWaitNS, LockWaitNS: r.LockWaitNS, CoreWaitNS: r.CoreWaitNS,
			BKLShare:        r.BKLShare,
			BKLAcquisitions: r.BKLAcquisitions, BKLWaitersHigh: r.BKLWaitersHigh,
		})
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// TestGoldenContention pins the dual-configuration contention sweep: the
// rendered table against its golden, the acceptance properties of both lock
// configurations (BKL rows majority-serialized at ≥4 cores; SMP rows
// scaling with a sub-40% residual share), and the checked-in BENCH_7.json
// against a fresh marshal of the same rows.
func TestGoldenContention(t *testing.T) {
	t.Parallel()
	rows, err := ContentionSweep(Env{}, ContentionWindowQuick, ContentionCoresDefault)
	if err != nil {
		t.Fatal(err)
	}
	got := RenderContention(rows)
	jsonBytes, err := contentionJSON(rows)
	if err != nil {
		t.Fatal(err)
	}
	benchPath := filepath.Join("..", "..", "BENCH_7.json")
	if *update {
		if err := os.WriteFile(filepath.Join("testdata", "golden_contention.txt"), []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(benchPath, jsonBytes, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	goldenCompare(t, got, "golden_contention.txt")

	for _, r := range rows {
		if r.Ops == 0 {
			t.Errorf("%s/%s at %d cores: no operations completed", r.Workload, r.Locks, r.Cores)
		}
		if r.BKLAcquisitions == 0 {
			t.Errorf("%s/%s at %d cores: lockstat recorded no global-lock acquisitions",
				r.Workload, r.Locks, r.Cores)
		}
		switch r.Locks {
		case LocksBKL:
			if r.Cores >= 4 && r.BKLShare <= 0.5 {
				t.Errorf("%s/bkl at %d cores: BKL share %.1f%% — expected the lock to own the majority of wait",
					r.Workload, r.Cores, 100*r.BKLShare)
			}
		case LocksSMP:
			if r.Cores >= 4 && r.BKLShare >= 0.4 {
				t.Errorf("%s/smp at %d cores: residual share %.1f%% — the split should leave the global lock cold",
					r.Workload, r.Cores, 100*r.BKLShare)
			}
		}
	}
	if err := CheckContentionScaling(rows); err != nil {
		t.Error(err)
	}

	want, err := os.ReadFile(benchPath)
	if err != nil {
		t.Fatalf("read BENCH_7.json: %v", err)
	}
	if !bytes.Equal(jsonBytes, want) {
		t.Fatalf("BENCH_7.json is stale; regenerate with -update\ngot:\n%s", jsonBytes)
	}
}
