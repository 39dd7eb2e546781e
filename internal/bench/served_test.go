package bench

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ufork/internal/bench/ycsb"
	"ufork/internal/obs"
	"ufork/internal/obs/causal"
	"ufork/internal/obs/memmap"
	"ufork/internal/sim"
	"ufork/internal/telemetry"
)

// The served-plane tests run a short sweep in the planes `ufork-bench
// -serve` arms (telemetry.Outputs.Arm), close the listener, and then
// query the server's handler in-process. The sweep has finished before
// the first query, so every assertion is deterministic: no poll loop, no
// race with the last-booted kernel.

// servedSweep arms the -serve planes on a loopback listener, runs sweep
// in them, and returns the server once the sweep has finished.
func servedSweep(t *testing.T, sweep func(Env) error) *telemetry.Server {
	t.Helper()
	pl, srv, err := telemetry.Outputs{}.Arm("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	err = sweep(Env{Planes: pl})
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// servedYCSB is a served YCSB sweep at one lock regime and core count:
// mix B (so both applications register their mixb latency family) over a
// 512-key store, with the dedicated chaos cells the CLI's sweep carries.
func servedYCSB(t *testing.T, locks string, cores int) *telemetry.Server {
	return servedSweep(t, func(env Env) error {
		rows, err := YCSBSweep(env, YCSBOpts{
			Mixes: []ycsb.Mix{ycsb.MixB}, Keys: 512, Ops: 800,
			Cores: []int{cores}, Locks: []string{locks},
		})
		if err != nil {
			return err
		}
		return YCSBFailures(rows)
	})
}

// scrape serves one GET from srv's handler and fails unless it is a 200.
func scrape(t *testing.T, srv *telemetry.Server, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != 200 {
		t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body)
	}
	return rec.Body.String()
}

func scrapeJSON(t *testing.T, srv *telemetry.Server, path string, v any) {
	t.Helper()
	body := scrape(t, srv, path)
	if err := json.Unmarshal([]byte(body), v); err != nil {
		t.Fatalf("GET %s is not JSON: %v\n%s", path, err, body)
	}
}

// lintClean fails the test unless the exposition passes the promlint
// rules and carries every named family.
func lintClean(t *testing.T, metrics string, families ...string) {
	t.Helper()
	if errs := telemetry.Lint(strings.NewReader(metrics)); len(errs) != 0 {
		t.Fatalf("served /metrics fails lint: %v", errs)
	}
	if miss := telemetry.MissingFamilies(strings.NewReader(metrics), families); len(miss) != 0 {
		t.Fatalf("served /metrics lacks families %v", miss)
	}
}

// sampleValue returns the value of the exposition's sample of series,
// or "" when there is none.
func sampleValue(metrics, series string) string {
	for _, line := range strings.Split(metrics, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			return v
		}
	}
	return ""
}

// containsAll fails the test on the first want missing from body.
func containsAll(t *testing.T, what, body string, wants ...string) {
	t.Helper()
	for _, w := range wants {
		if !strings.Contains(body, w) {
			t.Fatalf("%s lacks %q in:\n%s", what, w, body)
		}
	}
}

// TestServedYCSB checks every plane a served BKL YCSB sweep fills: the
// causal plane on /traces and its ufork_trace_* families, the per-cell
// latency families, the profiler's stacks, the provenance plane, the lock
// plane and the process and fork-phase families.
func TestServedYCSB(t *testing.T) {
	t.Parallel()
	srv := servedYCSB(t, LocksBKL, 2)

	t.Run("Healthz", func(t *testing.T) {
		var h struct {
			Tracked bool            `json:"tracked"`
			Planes  map[string]bool `json:"planes"`
		}
		scrapeJSON(t, srv, "/healthz", &h)
		for _, pl := range []string{"flight", "memmap", "lockstat", "causal", "profile"} {
			if !h.Tracked || !h.Planes[pl] {
				t.Fatalf("/healthz = %+v, want a tracked kernel with %s armed", h, pl)
			}
		}
	})

	t.Run("TraceFamilies", func(t *testing.T) {
		m := scrape(t, srv, "/metrics")
		lintClean(t, m, "ufork_trace_started_total", "ufork_trace_finished_total",
			"ufork_trace_edges_total", "ufork_trace_exemplars")
		for _, series := range []string{"ufork_trace_finished_total", `ufork_trace_edges_total{kind="fork"}`} {
			if v := sampleValue(m, series); v == "" || v == "0" {
				t.Fatalf("%s = %q over a finished sweep, want a live count", series, v)
			}
		}
	})

	t.Run("Traces", func(t *testing.T) {
		var snap causal.Snapshot
		scrapeJSON(t, srv, "/traces", &snap)
		if snap.Exemplars < 1 || snap.Finished < 1 {
			t.Fatalf("/traces exemplars=%d finished=%d, want at least one", snap.Exemplars, snap.Finished)
		}
		forkEdges := 0
		for _, g := range snap.Groups {
			for _, tr := range g.Traces {
				var sum uint64
				for _, s := range tr.Spans {
					if s.Root {
						for _, seg := range s.Segs {
							sum += seg.DurNS
						}
					}
				}
				if sum != tr.DurNS {
					t.Errorf("%s #%d: root segments sum to %d ns, recorded %d ns", g.Group, tr.ID, sum, tr.DurNS)
				}
				if tr.Cause == "" {
					t.Errorf("%s #%d has no cause", g.Group, tr.ID)
				}
				for _, e := range tr.Edges {
					if e.Kind == "fork" {
						forkEdges++
					}
				}
			}
		}
		if forkEdges == 0 {
			t.Error("no exemplar carries a fork edge")
		}

		var chrome struct {
			TraceEvents []struct {
				Ph string `json:"ph"`
			} `json:"traceEvents"`
		}
		scrapeJSON(t, srv, "/traces?format=chrome", &chrome)
		ph := map[string]int{}
		for _, ev := range chrome.TraceEvents {
			ph[ev.Ph]++
		}
		if ph["X"] < 1 || ph["s"]+ph["f"] < 2 {
			t.Fatalf("chrome export has %d X and %d s/f events, want X spans and a flow pair", ph["X"], ph["s"]+ph["f"])
		}
	})

	t.Run("LatencyFamilies", func(t *testing.T) {
		m := scrape(t, srv, "/metrics")
		lintClean(t, m, "ufork_ycsb_kvstore_mixb_latency_ns", "ufork_ycsb_httpd_mixb_latency_ns")
		containsAll(t, "/metrics", m, "ufork_ycsb_kvstore_mixb_latency_ns_bucket{", "ufork_ycsb_httpd_mixb_latency_ns_count")
	})

	t.Run("Profile", func(t *testing.T) {
		containsAll(t, "/profile", scrape(t, srv, "/profile"), "proc:kvsrv[", "syscall:", "phase:fork:")
	})

	t.Run("ProcsAndForkPhases", func(t *testing.T) {
		var procs []json.RawMessage
		scrapeJSON(t, srv, "/procs", &procs)
		if len(procs) == 0 {
			t.Fatal("/procs is empty after a served sweep")
		}
		containsAll(t, "/metrics", scrape(t, srv, "/metrics"), "ufork_fork_phase_", "ufork_proc_faults_total{")
	})

	t.Run("Memmap", func(t *testing.T) {
		var snap memmap.Snapshot
		scrapeJSON(t, srv, "/memmap", &snap)
		if snap.Procs == nil || len(snap.AllocsByOrigin) == 0 {
			t.Fatalf("/memmap procs=%v allocs_by_origin=%v, want the last kernel's provenance", snap.Procs, snap.AllocsByOrigin)
		}
		m := scrape(t, srv, "/metrics")
		lintClean(t, m, "ufork_memmap_frames_live", "ufork_memmap_allocs_by_origin_total")
		containsAll(t, "/metrics", m, "ufork_memmap_allocs_by_origin_total{")
	})

	t.Run("Locks", func(t *testing.T) {
		checkServedLocks(t, srv, "bkl", "residual", 2)
	})
}

// TestServedSMPLocks is the split-lock half of the lock-plane check: a
// served sweep on the fine-grained machine names the residual lock and
// never the BKL, at the sweep's own core count.
func TestServedSMPLocks(t *testing.T) {
	t.Parallel()
	checkServedLocks(t, servedYCSB(t, LocksSMP, 4), "residual", "bkl", 4)
}

// checkServedLocks holds a served lock plane to its sweep's regime:
// /locks names the regime's global lock, with acquisitions, and never the
// other regime's; its wait histogram is exposed; /sched reports the
// sweep's cores.
func checkServedLocks(t *testing.T, srv *telemetry.Server, global, other string, cores int) {
	t.Helper()
	var locks []sim.LockStat
	scrapeJSON(t, srv, "/locks", &locks)
	var found bool
	for _, l := range locks {
		switch l.Name {
		case global:
			found = l.Acquisitions > 0
		case other:
			t.Fatalf("/locks names %q after a %s-only sweep", other, global)
		}
	}
	if !found {
		t.Fatalf("/locks has no acquisitions of %q: %+v", global, locks)
	}
	var sched sim.SchedSnapshot
	scrapeJSON(t, srv, "/sched", &sched)
	if sched.Cores != cores || len(sched.PerCore) != cores {
		t.Fatalf("/sched reports %d cores (%d per-core rows), want the sweep's %d", sched.Cores, len(sched.PerCore), cores)
	}
	m := scrape(t, srv, "/metrics")
	lintClean(t, m, "ufork_lock_wait_seconds", "ufork_sched_dispatch_wait_seconds")
	containsAll(t, "/metrics", m,
		`ufork_lock_wait_seconds_bucket{lock="`+global+`",`,
		`ufork_lock_wait_seconds_count{lock="`+global+`"}`,
		"ufork_sched_dispatch_wait_seconds_bucket{")
}

// TestServedOutputsDump: with a serve address, -trace and -metrics dump
// the served recorder and registry, so a file and an endpoint read the
// same plane.
func TestServedOutputsDump(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	out := telemetry.Outputs{Trace: filepath.Join(dir, "trace.json"), Metrics: filepath.Join(dir, "m.json")}
	pl, srv, err := out.Arm("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if pl.Flight != srv.Planes.Flight || pl.Metrics != srv.Planes.Metrics {
		t.Fatal("Arm built file planes beside the served ones")
	}
	if _, err := ForkHist(Env{Planes: pl}, 8); err != nil {
		t.Fatal(err)
	}
	if err := out.Write(pl); err != nil {
		t.Fatal(err)
	}

	var trace struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	readJSON(t, out.Trace, &trace)
	forkSpans := 0
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "X" && strings.HasPrefix(ev.Name, "fork:") {
			forkSpans++
		}
	}
	if forkSpans == 0 {
		t.Fatalf("-trace dump has no fork: spans among %d events", len(trace.TraceEvents))
	}
	var snap obs.Snapshot
	readJSON(t, out.Metrics, &snap)
	for name := range snap.Histograms {
		if strings.HasPrefix(name, "bench.forkhist.") {
			return
		}
	}
	t.Fatalf("-metrics dump has no bench.forkhist.* histogram: %v", snap.Histograms)
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s is not JSON: %v", path, err)
	}
}
