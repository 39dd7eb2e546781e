package telemetry

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"ufork/internal/core"
	"ufork/internal/kernel"
	"ufork/internal/model"
	"ufork/internal/obs"
	"ufork/internal/obs/causal"
	"ufork/internal/obs/flight"
	"ufork/internal/sim"
)

// TestHandlerErrorPaths is the table-driven error-path sweep: every
// endpoint must answer bad input with a clean 4xx and a diagnostic body,
// never a 200 that reads like a healthy-but-idle system, and never a 5xx.
func TestHandlerErrorPaths(t *testing.T) {
	h := testServer().Handler()
	cases := []struct {
		path     string
		status   int
		bodyFrag string
	}{
		{"/flight?n=bogus", http.StatusBadRequest, "bad n"},
		{"/memmap?frames=bogus", http.StatusBadRequest, "bad frames"},
		{"/memmap?frames=-3", http.StatusBadRequest, "bad frames"},
		{"/memmap?frames=1e3", http.StatusBadRequest, "bad frames"},
		{"/nonsense", http.StatusNotFound, "not found"},
		{"/locks/extra", http.StatusNotFound, "not found"},
		{"/traces", http.StatusConflict, "not armed"},
		{"/profile", http.StatusConflict, "not armed"},
		{"/healthz", http.StatusOK, `"planes"`},
		{"/metrics", http.StatusOK, "ufork_"},
		{"/locks", http.StatusOK, "["},
		{"/sched", http.StatusOK, "cores"},
		{"/procs", http.StatusOK, "["},
	}
	for _, c := range cases {
		res, body := get(t, h, c.path)
		if res.StatusCode != c.status {
			t.Errorf("GET %s = %d, want %d (body %q)", c.path, res.StatusCode, c.status, body)
		}
		if !strings.Contains(strings.ToLower(body), c.bodyFrag) {
			t.Errorf("GET %s body %q missing %q", c.path, body, c.bodyFrag)
		}
	}
}

// TestFlightEndpointNotArmed: a server without a recorder is a 409, not
// an empty success, and still serves /metrics; a fresh recorder, even one
// holding no events, serves.
func TestFlightEndpointNotArmed(t *testing.T) {
	s := New(obs.NewRegistry(), nil)
	res, body := get(t, s.Handler(), "/flight")
	if res.StatusCode != http.StatusConflict {
		t.Fatalf("unarmed /flight status = %d, want 409", res.StatusCode)
	}
	if !strings.Contains(body, "not armed") {
		t.Fatalf("unarmed /flight body = %q", body)
	}
	if res, _ := get(t, s.Handler(), "/metrics"); res.StatusCode != http.StatusOK {
		t.Fatalf("recorder-less /metrics status = %d, want 200", res.StatusCode)
	}
	s.Planes.Flight = flight.New(128)
	if res, _ := get(t, s.Handler(), "/flight"); res.StatusCode != http.StatusOK {
		t.Fatalf("fresh-recorder /flight status = %d, want 200", res.StatusCode)
	}
}

// TestTracesEndpointErrorPaths is the /traces table: an armed plane must
// answer bad query input with a clean 400 and serve both formats on good
// input — the unarmed 409 is covered by TestHandlerErrorPaths and
// TestTracesEndpointNotArmed.
func TestTracesEndpointErrorPaths(t *testing.T) {
	s := testServer()
	s.Planes.Causal = causal.New(0)
	cases := []struct {
		path     string
		status   int
		bodyFrag string
	}{
		{"/traces?k=bogus", http.StatusBadRequest, "bad k"},
		{"/traces?k=-1", http.StatusBadRequest, "bad k"},
		{"/traces?k=2.5", http.StatusBadRequest, "bad k"},
		{"/traces?format=xml", http.StatusBadRequest, "bad format"},
		{"/traces?format=text", http.StatusBadRequest, "bad format"},
		{"/traces", http.StatusOK, `"started"`},
		{"/traces?k=2", http.StatusOK, `"exemplars"`},
		{"/traces?format=json", http.StatusOK, `"groups"`},
		{"/traces?format=chrome", http.StatusOK, "traceEvents"},
	}
	for _, c := range cases {
		res, body := get(t, s.Handler(), c.path)
		if res.StatusCode != c.status {
			t.Errorf("GET %s = %d, want %d (body %q)", c.path, res.StatusCode, c.status, body)
		}
		if !strings.Contains(body, c.bodyFrag) {
			t.Errorf("GET %s body %q missing %q", c.path, body, c.bodyFrag)
		}
	}
}

// TestTracesEndpointNotArmed mirrors the flight recorder's contract: a
// server without a causal plane is a 409; a fresh plane, even one that
// never traced, serves.
func TestTracesEndpointNotArmed(t *testing.T) {
	s := testServer()
	res, body := get(t, s.Handler(), "/traces")
	if res.StatusCode != http.StatusConflict {
		t.Fatalf("unarmed /traces status = %d, want 409", res.StatusCode)
	}
	if !strings.Contains(body, "not armed") {
		t.Fatalf("unarmed /traces body = %q", body)
	}
	s.Planes.Causal = causal.New(0)
	if res, _ := get(t, s.Handler(), "/traces"); res.StatusCode != http.StatusOK {
		t.Fatalf("fresh-plane /traces status = %d, want 200", res.StatusCode)
	}
}

// TestLocksSchedEndpointsEmpty: untracked servers serve stable empty
// documents, not nulls.
func TestLocksSchedEndpointsEmpty(t *testing.T) {
	h := testServer().Handler()
	res, body := get(t, h, "/locks")
	if res.StatusCode != http.StatusOK || strings.TrimSpace(body) != "[]" {
		t.Fatalf("untracked /locks = %d %q, want 200 []", res.StatusCode, body)
	}
	var snap sim.SchedSnapshot
	_, body = get(t, h, "/sched")
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("bad /sched JSON: %v\n%s", err, body)
	}
	if snap.Cores != 0 || snap.PerCore == nil || len(snap.PerCore) != 0 {
		t.Fatalf("untracked /sched = %+v, want zero cores and empty per_core", snap)
	}
}

// TestLocksSchedEndpointsLive boots a real multicore kernel under the
// server, runs a fork-storm, and checks the whole contention plane end to
// end: /locks carries the named BKL meter, /sched carries per-core
// utilization, and /metrics grows lint-clean ufork_lock_*/ufork_sched_*
// families.
func TestLocksSchedEndpointsLive(t *testing.T) {
	s := testServer()
	k := kernel.New(kernel.Config{
		Machine:   model.UFork(2),
		Engine:    core.New(core.CopyOnPointerAccess),
		Isolation: kernel.IsolationFault,
		Frames:    1 << 14,
		Planes:    s.Planes,
	})
	if _, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		for i := 0; i < 2; i++ {
			if _, err := k.Fork(p, func(c *kernel.Proc) {
				for j := 0; j < 100; j++ {
					k.Getpid(c)
					c.Compute(200)
				}
			}); err != nil {
				t.Error(err)
				return
			}
		}
		for i := 0; i < 2; i++ {
			if _, _, err := k.Wait(p); err != nil {
				t.Error(err)
				return
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()

	var locks []sim.LockStat
	_, body := get(t, s.Handler(), "/locks")
	if err := json.Unmarshal([]byte(body), &locks); err != nil {
		t.Fatalf("bad /locks JSON: %v\n%s", err, body)
	}
	byName := map[string]sim.LockStat{}
	for _, l := range locks {
		byName[l.Name] = l
	}
	bkl, ok := byName["bkl"]
	if !ok {
		t.Fatalf("/locks missing the bkl meter: %s", body)
	}
	if bkl.Acquisitions == 0 || bkl.Contended == 0 || bkl.Site != "kernel.enter" {
		t.Fatalf("bkl lockstat = %+v, want contended acquisitions at kernel.enter", bkl)
	}
	for _, name := range []string{"proctable", "fdtable", "tmem"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("/locks missing shadow meter %q", name)
		}
	}

	var sched sim.SchedSnapshot
	_, body = get(t, s.Handler(), "/sched")
	if err := json.Unmarshal([]byte(body), &sched); err != nil {
		t.Fatalf("bad /sched JSON: %v\n%s", err, body)
	}
	if sched.Cores != 2 || len(sched.PerCore) != 2 || sched.HorizonNS == 0 {
		t.Fatalf("/sched = %+v, want two busy cores", sched)
	}
	if sched.DispatchWait.Count == 0 {
		t.Fatalf("/sched dispatch-wait has no samples: %+v", sched)
	}

	_, body = get(t, s.Handler(), "/metrics")
	for _, want := range []string{
		`ufork_lock_acquisitions_total{lock="bkl"}`,
		`ufork_lock_contended_total{lock="bkl"}`,
		`ufork_lock_waiters_high_water{lock="bkl"}`,
		`ufork_lock_wait_seconds_bucket{lock="bkl",le="`,
		`ufork_lock_wait_seconds_count{lock="bkl"}`,
		`ufork_lock_hold_seconds_sum{lock="bkl"}`,
		"ufork_sched_runq_depth_bucket{le=\"1\"}",
		"ufork_sched_dispatch_wait_seconds_count",
		`ufork_sched_core_busy_seconds_total{core="0"}`,
		`ufork_sched_core_utilization{core="1"}`,
		"ufork_sched_horizon_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}
	if errs := Lint(strings.NewReader(body)); len(errs) != 0 {
		t.Fatalf("/metrics with lock/sched families fails lint: %v", errs)
	}
}
