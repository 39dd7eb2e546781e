package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ufork/internal/kernel"
	"ufork/internal/obs"
	"ufork/internal/obs/flight"
	"ufork/internal/obs/memmap"
)

// testServer builds a Server over private obs + flight state with a few
// instruments populated, so endpoint tests never touch process globals.
func testServer() *Server {
	reg := obs.NewRegistry()
	reg.Counter("syscall.fork").Add(4)
	reg.Gauge("frames.allocated").Set(128)
	h := reg.Histogram("fork.phase.reserve")
	h.Observe(120)
	h.Observe(340)
	fr := flight.New(128)
	fr.Emit(100, 1, flight.KindForkStart, 0, 0, 0)
	fr.Emit(900, 1, flight.KindForkDone, 2, 8, 3)
	return New(reg, fr)
}

func get(t *testing.T, h http.Handler, path string) (*http.Response, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	res := rec.Result()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res, string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	h := testServer().Handler()
	res, body := get(t, h, "/metrics")
	if ct := res.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type = %q", ct)
	}
	for _, want := range []string{
		"ufork_syscall_fork_total 4",
		"ufork_frames_allocated 128",
		"ufork_fork_phase_reserve_ns_count 2",
		"ufork_flight_events_total 2",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("missing %q in:\n%s", want, body)
		}
	}
	if errs := Lint(strings.NewReader(body)); len(errs) != 0 {
		t.Fatalf("live /metrics fails lint: %v", errs)
	}
}

func TestProcsEndpointEmpty(t *testing.T) {
	_, body := get(t, testServer().Handler(), "/procs")
	var procs []kernel.ProcStat
	if err := json.Unmarshal([]byte(body), &procs); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if procs == nil || len(procs) != 0 {
		t.Fatalf("untracked /procs = %v, want empty array (not null)", procs)
	}
	if !strings.HasPrefix(strings.TrimSpace(body), "[") {
		t.Fatalf("procs body is not a JSON array:\n%s", body)
	}
}

func TestProcsEndpointTracked(t *testing.T) {
	s := testServer()
	s.Planes.Live.Store(&kernel.Kernel{}) // quiescent kernel: no procs, but tracked
	_, body := get(t, s.Handler(), "/procs")
	var procs []kernel.ProcStat
	if err := json.Unmarshal([]byte(body), &procs); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(procs) != 0 {
		t.Fatalf("empty kernel exposes %d procs", len(procs))
	}
}

func TestFlightEndpointText(t *testing.T) {
	res, body := get(t, testServer().Handler(), "/flight?n=1")
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(body, "flight recorder: last 1 of 2 events") {
		t.Fatalf("flight text wrong:\n%s", body)
	}
	if strings.Contains(body, "fork-start") || !strings.Contains(body, "fork-done") {
		t.Fatalf("?n=1 must keep only the newest event:\n%s", body)
	}
}

func TestFlightEndpointChrome(t *testing.T) {
	res, body := get(t, testServer().Handler(), "/flight?format=chrome")
	if ct := res.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &trace); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, body)
	}
	if len(trace.TraceEvents) != 2 {
		t.Fatalf("trace has %d events, want 2", len(trace.TraceEvents))
	}
}

func TestFlightEndpointBadN(t *testing.T) {
	res, _ := get(t, testServer().Handler(), "/flight?n=bogus")
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", res.StatusCode)
	}
}

func TestIndexAndNotFound(t *testing.T) {
	h := testServer().Handler()
	res, body := get(t, h, "/")
	if res.StatusCode != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Fatalf("index broken: %d\n%s", res.StatusCode, body)
	}
	res, _ = get(t, h, "/nonsense")
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path status = %d, want 404", res.StatusCode)
	}
}

// TestMemmapEndpoint populates the server's provenance plane and checks
// the /memmap JSON: fork-tree nodes with RSS/PSS/USS, child links, origin
// breakdown, and the bounded frame-lineage sample.
func TestMemmapEndpoint(t *testing.T) {
	s := testServer()
	s.Planes.Memmap.OnSpawn(1, 0, "init", 0)
	s.Planes.Memmap.OnSpawn(2, 1, "child", 1)
	s.Planes.Memmap.OnAlloc(5, 1, 0, memmap.OriginImage)
	s.Planes.Memmap.OnMap(1, 5) // shared by both after fork
	s.Planes.Memmap.OnMap(2, 5)
	s.Planes.Memmap.OnAlloc(6, 2, 1, memmap.OriginCoW)
	s.Planes.Memmap.OnCopy(6, 5)
	s.Planes.Memmap.OnMap(2, 6)

	res, body := get(t, s.Handler(), "/memmap")
	if ct := res.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var snap memmap.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if snap.LiveFrames != 2 {
		t.Fatalf("live_frames = %d, want 2", snap.LiveFrames)
	}
	if snap.LiveByOrigin["image"] != 1 || snap.LiveByOrigin["cow"] != 1 {
		t.Fatalf("live_by_origin = %v", snap.LiveByOrigin)
	}
	if len(snap.Procs) != 2 || snap.Procs[0].PID != 1 || snap.Procs[1].PID != 2 {
		t.Fatalf("procs = %+v", snap.Procs)
	}
	pg := uint64(4096)
	if root := snap.Procs[0]; root.RSSBytes != pg || root.PSSBytes != pg/2 || root.USSBytes != 0 {
		t.Fatalf("root rss/pss/uss = %d/%d/%d", root.RSSBytes, root.PSSBytes, root.USSBytes)
	}
	if child := snap.Procs[1]; child.RSSBytes != 2*pg || child.PSSBytes != pg+pg/2 || child.USSBytes != pg {
		t.Fatalf("child rss/pss/uss = %d/%d/%d", child.RSSBytes, child.PSSBytes, child.USSBytes)
	}
	if len(snap.Procs[0].Children) != 1 || snap.Procs[0].Children[0] != 2 {
		t.Fatalf("root children = %v", snap.Procs[0].Children)
	}
	found := false
	for _, f := range snap.Frames {
		if f.PFN == 6 && f.Origin == "cow" && f.Parent == 5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("frame lineage missing pfn 6 ← 5 (cow): %+v", snap.Frames)
	}

	// ?frames=0 omits the lineage sample; a bad value is a 400.
	_, body = get(t, s.Handler(), "/memmap?frames=0")
	snap = memmap.Snapshot{}
	if err := json.Unmarshal([]byte(body), &snap); err != nil || len(snap.Frames) != 0 {
		t.Fatalf("?frames=0 still samples frames: %v %+v", err, snap.Frames)
	}
	if res, _ := get(t, s.Handler(), "/memmap?frames=bogus"); res.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad frames param status = %d, want 400", res.StatusCode)
	}
}

// TestMemmapEndpointEmpty: an idle plane serves a well-formed, non-null
// document.
func TestMemmapEndpointEmpty(t *testing.T) {
	_, body := get(t, testServer().Handler(), "/memmap")
	var snap struct {
		Procs []memmap.ProcNode `json:"procs"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if snap.Procs == nil || !strings.Contains(body, `"procs": []`) {
		t.Fatalf("idle /memmap procs must be an empty array, not null:\n%s", body)
	}
}

// TestMetricsIncludesMemmap: a populated plane surfaces through /metrics
// as the ufork_memmap_* families, and the result still lints clean.
func TestMetricsIncludesMemmap(t *testing.T) {
	s := testServer()
	s.Planes.Memmap.OnSpawn(1, 0, "init", 0)
	s.Planes.Memmap.OnAlloc(9, 1, 0, memmap.OriginEager)
	s.Planes.Memmap.OnMap(1, 9)
	_, body := get(t, s.Handler(), "/metrics")
	for _, want := range []string{
		"ufork_memmap_frames_live 1",
		`ufork_memmap_frames_by_origin{origin="eager"} 1`,
		`ufork_memmap_proc_rss_bytes{pid="1",proc="init"} 4096`,
		`ufork_memmap_proc_uss_bytes{pid="1",proc="init"} 4096`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("missing %q in:\n%s", want, body)
		}
	}
	if errs := Lint(strings.NewReader(body)); len(errs) != 0 {
		t.Fatalf("/metrics with memmap families fails lint: %v", errs)
	}
}

// TestCloseReleasesAddr: binding an address twice must fail with an error
// returned to the caller (not a background panic), and Close must release
// the address for rebinding.
func TestCloseReleasesAddr(t *testing.T) {
	s1, err := Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Start(s1.Addr); err == nil {
		t.Fatalf("second bind of %s succeeded, want address-in-use error", s1.Addr)
	} else if !strings.Contains(err.Error(), s1.Addr) {
		t.Fatalf("bind error does not name the address: %v", err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Start(s1.Addr)
	if err != nil {
		t.Fatalf("rebind after Close: %v", err)
	}
	defer s2.Close()
	resp, err := http.Get("http://" + s2.Addr + "/metrics")
	if err != nil {
		t.Fatalf("scrape after rebind: %v", err)
	}
	resp.Body.Close()
}

// TestStartServesLive binds a real listener on :0 and scrapes it — the
// exact path the -serve flag takes, minus the simulation.
func TestStartServesLive(t *testing.T) {
	s, err := Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pl := s.Planes
	if pl.Metrics == nil || pl.Flight == nil || pl.Causal == nil || pl.Profile == nil || pl.Live == nil {
		t.Fatalf("Start must arm every plane it serves: %+v", pl)
	}
	resp, err := http.Get("http://" + s.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if errs := Lint(resp.Body); len(errs) != 0 {
		t.Fatalf("live scrape fails lint: %v", errs)
	}
}
