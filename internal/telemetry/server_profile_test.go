package telemetry

import (
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ufork/internal/core"
	"ufork/internal/kernel"
	"ufork/internal/model"
	"ufork/internal/obs/causal"
	"ufork/internal/obs/profile"
)

// TestProfileEndpointErrorPaths is the /profile format table: an armed
// plane answers bad query input with a clean 400 and serves all three
// formats on good input.
func TestProfileEndpointErrorPaths(t *testing.T) {
	s := testServer()
	s.Planes.Profile = profile.New(0)
	cases := []struct {
		path     string
		status   int
		bodyFrag string
	}{
		{"/profile?format=xml", http.StatusBadRequest, "bad format"},
		{"/profile?format=flamegraph", http.StatusBadRequest, "bad format"},
		{"/profile?format=top&n=bogus", http.StatusBadRequest, "bad n"},
		{"/profile?format=top&n=-1", http.StatusBadRequest, "bad n"},
		{"/profile", http.StatusOK, ""},
		{"/profile?format=folded", http.StatusOK, ""},
		{"/profile?format=top", http.StatusOK, "no samples"},
	}
	for _, c := range cases {
		res, body := get(t, s.Handler(), c.path)
		if res.StatusCode != c.status {
			t.Errorf("GET %s = %d, want %d (body %q)", c.path, res.StatusCode, c.status, body)
		}
		if c.bodyFrag != "" && !strings.Contains(body, c.bodyFrag) {
			t.Errorf("GET %s body %q missing %q", c.path, body, c.bodyFrag)
		}
	}
}

// TestProfileEndpointNotArmed mirrors the flight/traces contract: a
// server without a profiler is a 409; a fresh plane, even one holding no
// samples, serves.
func TestProfileEndpointNotArmed(t *testing.T) {
	s := testServer()
	res, body := get(t, s.Handler(), "/profile")
	if res.StatusCode != http.StatusConflict {
		t.Fatalf("unarmed /profile status = %d, want 409", res.StatusCode)
	}
	if !strings.Contains(body, "not armed") {
		t.Fatalf("unarmed /profile body = %q", body)
	}
	s.Planes.Profile = profile.New(0)
	if res, _ := get(t, s.Handler(), "/profile"); res.StatusCode != http.StatusOK {
		t.Fatalf("fresh-plane /profile status = %d, want 200", res.StatusCode)
	}
}

// trackedForkKernel boots a multicore kernel armed with the server's
// planes and runs a small fork storm so every armed plane has data.
func trackedForkKernel(t *testing.T, s *Server) *kernel.Kernel {
	t.Helper()
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
				for j := 0; j < 50; j++ {
					k.Getpid(c)
					c.Compute(300)
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
	return k
}

// TestProfileEndpointLive: a tracked fork-storm kernel produces a
// folded profile with fork-phase stacks, and the pprof blob is a valid
// gzip stream with protobuf content.
func TestProfileEndpointLive(t *testing.T) {
	s := testServer()
	s.Planes.Profile = profile.New(0)
	trackedForkKernel(t, s)

	_, folded := get(t, s.Handler(), "/profile?format=folded")
	if !strings.Contains(folded, "phase:fork:") {
		t.Fatalf("folded profile has no fork-phase stacks:\n%s", folded)
	}
	if !strings.Contains(folded, "proc:hello[") {
		t.Fatalf("folded profile has no proc frames:\n%s", folded)
	}

	_, top := get(t, s.Handler(), "/profile?format=top&n=5")
	if !strings.Contains(top, "top virtual-time stacks") {
		t.Fatalf("top table missing header:\n%s", top)
	}

	// Raw-body fetch for the binary blob: get() reads strings.
	req := httptest.NewRequest("GET", "/profile?format=pprof", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("pprof fetch = %d", rec.Code)
	}
	zr, err := gzip.NewReader(rec.Body)
	if err != nil {
		t.Fatalf("pprof blob is not gzip: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("pprof gunzip: %v", err)
	}
	if len(raw) == 0 || !strings.Contains(string(raw), "phase:fork:") {
		t.Fatalf("decoded pprof proto missing fork-phase strings (%d bytes)", len(raw))
	}
}

// TestHealthzEndpoint: the document flips as planes arm and a kernel is
// tracked.
func TestHealthzEndpoint(t *testing.T) {
	s := testServer()
	parse := func() healthz {
		t.Helper()
		_, body := get(t, s.Handler(), "/healthz")
		var h healthz
		if err := json.Unmarshal([]byte(body), &h); err != nil {
			t.Fatalf("bad /healthz JSON: %v\n%s", err, body)
		}
		return h
	}
	h := parse()
	if h.Tracked || h.Planes["causal"] || h.Planes["profile"] || h.Planes["lockstat"] {
		t.Fatalf("fresh server healthz = %+v, want untracked with causal/profile/lockstat off", h)
	}
	if !h.Planes["memmap"] {
		t.Fatalf("memmap plane should be armed at construction: %+v", h)
	}
	s.Planes.Causal = causal.New(0)
	s.Planes.Profile = profile.New(0)
	trackedForkKernel(t, s)
	h = parse()
	if !h.Tracked || !h.Planes["causal"] || !h.Planes["profile"] || !h.Planes["lockstat"] {
		t.Fatalf("tracked server healthz = %+v, want all planes armed", h)
	}
}
