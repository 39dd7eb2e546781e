// Package telemetry is the live introspection plane: an HTTP server that
// exposes the obs registry as Prometheus text exposition, per-μprocess
// accounting as JSON, the flight recorder as text or Chrome trace, and
// net/http/pprof — while the simulation is still running. Production
// systems are scraped live and debugged from flight dumps, not stdout
// summaries; this is that surface for the simulated kernels.
package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"

	"ufork/internal/kernel"
	"ufork/internal/obs"
	"ufork/internal/obs/causal"
	"ufork/internal/obs/flight"
	"ufork/internal/obs/memmap"
	"ufork/internal/obs/profile"
	"ufork/internal/sim"
)

// Server serves the telemetry endpoints over one kernel.Planes value.
// All handlers read only atomic state, so serving concurrently with a
// running simulation is safe.
type Server struct {
	// Planes is what the server reads. Kernels booted with it
	// (kernel.Config.Planes) record into the served planes, and the
	// latest one becomes the kernel /procs, /locks and /sched reflect.
	Planes kernel.Planes
	ln     net.Listener

	// Addr is the bound listen address, set by Start (useful with ":0").
	Addr string
}

// New creates a server over the given metrics registry and flight
// recorder (either may be nil). The server adds a memory-provenance
// plane, a lock table and a live-kernel slot, and leaves the causal and
// profiler planes nil — Start fills them — so embedded and test servers
// keep a genuine "not armed" /traces and /profile state.
func New(reg *obs.Registry, fr *flight.Recorder) *Server {
	return &Server{Planes: kernel.Planes{
		Metrics: reg,
		Flight:  fr,
		Memmap:  memmap.New(),
		Locks:   sim.NewLockTable(),
		Live:    new(atomic.Pointer[kernel.Kernel]),
	}}
}

func (s *Server) procs() []kernel.ProcStat {
	if k := s.Planes.Live.Load(); k != nil {
		return k.ProcStats()
	}
	return nil
}

// Handler returns the telemetry mux: /metrics, /procs, /flight,
// /debug/pprof/*, and an index on /.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/procs", s.handleProcs)
	mux.HandleFunc("/memmap", s.handleMemmap)
	mux.HandleFunc("/locks", s.handleLocks)
	mux.HandleFunc("/sched", s.handleSched)
	mux.HandleFunc("/flight", s.handleFlight)
	mux.HandleFunc("/traces", s.handleTraces)
	mux.HandleFunc("/profile", s.handleProfile)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `ufork telemetry
  /metrics        Prometheus text exposition (obs registry + per-proc accounting)
  /procs          per-μprocess accounting, JSON
  /memmap         fork-tree memory provenance: per-node RSS/PSS/USS, frame lineage (?frames=256)
  /locks          lockstat: per-lock acquisitions, contention, wait/hold summaries, JSON
  /sched          scheduler telemetry: run-queue depth, dispatch latency, core utilization, JSON
  /flight         flight-recorder tail (?n=64, ?format=text|chrome)
  /traces         causal-trace exemplars: K slowest traces per group with critical-path segments (?k=N, ?format=json|chrome)
  /profile        virtual-time sampling profile, stack-attributed (?format=folded|pprof|top, ?n=20)
  /healthz        plane arming status, JSON (which planes are armed, whether a kernel is tracked)
  /debug/pprof/   host-process profiling
`)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	e := Exposition{
		Snap:          s.Planes.Metrics.Snapshot(),
		Hists:         s.Planes.Metrics.Histograms(),
		Procs:         s.procs(),
		FlightSeq:     s.Planes.Flight.Seq(),
		FlightDropped: s.Planes.Flight.Dropped(),
	}
	if s.Planes.Memmap != nil {
		snap := s.Planes.Memmap.Snapshot(0)
		e.Memmap = &snap
	}
	if s.Planes.Causal != nil {
		snap := s.Planes.Causal.Snapshot(0)
		e.Traces = &snap
	}
	if k := s.Planes.Live.Load(); k != nil {
		if k.Locks != nil {
			e.Locks = k.Locks.Meters()
		}
		if k.Eng != nil {
			e.Sched = k.Eng.Sched()
		}
	}
	_ = WriteMetrics(w, e)
}

// handleLocks serves the lockstat snapshot of the tracked kernel. An
// untracked or unarmed server serves an empty array — the endpoint shape
// is stable either way.
func (s *Server) handleLocks(w http.ResponseWriter, _ *http.Request) {
	var stats []sim.LockStat
	if k := s.Planes.Live.Load(); k != nil {
		stats = k.Lockstat()
	}
	if stats == nil {
		stats = []sim.LockStat{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(stats)
}

// handleSched serves the scheduler-telemetry snapshot of the tracked
// kernel. An untracked or unarmed server serves an empty document with
// zero cores.
func (s *Server) handleSched(w http.ResponseWriter, _ *http.Request) {
	snap := &sim.SchedSnapshot{PerCore: []sim.CoreUtil{}}
	if k := s.Planes.Live.Load(); k != nil {
		if ks := k.SchedSnapshot(); ks != nil {
			snap = ks
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(snap)
}

// handleMemmap serves the provenance plane's fork-tree snapshot: live
// frames by origin, per-μprocess RSS/PSS/USS with child links, and a
// bounded per-frame lineage sample (?frames=N, default 256).
func (s *Server) handleMemmap(w http.ResponseWriter, r *http.Request) {
	maxFrames := 256
	if q := r.URL.Query().Get("frames"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			http.Error(w, "bad frames", http.StatusBadRequest)
			return
		}
		maxFrames = v
	}
	snap := s.Planes.Memmap.Snapshot(maxFrames)
	if snap.Procs == nil {
		snap.Procs = []memmap.ProcNode{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(snap)
}

func (s *Server) handleProcs(w http.ResponseWriter, _ *http.Request) {
	procs := s.procs()
	if procs == nil {
		procs = []kernel.ProcStat{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(procs)
}

func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	// A server without a recorder has nothing to dump; make that a clean
	// client-visible condition instead of an empty 200 that reads like a
	// healthy-but-idle system.
	if s.Planes.Flight == nil {
		http.Error(w, "flight recorder not armed", http.StatusConflict)
		return
	}
	n := flight.DumpTail
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		n = v
	}
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		_ = kernel.WriteChromeTrace(w, s.Planes.Flight.Tail(n))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = s.Planes.Flight.WriteText(w, n)
}

// handleTraces serves the causal plane's exemplar reservoirs: the K
// slowest finished traces per group as JSON (default) or Chrome
// trace_event format (?format=chrome), each with critical-path segments,
// flow edges, and the classifier's root-cause verdict.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	// Like /flight: a server without the plane is a clean client-visible
	// condition, not a healthy-but-idle empty 200.
	if s.Planes.Causal == nil {
		http.Error(w, "causal tracing not armed", http.StatusConflict)
		return
	}
	k := 0 // all retained exemplars
	if q := r.URL.Query().Get("k"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			http.Error(w, "bad k", http.StatusBadRequest)
			return
		}
		k = v
	}
	switch r.URL.Query().Get("format") {
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		_ = s.Planes.Causal.WriteChromeTrace(w, k)
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.Planes.Causal.Snapshot(k))
	default:
		http.Error(w, "bad format", http.StatusBadRequest)
	}
}

// handleProfile serves the virtual-time sampling profile: folded-stack
// text (default; flamegraph.pl input), a gzip pprof profile.proto blob
// (?format=pprof; `go tool pprof`-parseable), or a top-N table
// (?format=top&n=20).
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	// Like /flight and /traces: a server without the plane is a clean
	// client-visible condition, not a healthy-but-idle empty 200.
	if s.Planes.Profile == nil {
		http.Error(w, "profiler not armed", http.StatusConflict)
		return
	}
	n := 20
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		n = v
	}
	snap := s.Planes.Profile.Snapshot()
	switch r.URL.Query().Get("format") {
	case "", "folded":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = snap.WriteFolded(w)
	case "pprof":
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", `attachment; filename="profile.pb.gz"`)
		_ = snap.WritePprof(w)
	case "top":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, snap.RenderTop(n))
	default:
		http.Error(w, "bad format", http.StatusBadRequest)
	}
}

// healthz is the /healthz document: which observability planes are
// armed and whether a kernel is tracked. A client polls it instead of
// sleeping a fixed interval before its first scrape.
type healthz struct {
	Tracked bool            `json:"tracked"`
	Planes  map[string]bool `json:"planes"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	k := s.Planes.Live.Load()
	h := healthz{
		Tracked: k != nil,
		Planes: map[string]bool{
			"flight":   s.Planes.Flight != nil,
			"memmap":   s.Planes.Memmap != nil,
			"lockstat": k != nil && k.Locks != nil,
			"causal":   s.Planes.Causal != nil,
			"profile":  s.Planes.Profile != nil,
		},
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(h)
}

// Start arms the live telemetry plane on addr: a fresh registry, a flight
// recorder, and causal and profiler planes. It
// binds the listener (failing fast on a bad address) and serves in the
// background for the life of the process. Boot kernels with the returned
// server's Planes to serve them; this is what the -serve flag calls.
func Start(addr string) (*Server, error) {
	s := New(obs.NewRegistry(), flight.New(flight.DefaultEvents))
	s.Planes.Causal = causal.New(0)
	s.Planes.Profile = profile.New(0)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s.Addr = ln.Addr().String()
	s.ln = ln
	go func() { _ = http.Serve(ln, s.Handler()) }()
	return s, nil
}

// Close releases the server's listener so its address can be rebound.
// In-flight requests race the close as usual for http.Serve; tests that
// recycle fixed ports must Close the previous server first.
func (s *Server) Close() error {
	if s.ln == nil {
		return nil
	}
	return s.ln.Close()
}
