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

// Server serves the telemetry endpoints. Construct with New; all handlers
// read only atomic state, so serving concurrently with a running
// simulation is safe.
type Server struct {
	reg    *obs.Registry
	fr     *flight.Recorder
	pl     *memmap.Plane
	causal *causal.Plane
	prof   *profile.Plane
	locks  *sim.LockTable
	cur    atomic.Pointer[kernel.Kernel]
	ln     net.Listener

	// Addr is the bound listen address, set by Start (useful with ":0").
	Addr string
}

// New creates a server over the given metrics registry and flight
// recorder. The server owns a memory-provenance plane; Track arms it on
// each kernel it adopts.
func New(reg *obs.Registry, fr *flight.Recorder) *Server {
	pl := memmap.New()
	pl.Enable()
	// The causal and profiler planes start disabled — Start enables them
	// when the live telemetry plane is armed, so embedded/test servers
	// keep a genuine "not armed" /traces and /profile state.
	return &Server{reg: reg, fr: fr, pl: pl, causal: causal.New(0),
		prof: profile.New(0), locks: sim.NewLockTable()}
}

// Track makes k the kernel /procs and per-proc /metrics families reflect,
// and arms the provenance plane on it — kernels register through
// kernel.TrackNew at construction, before their first frame allocation,
// so the plane's ledger is complete. Installed by Start so bench runs
// that boot many kernels always expose the current one.
func (s *Server) Track(k *kernel.Kernel) {
	s.cur.Store(k)
	if k != nil && k.Mem != nil {
		k.ArmMemmap(s.pl)
	}
	if k != nil && k.Eng != nil {
		k.ArmLockstat(s.locks)
	}
	if k != nil {
		k.ArmCausal(s.causal)
		k.ArmProfile(s.prof)
	}
}

// Profile returns the server's profiler plane. The bench -profile flag
// writes its folded dump from here when the live plane is serving, so a
// single plane feeds both the output file and /profile.
func (s *Server) Profile() *profile.Plane { return s.prof }

func (s *Server) procs() []kernel.ProcStat {
	if k := s.cur.Load(); k != nil {
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
		Snap:          s.reg.Snapshot(),
		Hists:         s.reg.Histograms(),
		Procs:         s.procs(),
		FlightSeq:     s.fr.Seq(),
		FlightDropped: s.fr.Dropped(),
	}
	if s.pl.On() {
		snap := s.pl.Snapshot(0)
		e.Memmap = &snap
	}
	if s.causal.On() || s.causal.Started() > 0 {
		snap := s.causal.Snapshot(0)
		e.Traces = &snap
	}
	if k := s.cur.Load(); k != nil {
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
	if k := s.cur.Load(); k != nil {
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
	if k := s.cur.Load(); k != nil {
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
	snap := s.pl.Snapshot(maxFrames)
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
	// A recorder that was never armed and holds no events has nothing to
	// dump; make that a clean client-visible condition instead of an
	// empty 200 that reads like a healthy-but-idle system.
	if !s.fr.On() && s.fr.Seq() == 0 {
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
		_ = kernel.WriteChromeTrace(w, s.fr.Tail(n))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = s.fr.WriteText(w, n)
}

// handleTraces serves the causal plane's exemplar reservoirs: the K
// slowest finished traces per group as JSON (default) or Chrome
// trace_event format (?format=chrome), each with critical-path segments,
// flow edges, and the classifier's root-cause verdict.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	// Like /flight: a plane that was never enabled and saw no traces is a
	// clean client-visible condition, not a healthy-but-idle empty 200.
	if !s.causal.On() && s.causal.Started() == 0 {
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
		_ = s.causal.WriteChromeTrace(w, k)
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.causal.Snapshot(k))
	default:
		http.Error(w, "bad format", http.StatusBadRequest)
	}
}

// handleProfile serves the virtual-time sampling profile: folded-stack
// text (default; flamegraph.pl input), a gzip pprof profile.proto blob
// (?format=pprof; `go tool pprof`-parseable), or a top-N table
// (?format=top&n=20).
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	// Like /flight and /traces: a plane that was never armed and holds
	// no samples is a clean client-visible condition, not a
	// healthy-but-idle empty 200.
	if !s.prof.On() && s.prof.Samples() == 0 {
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
	snap := s.prof.Snapshot()
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
// armed and whether a kernel is tracked. CI smoke jobs poll it instead
// of sleeping a fixed interval before the first scrape.
type healthz struct {
	Tracked bool            `json:"tracked"`
	Planes  map[string]bool `json:"planes"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	k := s.cur.Load()
	h := healthz{
		Tracked: k != nil,
		Planes: map[string]bool{
			"flight":   s.fr.On(),
			"memmap":   s.pl.On(),
			"lockstat": k != nil && k.Locks != nil,
			"causal":   s.causal.On(),
			"profile":  s.prof.On(),
		},
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(h)
}

// Start arms the live telemetry plane on addr: enables the obs layer and
// the default flight recorder, installs kernel tracking, binds the
// listener (failing fast on a bad address), and serves in the background
// for the life of the process. This is what the -serve flag calls.
func Start(addr string) (*Server, error) {
	obs.Enable()
	flight.Default.Enable()
	s := New(obs.Default, flight.Default)
	s.causal.Enable()
	s.prof.Enable()
	kernel.TrackNew = s.Track
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
