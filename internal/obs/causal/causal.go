// Package causal implements the request-tracing plane: a trace ID is
// minted at each request/op origin (a YCSB op issue, an httpd driver
// request, a kvstore BGSAVE cycle), carried through the kernel across
// fork parent→child edges, pipe writer→reader handoffs, and signal
// delivery, and accumulates per-trace critical-path segments reusing the
// delay taxonomy the sim engine already keeps (run, runnable, lock-wait
// per site, fault-service per copy-mode, pipe/net/child block).
//
// Where the flight recorder answers "what happened lately" and lockstat
// answers "which lock is hot in aggregate", this plane answers "why was
// THIS op slow": every finished trace knows exactly where its virtual
// time went, segment durations tile the op's latency with no gap or
// overlap (the same exact-partition identity the delay taxonomy proves
// against task lifetime), and a bounded reservoir keeps the K slowest
// complete traces per group so an SLO breach ships its own exemplars.
//
// Design constraints, in order:
//
//  1. Zero cost when off. A kernel without the plane holds a nil one and
//     pays one nil check per hook; Begin and Span.Active are nil-safe,
//     and the nil path is pinned ≤5 ns by the benchmark beside flight's.
//  2. No virtual-time perturbation. Arming the plane never advances a
//     clock, so goldens stay byte-identical with tracing always on.
//  3. Exact attribution. Segments are per-bucket deltas of the owning
//     task's delay counters between checkpoints; their sum over a root
//     span equals the op's recorded latency exactly, by construction.
//  4. Bounded memory. Live traces die with their root span; finished
//     traces survive only through the per-group K-slowest reservoir.
package causal

import (
	"sync"

	"ufork/internal/sim"
)

// TraceID identifies one trace. Zero is "no trace" (the pipe-stamp and
// signal-carriage null value); the plane mints IDs from 1.
type TraceID uint64

// EdgeKind classifies one causal handoff between μprocesses.
type EdgeKind uint8

// Causal edge kinds: a fork parent→child, a pipe writer→reader handoff,
// and a signal sender→receiver delivery.
const (
	EdgeFork EdgeKind = iota
	EdgePipe
	EdgeSignal
	NumEdgeKinds
)

var edgeNames = [NumEdgeKinds]string{"fork", "pipe", "signal"}

func (e EdgeKind) String() string {
	if int(e) < len(edgeNames) {
		return edgeNames[e]
	}
	return "?"
}

// bucketNames are the default segment labels, one per delay-taxonomy
// bucket. Kernel hooks refine them in place: lock-wait deltas become
// "lock:<site>", blocked deltas "block:<cause>", and the fault window's
// unattributed deltas "fault:<copy-mode>".
var bucketNames = [sim.NumDelayKinds]string{
	"run", "runnable", "blocked", "latency", "lock-wait",
}

// defaultLabel reports whether label is an unrefined bucket name (the
// relabel candidates inside a fault window — site-labeled lock:*/block:*
// segments a nested hook already attributed are left alone).
func defaultLabel(label string) bool {
	for _, n := range bucketNames {
		if label == n {
			return true
		}
	}
	return false
}

// Segment is one critical-path interval of a span: a contiguous slice of
// the span's virtual time attributed to one cause. Segments tile the
// span exactly — starts are cumulative and durations sum to the span's.
type Segment struct {
	Label   string `json:"label"`
	StartNS uint64 `json:"start_ns"`
	DurNS   uint64 `json:"dur_ns"`
}

// Edge is one recorded causal handoff.
type Edge struct {
	Kind    EdgeKind
	FromPID int32
	ToPID   int32
	At      sim.Time
}

// Span is one μprocess's participation in a trace: the root span is the
// origin op itself; forked children, pipe readers, and signal targets
// join with their own spans. All span mutation happens on the simulation
// goroutine; a span becomes immutable when its trace finishes.
type Span struct {
	tr    *Trace
	PID   int32
	Proc  string
	Start sim.Time
	End   sim.Time
	Segs  []Segment
	root  bool

	// lastNow/lastDel are the checkpoint cursor: the task clock and delay
	// snapshot the last flush ran at. Per-bucket deltas against lastDel
	// tile [lastNow, now] exactly, which is what makes segment sums equal
	// elapsed time with no residue.
	lastNow sim.Time
	lastDel [sim.NumDelayKinds]sim.Time

	// fence blocks segment merging across a Mark boundary, so a fault
	// window's relabel can never bleed into pre-window time.
	fence  int
	closed bool
}

// Trace is one causal tree: a root span plus every span that joined via
// a fork, pipe, or signal edge. Finished traces are immutable.
type Trace struct {
	ID    TraceID
	Group string
	Op    string
	Start sim.Time
	End   sim.Time
	Spans []*Span // Spans[0] is the root
	Edges []Edge

	// Cause is the classifier verdict: the dominant merged segment of the
	// root span and its share of the op latency.
	Cause     string
	CauseFrac float64
}

// Dur returns the trace's root-span duration — the op latency.
func (tr *Trace) Dur() sim.Time { return tr.End - tr.Start }

// DefaultK is the exemplar reservoir depth: slow-trace capture wants the
// worst handful per group, not a corpus.
const DefaultK = 5

// Plane is the trace-context plane. Construct with New; arm per kernel
// through kernel.Planes. Structural operations (Begin/Join/Adopt/Edge/
// finish/Snapshot) lock the plane mutex because the telemetry server
// reads counters and finished traces from an HTTP goroutine; span
// checkpoints are lock-free, touched only by the owning task.
type Plane struct {
	mu       sync.Mutex
	nextID   uint64
	started  uint64
	finished uint64
	edges    [NumEdgeKinds]uint64
	live     map[TraceID]*Trace
	groups   map[string][]*Trace // K-slowest finished traces per group
	k        int
}

// New creates a plane keeping the k slowest complete traces per group
// (k <= 0 selects DefaultK). It traces from the moment it exists.
func New(k int) *Plane {
	if k <= 0 {
		k = DefaultK
	}
	return &Plane{
		live:   make(map[TraceID]*Trace),
		groups: make(map[string][]*Trace),
		k:      k,
	}
}

// Started returns the number of traces ever begun.
func (pl *Plane) Started() uint64 {
	if pl == nil {
		return 0
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.started
}

// Reset drops all live and finished traces and restarts the counters.
func (pl *Plane) Reset() {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.nextID, pl.started, pl.finished = 0, 0, 0
	pl.edges = [NumEdgeKinds]uint64{}
	pl.live = make(map[TraceID]*Trace)
	pl.groups = make(map[string][]*Trace)
}

// newSpan builds a span with its checkpoint cursor primed at (now,
// delays), so the first flush attributes only time after the join.
func newSpan(tr *Trace, pid int32, proc string, root bool, now sim.Time, delays [sim.NumDelayKinds]sim.Time) *Span {
	return &Span{tr: tr, PID: pid, Proc: proc, Start: now, root: root, lastNow: now, lastDel: delays}
}

// Begin mints a trace and its root span for the op starting now on pid.
// Returns nil on a nil plane.
func (pl *Plane) Begin(group, op string, pid int32, proc string, now sim.Time, delays [sim.NumDelayKinds]sim.Time) *Span {
	if pl == nil {
		return nil
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.nextID++
	pl.started++
	tr := &Trace{ID: TraceID(pl.nextID), Group: group, Op: op, Start: now, End: now - 1}
	s := newSpan(tr, pid, proc, true, now, delays)
	tr.Spans = append(tr.Spans, s)
	pl.live[tr.ID] = tr
	return s
}

// Join attaches a new span for pid to parent's trace (a fork child or
// signal target entering the causal tree) and records the edge. Returns
// nil when parent is nil or its trace already finished.
func (pl *Plane) Join(parent *Span, kind EdgeKind, pid int32, proc string, now sim.Time, delays [sim.NumDelayKinds]sim.Time) *Span {
	if parent == nil || parent.Dead() {
		return nil
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	tr := parent.tr
	if _, ok := pl.live[tr.ID]; !ok {
		return nil
	}
	s := newSpan(tr, pid, proc, false, now, delays)
	tr.Spans = append(tr.Spans, s)
	tr.Edges = append(tr.Edges, Edge{Kind: kind, FromPID: parent.PID, ToPID: pid, At: now})
	pl.edges[kind]++
	return s
}

// Adopt attaches a new span for pid to the live trace id (a pipe reader
// picking up the writer's stamp, a signal target picking up the
// sender's) and records the edge. Returns nil when the trace already
// finished — a stale stamp adopts nothing.
func (pl *Plane) Adopt(id TraceID, kind EdgeKind, fromPID, pid int32, proc string, now sim.Time, delays [sim.NumDelayKinds]sim.Time) *Span {
	if id == 0 {
		return nil
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	tr, ok := pl.live[id]
	if !ok {
		return nil
	}
	s := newSpan(tr, pid, proc, false, now, delays)
	tr.Spans = append(tr.Spans, s)
	tr.Edges = append(tr.Edges, Edge{Kind: kind, FromPID: fromPID, ToPID: pid, At: now})
	pl.edges[kind]++
	return s
}

// Close ends s at now. Closing a non-root span merely freezes it; closing
// the root finishes the whole trace: every still-open member span is
// frozen where its last checkpoint left it, the classifier runs, and the
// trace competes for its group's exemplar reservoir. Callers flush a
// final Checkpoint first so the root's segments tile [Start, now] exactly.
func (pl *Plane) Close(s *Span, now sim.Time) {
	if s == nil || s.closed {
		return
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	s.End = now
	s.closed = true
	if !s.root {
		return
	}
	tr := s.tr
	tr.End = now
	for _, m := range tr.Spans {
		if !m.closed {
			m.End = m.lastNow
			m.closed = true
		}
	}
	tr.Cause, tr.CauseFrac = classify(s)
	delete(pl.live, tr.ID)
	pl.finished++
	pl.offer(tr)
}

// offer inserts a finished trace into its group's K-slowest reservoir.
// Caller holds pl.mu.
func (pl *Plane) offer(tr *Trace) {
	g := pl.groups[tr.Group]
	g = append(g, tr)
	// Insertion-sort the newcomer into duration-descending order; the
	// slice is at most k+1 long.
	for i := len(g) - 1; i > 0 && g[i].Dur() > g[i-1].Dur(); i-- {
		g[i], g[i-1] = g[i-1], g[i]
	}
	if len(g) > pl.k {
		g = g[:pl.k]
	}
	pl.groups[tr.Group] = g
}

// classify returns the dominant merged segment label of the root span
// and its fraction of the op latency — the one-line root cause an SLO
// breach report prints.
func classify(root *Span) (string, float64) {
	total := root.End - root.Start
	if total <= 0 || len(root.Segs) == 0 {
		return "run", 0
	}
	byLabel := make(map[string]uint64, len(root.Segs))
	for _, seg := range root.Segs {
		byLabel[seg.Label] += seg.DurNS
	}
	best, bestDur := "run", uint64(0)
	for label, dur := range byLabel {
		if dur > bestDur || (dur == bestDur && label < best) {
			best, bestDur = label, dur
		}
	}
	return best, float64(bestDur) / float64(total)
}

// Trace returns the span's trace ID (the pipe-stamp / signal-carriage
// value). Nil-safe; zero for a dead span.
func (s *Span) Trace() TraceID {
	if s == nil || s.Dead() {
		return 0
	}
	return s.tr.ID
}

// Active reports whether s is a live span: nil-safe, the hot-path probe.
func (s *Span) Active() bool { return s != nil && !s.closed && !s.tr.Spans[0].closed }

// Dead reports whether s can no longer accumulate (closed itself, or its
// trace's root already ended). Nil spans are dead.
func (s *Span) Dead() bool { return s == nil || s.closed || s.tr.Spans[0].closed }

// Root reports whether s is its trace's origin span.
func (s *Span) Root() bool { return s != nil && s.root }

// Checkpoint flushes the per-bucket delay deltas accrued since the last
// checkpoint as segments with their default bucket labels. delays is the
// owning task's current Delays() snapshot; deltas tile [lastNow, now]
// exactly because the engine attributes every clock advance to exactly
// one bucket.
func (s *Span) Checkpoint(now sim.Time, delays [sim.NumDelayKinds]sim.Time) {
	if s == nil || s.closed {
		return
	}
	s.flush(now, delays, -1, "")
}

// CheckpointAs flushes like Checkpoint but labels kind's delta with the
// given site label (e.g. the lock-wait delta of a contended acquisition
// as "lock:tmem", a pipe sleep's blocked delta as "block:pipe"). The
// other buckets keep their defaults.
func (s *Span) CheckpointAs(kind sim.DelayKind, label string, now sim.Time, delays [sim.NumDelayKinds]sim.Time) {
	if s == nil || s.closed {
		return
	}
	s.flush(now, delays, kind, label)
}

// flush is the checkpoints' live-span path, split out so their nil check
// inlines at every hook site.
func (s *Span) flush(now sim.Time, delays [sim.NumDelayKinds]sim.Time, kind sim.DelayKind, label string) {
	for k := sim.DelayKind(0); k < sim.NumDelayKinds; k++ {
		d := delays[k] - s.lastDel[k]
		if d <= 0 {
			continue
		}
		lab := bucketNames[k]
		if k == kind && label != "" {
			lab = label
		}
		s.append(lab, uint64(d))
	}
	s.lastDel = delays
	s.lastNow = now
}

// append adds one segment, merging into the previous one when the labels
// match and no Mark fence intervenes. Starts are cumulative, keeping the
// tiling exact.
func (s *Span) append(label string, dur uint64) {
	if n := len(s.Segs); n > s.fence && s.Segs[n-1].Label == label {
		s.Segs[n-1].DurNS += dur
		return
	}
	start := uint64(0)
	if n := len(s.Segs); n > 0 {
		start = s.Segs[n-1].StartNS + s.Segs[n-1].DurNS
	}
	s.Segs = append(s.Segs, Segment{Label: label, StartNS: start, DurNS: dur})
}

// Mark records the current segment boundary (callers checkpoint first)
// and fences merging across it, returning the index RelabelWindow takes.
// The fault path brackets its service window with Mark/RelabelWindow:
// the copy mode is only known after the handler runs.
func (s *Span) Mark() int {
	if s == nil {
		return 0
	}
	s.fence = len(s.Segs)
	return s.fence
}

// RelabelWindow rewrites every default-labeled segment from mark onward
// to the given label, then re-merges neighbors. Site-labeled segments a
// nested hook attributed inside the window (lock:*, block:*) are left
// intact — a fault that stalled on the tmem lock shows both causes.
func (s *Span) RelabelWindow(mark int, label string) {
	if s == nil || s.closed || mark >= len(s.Segs) {
		return
	}
	if mark < 0 {
		mark = 0
	}
	for i := mark; i < len(s.Segs); i++ {
		if defaultLabel(s.Segs[i].Label) {
			s.Segs[i].Label = label
		}
	}
	// Compact the window: adjacent same-label segments merge (within the
	// window only, so pre-window attribution is never disturbed).
	out := s.Segs[:mark]
	for _, seg := range s.Segs[mark:] {
		if n := len(out); n > mark && out[n-1].Label == seg.Label {
			out[n-1].DurNS += seg.DurNS
			continue
		}
		out = append(out, seg)
	}
	s.Segs = out
	if s.fence > len(s.Segs) {
		s.fence = len(s.Segs)
	}
}
