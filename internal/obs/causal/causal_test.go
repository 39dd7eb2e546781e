package causal

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"ufork/internal/sim"
)

// del builds a delay snapshot in taxonomy order.
func del(run, runnable, blocked, latency, lockWait sim.Time) [sim.NumDelayKinds]sim.Time {
	return [sim.NumDelayKinds]sim.Time{run, runnable, blocked, latency, lockWait}
}

// segSum totals a span's segment durations.
func segSum(segs []Segment) uint64 {
	var total uint64
	for _, seg := range segs {
		total += seg.DurNS
	}
	return total
}

// TestCheckpointTiling pins the exact-attribution invariant: per-bucket
// deltas tile [Start, End] with cumulative offsets and no residue, and
// adjacent same-label segments merge.
func TestCheckpointTiling(t *testing.T) {
	pl := New(0)
	s := pl.Begin("g", "op", 1, "proc", 100, del(0, 0, 0, 0, 0))
	if s == nil || !s.Root() || !s.Active() {
		t.Fatal("Begin on an enabled plane must return a live root span")
	}

	// +30 run, +20 runnable over [100,150].
	s.Checkpoint(150, del(30, 20, 0, 0, 0))
	// +30 run, +20 runnable, +10 lock-wait over [150,210].
	s.Checkpoint(210, del(60, 40, 0, 0, 10))
	// Final flush with nothing new is a no-op.
	s.Checkpoint(210, del(60, 40, 0, 0, 10))
	pl.Close(s, 210)

	want := []Segment{
		{Label: "run", StartNS: 0, DurNS: 30},
		{Label: "runnable", StartNS: 30, DurNS: 20},
		{Label: "run", StartNS: 50, DurNS: 30},
		{Label: "runnable", StartNS: 80, DurNS: 20},
		{Label: "lock-wait", StartNS: 100, DurNS: 10},
	}
	if len(s.Segs) != len(want) {
		t.Fatalf("got %d segments %v, want %d", len(s.Segs), s.Segs, len(want))
	}
	for i, seg := range s.Segs {
		if seg != want[i] {
			t.Errorf("seg[%d] = %+v, want %+v", i, seg, want[i])
		}
	}
	if got, elapsed := segSum(s.Segs), uint64(210-100); got != elapsed {
		t.Fatalf("segments sum to %d, want exact op latency %d", got, elapsed)
	}
	if s.Active() {
		t.Fatal("closed root span still reports Active")
	}
}

// TestCheckpointMerge verifies consecutive same-label flushes collapse
// into one segment.
func TestCheckpointMerge(t *testing.T) {
	pl := New(0)
	s := pl.Begin("g", "op", 1, "p", 0, del(0, 0, 0, 0, 0))
	s.Checkpoint(10, del(10, 0, 0, 0, 0))
	s.Checkpoint(25, del(25, 0, 0, 0, 0))
	if len(s.Segs) != 1 || s.Segs[0] != (Segment{Label: "run", StartNS: 0, DurNS: 25}) {
		t.Fatalf("same-label segments did not merge: %v", s.Segs)
	}
}

// TestCheckpointAsSiteLabel verifies a site label overrides exactly one
// bucket's delta while the others keep their defaults.
func TestCheckpointAsSiteLabel(t *testing.T) {
	pl := New(0)
	s := pl.Begin("g", "op", 1, "p", 0, del(0, 0, 0, 0, 0))
	s.CheckpointAs(sim.DelayLockWait, "lock:tmem", 50, del(10, 0, 0, 0, 40))
	want := []Segment{
		{Label: "run", StartNS: 0, DurNS: 10},
		{Label: "lock:tmem", StartNS: 10, DurNS: 40},
	}
	for i, seg := range s.Segs {
		if seg != want[i] {
			t.Errorf("seg[%d] = %+v, want %+v", i, seg, want[i])
		}
	}
	// A second contended site must not merge into the first.
	s.CheckpointAs(sim.DelayLockWait, "lock:bkl", 70, del(10, 0, 0, 0, 60))
	if last := s.Segs[len(s.Segs)-1]; last.Label != "lock:bkl" || last.DurNS != 20 {
		t.Fatalf("distinct lock sites merged: %v", s.Segs)
	}
}

// TestRelabelWindow pins the fault-window protocol: Mark fences merging,
// RelabelWindow rewrites only default-labeled segments after the mark,
// and nested site labels inside the window survive.
func TestRelabelWindow(t *testing.T) {
	pl := New(0)
	s := pl.Begin("g", "op", 1, "p", 0, del(0, 0, 0, 0, 0))

	// Pre-fault run time.
	s.Checkpoint(10, del(10, 0, 0, 0, 0))
	mark := s.Mark()

	// Inside the window: run (handler work) then a contended tmem lock.
	s.CheckpointAs(sim.DelayLockWait, "lock:tmem", 22, del(17, 0, 0, 0, 5))
	// More handler run time after the lock.
	s.Checkpoint(30, del(25, 0, 0, 0, 5))
	s.RelabelWindow(mark, "fault:cow")

	want := []Segment{
		{Label: "run", StartNS: 0, DurNS: 10},
		{Label: "fault:cow", StartNS: 10, DurNS: 7},
		{Label: "lock:tmem", StartNS: 17, DurNS: 5},
		{Label: "fault:cow", StartNS: 22, DurNS: 8},
	}
	if len(s.Segs) != len(want) {
		t.Fatalf("got %d segments %v, want %d", len(s.Segs), s.Segs, len(want))
	}
	for i, seg := range s.Segs {
		if seg != want[i] {
			t.Errorf("seg[%d] = %+v, want %+v", i, seg, want[i])
		}
	}
	if segSum(s.Segs) != 30 {
		t.Fatalf("relabel broke the tiling: %v", s.Segs)
	}

	// A second fault window with no nested sites compacts to one segment,
	// and the pre-window run segment is never absorbed.
	mark2 := s.Mark()
	s.Checkpoint(34, del(29, 0, 0, 0, 5))
	s.Checkpoint(40, del(29, 6, 0, 0, 5))
	s.RelabelWindow(mark2, "fault:coa")
	last := s.Segs[len(s.Segs)-1]
	if last.Label != "fault:coa" || last.DurNS != 10 {
		t.Fatalf("window did not compact to one fault segment: %v", s.Segs)
	}
	if s.Segs[len(s.Segs)-2].Label != "fault:cow" {
		t.Fatalf("relabel bled into the previous window: %v", s.Segs)
	}
}

// TestReservoirKeepsSlowest verifies the per-group reservoir retains
// exactly the K slowest finished traces, duration-descending.
func TestReservoirKeepsSlowest(t *testing.T) {
	pl := New(2)
	for _, d := range []sim.Time{10, 30, 20, 5} {
		s := pl.Begin("cell", "op", 1, "p", 0, del(0, 0, 0, 0, 0))
		s.Checkpoint(d, del(d, 0, 0, 0, 0))
		pl.Close(s, d)
	}
	snap := pl.Snapshot(0)
	if snap.Started != 4 || snap.Finished != 4 {
		t.Fatalf("counters started=%d finished=%d, want 4/4", snap.Started, snap.Finished)
	}
	if snap.Exemplars != 2 || len(snap.Groups) != 1 {
		t.Fatalf("reservoir kept %d exemplars in %d groups, want 2 in 1", snap.Exemplars, len(snap.Groups))
	}
	got := snap.Groups[0].Traces
	if got[0].DurNS != 30 || got[1].DurNS != 20 {
		t.Fatalf("reservoir kept durations %d,%d, want 30,20", got[0].DurNS, got[1].DurNS)
	}
}

// TestClassifier pins the root-cause verdict: dominant merged label and
// its share of op latency.
func TestClassifier(t *testing.T) {
	pl := New(0)
	s := pl.Begin("g", "op", 1, "p", 0, del(0, 0, 0, 0, 0))
	s.CheckpointAs(sim.DelayLockWait, "lock:tmem", 70, del(30, 0, 0, 0, 40))
	s.CheckpointAs(sim.DelayLockWait, "lock:tmem", 100, del(40, 0, 0, 0, 60))
	pl.Close(s, 100)
	tr := s.tr
	if tr.Cause != "lock:tmem" {
		t.Fatalf("cause = %q, want lock:tmem", tr.Cause)
	}
	if tr.CauseFrac != 0.6 {
		t.Fatalf("cause frac = %v, want 0.6", tr.CauseFrac)
	}
}

// TestJoinAdoptLifecycle covers the propagation API: fork joins, pipe
// adoption, freezing of open members at root close, and the staleness
// rules that keep dead contexts from resurrecting.
func TestJoinAdoptLifecycle(t *testing.T) {
	pl := New(0)
	root := pl.Begin("g", "op", 1, "parent", 0, del(0, 0, 0, 0, 0))
	child := pl.Join(root, EdgeFork, 2, "child", 10, del(0, 0, 0, 0, 0))
	if child == nil || child.Root() {
		t.Fatal("Join must return a live non-root span")
	}
	child.Checkpoint(25, del(15, 0, 0, 0, 0))

	reader := pl.Adopt(root.Trace(), EdgePipe, 1, 3, "reader", 12, del(0, 0, 0, 0, 0))
	if reader == nil {
		t.Fatal("Adopt of a live trace returned nil")
	}

	root.Checkpoint(40, del(40, 0, 0, 0, 0))
	pl.Close(root, 40)

	// Open members freeze at their last checkpoint; everything is dead now.
	if child.Active() || !child.closed || child.End != 25 {
		t.Fatalf("open member not frozen at lastNow: closed=%v end=%d", child.closed, child.End)
	}
	if root.Trace() != 0 || child.Trace() != 0 {
		t.Fatal("dead spans must report trace 0 (stale stamps adopt nothing)")
	}
	if pl.Adopt(1, EdgePipe, 1, 4, "late", 50, del(0, 0, 0, 0, 0)) != nil {
		t.Fatal("Adopt of a finished trace must return nil")
	}
	if pl.Join(root, EdgeFork, 5, "late", 50, del(0, 0, 0, 0, 0)) != nil {
		t.Fatal("Join on a dead parent must return nil")
	}

	snap := pl.Snapshot(0)
	tr := snap.Groups[0].Traces[0]
	if len(tr.Spans) != 3 || len(tr.Edges) != 2 {
		t.Fatalf("trace has %d spans / %d edges, want 3/2", len(tr.Spans), len(tr.Edges))
	}
	if tr.Edges[0].Kind != "fork" || tr.Edges[1].Kind != "pipe" {
		t.Fatalf("edge kinds = %v", tr.Edges)
	}
	if snap.Edges["fork"] != 1 || snap.Edges["pipe"] != 1 || snap.Edges["signal"] != 0 {
		t.Fatalf("edge counters = %v", snap.Edges)
	}
}

// TestRenderTop checks the text trace tree an SLO-breach report embeds.
func TestRenderTop(t *testing.T) {
	pl := New(0)
	if pl.RenderTop(3) != "" {
		t.Fatal("empty plane must render empty")
	}
	root := pl.Begin("ycsb/a", "op", 1, "kv", 0, del(0, 0, 0, 0, 0))
	child := pl.Join(root, EdgeFork, 2, "bgsave", 5, del(0, 0, 0, 0, 0))
	child.Checkpoint(9, del(4, 0, 0, 0, 0))
	pl.Close(child, 9)
	root.CheckpointAs(sim.DelayLockWait, "lock:tmem", 20, del(8, 0, 0, 0, 12))
	pl.Close(root, 20)

	out := pl.RenderTop(3)
	for _, want := range []string{
		"top 1 slow-op traces",
		"trace #1 group=ycsb/a op=op",
		"cause=lock:tmem 60%",
		"kv[1]",
		"└─fork→ bgsave[2]",
		"lock:tmem 12ns",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderTop missing %q in:\n%s", want, out)
		}
	}
}

// TestChromeExport verifies the export is valid JSON with per-segment
// complete events and a flow-arrow pair per causal edge.
func TestChromeExport(t *testing.T) {
	pl := New(0)
	root := pl.Begin("g", "op", 1, "kv", 100, del(0, 0, 0, 0, 0))
	child := pl.Join(root, EdgeFork, 2, "bgsave", 110, del(0, 0, 0, 0, 0))
	child.Checkpoint(120, del(10, 0, 0, 0, 0))
	root.Checkpoint(150, del(50, 0, 0, 0, 0))
	pl.Close(root, 150)

	var buf bytes.Buffer
	if err := pl.WriteChromeTrace(&buf, 0); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			TID  int32   `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	counts := map[string]int{}
	for _, ev := range doc.TraceEvents {
		counts[ev.Ph]++
	}
	if counts["X"] == 0 || counts["M"] < 3 {
		t.Fatalf("missing segment or metadata events: %v", counts)
	}
	if counts["s"] != 1 || counts["f"] != 1 {
		t.Fatalf("fork edge must emit one s/f flow pair, got %v", counts)
	}
}

// TestDisabledAndNilSafety covers the zero-cost-off contract's semantics:
// every entry point tolerates nil planes and nil spans.
func TestDisabledAndNilSafety(t *testing.T) {
	var nilPlane *Plane
	if nilPlane.Started() != 0 || nilPlane.RenderTop(5) != "" {
		t.Fatal("nil plane must read as empty")
	}
	if s := nilPlane.Begin("g", "op", 1, "p", 0, del(0, 0, 0, 0, 0)); s != nil {
		t.Fatal("Begin on a nil plane must return nil")
	}
	var s *Span
	s.Checkpoint(10, del(0, 0, 0, 0, 0)) // must not panic
	s.CheckpointAs(sim.DelayRun, "x", 10, del(0, 0, 0, 0, 0))
	s.RelabelWindow(s.Mark(), "x")
	New(0).Close(s, 10)
	if s.Active() || s.Trace() != 0 || s.Root() {
		t.Fatal("nil span must be inert")
	}
}

// offPlane is the plane of a kernel with tracing off. It is a package
// variable so the compiler cannot prove it nil and drop the probe.
var offPlane *Plane

// TestDisabledPathUnder5ns pins the acceptance bound: with tracing off
// (a nil plane), the origin-site probe (the kernel's nil check before
// Begin) and the hook-site probe (nil span checkpoint) each cost ≤5 ns
// and zero allocations. Mirrors flight's disabled-emit gate.
func TestDisabledPathUnder5ns(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation breaks the timing bound")
	}
	var sink *Span
	d := del(0, 0, 0, 0, 0)
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if offPlane != nil {
				sink = offPlane.Begin("g", "op", 1, "p", sim.Time(i), d)
			}
		}
	})
	if ns := res.NsPerOp(); ns > 5 {
		t.Fatalf("nil-plane origin probe costs %d ns/probe, want ≤5", ns)
	}
	if allocs := res.AllocsPerOp(); allocs != 0 {
		t.Fatalf("nil-plane origin probe allocates %d objects/probe, want 0", allocs)
	}
	_ = sink

	// The kernel hook shape: a nil span's checkpoint guard.
	var s *Span
	res = testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.Checkpoint(sim.Time(i), d)
		}
	})
	if ns := res.NsPerOp(); ns > 5 {
		t.Fatalf("nil-span Checkpoint costs %d ns/probe, want ≤5", ns)
	}
	if allocs := res.AllocsPerOp(); allocs != 0 {
		t.Fatalf("nil-span Checkpoint allocates %d objects/probe, want 0", allocs)
	}
}

// BenchmarkDisabledBegin is the origin-site probe with the plane off.
func BenchmarkDisabledBegin(b *testing.B) {
	var sink *Span
	d := del(0, 0, 0, 0, 0)
	for i := 0; i < b.N; i++ {
		if offPlane != nil {
			sink = offPlane.Begin("g", "op", 1, "p", sim.Time(i), d)
		}
	}
	_ = sink
}

// BenchmarkNilSpanCheckpoint is the kernel hook-site probe when untraced.
func BenchmarkNilSpanCheckpoint(b *testing.B) {
	var s *Span
	d := del(0, 0, 0, 0, 0)
	for i := 0; i < b.N; i++ {
		s.Checkpoint(sim.Time(i), d)
	}
}
