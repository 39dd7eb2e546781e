package causal

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"ufork/internal/obs"
)

// SegJSON, SpanJSON, EdgeJSON, TraceJSON, GroupJSON, and Snapshot are the
// wire shapes of the /traces telemetry endpoint.
type SpanJSON struct {
	PID     int32     `json:"pid"`
	Proc    string    `json:"proc"`
	Root    bool      `json:"root"`
	StartNS uint64    `json:"start_ns"`
	DurNS   uint64    `json:"dur_ns"`
	Segs    []Segment `json:"segs"`
}

// EdgeJSON is one causal handoff on the wire.
type EdgeJSON struct {
	Kind    string `json:"kind"`
	FromPID int32  `json:"from_pid"`
	ToPID   int32  `json:"to_pid"`
	AtNS    uint64 `json:"at_ns"`
}

// TraceJSON is one finished exemplar on the wire.
type TraceJSON struct {
	ID        uint64     `json:"id"`
	Group     string     `json:"group"`
	Op        string     `json:"op"`
	StartNS   uint64     `json:"start_ns"`
	DurNS     uint64     `json:"dur_ns"`
	Cause     string     `json:"cause"`
	CauseFrac float64    `json:"cause_frac"`
	Spans     []SpanJSON `json:"spans"`
	Edges     []EdgeJSON `json:"edges"`
}

// GroupJSON is one exemplar group (a YCSB cell or stress window).
type GroupJSON struct {
	Group  string      `json:"group"`
	Traces []TraceJSON `json:"traces"`
}

// Snapshot is the plane's full observable state: lifetime counters plus
// the per-group exemplar reservoirs.
type Snapshot struct {
	Started   uint64            `json:"started"`
	Finished  uint64            `json:"finished"`
	Edges     map[string]uint64 `json:"edges"`
	Exemplars int               `json:"exemplars"`
	Groups    []GroupJSON       `json:"groups"`
}

func traceJSON(tr *Trace) TraceJSON {
	tj := TraceJSON{
		ID: uint64(tr.ID), Group: tr.Group, Op: tr.Op,
		StartNS: uint64(tr.Start), DurNS: uint64(tr.Dur()),
		Cause: tr.Cause, CauseFrac: tr.CauseFrac,
	}
	for _, s := range tr.Spans {
		tj.Spans = append(tj.Spans, SpanJSON{
			PID: s.PID, Proc: s.Proc, Root: s.root,
			StartNS: uint64(s.Start), DurNS: uint64(s.End - s.Start),
			Segs: s.Segs,
		})
	}
	for _, e := range tr.Edges {
		tj.Edges = append(tj.Edges, EdgeJSON{
			Kind: e.Kind.String(), FromPID: e.FromPID, ToPID: e.ToPID, AtNS: uint64(e.At),
		})
	}
	return tj
}

// Snapshot captures counters and up to k exemplars per group (k <= 0
// means all retained). Finished traces are immutable, so the snapshot
// aliases them safely.
func (pl *Plane) Snapshot(k int) Snapshot {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	snap := Snapshot{
		Started: pl.started, Finished: pl.finished,
		Edges: make(map[string]uint64, NumEdgeKinds),
	}
	for i := EdgeKind(0); i < NumEdgeKinds; i++ {
		snap.Edges[i.String()] = pl.edges[i]
	}
	names := make([]string, 0, len(pl.groups))
	for name := range pl.groups {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		traces := pl.groups[name]
		if k > 0 && len(traces) > k {
			traces = traces[:k]
		}
		gj := GroupJSON{Group: name}
		for _, tr := range traces {
			gj.Traces = append(gj.Traces, traceJSON(tr))
			snap.Exemplars++
		}
		snap.Groups = append(snap.Groups, gj)
	}
	return snap
}

// top returns the k slowest finished exemplars across every group,
// duration-descending. Caller holds pl.mu.
func (pl *Plane) top(k int) []*Trace {
	var all []*Trace
	for _, g := range pl.groups {
		all = append(all, g...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dur() != all[j].Dur() {
			return all[i].Dur() > all[j].Dur()
		}
		return all[i].ID < all[j].ID
	})
	if k > 0 && len(all) > k {
		all = all[:k]
	}
	return all
}

func dur(ns uint64) string { return time.Duration(ns).String() }

// RenderTop renders the k slowest exemplars as text trace trees — the
// block an SLO-breach report or chaos failure dump appends so the reader
// sees where the tail went instead of just that it existed. Nil-safe;
// empty when nothing finished.
func (pl *Plane) RenderTop(k int) string {
	if pl == nil {
		return ""
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	top := pl.top(k)
	if len(top) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "causal exemplars — top %d slow-op traces\n", len(top))
	for _, tr := range top {
		fmt.Fprintf(&b, "trace #%d group=%s op=%s dur=%s cause=%s %d%%\n",
			tr.ID, tr.Group, tr.Op, dur(uint64(tr.Dur())), tr.Cause, int(tr.CauseFrac*100+0.5))
		// The root first, then joined spans in edge order, each named by
		// the edge kind that pulled it into the tree.
		for i, s := range tr.Spans {
			prefix := "  "
			if i > 0 {
				kind := "join"
				for _, e := range tr.Edges {
					if e.ToPID == s.PID {
						kind = e.Kind.String()
						break
					}
				}
				prefix = fmt.Sprintf("  └─%s→ ", kind)
			}
			fmt.Fprintf(&b, "%s%s[%d] %s: %s\n", prefix, s.Proc, s.PID,
				dur(uint64(s.End-s.Start)), renderSegs(s.Segs))
		}
	}
	return b.String()
}

// renderSegs renders a span's critical path as "label dur → label dur".
func renderSegs(segs []Segment) string {
	if len(segs) == 0 {
		return "(no segments)"
	}
	parts := make([]string, len(segs))
	for i, seg := range segs {
		parts[i] = fmt.Sprintf("%s %s", seg.Label, dur(seg.DurNS))
	}
	return strings.Join(parts, " → ")
}

// WriteChromeTrace writes the k slowest exemplars (k <= 0 for all) as
// Chrome trace_event JSON: each trace is its own process group, each
// μprocess a row inside it, segments as complete events, and flow arrows
// binding fork/pipe/signal edges across rows. Open with chrome://tracing
// or Perfetto.
func (pl *Plane) WriteChromeTrace(w io.Writer, k int) error {
	pl.mu.Lock()
	top := pl.top(k)
	pl.mu.Unlock()
	var events []obs.ChromeEvent
	for _, tr := range top {
		pid := uint64(tr.ID)
		events = append(events, obs.ChromeEvent{
			Name: "process_name", Ph: 'M', PID: pid, TID: -1,
			Label: fmt.Sprintf("trace #%d %s op=%s cause=%s", tr.ID, tr.Group, tr.Op, tr.Cause),
		})
		for _, s := range tr.Spans {
			events = append(events, obs.ChromeEvent{
				Name: "thread_name", Ph: 'M', PID: pid, TID: int64(s.PID),
				Label: fmt.Sprintf("%s[%d]", s.Proc, s.PID),
			})
			// Segments tile the span from its start: cumulative offsets are
			// virtual-time exact.
			for _, seg := range s.Segs {
				events = append(events, obs.ChromeEvent{
					Name: seg.Label, Cat: "causal", Ph: 'X',
					TS: uint64(s.Start) + seg.StartNS, Dur: seg.DurNS,
					PID: pid, TID: int64(s.PID),
				})
			}
		}
		for i, e := range tr.Edges {
			id := fmt.Sprintf("%d.%d", tr.ID, i)
			at := uint64(e.At)
			events = append(events,
				obs.ChromeEvent{Name: e.Kind.String(), Cat: "causal", Ph: 's', TS: at, PID: pid, TID: int64(e.FromPID), ID: id},
				obs.ChromeEvent{Name: e.Kind.String(), Cat: "causal", Ph: 'f', TS: at, PID: pid, TID: int64(e.ToPID), ID: id})
		}
	}
	return obs.WriteChromeTrace(w, events)
}
