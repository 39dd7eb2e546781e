package bench

import (
	"testing"

	"ufork/internal/bench/ycsb"
	"ufork/internal/kernel"
	"ufork/internal/obs/causal"
)

// TestYCSBTraceExemplarBGSave is the harness-level acceptance check for
// the causal plane: a kvstore cell's BGSAVE exemplar must span the
// snapshot fork — a fork flow edge to the child span — and its root
// critical path must decompose into at least three labeled segments that
// sum exactly to the trace's recorded duration. Exactly, because the
// checkpoint cursor tiles the delay taxonomy over the op window; any gap
// or overlap means attribution is inventing or losing time.
func TestYCSBTraceExemplarBGSave(t *testing.T) {
	t.Parallel()
	// Arm a shared plane through the cell's env, the way the live
	// telemetry server does, so the cell's private-plane fallback is
	// bypassed and the test can read the reservoir afterwards.
	pl := causal.New(0)
	c := ycsbCell{
		workload: "kvstore", mix: ycsb.MixA, locks: LocksBKL, cores: 2,
		keys: 512, ops: 800, seed: 11, slo: DefaultYCSBSLO("kvstore", false),
	}
	row, err := Env{Planes: kernel.Planes{Causal: pl}}.ycsbKV(c)
	if err != nil {
		t.Fatal(err)
	}
	if row.BGSaves == 0 {
		t.Fatal("cell completed no BGSAVE forks; nothing to trace")
	}

	snap := pl.Snapshot(0)
	if snap.Finished == 0 || snap.Exemplars == 0 {
		t.Fatalf("plane retained nothing: finished=%d exemplars=%d", snap.Finished, snap.Exemplars)
	}
	// Every retained bgsave exemplar must obey the tiling invariant; the
	// structural assertions below run against the exemplar whose root
	// decomposes into the most segments (steady-state cycles show the full
	// latency / lock:bkl / block:child path; the first cycle can start at
	// the block).
	var bg *causal.TraceJSON
	bgSegs := func(tr *causal.TraceJSON) int {
		for _, s := range tr.Spans {
			if s.Root {
				return len(s.Segs)
			}
		}
		return 0
	}
	for gi := range snap.Groups {
		if snap.Groups[gi].Group != ycsbGroup(c) {
			continue
		}
		for ti := range snap.Groups[gi].Traces {
			tr := &snap.Groups[gi].Traces[ti]
			if tr.Op != "bgsave" {
				continue
			}
			var sum uint64
			for _, s := range tr.Spans {
				if !s.Root {
					continue
				}
				for _, seg := range s.Segs {
					sum += seg.DurNS
				}
			}
			if sum != tr.DurNS {
				t.Errorf("bgsave exemplar #%d: root segments sum to %d ns, recorded latency %d ns", tr.ID, sum, tr.DurNS)
			}
			if bg == nil || bgSegs(tr) > bgSegs(bg) {
				bg = tr
			}
		}
	}
	if bg == nil {
		t.Fatalf("no bgsave exemplar in group %s reservoir (BGSAVE cycles are the cell's slowest ops)", ycsbGroup(c))
	}

	forkEdges := 0
	for _, e := range bg.Edges {
		if e.Kind == "fork" {
			forkEdges++
		}
	}
	if forkEdges == 0 {
		t.Errorf("bgsave exemplar #%d has no fork flow edge: %+v", bg.ID, bg.Edges)
	}
	if len(bg.Spans) < 2 {
		t.Errorf("bgsave exemplar #%d has %d spans, want parent + snapshot child", bg.ID, len(bg.Spans))
	}

	var root *causal.SpanJSON
	for si := range bg.Spans {
		if bg.Spans[si].Root {
			root = &bg.Spans[si]
		}
	}
	if root == nil {
		t.Fatalf("bgsave exemplar #%d has no root span", bg.ID)
	}
	if len(root.Segs) < 3 {
		t.Errorf("root critical path has %d segments, want >= 3: %+v", len(root.Segs), root.Segs)
	}
	var sum uint64
	labels := map[string]bool{}
	for _, s := range root.Segs {
		sum += s.DurNS
		labels[s.Label] = true
	}
	if sum != bg.DurNS {
		t.Errorf("root segments sum to %d ns, recorded latency %d ns — attribution must tile the op window exactly", sum, bg.DurNS)
	}
	if !labels["block:child"] {
		t.Errorf("bgsave root path never blocked on the snapshot child: labels %v", labels)
	}
	if bg.Cause == "" || bg.CauseFrac <= 0 {
		t.Errorf("classifier gave no verdict: cause=%q frac=%v", bg.Cause, bg.CauseFrac)
	}
}
