package kernel

import (
	"ufork/internal/obs/causal"
	"ufork/internal/obs/flight"
	"ufork/internal/sim"
)

// This file is the kernel side of the causal trace-context plane
// (internal/obs/causal): origins mint a trace on a μprocess, the kernel
// carries it across fork, pipe, and signal boundaries. The critical-path
// segments of lock waits, sleeps and fault windows are flushed by
// Proc.emit's armed path (read), which labels them from the attribution
// context. Nothing here ever advances a virtual clock, so arming the
// plane leaves timelines byte-identical. The plane is not reset per
// kernel: trace IDs are plane-global and exemplar groups deliberately
// accumulate across the many kernels a bench sweep boots, so /traces
// shows the whole run.

// causalSpan returns p's live causal span, lazily clearing one whose
// trace already finished (an adopted span goes stale the moment its
// origin closes the trace). Nil when the process is untraced — the one
// check every disabled-path hook pays.
func (k *Kernel) causalSpan(p *Proc) *causal.Span {
	s := p.cspan
	if s == nil {
		return nil
	}
	if s.Dead() {
		p.cspan = nil
		return nil
	}
	return s
}

// TraceBegin mints a causal trace rooted at p for one op: the request
// origins (a YCSB op issue, an httpd driver request, a kvstore BGSAVE
// cycle, a chaos program step) call this at the instant they start
// measuring latency. group buckets the exemplar reservoir (one group
// per YCSB cell or stress window). A live adopted span is superseded —
// a fresh origin on this μprocess always wins.
func (k *Kernel) TraceBegin(p *Proc, group, name string) {
	if k.Causal == nil {
		return
	}
	p.cspan = nil
	t := p.Task
	s := k.Causal.Begin(group, name, int32(p.PID), p.Spec.Name, t.Now(), t.Delays())
	if s == nil {
		return
	}
	p.cspan = s
	k.emit(t.Now(), int32(p.PID), flight.KindTraceStart, uint64(s.Trace()), 0, 0)
}

// TraceEnd finishes the trace rooted at p at the instant the origin
// stops measuring: the root span's final checkpoint lands here, so its
// segments sum exactly to the op's recorded virtual-time latency. A
// non-root (adopted) span is left to its origin; calling TraceEnd on an
// untraced process is a no-op.
func (k *Kernel) TraceEnd(p *Proc) {
	s := k.causalSpan(p)
	if s == nil || !s.Root() {
		return
	}
	id, start := uint64(s.Trace()), s.Start
	k.causalExit(p)
	k.emit(p.Task.Now(), int32(p.PID), flight.KindTraceEnd, id, uint64(p.Task.Now()-start), 0)
}

// causalExit closes p's span as the process terminates: a root dying
// here finishes its trace (the op ended with the process); a member
// span freezes where it stands, leaving the trace to its origin.
func (k *Kernel) causalExit(p *Proc) {
	s := k.causalSpan(p)
	if s == nil {
		return
	}
	t := p.Task
	s.Checkpoint(t.Now(), t.Delays())
	k.Causal.Close(s, t.Now())
	p.cspan = nil
}

// causalFork joins a newly forked child to the parent's live trace with
// a fork edge — the parent→child causality μFork's deferred-copy claim
// makes load-bearing: the child's fault-service segments are the fork
// cost the parent's op deferred.
func (k *Kernel) causalFork(p, child *Proc, at sim.Time) {
	s := k.causalSpan(p)
	if s == nil {
		return
	}
	cs := k.Causal.Join(s, causal.EdgeFork, int32(child.PID), child.Spec.Name, at, child.Task.Delays())
	if cs == nil {
		return
	}
	child.cspan = cs
	k.emit(at, int32(p.PID), flight.KindTraceEdge, uint64(s.Trace()), uint64(causal.EdgeFork), uint64(child.PID))
}

// causalAdopt joins p to the live trace a pipe stamp or signal carried,
// recording the writer→reader (or sender→target) edge. A process with a
// live span of its own never adopts — the op already in flight owns it.
func (k *Kernel) causalAdopt(p *Proc, kind causal.EdgeKind, id causal.TraceID, fromPID int32) {
	if id == 0 || k.Causal == nil || k.causalSpan(p) != nil {
		return
	}
	t := p.Task
	s := k.Causal.Adopt(id, kind, fromPID, int32(p.PID), p.Spec.Name, t.Now(), t.Delays())
	if s == nil {
		return
	}
	p.cspan = s
	k.emit(t.Now(), fromPID, flight.KindTraceEdge, uint64(id), uint64(kind), uint64(p.PID))
}
