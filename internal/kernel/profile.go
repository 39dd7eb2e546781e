package kernel

import (
	"ufork/internal/obs/flight"
	"ufork/internal/obs/profile"
	"ufork/internal/sim"
)

// This file is the profiler plane's only kernel coupling, mirroring
// causal.go: New installs profCharge as the engine charge hook when
// Planes.Profile is set, and profCharge assembles the synthetic sample
// stack — cpu / proc / syscall / phase — from attribution state the
// kernel already maintains (curPID, the in-flight syscall, fork-phase and
// fault-window markers). Nothing here advances a virtual clock, so arming
// the profiler cannot change the simulated timeline, and a kernel without
// a profiler installs no hook at all. Like the causal plane, the profiler
// is not reset per kernel: one plane may aggregate samples across several
// kernel boots, which is how sweep-wide profiles and cross-run diffs are
// built.

// profSample is one charge buffered while a fault window is open: the
// copy mode — and with it the stack's phase frame — is only known after
// the handler runs.
type profSample struct {
	st   profile.Stack
	kind profile.Kind
	cpu  int
	d    sim.Time
}

// profProc resolves the charged task to its μprocess. Tasks that are
// not processes (or already left the table during teardown) resolve nil
// and are still sampled under the task's name, keeping the per-CPU
// accounting identity exact.
func (k *Kernel) profProc(t *sim.Task) *Proc {
	pid := PID(t.Tag)
	k.procMu.RLock()
	p := k.procs[pid]
	k.procMu.RUnlock()
	return p
}

// profCharge is the engine charge hook: every on-core compute slot and
// off-core latency charge of a core-occupying task arrives here when
// the plane is armed.
func (k *Kernel) profCharge(t *sim.Task, core int, kind sim.DelayKind, d sim.Time) {
	pl := k.Profile
	var pk profile.Kind
	switch kind {
	case sim.DelayRun:
		pk = profile.KindRun
	case sim.DelayLatency:
		pk = profile.KindLatency
	default:
		return
	}
	st := profile.Stack{CPU: int32(core), PID: t.Tag}
	p := k.profProc(t)
	if p == nil {
		st.Proc = t.Name
		pl.Add(st, pk, core, d)
		return
	}
	st.Proc = p.Spec.Name
	if p.inSys {
		st.Sys = p.sysNo.String()
	}
	st.Phase = p.profPhase
	if p.profDepth > 0 {
		// Inside a fault-service window: park the sample until the
		// handler resolves the copy mode that names its phase frame.
		p.profBuf = append(p.profBuf, profSample{st: st, kind: pk, cpu: core, d: d})
		return
	}
	pl.Add(st, pk, core, d)
}

// profLockWait charges w nanoseconds of lock-wait to the contended
// site's stack. Called by lockWait, which knows both the site name and
// the exact wait delta; lock-wait samples keep their lock:<site> phase
// even inside a fault window — nested hooks keep their own labels, the
// same rule the causal plane applies.
func (k *Kernel) profLockWait(p *Proc, l *sim.VLock, w sim.Time) {
	pl := k.Profile
	if pl == nil || w == 0 {
		return
	}
	core := p.Task.LastCore()
	st := profile.Stack{
		CPU:   int32(core),
		PID:   int32(p.PID),
		Proc:  p.Spec.Name,
		Phase: "lock:" + causalLockSite(l),
	}
	if p.inSys {
		st.Sys = p.sysNo.String()
	}
	pl.Add(st, profile.KindLockWait, core, w)
}

// forkPhaseLabels names each fork phase's profiler frame, built once so
// advancing a fork allocates nothing.
var forkPhaseLabels = func() (l [len(flight.ForkPhases)]string) {
	for i, ph := range flight.ForkPhases {
		l[i] = "fork:" + ph
	}
	return l
}()

// forkAdvance charges phases [from, to) of a fork's latency to the parent,
// each under its fork:<phase> frame so profiler samples name the phase.
// Consecutive Advances are arithmetically one combined Advance — no
// scheduling point sits between them — so the split cannot move the
// simulated timeline, armed profiler or not. The phases sum to Latency
// (TestForkPhasesSumToLatency), so the whole latency is charged.
func forkAdvance(p *Proc, phases *[len(flight.ForkPhases)]phaseStat, from, to int) {
	for i := from; i < to; i++ {
		p.profPhase = forkPhaseLabels[i]
		p.Task.Advance(phases[i].dur)
	}
	p.profPhase = ""
}
