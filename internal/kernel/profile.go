package kernel

import (
	"ufork/internal/obs/flight"
	"ufork/internal/obs/profile"
	"ufork/internal/sim"
)

// This file is the profiler plane's only kernel coupling besides
// Proc.emit's reader (read, in event.go), which takes the lock-wait
// samples and flushes fault windows: New installs profCharge as the engine
// charge hook when Planes.Profile is set, and profCharge assembles the
// synthetic sample stack — cpu / proc / syscall / phase — from the charged
// μprocess's attribution context. Nothing here advances a virtual clock,
// so arming the profiler cannot change the simulated timeline, and a
// kernel without a profiler installs no hook at all. Like the causal
// plane, the profiler is not reset per kernel: one plane may aggregate
// samples across several kernel boots, which is how sweep-wide profiles
// and cross-run diffs are built.

// profSample is one charge parked while a fault window is open: the copy
// mode — and with it the stack's phase frame — is only known after the
// handler runs.
type profSample struct {
	st   profile.Stack
	kind profile.Kind
	cpu  int
	d    sim.Time
}

// profCharge is the engine charge hook: every on-core compute slot and
// off-core latency charge of a core-occupying task arrives here when
// the plane is armed.
func (k *Kernel) profCharge(t *sim.Task, core int, kind sim.DelayKind, d sim.Time) {
	pk := profile.KindRun
	switch kind {
	case sim.DelayRun:
	case sim.DelayLatency:
		pk = profile.KindLatency
	default:
		return
	}
	// A task that is not a μprocess (or already left the table during
	// teardown) is still sampled, under its own name, keeping the per-CPU
	// accounting identity exact.
	k.procMu.RLock()
	p := k.procs[PID(t.Tag)]
	k.procMu.RUnlock()
	st := profile.Stack{CPU: int32(core), PID: t.Tag, Proc: t.Name}
	if p != nil {
		st.Proc, st.Sys, st.Phase = p.Spec.Name, p.at.sys, p.at.phase
		if p.at.inFault {
			// Park the sample until the handler resolves the copy mode
			// that names its phase frame.
			p.at.parked = append(p.at.parked, profSample{st: st, kind: pk, cpu: core, d: d})
			return
		}
	}
	k.Profile.Add(st, pk, core, d)
}

// forkAdvance charges phases [from, to) of a fork's latency to the parent,
// each under its fork:<phase> frame so profiler samples name the phase.
// Consecutive Advances are arithmetically one combined Advance — no
// scheduling point sits between them — so the split cannot move the
// simulated timeline, armed profiler or not. The phases sum to Latency
// (TestForkPhasesSumToLatency), so the whole latency is charged.
func forkAdvance(p *Proc, phases *[len(flight.ForkPhases)]phaseStat, from, to int) {
	for i := from; i < to; i++ {
		p.at.phase = forkPhaseLabels[i]
		p.Task.Advance(phases[i].dur)
	}
	p.at.phase = ""
}
