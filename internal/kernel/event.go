package kernel

import (
	"ufork/internal/obs"
	"ufork/internal/obs/flight"
	"ufork/internal/obs/profile"
	"ufork/internal/sim"
	"ufork/internal/vm"
)

// emit records one kernel event: it is the only way the kernel writes the
// flight recorder, and the metrics registry derives its per-event counters
// and histograms from the same call. Argument meanings are the
// flight.Kind constants'. With neither plane armed it inlines to two
// pointer tests. A μprocess's own events go through Proc.emit, which
// calls record on its armed path.
func (k *Kernel) emit(ts sim.Time, pid int32, kind flight.Kind, a0, a1, a2 uint64) {
	if k.Flight != nil || k.Metrics != nil {
		k.record(ts, pid, kind, a0, a1, a2)
	}
}

// Metric names record derives and the planes' labels, built once so an
// armed registry or reader costs an event no string concatenation: a fault
// window by its resolved copy mode (KindFrameOwnerChange's encoding), a
// lock wait by its site, a sleep by its cause, a fork phase by its name.
var (
	syscallMetric   [NumSysNos]string
	faultMetric     [vm.FaultNoExec + 1]string
	forkPhaseMetric [len(flight.ForkPhases)]string
	faultLabels     = [...]string{"fault:mapped", "fault:cow", "fault:coa", "fault:copa"}
	lockLabels      [len(flight.LockSites)]string
	blockLabels     [len(flight.BlockCauses)]string
	forkPhaseLabels [len(flight.ForkPhases)]string
)

func init() {
	for n := range syscallMetric {
		syscallMetric[n] = "syscall." + SysNo(n).String()
	}
	for kind := range faultMetric {
		faultMetric[kind] = "vm.fault." + vm.FaultKind(kind).String()
	}
	for i, ph := range flight.ForkPhases {
		forkPhaseMetric[i], forkPhaseLabels[i] = "fork.phase."+ph, "fork:"+ph
	}
	for i, site := range flight.LockSites {
		lockLabels[i] = "lock:" + site
	}
	for i, cause := range flight.BlockCauses {
		blockLabels[i] = "block:" + cause
	}
}

// record is emit's armed path.
func (k *Kernel) record(ts sim.Time, pid int32, kind flight.Kind, a0, a1, a2 uint64) {
	k.Flight.Emit(uint64(ts), pid, kind, a0, a1, a2)
	if k.Metrics == nil {
		return
	}
	switch kind {
	case flight.KindSyscall:
		name := "syscall.sys-unknown"
		if n := SysNo(a0); n < NumSysNos {
			name = syscallMetric[n]
		}
		k.Metrics.Counter(name).Inc()
	case flight.KindSysRet:
		k.Metrics.Histogram("syscall.latency").Observe(a1)
	case flight.KindFault:
		var name string
		if a0 < uint64(len(faultMetric)) {
			name = faultMetric[a0]
		} else {
			name = "vm.fault." + vm.FaultKind(a0).String()
		}
		k.Metrics.Counter(name).Inc()
	case flight.KindForkPhase:
		// The §6-style breakdown the telemetry server exports as
		// fork_phase_* on /metrics.
		k.Metrics.Histogram(forkPhaseMetric[a0]).Observe(a1)
	}
}

// attrib is a μprocess's attribution context, kept by its own events:
// Proc.emit is its only writer, bar the fork-phase label forkAdvance sets,
// and every plane labels what it records from it. Simulation goroutine
// only.
type attrib struct {
	// The in-flight syscall (syscalls do not nest within a μprocess): its
	// number, entry time, and name — the profiler's syscall frame, ""
	// outside one (sysNo alone goes stale after the exit).
	sysNo    SysNo
	sysEnter sim.Time
	sys      string
	phase    string // fork:<phase> while forkAdvance charges it
	// The open fault window, KindFault to KindFaultDone/KindFaultError:
	// its start, the copy mode a KindFrameOwnerChange resolved (0 = mapped),
	// its causal mark and the profiler samples parked until
	// the mode names them. Windows do not nest: no fork engine's handler
	// accesses memory through the faulting μprocess.
	inFault bool
	fault0  sim.Time
	mode    uint64
	cmark   int
	parked  []profSample
}

// KindBlock causes, indexing flight.BlockCauses.
const (
	blockPipe uint64 = iota
	blockNet
	blockChild
)

// emit records one event of p's at p's clock, the only place a μprocess
// event is recorded: it updates p's attribution context and the always-on
// counters (k.Stats, p.Acct) the event derives, and, when a reader is
// armed, hands it to the flight ring, the registry, p's causal span and
// the profiler. Argument meanings are the flight.Kind constants'.
// Unarmed, an event costs its counters and one test.
func (p *Proc) emit(kind flight.Kind, a0, a1, a2 uint64) {
	k, a, at := p.k, &p.Acct, &p.at
	switch kind {
	case flight.KindSyscall:
		k.Stats.Syscalls.Inc()
		a.Syscalls[a0].Inc()
		at.sysNo, at.sysEnter, at.sys = SysNo(a0), p.Task.Now(), SysNo(a0).String()
		k.curPID = p.PID
	case flight.KindSysRet:
		at.sys = ""
	case flight.KindLockWait:
		if a2 == 0 || a2 == lockRankGlobal { // the BKL, or the residual lock
			a.BKLWaitNS.Add(a0)
		}
	case flight.KindBlock:
		[...]*obs.Counter{&a.BlockPipeNS, &a.BlockNetNS, &a.BlockChildNS}[a0].Add(a1)
	case flight.KindFault:
		k.Stats.PageFaults.Inc()
		a.Faults.Inc()
		k.curPID = p.PID
		at.inFault, at.fault0, at.mode = true, p.Task.Now(), 0
	case flight.KindFrameOwnerChange:
		at.mode = a1
	case flight.KindFaultDone:
		at.inFault = false
		a.FaultServiceNS.Add(uint64(p.Task.Now() - at.fault0))
		[...]*obs.Counter{&a.FaultMapped, &a.FaultCoW, &a.FaultCoA, &a.FaultCoPA}[at.mode].Inc()
		if at.mode == 0 && vm.FaultKind(a0) == vm.FaultNotMapped {
			a.chargeFrames(1) // demand map: one fresh frame
		}
		a.FaultCapsRelocated.Add(a2)
		a.chargeFrames(int64(a1))
	case flight.KindFaultError:
		at.inFault = false
	}
	if k.readers {
		k.read(p, kind, a0, a1, a2)
	}
}

// read is Proc.emit's armed path. A lock wait or sleep flushes the causal
// span under its site or cause, before another wait can blur into the same
// bucket; a lock wait is also the profiler's lock-wait sample. A fault
// window fences the span at its start, and its end relabels the window's
// unattributed segments and flushes its parked samples under the resolved
// mode (fault:error when it failed); site-labelled segments inside keep
// theirs. Nothing here advances a virtual clock.
func (k *Kernel) read(p *Proc, kind flight.Kind, a0, a1, a2 uint64) {
	t, at := p.Task, &p.at
	k.record(t.Now(), int32(p.PID), kind, a0, a1, a2)
	s := p.cspan
	if s.Dead() {
		s = nil
	}
	switch kind {
	case flight.KindLockWait:
		label := lockLabels[a2/10]
		if s != nil {
			s.CheckpointAs(sim.DelayLockWait, label, t.Now(), t.Delays())
		}
		if k.Profile != nil {
			core := t.LastCore()
			st := profile.Stack{CPU: int32(core), PID: int32(p.PID), Proc: p.Spec.Name, Sys: at.sys, Phase: label}
			k.Profile.Add(st, profile.KindLockWait, core, sim.Time(a0))
		}
	case flight.KindBlock:
		if s != nil {
			s.CheckpointAs(sim.DelayBlocked, blockLabels[a0], t.Now(), t.Delays())
		}
	case flight.KindFault:
		if s != nil {
			s.Checkpoint(t.Now(), t.Delays())
			at.cmark = s.Mark()
		}
	case flight.KindFaultDone, flight.KindFaultError:
		label := "fault:error"
		if kind == flight.KindFaultDone {
			label = faultLabels[at.mode]
		}
		if s != nil { // a span cannot join mid-window: only p's own calls join it
			s.Checkpoint(t.Now(), t.Delays())
			s.RelabelWindow(at.cmark, label)
		}
		for _, ps := range at.parked {
			ps.st.Phase = label
			k.Profile.Add(ps.st, ps.kind, ps.cpu, ps.d)
		}
		at.parked = at.parked[:0]
	}
}
