package kernel

import (
	"ufork/internal/obs/flight"
	"ufork/internal/sim"
	"ufork/internal/vm"
)

// emit records one kernel event: it is the only way the kernel writes the
// flight recorder, and the metrics registry derives its per-event counters
// and histograms from the same call. Argument meanings are the
// flight.Kind constants'. With neither plane armed it inlines to two
// pointer tests.
func (k *Kernel) emit(ts sim.Time, pid int32, kind flight.Kind, a0, a1, a2 uint64) {
	if k.Flight != nil || k.Metrics != nil {
		k.record(ts, pid, kind, a0, a1, a2)
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
		k.Metrics.Counter("syscall." + SysNo(a0).String()).Inc()
	case flight.KindSysRet:
		k.Metrics.Histogram("syscall.latency").Observe(a1)
	case flight.KindFault:
		k.Metrics.Counter("vm.fault." + vm.FaultKind(a0).String()).Inc()
	case flight.KindForkPhase:
		// The §6-style breakdown the telemetry server exports as
		// fork_phase_* on /metrics.
		k.Metrics.Histogram("fork.phase." + flight.ForkPhases[a0]).Observe(a1)
	}
}
