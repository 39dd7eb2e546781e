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

// Metric names record derives, built once so an armed registry costs an
// event a map lookup and no string concatenation.
var (
	syscallMetric   [NumSysNos]string
	faultMetric     [vm.FaultNoExec + 1]string
	forkPhaseMetric [len(flight.ForkPhases)]string
)

func init() {
	for n := range syscallMetric {
		syscallMetric[n] = "syscall." + SysNo(n).String()
	}
	for kind := range faultMetric {
		faultMetric[kind] = "vm.fault." + vm.FaultKind(kind).String()
	}
	for i, ph := range flight.ForkPhases {
		forkPhaseMetric[i] = "fork.phase." + ph
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
