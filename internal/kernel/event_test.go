package kernel

import (
	"testing"

	"ufork/internal/obs"
	"ufork/internal/obs/flight"
	"ufork/internal/vm"
)

// BenchmarkDisabledEmit is every kernel event site with no plane armed
// (the production-default configuration): two pointer tests.
//
//	go test -bench Disabled ./internal/kernel
func BenchmarkDisabledEmit(b *testing.B) {
	k := &Kernel{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.emit(0, 1, flight.KindSyscall, 3, 0, 0)
	}
}

// TestDisabledEmitAllocatesNothing: with no plane armed an event costs no
// allocation.
func TestDisabledEmitAllocatesNothing(t *testing.T) {
	k := &Kernel{}
	if n := testing.AllocsPerRun(1000, func() { k.emit(0, 1, flight.KindFault, 2, 0x1000, 0) }); n != 0 {
		t.Fatalf("disabled emit allocates %v objects/event, want 0", n)
	}
}

// TestArmedMetricsEmitAllocatesNothing: with only a metrics registry armed,
// a syscall, fault or fork-phase event finds its metric by a prebuilt name,
// so recording it allocates nothing once the metric exists.
func TestArmedMetricsEmitAllocatesNothing(t *testing.T) {
	k := &Kernel{}
	k.Metrics = obs.NewRegistry()
	for _, ev := range []struct {
		kind      flight.Kind
		a0, a1    uint64
		metric    string
		histogram bool
	}{
		{flight.KindSyscall, uint64(SysRead), 0, "syscall.read", false},
		{flight.KindFault, uint64(vm.FaultCapLoad), 0x1000, "vm.fault.cap-load", false},
		{flight.KindForkPhase, 2, 500, "fork.phase.eagercopy", true},
	} {
		emit := func() { k.emit(0, 1, ev.kind, ev.a0, ev.a1, 0) }
		if n := testing.AllocsPerRun(1000, emit); n != 0 {
			t.Errorf("%v event with metrics armed allocates %v objects, want 0", ev.kind, n)
		}
		var count uint64
		if ev.histogram {
			count = k.Metrics.Histogram(ev.metric).Count()
		} else {
			count = k.Metrics.Counter(ev.metric).Value()
		}
		if count != 1001 { // AllocsPerRun makes one warm-up call
			t.Errorf("%s counted %d events, want 1001", ev.metric, count)
		}
	}
	// Values outside the tables keep their old names.
	k.emit(0, 1, flight.KindSyscall, 250, 0, 0)
	k.emit(0, 1, flight.KindFault, 99, 0, 0)
	for _, name := range []string{"syscall.sys-unknown", "vm.fault.fault(99)"} {
		if n := k.Metrics.Counter(name).Value(); n != 1 {
			t.Errorf("%s counted %d events, want 1", name, n)
		}
	}
}
