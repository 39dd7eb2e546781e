package kernel

import (
	"testing"

	"ufork/internal/model"
	"ufork/internal/obs"
	"ufork/internal/obs/flight"
	"ufork/internal/sim"
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

// BenchmarkDisabledProcEmit is a μprocess event with no plane armed: its
// accounting counters and the one readers test.
func BenchmarkDisabledProcEmit(b *testing.B) {
	p := &Proc{k: &Kernel{}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.emit(flight.KindLockWait, 100, 3, 0)
	}
}

// TestDisabledEmitAllocatesNothing: with no plane armed an event costs no
// allocation, kernel-scoped or a μprocess's own.
func TestDisabledEmitAllocatesNothing(t *testing.T) {
	k := &Kernel{}
	if n := testing.AllocsPerRun(1000, func() { k.emit(0, 1, flight.KindFault, 2, 0x1000, 0) }); n != 0 {
		t.Fatalf("disabled emit allocates %v objects/event, want 0", n)
	}
	p := &Proc{k: k}
	if n := testing.AllocsPerRun(1000, func() { p.emit(flight.KindBlock, blockNet, 500, 0) }); n != 0 {
		t.Fatalf("disabled process emit allocates %v objects/event, want 0", n)
	}
	if got := p.Acct.BlockNetNS.Value(); got != 1001*500 {
		t.Fatalf("BlockNetNS = %d after 1001 block events of 500 ns", got)
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

// TestLockSitesMatchRanks: each kernel lock's rank decodes, through
// flight.LockSites, to the lock's own name (the legacy BKL, rank 0, to
// "bkl"), so a lock-wait event's site and its lock:<site> label name the
// lock that was contended.
func TestLockSitesMatchRanks(t *testing.T) {
	k := New(Config{Machine: model.UForkSMP(2), Frames: 64})
	p := &Proc{PID: 1}
	k.initProcLocks(p)
	for _, l := range []*sim.VLock{&k.locks.global, &k.locks.shards[0], &k.locks.tmem, &p.lk, &p.fdlk, {}} {
		name := l.Name()
		if name == "" {
			name = "bkl"
		}
		e := flight.Event{Kind: flight.KindLockWait, Args: [3]uint64{1, 0, uint64(l.Rank())}}
		if got := e.LockSite(); got != name || lockLabels[l.Rank()/10] != "lock:"+name {
			t.Errorf("lock %q of rank %d decodes to site %q, label %q", name, l.Rank(), got, lockLabels[l.Rank()/10])
		}
	}
}
