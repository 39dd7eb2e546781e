package kernel_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"ufork/internal/kernel"
	"ufork/internal/model"
	"ufork/internal/obs"
	"ufork/internal/obs/causal"
	"ufork/internal/obs/flight"
	"ufork/internal/obs/profile"
	"ufork/internal/tmem"
	"ufork/internal/vm"
)

// TestMetricsMatchFlight: the registry's per-event families are derived
// from the same kernel events the flight ring keeps, so over a program
// that forks, CoW-faults and makes syscalls every count matches the
// matching flight-event count exactly.
func TestMetricsMatchFlight(t *testing.T) {
	rec, reg := flight.New(1<<16), obs.NewRegistry()
	profStorm(t, model.UFork(2), kernel.Planes{Flight: rec, Metrics: reg})
	if rec.Dropped() != 0 {
		t.Fatalf("ring dropped %d events; enlarge it", rec.Dropped())
	}

	want := map[string]uint64{}
	for _, e := range rec.Snapshot() {
		switch e.Kind {
		case flight.KindSyscall:
			want["syscall."+kernel.SysNo(e.Args[0]).String()]++
		case flight.KindSysRet:
			want["syscall.latency"]++
		case flight.KindForkPhase:
			want["fork.phase."+flight.ForkPhases[e.Args[0]]]++
		case flight.KindFault:
			want["vm.fault."+vm.FaultKind(e.Args[0]).String()]++
		}
	}
	snap := reg.Snapshot()
	got := map[string]uint64{}
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "syscall.") || strings.HasPrefix(name, "vm.fault.") {
			got[name] = v
		}
	}
	for name, h := range snap.Histograms {
		if name == "syscall.latency" || strings.HasPrefix(name, "fork.phase.") {
			got[name] = h.Count
		}
	}
	for _, family := range []string{"syscall.fork", "syscall.latency", "fork.phase.reserve", "vm.fault.write-protect"} {
		if want[family] == 0 {
			t.Fatalf("program recorded no %s events: %v", family, want)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("registry counts %v\nflight counts   %v", got, want)
	}
}

// TestFaultErrorLabelsBothWindows: a fault whose handler fails closes
// the fault-service window in the causal trace and in the profiler alike,
// so both attribute the service time to fault:error.
func TestFaultErrorLabelsBothWindows(t *testing.T) {
	cpl, ppl := causal.New(0), profile.New(100)
	k := newKernelWith(1, kernel.IsolationFault, kernel.Planes{Causal: cpl, Profile: ppl})
	fail := false
	k.Mem.SetHooks(&tmem.Hooks{FailAlloc: func() bool { return fail }})
	if _, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		k.TraceBegin(p, "kernel-test", "failed-fault")
		if err := p.StoreU64(p.HeapCap, 0, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Fork(p, func(c *kernel.Proc) { k.Exit(c, 0) }); err != nil {
			t.Fatal(err)
		}
		// The heap page is shared with the child: writing it needs a
		// copy, and the copy's frame allocation fails.
		fail = true
		err := p.StoreU64(p.HeapCap, 0, 2)
		fail = false
		if !errors.Is(err, kernel.ErrSegfault) || !errors.Is(err, tmem.ErrOutOfMemory) {
			t.Fatalf("store with failing allocations: %v, want a segfault from ErrOutOfMemory", err)
		}
		p.Compute(1000)
		if _, _, err := k.Wait(p); err != nil {
			t.Fatal(err)
		}
		k.TraceEnd(p)
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()

	snap := cpl.Snapshot(0)
	if snap.Finished != 1 {
		t.Fatalf("finished traces = %d, want 1", snap.Finished)
	}
	root := rootOf(t, snap.Groups[0].Traces[0])
	var labels []string
	for _, seg := range root.Segs {
		labels = append(labels, seg.Label)
	}
	if !strings.Contains(strings.Join(labels, " "), "fault:error") {
		t.Errorf("trace segments %v carry no fault:error", labels)
	}
	if folded := ppl.Folded(); !strings.Contains(folded, "phase:fault:error") {
		t.Errorf("profile has no fault:error stack:\n%s", folded)
	}
}
