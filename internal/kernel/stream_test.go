package kernel_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"ufork/internal/core"
	"ufork/internal/kernel"
	"ufork/internal/model"
	"ufork/internal/obs"
	"ufork/internal/obs/causal"
	"ufork/internal/obs/flight"
	"ufork/internal/obs/profile"
	"ufork/internal/tmem"
	"ufork/internal/vm"
)

// handoffStorm parks a parent on a pipe read and on a socket accept
// until a forked child writes and connects: the sleeps profStorm does not
// take.
func handoffStorm(t *testing.T, m *model.Machine, planes kernel.Planes) *kernel.Kernel {
	t.Helper()
	k := kernel.New(kernel.Config{
		Machine: m, Engine: core.New(core.CopyOnPointerAccess),
		Isolation: kernel.IsolationFault, Frames: 1 << 16, Planes: planes,
	})
	if _, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		r, w, err := k.Pipe(p)
		if err != nil {
			t.Fatal(err)
		}
		lfd, l := k.Listen(p)
		if _, err := k.Fork(p, func(c *kernel.Proc) {
			c.Compute(5000)
			if _, err := k.Write(c, w, []byte("x")); err != nil {
				t.Error(err)
			}
			c.Compute(5000)
			k.Yield(c) // sync the clock: Connect itself does not
			l.Connect(c)
		}); err != nil {
			t.Fatal(err)
		}
		var b [1]byte
		if _, err := k.Read(p, r, b[:]); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Accept(p, lfd); err != nil {
			t.Fatal(err)
		}
		if _, _, err := k.Wait(p); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
	return k
}

// TestReadersMatchFlight: every reader of a μprocess event derives its
// count from the same emit the flight ring records, so over a program
// that forks, CoW-faults, contends on locks, sleeps and makes syscalls,
// each derived count equals its flight-event sum exactly — the kernel
// and per-process counters, the metrics registry's per-event families,
// and the profiler's lock-wait time.
func TestReadersMatchFlight(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(*testing.T, *model.Machine, kernel.Planes) *kernel.Kernel
		m    *model.Machine
		// want names the flight sums the case must make nonzero, so no
		// comparison passes by both sides reading 0.
		want string
	}{
		{"storm-bkl", profStorm, model.UFork(4), "faults lock-wait child"},
		{"storm-smp", profStorm, model.UForkSMP(4), "faults child"},
		{"handoff-smp", handoffStorm, model.UForkSMP(2), "pipe net lock-wait"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec, reg, pl := flight.New(1<<16), obs.NewRegistry(), profile.New(0)
			k := tc.run(t, tc.m, kernel.Planes{Flight: rec, Metrics: reg, Profile: pl})
			if rec.Dropped() != 0 {
				t.Fatalf("ring dropped %d events; enlarge it", rec.Dropped())
			}
			checkReaders(t, k, rec.Snapshot(), reg, pl, strings.Fields(tc.want))
		})
	}
}

// checkReaders compares every derived count against the sum of the
// flight events it derives from.
func checkReaders(t *testing.T, k *kernel.Kernel, evs []flight.Event, reg *obs.Registry, pl *profile.Plane, want []string) {
	t.Helper()
	// The registry's per-event families.
	wantMetrics := map[string]uint64{}
	// Per-process sums, keyed like ProcStat's fields.
	type sums struct {
		syscalls         map[string]uint64
		faults, service  uint64
		modes            [4]uint64 // mapped, CoW, CoA, CoPA
		bklWait          uint64
		pipe, net, child uint64
	}
	per := map[int]*sums{}
	var syscalls, faults, lockWait uint64
	open := map[int32]flight.Event{} // fault window per PID
	mode := map[int32]uint64{}
	for _, e := range evs {
		s := per[int(e.PID)]
		if s == nil {
			s = &sums{syscalls: map[string]uint64{}}
			per[int(e.PID)] = s
		}
		switch e.Kind {
		case flight.KindSyscall:
			name := kernel.SysNo(e.Args[0]).String()
			wantMetrics["syscall."+name]++
			s.syscalls[name]++
			syscalls++
		case flight.KindSysRet:
			wantMetrics["syscall.latency"]++
		case flight.KindForkPhase:
			wantMetrics["fork.phase."+flight.ForkPhases[e.Args[0]]]++
		case flight.KindFault:
			wantMetrics["vm.fault."+vm.FaultKind(e.Args[0]).String()]++
			s.faults++
			faults++
			open[e.PID], mode[e.PID] = e, 0
		case flight.KindFrameOwnerChange:
			mode[e.PID] = e.Args[1]
		case flight.KindFaultDone:
			s.service += e.TS - open[e.PID].TS
			s.modes[mode[e.PID]]++
		case flight.KindLockWait:
			lockWait += e.Args[0]
			if site := e.LockSite(); site == "bkl" || site == "residual" {
				s.bklWait += e.Args[0]
			}
		case flight.KindBlock:
			*[...]*uint64{&s.pipe, &s.net, &s.child}[e.Args[0]] += e.Args[1]
		}
	}
	total := map[string]uint64{"syscalls": syscalls, "faults": faults, "lock-wait": lockWait}
	for _, s := range per {
		total["pipe"] += s.pipe
		total["net"] += s.net
		total["child"] += s.child
	}
	for _, name := range append(want, "syscalls") {
		if total[name] == 0 {
			t.Fatalf("program recorded no %s: %v", name, total)
		}
	}

	if got := k.Stats.Syscalls.Value(); got != syscalls {
		t.Errorf("k.Stats.Syscalls = %d, flight syscalls %d", got, syscalls)
	}
	if got := k.Stats.PageFaults.Value(); got != faults {
		t.Errorf("k.Stats.PageFaults = %d, flight faults %d", got, faults)
	}
	for _, st := range k.ProcStats() {
		s := per[st.PID]
		if s == nil {
			s = &sums{}
		}
		got := sums{
			syscalls: st.Syscalls, faults: st.Faults, service: st.FaultServiceNS,
			modes:   [4]uint64{st.FaultMapped, st.FaultCoW, st.FaultCoA, st.FaultCoPA},
			bklWait: st.BKLWaitNS, pipe: st.BlockPipeNS, net: st.BlockNetNS, child: st.BlockChildNS,
		}
		if len(got.syscalls) == 0 && len(s.syscalls) == 0 {
			got.syscalls = s.syscalls
		}
		if !reflect.DeepEqual(got, *s) {
			t.Errorf("pid %d: accounting %+v\nflight sums %+v", st.PID, got, *s)
		}
	}

	snap := reg.Snapshot()
	gotMetrics := map[string]uint64{}
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "syscall.") || strings.HasPrefix(name, "vm.fault.") {
			gotMetrics[name] = v
		}
	}
	for name, h := range snap.Histograms {
		if name == "syscall.latency" || strings.HasPrefix(name, "fork.phase.") {
			gotMetrics[name] = h.Count
		}
	}
	if !reflect.DeepEqual(gotMetrics, wantMetrics) {
		t.Errorf("registry counts %v\nflight counts   %v", gotMetrics, wantMetrics)
	}

	var profWait uint64
	for cpu := 0; cpu < k.Eng.Cores(); cpu++ {
		profWait += pl.ChargedNS(cpu, profile.KindLockWait)
	}
	if profWait != lockWait {
		t.Errorf("profiler charged %d ns of lock wait, flight lock waits sum to %d", profWait, lockWait)
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
