package kernel_test

import (
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ufork/internal/core"
	"ufork/internal/kernel"
	"ufork/internal/model"
	"ufork/internal/obs"
	"ufork/internal/obs/causal"
	"ufork/internal/obs/flight"
	"ufork/internal/obs/memmap"
	"ufork/internal/obs/profile"
	"ufork/internal/sim"
)

// allPlanes returns a fresh, fully armed set of observability planes.
func allPlanes() kernel.Planes {
	return kernel.Planes{
		Metrics: obs.NewRegistry(),
		Flight:  flight.New(1 << 15),
		Memmap:  memmap.New(),
		Causal:  causal.New(0),
		Profile: profile.New(0),
		Locks:   sim.NewLockTable(),
		Live:    new(atomic.Pointer[kernel.Kernel]),
	}
}

// planeView is everything a set of planes recorded, in comparable form.
type planeView struct {
	Metrics obs.Snapshot
	Flight  []flight.Event
	Memmap  memmap.Snapshot
	Traces  causal.Snapshot
	Profile string
	Locks   []sim.LockStat
}

func viewOf(pl kernel.Planes) planeView {
	return planeView{
		Metrics: pl.Metrics.Snapshot(),
		Flight:  pl.Flight.Snapshot(),
		Memmap:  pl.Memmap.Snapshot(0),
		Traces:  pl.Causal.Snapshot(0),
		Profile: pl.Profile.Folded(),
		Locks:   pl.Locks.Snapshot(),
	}
}

// forkTree boots a kernel armed with pl whose root μprocess, named name,
// forks and reaps forks children inside one traced op, and runs it.
func forkTree(t *testing.T, name string, forks int, pl kernel.Planes) *kernel.Kernel {
	eng := core.New(core.CopyOnPointerAccess)
	eng.Parallelism = 1
	k := kernel.New(kernel.Config{
		Machine:   model.UFork(2),
		Engine:    eng,
		Isolation: kernel.IsolationFault,
		Frames:    1 << 14,
		Planes:    pl,
	})
	spec := kernel.HelloWorldSpec()
	spec.Name = name
	if _, err := k.Spawn(spec, 0, func(p *kernel.Proc) {
		k.TraceBegin(p, name, "tree")
		for i := 0; i < forks; i++ {
			if _, err := k.Fork(p, func(c *kernel.Proc) {
				k.Getpid(c)
				c.Compute(500)
				k.Exit(c, 0)
			}); err != nil {
				t.Error(err)
				return
			}
		}
		for i := 0; i < forks; i++ {
			if _, _, err := k.Wait(p); err != nil {
				t.Error(err)
				return
			}
		}
		k.TraceEnd(p)
	}); err != nil {
		t.Error(err)
		return k
	}
	k.Run()
	return k
}

// TestPlanesArePerKernel boots two differently shaped kernels, each with
// its own fully armed Planes, concurrently on separate goroutines (run
// under -race). Every plane must record exactly what the same kernel
// records when it runs alone: no registry count, flight event, memmap
// ledger entry, trace, profile sample or lock meter leaks across.
func TestPlanesArePerKernel(t *testing.T) {
	shapes := []struct {
		name  string
		forks int
	}{{"alpha", 2}, {"beta", 5}}

	solo := make([]planeView, len(shapes))
	for i, s := range shapes {
		pl := allPlanes()
		forkTree(t, s.name, s.forks, pl)
		solo[i] = viewOf(pl)
		if got := solo[i].Metrics.Counters["syscall.fork"]; got != uint64(s.forks) {
			t.Fatalf("%s alone: syscall.fork = %d, want %d", s.name, got, s.forks)
		}
	}

	planes := make([]kernel.Planes, len(shapes))
	kernels := make([]*kernel.Kernel, len(shapes))
	var wg sync.WaitGroup
	for i, s := range shapes {
		planes[i] = allPlanes()
		wg.Add(1)
		go func() {
			defer wg.Done()
			kernels[i] = forkTree(t, s.name, s.forks, planes[i])
		}()
	}
	wg.Wait()

	for i, s := range shapes {
		got := viewOf(planes[i])
		if !reflect.DeepEqual(got, solo[i]) {
			t.Errorf("%s: planes recorded differently next to another kernel than alone", s.name)
		}
		if planes[i].Live.Load() != kernels[i] {
			t.Errorf("%s: Live does not hold its own kernel", s.name)
		}
		for _, ev := range got.Flight {
			if ev.PID > int32(s.forks+1) {
				t.Fatalf("%s: flight event from PID %d, beyond its %d processes", s.name, ev.PID, s.forks+1)
			}
		}
		for _, n := range got.Memmap.Procs {
			if n.Name != s.name {
				t.Errorf("%s: memmap ledger holds %q", s.name, n.Name)
			}
		}
		for _, line := range strings.Split(strings.TrimSpace(got.Profile), "\n") {
			if !strings.Contains(line, "proc:"+s.name+"[") {
				t.Errorf("%s: profile stack from another kernel: %s", s.name, line)
			}
		}
	}
}

// TestForkLatencyHistogram pins the fork latency histogram: one per
// engine, named "fork.latency.<engine>", one observation per fork, and
// accumulating across kernels that share a registry.
func TestForkLatencyHistogram(t *testing.T) {
	pl := kernel.Planes{Metrics: obs.NewRegistry()}
	for i, forks := range []int{3, 2} {
		forkTree(t, "tree", forks, pl)
		hists := pl.Metrics.Snapshot().Histograms
		var names []string
		for name := range hists {
			if strings.HasPrefix(name, "fork.latency") {
				names = append(names, name)
			}
		}
		if len(names) != 1 || names[0] != "fork.latency.uFork/CoPA" {
			t.Fatalf("after kernel %d: fork latency histograms %q, want [fork.latency.uFork/CoPA]", i, names)
		}
		if got, want := hists[names[0]].Count, uint64(3+2*i); got != want {
			t.Errorf("after kernel %d: %d fork latency observations, want %d", i, got, want)
		}
	}
}
