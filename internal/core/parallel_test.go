package core_test

import (
	"testing"

	"ufork/internal/cap"
	"ufork/internal/core"
	"ufork/internal/kernel"
	"ufork/internal/model"
	"ufork/internal/sim"
	"ufork/internal/tmem"
)

// runParallelForks drives a capability-dense workload through repeated
// forks on a kernel whose μFork engine fans eager page copies across par
// host workers, and returns the virtual-time observables: the last fork's
// full statistics, the parent's final clock, and the total relocation
// count. Run under -race this also exercises the worker pool for data
// races (CopyFull queues every image page, so the pool genuinely fans
// out).
func runParallelForks(t *testing.T, mode core.CopyMode, par int) (kernel.ForkStats, sim.Time, uint64) {
	t.Helper()
	e := core.New(mode)
	e.Parallelism = par
	k := kernel.New(kernel.Config{
		Machine:   model.UFork(2),
		Engine:    e,
		Isolation: kernel.IsolationFull,
		Frames:    1 << 16,
	})
	spec := kernel.HelloWorldSpec()
	spec.HeapPages = 512
	var stats kernel.ForkStats
	var end sim.Time
	if _, err := k.Spawn(spec, 0, func(p *kernel.Proc) {
		// Salt the heap with in-region capabilities so eager copies have
		// relocation work on many (not all) pages.
		for pg := 0; pg < spec.HeapPages; pg += 3 {
			off := uint64(pg) * kernel.PageSize
			c := p.HeapCap.SetAddr(p.HeapCap.Base() + off)
			if err := p.StoreCap(p.HeapCap, off, c); err != nil {
				t.Error(err)
				return
			}
		}
		for n := 0; n < 3; n++ {
			if _, err := k.Fork(p, func(c *kernel.Proc) {
				// The child follows one relocated pointer before exiting,
				// proving the parallel relocation pass ran.
				got, err := c.LoadCap(c.HeapCap, 0)
				if err != nil {
					t.Error(err)
				} else if got.Tag() && got.Addr() != c.HeapCap.Base() {
					t.Errorf("child heap cap not relocated: %#x", got.Addr())
				}
				k.Exit(c, 0)
			}); err != nil {
				t.Error(err)
				return
			}
			if _, _, err := k.Wait(p); err != nil {
				t.Error(err)
				return
			}
		}
		stats = p.LastFork
		end = p.Now()
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
	return stats, end, k.SharedAS.Stats.CapsRelocated.Value()
}

// TestParallelForkDeterministic pins the fork path's virtual-time
// invariant: every statistic and clock reading is bit-identical whatever
// the host worker-pool width, for every copy mode.
func TestParallelForkDeterministic(t *testing.T) {
	for _, mode := range []core.CopyMode{core.CopyOnPointerAccess, core.CopyOnAccess, core.CopyFull} {
		t.Run(mode.String(), func(t *testing.T) {
			baseStats, baseEnd, baseRelocs := runParallelForks(t, mode, 1)
			if mode == core.CopyFull && baseStats.PagesCopied < 512 {
				t.Fatalf("CopyFull copied only %d pages", baseStats.PagesCopied)
			}
			for _, par := range []int{2, 4, 8} {
				stats, end, relocs := runParallelForks(t, mode, par)
				if stats != baseStats || end != baseEnd || relocs != baseRelocs {
					t.Fatalf("parallelism %d changed virtual-time results:\ngot  %+v end=%d relocs=%d\nwant %+v end=%d relocs=%d",
						par, stats, end, relocs, baseStats, baseEnd, baseRelocs)
				}
			}
		})
	}
}

// TestParallelForkReusesPlanes forks a capability-dense image on four
// eager-copy workers after a fork/exit cycle has returned the first
// child's capability planes to the pool, so the copies draw recycled
// planes. Under -race this checks that the workers take planes safely. Each child must see every capability relocated and
// every page the parent overwrote untagged; every frame must pass the tag
// audit; and the plane count must not drift from fork to fork.
func TestParallelForkReusesPlanes(t *testing.T) {
	e := core.New(core.CopyFull)
	e.Parallelism = 4
	k := kernel.New(kernel.Config{Machine: model.UFork(2), Engine: e, Frames: 1 << 14})
	spec := kernel.HelloWorldSpec()
	spec.HeapPages = 64
	// Even pages are dense (a capability in every granule), odd pages
	// sparse (one in 37).
	stride := func(pg int) uint64 {
		if pg%2 == 0 {
			return cap.GranuleSize
		}
		return 37 * cap.GranuleSize
	}
	audit := func() {
		k.Mem.ForEachAllocated(func(pfn tmem.PFN) {
			if err := k.Mem.AuditFrame(pfn); err != nil {
				t.Error(err)
			}
		})
	}
	var planes []int
	if _, err := k.Spawn(spec, 0, func(p *kernel.Proc) {
		for pg := 0; pg < spec.HeapPages; pg++ {
			for off := uint64(pg) * kernel.PageSize; off < uint64(pg+1)*kernel.PageSize; off += stride(pg) {
				if err := p.StoreCap(p.HeapCap, off, p.HeapCap.SetAddr(p.HeapCap.Base()+off)); err != nil {
					t.Error(err)
					return
				}
			}
		}
		for n := 0; n < 4; n++ {
			// Between forks the parent turns one more page into plain data.
			plainPages := n
			if n > 0 {
				junk := make([]byte, kernel.PageSize)
				if err := p.Store(p.HeapCap, uint64(n-1)*kernel.PageSize, junk); err != nil {
					t.Error(err)
					return
				}
			}
			if _, err := k.Fork(p, func(c *kernel.Proc) {
				for pg := 0; pg < spec.HeapPages; pg++ {
					for off := uint64(pg) * kernel.PageSize; off < uint64(pg+1)*kernel.PageSize; off += stride(pg) {
						got, err := c.LoadCap(c.HeapCap, off)
						switch {
						case err != nil:
							t.Error(err)
						case pg < plainPages && got.Tag():
							t.Errorf("fork %d: overwritten page %d still tagged at %#x", n, pg, off)
						case pg >= plainPages && (!got.Tag() || got.Addr() != c.HeapCap.Base()+off):
							t.Errorf("fork %d: granule %#x reads %v, want a capability to %#x", n, off, got, c.HeapCap.Base()+off)
						}
					}
				}
				k.Exit(c, 0)
			}); err != nil {
				t.Error(err)
				return
			}
			audit()
			if _, _, err := k.Wait(p); err != nil {
				t.Error(err)
				return
			}
			audit()
			planes = append(planes, k.Mem.CapPlanes())
		}
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
	t.Logf("frames holding a plane after each cycle: %v", planes)
	for i := 1; i < len(planes); i++ {
		if planes[i] > planes[i-1] {
			t.Fatalf("frames holding a capability plane after each fork/exit cycle: %v, want no growth", planes)
		}
	}
}
