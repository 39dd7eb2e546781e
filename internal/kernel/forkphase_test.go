package kernel_test

import (
	"testing"

	"ufork/internal/baseline/posix"
	"ufork/internal/baseline/vmclone"
	"ufork/internal/core"
	"ufork/internal/kernel"
	"ufork/internal/model"
	"ufork/internal/obs/flight"
)

// TestForkPhasesSumToLatency pins the contract the kernel's fork charge
// relies on: it advances the parent phase by phase, so every engine's
// phase breakdown must tile the fork's latency exactly. Checked from the
// flight stream (phase durations against the fork's start and done
// stamps) for a fresh parent, a forked child forking in turn, and an aged
// parent re-forking after its shared pages were written.
func TestForkPhasesSumToLatency(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *model.Machine
		eng  kernel.ForkEngine
	}{
		{"copa", model.UFork(2), core.New(core.CopyOnPointerAccess)},
		{"coa", model.UFork(2), core.New(core.CopyOnAccess)},
		{"full", model.UFork(2), core.New(core.CopyFull)},
		{"posix", model.Posix(2), posix.New()},
		{"vmclone", model.VMClone(2), vmclone.New()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := flight.New(1 << 16)
			k := kernel.New(kernel.Config{
				Machine:   tc.m,
				Engine:    tc.eng,
				Isolation: kernel.IsolationFull,
				Frames:    1 << 16,
				Planes:    kernel.Planes{Flight: rec},
			})
			// dirty writes a capability and data into p's heap, so the
			// next fork has pointers to scan and written pages to share.
			dirty := func(p *kernel.Proc) {
				target, err := p.HeapCap.SetAddr(p.HeapCap.Base() + 8192).SetBounds(16)
				if err == nil {
					err = p.StoreCap(p.HeapCap, 0, target)
				}
				if err == nil {
					err = p.Store(p.HeapCap, 4096, []byte("dirty"))
				}
				if err != nil {
					t.Error(err)
				}
			}
			forkWait := func(p *kernel.Proc, child func(*kernel.Proc)) {
				if _, err := k.Fork(p, child); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := k.Wait(p); err != nil {
					t.Error(err)
				}
			}
			if _, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
				dirty(p)
				forkWait(p, func(c *kernel.Proc) {
					dirty(c)
					forkWait(c, func(*kernel.Proc) {})
				})
				dirty(p)
				forkWait(p, func(*kernel.Proc) {})
			}); err != nil {
				t.Fatal(err)
			}
			k.Run()
			if rec.Dropped() != 0 {
				t.Fatalf("recorder wrapped (%d dropped); enlarge it", rec.Dropped())
			}
			start := map[int32]uint64{}
			sum := map[int32]uint64{}
			forks := 0
			for _, e := range rec.Snapshot() {
				switch e.Kind {
				case flight.KindForkStart:
					start[e.PID], sum[e.PID] = e.TS, 0
				case flight.KindForkPhase:
					sum[e.PID] += e.Args[1]
				case flight.KindForkDone:
					forks++
					if lat := e.TS - start[e.PID]; sum[e.PID] != lat {
						t.Errorf("fork %d by pid %d: phases sum to %d ns, latency is %d ns",
							forks, e.PID, sum[e.PID], lat)
					}
				}
			}
			if forks != 3 {
				t.Fatalf("saw %d completed forks, want 3", forks)
			}
		})
	}
}
