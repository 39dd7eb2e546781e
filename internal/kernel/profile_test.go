package kernel_test

import (
	"strings"
	"testing"

	"ufork/internal/core"
	"ufork/internal/kernel"
	"ufork/internal/model"
	"ufork/internal/obs/profile"
	"ufork/internal/sim"
)

// profStorm boots a kernel on machine m with planes (and scheduler
// stats) armed and runs a fork-storm workload that exercises every
// profiler sample source: syscall compute, fork-phase latency, CoW/CoPA
// fault service, and — on multicore machines — lock waits. Returns the
// kernel after Run.
func profStorm(t *testing.T, m *model.Machine, planes kernel.Planes) *kernel.Kernel {
	t.Helper()
	k := kernel.New(kernel.Config{
		Machine:   m,
		Engine:    core.New(core.CopyOnPointerAccess),
		Isolation: kernel.IsolationFault,
		Frames:    1 << 16,
		Planes:    planes,
	})
	k.Eng.ArmSched(sim.NewSchedStats(k.Eng.Cores()))
	if _, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		for i := 0; i < 3; i++ {
			if _, err := k.Fork(p, func(c *kernel.Proc) {
				for j := 0; j < 40; j++ {
					k.Getpid(c)
					c.Compute(500)
					// Post-fork heap writes break sharing: CoW/CoPA
					// fault service lands in fault:<mode> stacks.
					if err := c.StoreU64(c.HeapCap, uint64(64+8*j), uint64(j)); err != nil {
						t.Errorf("store: %v", err)
						return
					}
				}
			}); err != nil {
				t.Error(err)
				return
			}
		}
		for i := 0; i < 3; i++ {
			if _, _, err := k.Wait(p); err != nil {
				t.Error(err)
				return
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
	return k
}

// TestProfileExactSumVsSched is the acceptance exactness proof: the
// profiler's charged run time per CPU must equal the scheduler's
// independently accumulated core-busy time to the nanosecond — two
// separate accumulators fed the same values — and the sampled time must
// match the charged time within one quantum (CheckExact's residual
// bound). Both lock regimes are covered.
func TestProfileExactSumVsSched(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *model.Machine
	}{
		{"bkl-4core", model.UFork(4)},
		{"smp-4core", model.UForkSMP(4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl := profile.New(0)
			k := profStorm(t, tc.m, kernel.Planes{Profile: pl})
			if err := pl.CheckExact(); err != nil {
				t.Fatal(err)
			}
			if pl.Samples() == 0 {
				t.Fatal("fork storm produced no samples")
			}
			snap := k.Eng.Sched().Snapshot()
			for core, pc := range snap.PerCore {
				charged := pl.ChargedNS(core, profile.KindRun)
				if charged != pc.BusyNS {
					t.Errorf("core %d: profiler charged %d ns run, scheduler busy %d ns",
						core, charged, pc.BusyNS)
				}
				if sampled := pl.SampledNS(core, profile.KindRun); charged-sampled >= uint64(pl.Quantum()) {
					t.Errorf("core %d: sampled %d ns off charged %d ns by ≥ one quantum",
						core, sampled, charged)
				}
			}
		})
	}
}

// TestProfileStacks checks the synthetic stacks carry the attribution
// frames the walkthroughs and the served-plane tests look for:
// fork-phase latency, syscall compute, fault-service copy modes, and
// (under the contended BKL) lock-wait sites.
func TestProfileStacks(t *testing.T) {
	pl := profile.New(100) // fine quantum so every source ticks
	profStorm(t, model.UFork(4), kernel.Planes{Profile: pl})
	folded := pl.Folded()
	for _, frag := range []string{
		"phase:fork:",    // fork-phase latency split
		"syscall:fork",   // charged inside the fork syscall
		"syscall:getpid", // plain syscall compute
		"phase:fault:",   // deferred fault-window samples
		"phase:lock:bkl", // contended BKL waits
		"proc:hello[",    // proc frame carries name and pid
	} {
		if !strings.Contains(folded, frag) {
			t.Errorf("folded profile missing %q:\n%s", frag, folded)
		}
	}
	// Deferral must not leak: a sample emitted outside any window keeps
	// an empty phase, rendered without a phase frame.
	if !strings.Contains(folded, "proc:hello[1]\u0020") && !strings.Contains(folded, "proc:hello[1];syscall") {
		t.Errorf("no phase-less root stacks in:\n%s", folded)
	}
}

// TestProfileArmedTimelineInvariance: arming the profiler must not move
// the virtual timeline — the same workload finishes at the identical
// virtual time with and without the plane.
func TestProfileArmedTimelineInvariance(t *testing.T) {
	run := func(pl *profile.Plane) (end sim.Time, forks uint64) {
		k := kernel.New(kernel.Config{
			Machine:   model.UForkSMP(2),
			Engine:    core.New(core.CopyOnPointerAccess),
			Isolation: kernel.IsolationFault,
			Frames:    1 << 16,
			Planes:    kernel.Planes{Profile: pl},
		})
		if _, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
			for i := 0; i < 2; i++ {
				if _, err := k.Fork(p, func(c *kernel.Proc) {
					for j := 0; j < 25; j++ {
						k.Getpid(c)
						if err := c.StoreU64(c.HeapCap, uint64(64+8*j), 1); err != nil {
							t.Errorf("store: %v", err)
							return
						}
					}
				}); err != nil {
					t.Error(err)
					return
				}
			}
			for i := 0; i < 2; i++ {
				if _, _, err := k.Wait(p); err != nil {
					t.Error(err)
					return
				}
			}
			end = p.Task.Now()
		}); err != nil {
			t.Fatal(err)
		}
		k.Run()
		return end, k.Stats.Forks.Value()
	}
	pl := profile.New(0)
	bareEnd, bareForks := run(nil)
	armedEnd, armedForks := run(pl)
	if bareEnd != armedEnd || bareForks != armedForks {
		t.Fatalf("armed run diverged: end %v vs %v, forks %d vs %d",
			bareEnd, armedEnd, bareForks, armedForks)
	}
	if pl.Samples() == 0 {
		t.Fatal("armed run produced no samples")
	}
}
