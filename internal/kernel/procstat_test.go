package kernel_test

import (
	"errors"
	"testing"

	"ufork/internal/core"
	"ufork/internal/kernel"
	"ufork/internal/model"
)

// TestProcstatSyscall drives the accounting plane end to end from inside
// a μprocess: fork a child that touches CoPA-deferred memory, then read
// both processes' stats through SYS_PROCSTAT and check the counters that
// the fork and fault paths must have charged.
func TestProcstatSyscall(t *testing.T) {
	k := newKernel(1, kernel.IsolationFull)
	var self, child kernel.ProcStat
	var childPID kernel.PID
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		// Plant a capability on the heap page so the child's load is a
		// capability load — the access CoPA defers to fault time.
		if err := p.StoreCap(p.HeapCap, 0, p.HeapCap); err != nil {
			t.Errorf("store cap: %v", err)
		}
		pid, err := k.Fork(p, func(c *kernel.Proc) {
			// Capability load through the heap: under CoPA this is the
			// deferred copy+relocate fault.
			if _, err := c.LoadCap(c.HeapCap, 0); err != nil {
				t.Errorf("child loadcap: %v", err)
			}
			st, err := k.Procstat(c, 0)
			if err != nil {
				t.Errorf("child procstat: %v", err)
			}
			child = st
			k.Exit(c, 0)
		})
		if err != nil {
			t.Errorf("fork: %v", err)
			return
		}
		childPID = pid
		// Cross-PID query of the live child: its delay buckets partition
		// its lifetime so far.
		if st, err := k.Procstat(p, pid); err != nil {
			t.Errorf("cross-pid procstat: %v", err)
		} else if st.PID != int(pid) {
			t.Errorf("cross-pid procstat pid = %d, want %d", st.PID, pid)
		} else if sum := st.RunNS + st.RunnableWaitNS + st.BlockedNS + st.LatencyNS + st.LockWaitNS; sum != st.LifetimeNS {
			t.Errorf("cross-pid procstat buckets sum %d != lifetime %d", sum, st.LifetimeNS)
		}
		if _, _, err := k.Wait(p); err != nil {
			t.Errorf("wait: %v", err)
		}
		st, err := k.Procstat(p, 0)
		if err != nil {
			t.Errorf("self procstat: %v", err)
		}
		self = st
		if _, err := k.Procstat(p, kernel.PID(9999)); !errors.Is(err, kernel.ErrNoProc) {
			t.Errorf("procstat of missing pid: got %v, want ErrNoProc", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()

	for _, st := range []kernel.ProcStat{self, child} {
		if sum := st.RunNS + st.RunnableWaitNS + st.BlockedNS + st.LatencyNS + st.LockWaitNS; sum != st.LifetimeNS || sum == 0 {
			t.Errorf("pid %d: delay buckets sum %d, lifetime %d", st.PID, sum, st.LifetimeNS)
		}
	}
	if self.Forks != 1 {
		t.Errorf("parent forks = %d, want 1", self.Forks)
	}
	if self.Syscalls["fork"] != 1 || self.Syscalls["wait"] != 1 || self.Syscalls["procstat"] != 2 {
		t.Errorf("parent syscall mix wrong: %v", self.Syscalls)
	}
	if self.SyscallsTotal < 3 {
		t.Errorf("parent syscalls_total = %d, want >= 3", self.SyscallsTotal)
	}
	if self.FramesOwned <= 0 || self.FramesPeak < self.FramesOwned {
		t.Errorf("parent frames owned/peak = %d/%d", self.FramesOwned, self.FramesPeak)
	}
	if child.PID != int(childPID) || child.PPID != self.PID {
		t.Errorf("child pid/ppid = %d/%d, want %d/%d", child.PID, child.PPID, childPID, self.PID)
	}
	if child.FaultCoPA == 0 {
		t.Errorf("child CoPA faults = 0, want >0 (heap load under CoPA must fault)")
	}
	if child.FaultCapsRelocated == 0 {
		t.Errorf("child relocated no capabilities on its CoPA fault")
	}
	if child.FramesOwned == 0 {
		t.Errorf("child owns no frames after its copy fault")
	}
	if child.Exited {
		t.Errorf("self-reported stat marked exited")
	}
}

// TestProcStatsRetainsReaped: after the whole tree exits, ProcStats must
// still report every process — final snapshots, exited, frames released.
func TestProcStatsRetainsReaped(t *testing.T) {
	k := newKernel(1, kernel.IsolationFull)
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		for i := 0; i < 3; i++ {
			_, err := k.Fork(p, func(c *kernel.Proc) { k.Exit(c, 0) })
			if err != nil {
				t.Errorf("fork %d: %v", i, err)
			}
			if _, _, err := k.Wait(p); err != nil {
				t.Errorf("wait %d: %v", i, err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	stats := k.ProcStats()
	if len(stats) != 4 {
		t.Fatalf("ProcStats after exit has %d entries, want 4 (root + 3 children)", len(stats))
	}
	for i, st := range stats {
		if !st.Exited {
			t.Errorf("proc %d not marked exited: %+v", st.PID, st)
		}
		if st.FramesOwned != 0 {
			t.Errorf("exited proc %d still owns %d frames", st.PID, st.FramesOwned)
		}
		if i > 0 && stats[i-1].PID >= st.PID {
			t.Errorf("ProcStats not PID-sorted at %d", i)
		}
	}
	if stats[0].Forks != 3 {
		t.Errorf("root forks = %d, want 3", stats[0].Forks)
	}
}

// TestAccountingFullCopyCharges pins the eager path: under full-copy,
// fork itself moves the bytes, so the parent's fork_bytes_copied is
// non-zero and the child faults little.
func TestAccountingFullCopyCharges(t *testing.T) {
	k := kernel.New(kernel.Config{
		Machine:   model.UFork(1),
		Engine:    core.New(core.CopyFull),
		Isolation: kernel.IsolationFull,
		Frames:    1 << 16,
	})
	var self kernel.ProcStat
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		_, err := k.Fork(p, func(c *kernel.Proc) { k.Exit(c, 0) })
		if err != nil {
			t.Errorf("fork: %v", err)
		}
		if _, _, err := k.Wait(p); err != nil {
			t.Errorf("wait: %v", err)
		}
		st, err := k.Procstat(p, 0)
		if err != nil {
			t.Errorf("procstat: %v", err)
		}
		self = st
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if self.ForkBytesCopied == 0 {
		t.Errorf("full-copy fork copied 0 bytes")
	}
	if self.ForkBytesCopied%kernel.PageSize != 0 {
		t.Errorf("fork_bytes_copied = %d, not page-aligned", self.ForkBytesCopied)
	}
}
