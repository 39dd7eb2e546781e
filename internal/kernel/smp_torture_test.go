package kernel_test

import (
	"fmt"
	"testing"

	"ufork/internal/core"
	"ufork/internal/kernel"
	"ufork/internal/model"
	"ufork/internal/sim"
)

// tortureRun boots the split-lock machine at 8 simulated cores and drives
// 8 concurrent μprocess workers through a mixed syscall storm: fork/wait
// trees, private and cross-process pipes, file I/O with fsync, heap
// grow/shrink, self-signals, and a SIGKILL. It returns the worker count
// and the global-lock contention, so callers can assert both that the
// storm ran and that the residual lock stayed narrow.
func tortureRun(t *testing.T) (forks uint64, residualContended uint64) {
	t.Helper()
	const workers = 8
	locks := sim.NewLockTable()
	k := kernel.New(kernel.Config{
		Machine:   model.UForkSMP(8),
		Engine:    core.New(core.CopyOnPointerAccess),
		Isolation: kernel.IsolationFault,
		Frames:    1 << 14,
		Planes:    kernel.Planes{Locks: locks},
	})

	worker := func(w *kernel.Proc, shared [2]int, writer bool) {
		const msgs, msgSize = 8, 64
		buf := make([]byte, msgSize)
		for round := 0; round < 4; round++ {
			k.Getpid(w)
			k.Yield(w)
			if err := k.Sbrk(w, 2); err != nil {
				t.Errorf("pid %d: sbrk grow: %v", w.PID, err)
			}
			if err := k.Sbrk(w, -2); err != nil {
				t.Errorf("pid %d: sbrk shrink: %v", w.PID, err)
			}

			// Private pipe round-trip.
			rfd, wfd, err := k.Pipe(w)
			if err != nil {
				t.Errorf("pid %d: pipe: %v", w.PID, err)
				return
			}
			if _, err := k.Write(w, wfd, buf); err != nil {
				t.Errorf("pid %d: pipe write: %v", w.PID, err)
			}
			if _, err := k.Read(w, rfd, buf); err != nil {
				t.Errorf("pid %d: pipe read: %v", w.PID, err)
			}
			k.Close(w, rfd)
			k.Close(w, wfd)

			// File I/O through the per-process FD table lock.
			fd, err := k.Open(w, fmt.Sprintf("t%d-%d", w.PID, round), true)
			if err != nil {
				t.Errorf("pid %d: open: %v", w.PID, err)
				return
			}
			if _, err := k.Write(w, fd, buf); err != nil {
				t.Errorf("pid %d: file write: %v", w.PID, err)
			}
			if err := k.Fsync(w, fd); err != nil {
				t.Errorf("pid %d: fsync: %v", w.PID, err)
			}
			k.Close(w, fd)

			// A grandchild per round: fork/exit churn across the proc-table
			// shards and the tmem allocator from every core.
			if _, err := k.Fork(w, func(c *kernel.Proc) {
				for i := 0; i < 25; i++ {
					k.Getpid(c)
				}
				k.Sbrk(c, 1)
			}); err != nil {
				t.Errorf("pid %d: fork: %v", w.PID, err)
				return
			}
			if _, _, err := k.Wait(w); err != nil {
				t.Errorf("pid %d: wait: %v", w.PID, err)
			}

			// Catchable self-signal: delivery runs on our own syscall path.
			k.Sigaction(w, kernel.SIGUSR1, func(*kernel.Proc, kernel.Signal) {})
			k.SignalPID(w, w.PID, kernel.SIGUSR1)
		}

		// Cross-process traffic on the pipe inherited from the root: half
		// the fleet writes, half reads, with exactly matched byte totals so
		// every sleeper is woken by a peer on another core.
		if writer {
			for i := 0; i < msgs; i++ {
				if _, err := k.Write(w, shared[1], buf); err != nil {
					t.Errorf("pid %d: shared write: %v", w.PID, err)
					return
				}
			}
		} else {
			want := msgs * msgSize
			for got := 0; got < want; {
				max := want - got
				if max > msgSize {
					max = msgSize
				}
				n, err := k.Read(w, shared[0], buf[:max])
				if err != nil {
					t.Errorf("pid %d: shared read: %v", w.PID, err)
					return
				}
				got += n
			}
		}
	}

	if _, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		rfd, wfd, err := k.Pipe(p)
		if err != nil {
			t.Errorf("root pipe: %v", err)
			return
		}
		shared := [2]int{rfd, wfd}
		for i := 0; i < workers; i++ {
			writer := i%2 == 0
			if _, err := k.Fork(p, func(w *kernel.Proc) {
				worker(w, shared, writer)
			}); err != nil {
				t.Errorf("fork worker %d: %v", i, err)
				return
			}
		}
		// A victim for the kill path: a sibling the root SIGKILLs mid-loop.
		victim, err := k.Fork(p, func(v *kernel.Proc) {
			for i := 0; i < 5000; i++ {
				k.Getpid(v)
			}
		})
		if err != nil {
			t.Errorf("fork victim: %v", err)
			return
		}
		k.Kill(p, victim) // outcome depends on timing; Wait reaps either way
		for i := 0; i < workers+1; i++ {
			if _, _, err := k.Wait(p); err != nil {
				t.Errorf("wait %d: %v", i, err)
			}
		}
		k.Close(p, rfd)
		k.Close(p, wfd)
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()

	snap := locks.Snapshot()
	byName := map[string]sim.LockStat{}
	for _, s := range snap {
		byName[s.Name] = s
	}
	for _, name := range []string{"residual", "proctable", "tmem", "uproc", "fdtable"} {
		if byName[name].Acquisitions == 0 {
			t.Errorf("lock class %q saw no acquisitions during the torture run", name)
		}
	}
	return k.Stats.Forks.Value(), k.BKLContended()
}

// TestSMPTortureMixedSyscalls is the -race torture test for the split-lock
// kernel: 8 μprocess workers on 8 simulated cores hammer every lock class
// at once. The race detector checks the host-side invariants; the
// assertions below check the virtual ones — every lock class exercised,
// all children reaped, and a replay produces identical totals
// (fine-grained locking must not cost determinism).
func TestSMPTortureMixedSyscalls(t *testing.T) {
	forks1, res1 := tortureRun(t)
	if forks1 < 40 {
		t.Errorf("torture run forked only %d times; the storm did not run", forks1)
	}
	forks2, res2 := tortureRun(t)
	if forks1 != forks2 || res1 != res2 {
		t.Errorf("torture run does not replay: forks %d/%d, residual contention %d/%d",
			forks1, forks2, res1, res2)
	}
}
