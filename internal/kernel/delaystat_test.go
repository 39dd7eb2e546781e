package kernel_test

import (
	"testing"

	"ufork/internal/kernel"
)

// TestDelayTaxonomySums is the differential test for the per-μprocess
// delay accounting: a pipe ping-pong pair alternates running and blocking,
// and for every process — live parent and reaped child alike — the five
// engine buckets must sum exactly to the virtual lifetime, with the
// pipe-block refinement accounted inside the blocked bucket.
func TestDelayTaxonomySums(t *testing.T) {
	k := newKernel(2, kernel.IsolationFault)
	const rounds = 50
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		downR, downW, err := k.Pipe(p)
		if err != nil {
			t.Error(err)
			return
		}
		upR, upW, err := k.Pipe(p)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := k.Fork(p, func(c *kernel.Proc) {
			buf := make([]byte, 1)
			for i := 0; i < rounds; i++ {
				if _, err := k.Read(c, downR, buf); err != nil {
					k.Exit(c, 1)
					return
				}
				if _, err := k.Write(c, upW, buf); err != nil {
					k.Exit(c, 1)
					return
				}
			}
			k.Exit(c, 0)
		}); err != nil {
			t.Error(err)
			return
		}
		buf := []byte{7}
		for i := 0; i < rounds; i++ {
			if _, err := k.Write(p, downW, buf); err != nil {
				t.Error(err)
				return
			}
			if _, err := k.Read(p, upR, buf); err != nil {
				t.Error(err)
				return
			}
		}
		if _, status, err := k.Wait(p); err != nil || status != 0 {
			t.Errorf("wait: status %d, err %v", status, err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()

	stats := k.ProcStats()
	if len(stats) != 2 {
		t.Fatalf("procs = %d, want parent + reaped child", len(stats))
	}
	var sawExited bool
	for _, st := range stats {
		sum := st.RunNS + st.RunnableWaitNS + st.BlockedNS + st.LatencyNS + st.LockWaitNS
		if sum != st.LifetimeNS {
			t.Errorf("pid %d: buckets sum %d != lifetime %d (%+v)", st.PID, sum, st.LifetimeNS, st)
		}
		if st.LifetimeNS == 0 || st.RunNS == 0 {
			t.Errorf("pid %d: empty accounting (lifetime %d, run %d)", st.PID, st.LifetimeNS, st.RunNS)
		}
		// Each side of the ping-pong spent part of its life parked on the
		// pipe, and that refinement can never exceed its parent bucket.
		if st.BlockPipeNS == 0 {
			t.Errorf("pid %d: no pipe-block time in a pipe ping-pong", st.PID)
		}
		if st.BlockPipeNS+st.BlockChildNS > st.BlockedNS {
			t.Errorf("pid %d: block causes %d+%d exceed blocked bucket %d",
				st.PID, st.BlockPipeNS, st.BlockChildNS, st.BlockedNS)
		}
		if st.BKLWaitNS > st.LockWaitNS {
			t.Errorf("pid %d: BKL wait %d exceeds lock-wait bucket %d", st.PID, st.BKLWaitNS, st.LockWaitNS)
		}
		sawExited = sawExited || st.Exited
	}
	if !sawExited {
		t.Error("no reaped-proc snapshot in ProcStats — delay fields not frozen at exit")
	}
}

// TestBKLContendedConcurrentRead is the data-race regression test for the
// VLock counters at the kernel surface: the telemetry goroutine reads
// BKLContended while the simulation hammers the lock. Run under -race
// this fails if the counters regress to plain ints. Full ProcStats of the
// finished tree is read only after Run returns — live snapshots are a
// quiesced-engine interface, not a mid-run one.
func TestBKLContendedConcurrentRead(t *testing.T) {
	k := newKernel(4, kernel.IsolationFault)
	if _, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		for i := 0; i < 3; i++ {
			if _, err := k.Fork(p, func(c *kernel.Proc) {
				for j := 0; j < 300; j++ {
					k.Getpid(c)
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
	done := make(chan struct{})
	finished := make(chan uint64, 1)
	go func() {
		var sink uint64
		for {
			select {
			case <-done:
				finished <- sink
				return
			default:
			}
			sink += k.BKLContended()
		}
	}()
	k.Run()
	close(done)
	<-finished
	if k.BKLContended() == 0 {
		t.Error("multicore syscall storm did not contend on the BKL")
	}
	var lockWait uint64
	for _, st := range k.ProcStats() {
		lockWait += st.BKLWaitNS + st.LockWaitNS
	}
	if lockWait == 0 {
		t.Error("contended storm recorded no per-proc lock-wait time")
	}
}
