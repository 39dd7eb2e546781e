package sim

import (
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestSingleTaskClock(t *testing.T) {
	e := NewEngine(1)
	var end Time
	e.Go("solo", 0, func(tk *Task) {
		tk.Work(100)
		tk.Advance(50)
		tk.Work(25)
		end = tk.Now()
	})
	e.Run()
	if end != 175 {
		t.Fatalf("end = %d, want 175", end)
	}
}

func TestTwoTasksTwoCoresOverlap(t *testing.T) {
	// Two compute-bound tasks on two cores overlap fully in virtual time.
	e := NewEngine(2)
	ends := make([]Time, 2)
	for i := 0; i < 2; i++ {
		i := i
		e.Go("worker", 0, func(tk *Task) {
			tk.Work(1000)
			ends[i] = tk.Now()
		})
	}
	e.Run()
	for i, end := range ends {
		if end != 1000 {
			t.Fatalf("task %d end = %d, want 1000 (parallel)", i, end)
		}
	}
}

func TestTwoTasksOneCoreSerialize(t *testing.T) {
	// On one core, the second task's compute is pushed back.
	e := NewEngine(1)
	ends := make([]Time, 2)
	for i := 0; i < 2; i++ {
		i := i
		e.Go("worker", 0, func(tk *Task) {
			tk.Work(1000)
			ends[i] = tk.Now()
		})
	}
	e.Run()
	got := []Time{ends[0], ends[1]}
	if got[0] > got[1] {
		got[0], got[1] = got[1], got[0]
	}
	if got[0] != 1000 || got[1] != 2000 {
		t.Fatalf("ends = %v, want [1000 2000]", got)
	}
}

func TestContextSwitchCost(t *testing.T) {
	// Two tasks alternating on one core pay the switch cost every segment;
	// a core that keeps running the same task does not.
	e := NewEngine(1)
	ends := make([]Time, 2)
	for i := 0; i < 2; i++ {
		i := i
		e.Go("pingpong", 0, func(tk *Task) {
			tk.SwitchCost = 100
			for j := 0; j < 3; j++ {
				tk.Work(10)
			}
			ends[i] = tk.Now()
		})
	}
	e.Run()
	last := ends[0]
	if ends[1] > last {
		last = ends[1]
	}
	// 6 segments of 10ns; first lands on a cold core (no switch), the rest
	// alternate tasks, each paying 100ns: 6*10 + 5*100 = 560.
	if last != 560 {
		t.Fatalf("last end = %d, want 560", last)
	}
}

func TestParkUnpark(t *testing.T) {
	e := NewEngine(2)
	var consumerEnd Time
	var wq WaitQueue
	ready := false
	consumer := func(tk *Task) {
		tk.Work(10)
		for !ready {
			wq.Wait(tk)
		}
		consumerEnd = tk.Now()
	}
	producer := func(tk *Task) {
		tk.Work(500)
		ready = true
		wq.WakeOne(tk, tk.Now())
	}
	e.Go("consumer", 0, consumer)
	e.Go("producer", 0, producer)
	e.Run()
	if consumerEnd != 500 {
		t.Fatalf("consumer woke at %d, want 500 (producer's clock)", consumerEnd)
	}
}

func TestWakeAll(t *testing.T) {
	e := NewEngine(4)
	var wq WaitQueue
	woken := 0
	for i := 0; i < 3; i++ {
		e.Go("waiter", 0, func(tk *Task) {
			wq.Wait(tk)
			woken++
		})
	}
	e.Go("waker", 0, func(tk *Task) {
		tk.Work(100)
		// Let the waiters park first (their clocks are 0 < 100).
		tk.Sync()
		if n := wq.WakeAll(tk, tk.Now()); n != 3 {
			t.Errorf("WakeAll woke %d", n)
		}
	})
	e.Run()
	if woken != 3 {
		t.Fatalf("woken = %d", woken)
	}
}

func TestVLockSerializes(t *testing.T) {
	e := NewEngine(4)
	var lock VLock
	ends := make([]Time, 4)
	for i := 0; i < 4; i++ {
		i := i
		e.Go("locker", 0, func(tk *Task) {
			lock.Lock(tk)
			tk.Advance(100) // critical section, no core booking for clarity
			lock.Unlock(tk)
			ends[i] = tk.Now()
		})
	}
	e.Run()
	seen := map[Time]bool{}
	for _, end := range ends {
		seen[end] = true
	}
	// Critical sections must have serialized: 100, 200, 300, 400.
	for _, want := range []Time{100, 200, 300, 400} {
		if !seen[want] {
			t.Fatalf("ends = %v, want serialized {100,200,300,400}", ends)
		}
	}
	if lock.Contended() != 3 {
		t.Fatalf("contended = %d, want 3", lock.Contended())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine(2)
		var lock VLock
		ends := make([]Time, 6)
		for i := 0; i < 6; i++ {
			i := i
			e.Go("t", Time(i*7), func(tk *Task) {
				for j := 0; j < 5; j++ {
					tk.Work(Time(13 * (i + 1)))
					lock.Lock(tk)
					tk.Advance(5)
					lock.Unlock(tk)
				}
				ends[i] = tk.Now()
			})
		}
		e.Run()
		return ends
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic: run1=%v run2=%v", a, b)
		}
	}
}

func TestSpawnFromRunningTask(t *testing.T) {
	e := NewEngine(2)
	var childEnd Time
	e.Go("parent", 0, func(tk *Task) {
		tk.Work(100)
		e.Go("child", tk.Now(), func(ck *Task) {
			ck.Work(50)
			childEnd = ck.Now()
		})
		tk.Work(10)
	})
	e.Run()
	if childEnd != 150 {
		t.Fatalf("child end = %d, want 150", childEnd)
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	e := NewEngine(1)
	var wq WaitQueue
	e.Go("stuck", 0, func(tk *Task) { wq.Wait(tk) })
	e.Run()
}

// TestGoexitInTaskEndsRun: a task that leaves through runtime.Goexit (a
// t.Fatal inside a test's task) ends Run the same way, at once, instead of
// leaving it blocked until the test binary times out.
func TestGoexitInTaskEndsRun(t *testing.T) {
	e := NewEngine(1)
	e.Go("quitter", 0, func(*Task) { runtime.Goexit() })
	e.Go("bystander", 10, func(tk *Task) { tk.Work(1) })
	returned := make(chan bool, 1)
	go func() {
		ok := false
		defer func() { returned <- ok }()
		e.Run()
		ok = true
	}()
	select {
	case ok := <-returned:
		if ok {
			t.Fatal("Run returned normally after a task's Goexit")
		}
	case <-time.After(time.Second):
		t.Fatal("Run still blocked 1 s after a task's Goexit")
	}
}

// TestPanicInTaskCrashesWithItsMessage: a task's panic is not recovered
// or turned into a Goexit: the binary dies with the task's own message.
// The panicking engine runs in a child process of the test binary.
func TestPanicInTaskCrashesWithItsMessage(t *testing.T) {
	const msg = "task panic 7f3a"
	if os.Getenv("SIM_TASK_PANIC") == "1" {
		e := NewEngine(1)
		e.Go("boom", 0, func(*Task) { panic(msg) })
		e.Go("bystander", 10, func(tk *Task) { tk.Work(1) })
		e.Run()
		return
	}
	for i := 0; i < 3; i++ {
		cmd := exec.Command(os.Args[0], "-test.run=^TestPanicInTaskCrashesWithItsMessage$")
		cmd.Env = append(os.Environ(), "SIM_TASK_PANIC=1")
		out, err := cmd.CombinedOutput()
		first := ""
		for _, line := range strings.Split(string(out), "\n") {
			if strings.HasPrefix(line, "panic: ") {
				first = line
				break
			}
		}
		if err == nil || first != "panic: "+msg || strings.Contains(string(out), "Goexit") {
			t.Fatalf("child exited with %v, first panic line %q; output:\n%s", err, first, out)
		}
	}
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		5:          "5ns",
		1500:       "1.500µs",
		2500000:    "2.500ms",
		3000000000: "3.000s",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", uint64(in), got, want)
		}
	}
}

// TestWakeAllIDOrderAndRewait parks tasks on a queue in an order that is
// not their ID order, then wakes them three times. Each round must wake
// every task exactly once, in ID order, including the tasks that waited
// again straight after the previous wake.
func TestWakeAllIDOrderAndRewait(t *testing.T) {
	e := NewEngine(1)
	var wq WaitQueue
	const rounds = 3
	parkOrder := []int{3, 0, 4, 1, 2} // task i parks parkOrder[i]-th
	var woken [rounds][]int
	for i, pos := range parkOrder {
		e.Go("waiter", Time(pos+1), func(tk *Task) {
			for r := 0; r < rounds; r++ {
				wq.Wait(tk)
				woken[r] = append(woken[r], i)
			}
		})
	}
	e.Go("waker", 100, func(tk *Task) {
		for r := 0; r < rounds; r++ {
			tk.Sync() // every waiter has parked again
			if n := wq.WakeAll(tk, tk.Now()); n != len(parkOrder) {
				t.Errorf("round %d: WakeAll woke %d, want %d", r, n, len(parkOrder))
			}
			tk.Work(10)
		}
	})
	e.Run()
	for r, ids := range woken {
		if !slices.Equal(ids, []int{0, 1, 2, 3, 4}) {
			t.Errorf("round %d woke %v, want every task once in ID order", r, ids)
		}
	}
}

// TestWakeOneFIFOAcrossRefills wakes one waiter at a time while woken
// tasks queue up again behind the rest: the queue must stay FIFO in
// arrival order, not ID order, across every refill.
func TestWakeOneFIFOAcrossRefills(t *testing.T) {
	e := NewEngine(1)
	var wq WaitQueue
	parkOrder := []int{2, 0, 1} // task i parks parkOrder[i]-th
	var woken []int
	for i, pos := range parkOrder {
		e.Go("waiter", Time(pos+1), func(tk *Task) {
			for r := 0; r < 2; r++ {
				wq.Wait(tk)
				woken = append(woken, i)
			}
		})
	}
	e.Go("waker", 100, func(tk *Task) {
		for r := 0; r < 2*len(parkOrder); r++ {
			tk.Sync()
			if !wq.WakeOne(tk, tk.Now()) {
				t.Errorf("wake %d found no waiter", r)
			}
			tk.Work(10)
		}
	})
	e.Run()
	if want := []int{1, 2, 0, 1, 2, 0}; !slices.Equal(woken, want) {
		t.Errorf("woke %v, want arrival order %v", woken, want)
	}
}
