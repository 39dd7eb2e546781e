package sim_test

import (
	"slices"
	"testing"

	"ufork/internal/sim"
)

// TestLoneTaskSyncSkipsRun: while a task is the only runnable one, its
// Sync, Work, Book and VLock.Lock calls return without a handoff through
// Run, and its clock advances exactly as the round trips would leave it.
func TestLoneTaskSyncSkipsRun(t *testing.T) {
	e := sim.NewEngine(1)
	var l sim.VLock
	l.Init("l", 10, 0)
	var end sim.Time
	e.Go("solo", 0, func(tk *sim.Task) {
		for i := 0; i < 100; i++ {
			tk.Sync()
			tk.Work(10)
			tk.Book(5)
			l.Lock(tk)
			tk.Advance(1)
			l.Unlock(tk)
		}
		end = tk.Now()
	})
	e.Run()
	if end != 1600 {
		t.Fatalf("end = %d, want 1600", end)
	}
	if got := e.Resumes(); got != 1 {
		t.Fatalf("resumes = %d, want 1 (the task's start only)", got)
	}
}

// TestParkedPeerLeavesTaskAlone: a task whose only peer is parked (a
// parent in wait(2) while its child runs) skips the round trip too; the
// peer's wake-up and its own resume still go through Run.
func TestParkedPeerLeavesTaskAlone(t *testing.T) {
	e := sim.NewEngine(2)
	var wq sim.WaitQueue
	var woke sim.Time
	e.Go("parent", 0, func(tk *sim.Task) {
		wq.Wait(tk)
		woke = tk.Now()
	})
	e.Go("child", 0, func(tk *sim.Task) {
		for i := 0; i < 50; i++ {
			tk.Work(10)
		}
		wq.WakeOne(tk, tk.Now())
		tk.Work(10)
	})
	e.Run()
	if woke != 500 {
		t.Fatalf("parent woke at %d, want 500", woke)
	}
	// Two starts, then the parent's resume after WakeOne and the child's
	// from its last Work's Sync.
	if got := e.Resumes(); got != 4 {
		t.Fatalf("resumes = %d, want 4", got)
	}
}

// TestSyncYieldsToRunnableTask: with any other task runnable, Sync goes
// through Run, so a task ahead on (clock, id) runs first.
func TestSyncYieldsToRunnableTask(t *testing.T) {
	cases := []struct {
		name string
		run  func(e *sim.Engine, log func(string))
		want []string
	}{{
		name: "earlier clock",
		run: func(e *sim.Engine, log func(string)) {
			e.Go("a", 0, func(tk *sim.Task) {
				tk.Advance(100)
				tk.Sync()
				log("a")
			})
			e.Go("b", 50, func(tk *sim.Task) { log("b") })
		},
		want: []string{"b", "a"},
	}, {
		name: "equal clock lower id",
		run: func(e *sim.Engine, log func(string)) {
			e.Go("a", 100, func(tk *sim.Task) { log("a") })
			e.Go("b", 0, func(tk *sim.Task) {
				tk.Advance(100)
				tk.Sync()
				log("b")
			})
		},
		want: []string{"a", "b"},
	}, {
		name: "unparked",
		run: func(e *sim.Engine, log func(string)) {
			var wq sim.WaitQueue
			e.Go("a", 0, func(tk *sim.Task) {
				wq.Wait(tk)
				log("a")
			})
			e.Go("b", 0, func(tk *sim.Task) {
				tk.Sync() // let a park
				wq.WakeOne(tk, tk.Now())
				tk.Sync()
				log("b")
			})
		},
		want: []string{"a", "b"},
	}, {
		name: "spawned",
		run: func(e *sim.Engine, log func(string)) {
			e.Go("a", 0, func(tk *sim.Task) {
				e.Go("b", tk.Now(), func(*sim.Task) { log("b") })
				tk.Advance(1)
				tk.Sync()
				log("a")
			})
		},
		want: []string{"b", "a"},
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := sim.NewEngine(1)
			var got []string
			c.run(e, func(s string) { got = append(got, s) })
			e.Run()
			if !slices.Equal(got, c.want) {
				t.Fatalf("order = %v, want %v", got, c.want)
			}
		})
	}
}

// TestRunqDepthUnchangedBySkip pins the armed run-queue depth histogram
// on a scenario that mixes contended and lone Syncs to the values the
// engine recorded when every Sync went through Run.
func TestRunqDepthUnchangedBySkip(t *testing.T) {
	e := sim.NewEngine(1)
	e.ArmSched(sim.NewSchedStats(1))
	var l sim.VLock
	l.Init("l", 10, 0)
	var wq sim.WaitQueue
	e.Go("a", 0, func(tk *sim.Task) {
		for i := 0; i < 3; i++ {
			l.Lock(tk)
			tk.Work(10)
			l.Unlock(tk)
		}
		wq.Wait(tk)
		for i := 0; i < 5; i++ { // alone: b and c are done
			tk.Sync()
			tk.Work(7)
			tk.Book(3)
		}
	})
	e.Go("b", 5, func(tk *sim.Task) {
		for i := 0; i < 3; i++ {
			l.Lock(tk)
			tk.Work(10)
			l.Unlock(tk)
		}
		tk.Work(1000)
		tk.Sync() // let a park
		wq.WakeOne(tk, tk.Now())
	})
	e.Go("c", 20, func(tk *sim.Task) {
		tk.Advance(50)
		tk.Sync()
		tk.Work(5)
	})
	e.Run()
	d := e.Sched().Snapshot().RunqDepth
	if d.Count != 35 || d.Sum != 31 || d.Max != 2 {
		t.Fatalf("runq depth count/sum/max = %d/%d/%d, want 35/31/2", d.Count, d.Sum, d.Max)
	}
}

// BenchmarkSync measures one engine task handoff: "lone" is a task alone
// on the engine calling Sync, "pingpong" two tasks alternating Work, so
// every Sync goes through Run to the other task.
//
//	go test ./internal/sim -run xxx -bench Sync
func BenchmarkSync(b *testing.B) {
	b.Run("lone", func(b *testing.B) {
		e := sim.NewEngine(1)
		e.Go("lone", 0, func(tk *sim.Task) {
			for i := 0; i < b.N; i++ {
				tk.Sync()
			}
		})
		b.ResetTimer()
		e.Run()
	})
	b.Run("pingpong", func(b *testing.B) {
		e := sim.NewEngine(2)
		for range 2 {
			e.Go("pingpong", 0, func(tk *sim.Task) {
				for i := 0; i < b.N/2; i++ {
					tk.Work(1)
				}
			})
		}
		b.ResetTimer()
		e.Run()
	})
}
