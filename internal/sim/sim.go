// Package sim is a deterministic virtual-time discrete-event engine.
//
// Every μprocess (and every baseline process) runs as a Task: a goroutine
// whose progress is measured on a virtual clock in nanoseconds. Exactly one
// task executes at any real-time instant, so simulations are fully
// deterministic, yet tasks overlap in *virtual* time across a configurable
// number of CPU cores, which is how the multi-core throughput experiments
// (Figures 6 and 7) are reproduced. Run hands control to a task over its
// resume channel and the task hands it back when it syncs, parks or ends;
// a task that syncs while no other task is runnable keeps control instead,
// because Run would hand it straight back.
//
// The model:
//
//   - Task.Work(d) books d nanoseconds of compute on the earliest-available
//     core (charging a context-switch cost when the core last ran a
//     different task — this is where multi-address-space TLB flush costs
//     surface);
//   - Task.Sync() is a causality point: the engine always resumes the
//     runnable task with the smallest (clock, id), so cross-task
//     interactions (pipes, wait/exit, locks) observe a consistent global
//     order; a task alone on the engine returns from Sync at once;
//   - Task.Park()/Task.Unpark() implement blocking: a parked task resumes
//     no earlier than the waker's clock at wake time.
package sim

import (
	"cmp"
	"container/heap"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
)

// Time is virtual time in nanoseconds.
type Time uint64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", uint64(t))
	}
}

// state of a task.
type state int

const (
	stateNew state = iota
	stateRunnable
	stateRunning
	stateParked
	stateDone
)

// Task is one simulated thread of execution.
type Task struct {
	ID   int
	Name string

	// Tag is an opaque annotation the embedding kernel sets (the owning
	// μprocess PID); the engine threads it through to dispatch hooks and
	// flight events without knowing what it means.
	Tag int32

	eng    *Engine
	now    Time
	st     state
	resume chan struct{}
	fn     func(*Task)

	// goexited marks a task whose fn ended without returning.
	goexited bool

	// startAt is the clock the task was created with. Every clock advance
	// is attributed to exactly one DelayKind, so at any instant
	// Now()-StartAt() equals the sum over delays — the identity the delay
	// accounting tests pin.
	startAt Time

	// delays is the per-kind delay taxonomy. Atomic because the telemetry
	// server reads them from an HTTP goroutine while the simulation
	// goroutine accumulates.
	delays [NumDelayKinds]atomic.Uint64

	// SwitchCost is charged by Work when this task lands on a core that
	// last ran a different task. The kernel sets it per machine model.
	SwitchCost Time

	// Offcore marks a task that models an external agent (e.g. a load
	// generator standing in for a client machine): its Work/Book calls
	// advance its clock without occupying any of the simulated CPU cores.
	Offcore bool

	// held is the stack of VLocks the task currently holds, in acquisition
	// order. The lock-ordering assertion validates new acquisitions against
	// it, and sleep sites release/re-acquire through it. Simulation
	// goroutine only.
	held []*VLock

	// lastCore is the core index the task most recently booked compute on;
	// the kernel uses it to attribute allocator traffic to a per-CPU frame
	// cache. Simulation goroutine only.
	lastCore int
}

// HeldLocks returns the locks the task currently holds, outermost first (a
// copy). Sleep sites snapshot it to re-acquire the same footprint after a
// wake.
func (t *Task) HeldLocks() []*VLock {
	if len(t.held) == 0 {
		return nil
	}
	return append([]*VLock(nil), t.held...)
}

// ReleaseAll unlocks every strict lock the task holds, innermost first.
// Idempotent: callers use it as a safety net on syscall exit and on the
// double-release paths of a task unwinding through a kill.
func (t *Task) ReleaseAll() {
	for len(t.held) > 0 {
		t.held[len(t.held)-1].Unlock(t)
	}
}

// LastCore returns the core index this task most recently booked compute
// on (zero before any booking; off-core tasks keep their last value).
func (t *Task) LastCore() int { return t.lastCore }

// Engine drives a set of tasks over virtual time.
type Engine struct {
	cores    *coreBank
	tasks    []*Task
	runq     runQueue
	toSched  chan *Task
	nextID   int
	running  *Task
	started  bool
	finished bool

	// resumes counts the channel handoffs Run makes to a task; tests
	// read it to see which Syncs went through the scheduler.
	resumes int

	// sched, when armed via ArmSched, collects run-queue depth, dispatch
	// latency, and per-core utilization. Nil in production runs: every
	// observation site pays one pointer check.
	sched *SchedStats

	// OnDispatch, when non-nil, observes each on-core slot grant that had
	// to queue behind busy cores (wait > 0). Called on the simulation
	// goroutine with the granted task and its queueing delay; it must not
	// touch task clocks. Only consulted when sched is armed.
	OnDispatch func(t *Task, wait Time)

	// OnCharge, when non-nil, observes every charged interval of a
	// core-occupying task: on-core compute from Work/Book (DelayRun, with
	// the same busy value the scheduler stats record) and off-core
	// latency from Advance (DelayLatency, attributed to the task's last
	// core). Offcore tasks are skipped — they model external agents and
	// never occupy a simulated CPU. Called on the simulation goroutine
	// after the task's clock has advanced; it must not touch task clocks,
	// so installing it cannot change the simulated timeline. Unarmed
	// engines pay one nil check per charge.
	OnCharge func(t *Task, core int, kind DelayKind, d Time)
}

// NewEngine creates an engine with the given number of CPU cores.
func NewEngine(cores int) *Engine {
	if cores < 1 {
		panic("sim: need at least one core")
	}
	return &Engine{
		cores:   newCoreBank(cores),
		toSched: make(chan *Task),
	}
}

// Cores returns the number of simulated CPU cores.
func (e *Engine) Cores() int { return e.cores.n() }

// ArmSched attaches scheduler statistics collection. Arm before Run;
// collection never mutates task clocks, so arming cannot change the
// simulated timeline.
func (e *Engine) ArmSched(s *SchedStats) { e.sched = s }

// Sched returns the armed scheduler statistics, or nil.
func (e *Engine) Sched() *SchedStats { return e.sched }

// Now returns the virtual clock of the currently running task, or zero
// when the engine is idle (setup before Run, teardown after). The
// scheduler writes running before the resume-channel handoff and clears it
// after the task yields back, so a call made from inside the running task
// — the only caller — observes a stable pointer.
func (e *Engine) Now() Time {
	if t := e.running; t != nil {
		return t.now
	}
	return 0
}

// Go creates a task that will run fn starting at virtual time start. It
// may be called before Run or from within a running task (e.g. by fork).
func (e *Engine) Go(name string, start Time, fn func(*Task)) *Task {
	t := &Task{
		ID:      e.nextID,
		Name:    name,
		eng:     e,
		now:     start,
		startAt: start,
		st:      stateRunnable,
		resume:  make(chan struct{}),
		fn:      fn,
	}
	e.nextID++
	e.tasks = append(e.tasks, t)
	heap.Push(&e.runq, t)
	go t.body()
	return t
}

func (t *Task) body() {
	<-t.resume
	defer t.exit()
	t.fn(t)
	t.st = stateDone
}

// exit hands control back to the scheduler when fn returns and when it
// leaves through runtime.Goexit (a t.Fatal inside a test's task); Run then
// leaves through runtime.Goexit as well, so the test fails with its
// message instead of hanging. A panic is not recovered and gets no
// handback: it crashes the program with its own message and stack, before
// Run could race it with one about Goexit.
func (t *Task) exit() {
	if t.st != stateDone {
		if !goexiting() {
			return
		}
		t.st = stateDone
		t.goexited = true
	}
	t.eng.toSched <- t
}

// goexiting reports whether the deferred call it is made from runs
// because its goroutine called runtime.Goexit rather than panicked: the
// innermost of the two runtime frames that run deferred calls decides.
// Only recover could tell otherwise, and it would stop the panic.
func goexiting() bool {
	var pcs [16]uintptr
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs[:])])
	for {
		f, more := frames.Next()
		switch f.Function {
		case "runtime.Goexit":
			return true
		case "runtime.gopanic":
			return false
		}
		if !more {
			return false
		}
	}
}

// Run executes the simulation until every task has finished. It panics on
// deadlock (parked tasks with an empty run queue), printing a task dump —
// a deadlock is always a bug in the simulated kernel. When a task leaves
// through runtime.Goexit, Run does too, without returning.
func (e *Engine) Run() {
	if e.started {
		panic("sim: engine reused")
	}
	e.started = true
	for e.runq.Len() > 0 {
		t := heap.Pop(&e.runq).(*Task)
		if s := e.sched; s != nil {
			s.RunqDepth.Observe(uint64(e.runq.Len()))
		}
		t.st = stateRunning
		e.running = t
		e.resumes++
		t.resume <- struct{}{}
		<-e.toSched
		e.running = nil
		if t.goexited {
			runtime.Goexit()
		}
	}
	for _, t := range e.tasks {
		if t.st != stateDone {
			panic("sim: deadlock — " + e.dump())
		}
	}
	e.finished = true
}

func (e *Engine) dump() string {
	s := ""
	for _, t := range e.tasks {
		s += fmt.Sprintf("[task %d %q state=%d now=%v] ", t.ID, t.Name, t.st, t.now)
	}
	return s
}

// Now returns the task's virtual clock.
func (t *Task) Now() Time { return t.now }

// Advance moves the task's clock forward by d without consuming core time.
// Use it for latencies that do not occupy a CPU (e.g. simulated device or
// network delays); use Work for computation.
func (t *Task) Advance(d Time) {
	t.addDelay(DelayLatency, d)
	t.now += d
	if h := t.eng.OnCharge; h != nil && !t.Offcore && d > 0 {
		h(t, t.lastCore, DelayLatency, d)
	}
}

// AdvanceTo moves the clock forward to at least abs. Only Unpark calls it,
// so the jump is parked (blocked) time.
func (t *Task) AdvanceTo(abs Time) {
	if abs > t.now {
		t.addDelay(DelayBlocked, abs-t.now)
		t.now = abs
	}
}

// Sync is a causality point: the task re-enters the scheduler so that any
// other runnable task ahead of it on (clock, id) executes first. Kernel
// entry points call this before touching shared state.
//
// When the run queue is empty the task is alone on the engine and Sync
// returns at once, without a handoff through Run. That is exact: every
// other task is parked or done, and only the running task can make one
// runnable (Go, Unpark), so Run would pop this task straight back. The
// schedule, every clock and every delay bucket are those of the round
// trip, and an armed SchedStats records the run-queue depth 0 that Run's
// pop would have.
func (t *Task) Sync() {
	t.check()
	if t.eng.runq.Len() == 0 {
		if s := t.eng.sched; s != nil {
			s.RunqDepth.Observe(0)
		}
		return
	}
	t.st = stateRunnable
	heap.Push(&t.eng.runq, t)
	t.eng.toSched <- t
	<-t.resume
	t.st = stateRunning
}

// Work books d nanoseconds of computation on the earliest-free core. The
// task's clock advances to the end of the booked slot, which may be later
// than now+d when all cores are busy — that is how core contention
// throttles throughput. A context-switch cost is charged when the core
// last ran a different task.
func (t *Task) Work(d Time) {
	t.Sync()
	if t.Offcore {
		t.addDelay(DelayRun, d)
		t.now += d
		return
	}
	ready := t.now
	start, core, switched := t.eng.cores.acquire(ready, t.ID)
	wait := start - ready
	if switched {
		start += t.SwitchCost
	}
	end := start + d
	t.eng.cores.release(core, end, t.ID)
	t.lastCore = core
	t.addDelay(DelayRunnable, wait)
	t.addDelay(DelayRun, end-ready-wait)
	t.noteDispatch(core, wait, end-ready-wait)
	t.now = end
	if h := t.eng.OnCharge; h != nil {
		h(t, core, DelayRun, end-ready-wait)
	}
}

// Book reserves d nanoseconds of CPU on the earliest-free core without the
// task-alternation surcharge — for scheduler work (context switches) whose
// cost the kernel computes itself. Unlike Advance, booked time occupies a
// core, so on a saturated core it does not overlap with other tasks' work.
func (t *Task) Book(d Time) {
	t.Sync()
	if t.Offcore {
		t.addDelay(DelayRun, d)
		t.now += d
		return
	}
	ready := t.now
	start, core, _ := t.eng.cores.acquire(ready, t.ID)
	wait := start - ready
	end := start + d
	t.eng.cores.release(core, end, t.ID)
	t.lastCore = core
	t.addDelay(DelayRunnable, wait)
	t.addDelay(DelayRun, d)
	t.noteDispatch(core, wait, d)
	t.now = end
	if h := t.eng.OnCharge; h != nil {
		h(t, core, DelayRun, d)
	}
}

// noteDispatch feeds one granted core slot to the armed scheduler stats
// and the dispatch hook. Unarmed engines pay one nil check.
func (t *Task) noteDispatch(core int, wait, busy Time) {
	s := t.eng.sched
	if s == nil {
		return
	}
	s.note(core, wait, busy, t.now+wait+busy)
	if wait > 0 && t.eng.OnDispatch != nil {
		t.eng.OnDispatch(t, wait)
	}
}

// Park blocks the task until another task calls Unpark on it. The task
// resumes with its clock advanced to at least the waker's clock.
func (t *Task) Park() {
	t.check()
	t.st = stateParked
	t.eng.toSched <- t
	<-t.resume
	t.st = stateRunning
}

// Unpark makes the parked target runnable no earlier than virtual time at.
// It must be called from a running task (or before Run starts). Unparking
// a task that is not parked panics: the simulated kernel must track
// waiter state precisely.
func (t *Task) Unpark(target *Task, at Time) {
	if target.st != stateParked {
		panic(fmt.Sprintf("sim: unpark of non-parked task %d (%q, state %d)", target.ID, target.Name, target.st))
	}
	target.AdvanceTo(at)
	target.st = stateRunnable
	heap.Push(&t.eng.runq, target)
}

func (t *Task) check() {
	if t.eng.running != t {
		panic(fmt.Sprintf("sim: task %d (%q) invoked engine op while not running", t.ID, t.Name))
	}
}

// --- run queue: min-heap on (clock, id) ---

type runQueue []*Task

func (q runQueue) Len() int { return len(q) }
func (q runQueue) Less(i, j int) bool {
	if q[i].now != q[j].now {
		return q[i].now < q[j].now
	}
	return q[i].ID < q[j].ID
}
func (q runQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *runQueue) Push(x interface{}) { *q = append(*q, x.(*Task)) }
func (q *runQueue) Pop() interface{} {
	old := *q
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return t
}

// --- core bank ---

type coreBank struct {
	freeAt []Time
	last   []int
}

func newCoreBank(n int) *coreBank {
	last := make([]int, n)
	for i := range last {
		last[i] = -1
	}
	return &coreBank{freeAt: make([]Time, n), last: last}
}

func (cb *coreBank) n() int { return len(cb.freeAt) }

// acquire returns the start time for a compute slot beginning no earlier
// than ready, the chosen core, and whether the core last ran another task.
// Preference order: a core this task already ran on that is free, then any
// free core, then the earliest-free core.
func (cb *coreBank) acquire(ready Time, taskID int) (Time, int, bool) {
	best := -1
	for i := range cb.freeAt {
		if cb.freeAt[i] <= ready && cb.last[i] == taskID {
			return ready, i, false
		}
		if best == -1 || cb.freeAt[i] < cb.freeAt[best] {
			best = i
		}
	}
	start := ready
	if cb.freeAt[best] > start {
		start = cb.freeAt[best]
	}
	return start, best, cb.last[best] != taskID && cb.last[best] != -1
}

func (cb *coreBank) release(core int, at Time, taskID int) {
	cb.freeAt[core] = at
	cb.last[core] = taskID
}

// --- virtual-time lock ---

// VLock is a virtual-time mutex with two operating modes.
//
// A zero-value VLock uses the legacy virtual-exclusion model that PR-6
// measured the big kernel lock with: acquisition delays the caller's clock
// until the previous holder's release clock (the freeAt jump). Critical
// sections that overlap in real time merge in virtual time, and a holder
// may park mid-section — an approximation that is exact for the BKL's
// whole-syscall sections and is kept byte-for-byte so every pre-split
// golden stays pinned.
//
// A VLock initialized with Init is strict: exactly one real-time holder, a
// FIFO waiter queue with direct handoff (a hot re-acquirer joins the tail
// and cannot starve queued tasks), recursive-acquire and wrong-holder
// panics, and — when rank is non-zero — a lock-ordering assertion against
// the acquiring task's held stack. The fine-grained kernel hierarchy uses
// strict locks exclusively; strict holders must not park while holding
// (sleep sites release and re-acquire via Task.HeldLocks).
//
// Counters are atomic: host-side readers (the telemetry server, parallel
// eager-copy workers' coordinator) sample them while the simulation
// goroutine holds the lock.
type VLock struct {
	name   string
	rank   int
	seq    int
	strict bool

	holder  *Task
	waiters []*Task

	freeAt    Time
	heldAt    Time
	acquired  atomic.Uint64
	contended atomic.Uint64
	m         *LockMeter
}

// Init names the lock and switches it to strict FIFO mode, placing it in
// the lock-ordering hierarchy at (rank, seq). A task may only acquire a
// ranked lock that orders strictly after every ranked lock it already
// holds: higher rank, or equal rank with a higher seq (how parent/child
// μprocess pairs are taken in ascending-PID canonical order). Rank 0 opts
// the lock out of ordering checks but keeps strict FIFO semantics.
func (l *VLock) Init(name string, rank, seq int) {
	l.name = name
	l.rank = rank
	l.seq = seq
	l.strict = true
}

// Name returns the lock's Init name ("" for a legacy zero-value lock).
func (l *VLock) Name() string { return l.name }

// Rank returns the lock's ordering rank (0 for a legacy zero-value lock).
func (l *VLock) Rank() int { return l.rank }

// Holder returns the task currently inside a strict lock's critical
// section, or nil. Always nil for legacy locks. Simulation goroutine only.
func (l *VLock) Holder() *Task { return l.holder }

// Acquired returns the total acquisition count.
func (l *VLock) Acquired() uint64 { return l.acquired.Load() }

// Contended returns the number of acquisitions that had to wait.
func (l *VLock) Contended() uint64 { return l.contended.Load() }

// SetMeter attaches lockstat metering to the lock (nil detaches). Set
// before the simulation runs; metering never mutates clocks.
func (l *VLock) SetMeter(m *LockMeter) { l.m = m }

// assertOrder is the debug ordering assertion: acquiring a ranked strict
// lock while holding one that does not order before it is a kernel bug,
// reported with both locks' names so the inverted pair is obvious.
func (l *VLock) assertOrder(t *Task) {
	for _, h := range t.held {
		if h.rank == 0 {
			continue
		}
		if l.rank < h.rank || (l.rank == h.rank && l.seq <= h.seq) {
			panic(fmt.Sprintf(
				"sim: lock order violation: task %d (%q) acquiring %s(rank %d, seq %d) while holding %s(rank %d, seq %d)",
				t.ID, t.Name, l.name, l.rank, l.seq, h.name, h.rank, h.seq))
		}
	}
}

// Lock acquires the lock at the caller's current clock. Legacy mode jumps
// the clock to the previous release time when contended; strict mode parks
// the caller in FIFO arrival order until the holder hands the lock off.
// Either way the wait is charged to the task's DelayLockWait bucket.
func (l *VLock) Lock(t *Task) {
	t.Sync()
	if l.strict && l.holder == t {
		panic(fmt.Sprintf("sim: task %d (%q) recursively acquiring lock %s", t.ID, t.Name, l.name))
	}
	if l.rank != 0 {
		l.assertOrder(t)
	}
	l.acquired.Add(1)
	var wait Time
	switch {
	case l.strict && l.holder != nil:
		// Strict and held: queue in arrival order and park. The releaser
		// designates us holder before unparking (direct handoff — no
		// barging), so on resume the section is ours. The park jump lands
		// in DelayBlocked; reclassify it as lock wait.
		l.waiters = append(l.waiters, t)
		t0 := t.now
		t.Park()
		wait = t.now - t0
		t.reclassify(DelayBlocked, DelayLockWait, wait)
	case !l.strict && l.freeAt > t.now:
		// Legacy virtual exclusion: serialize behind the previous
		// section's release clock.
		wait = l.freeAt - t.now
		t.addDelay(DelayLockWait, wait)
		t.now = l.freeAt
	}
	if wait > 0 {
		l.contended.Add(1)
	}
	if l.strict {
		l.holder = t
		t.held = append(t.held, l)
	}
	l.heldAt = t.now
	l.m.onLock(t.now, wait)
}

// Unlock releases the lock at the caller's current clock. A strict lock
// with queued waiters is handed directly to the head of the FIFO.
func (l *VLock) Unlock(t *Task) {
	if l.strict && l.holder != t {
		panic(fmt.Sprintf("sim: task %d (%q) unlocking lock %s it does not hold", t.ID, t.Name, l.name))
	}
	if t.now > l.freeAt {
		l.freeAt = t.now
	}
	// Hold time since the most recent acquisition. A legacy holder that
	// parks mid-section (pipe read under the BKL) can be overtaken in
	// virtual time; clamp instead of underflowing — the merged section is
	// still attributed to the lock deterministically.
	var hold Time
	if t.now > l.heldAt {
		hold = t.now - l.heldAt
	}
	l.m.onUnlock(hold)
	if !l.strict {
		return
	}
	for i := len(t.held) - 1; i >= 0; i-- {
		if t.held[i] == l {
			t.held = append(t.held[:i], t.held[i+1:]...)
			break
		}
	}
	if len(l.waiters) > 0 {
		next := l.waiters[0]
		copy(l.waiters, l.waiters[1:])
		l.waiters[len(l.waiters)-1] = nil
		l.waiters = l.waiters[:len(l.waiters)-1]
		l.holder = next
		t.Unpark(next, t.now)
	} else {
		l.holder = nil
	}
}

// --- wait queue ---

// WaitQueue is a FIFO of parked tasks, the building block for pipes,
// wait(2) and similar blocking kernel objects.
type WaitQueue struct {
	waiters []*Task
}

// Wait parks the calling task on the queue.
func (w *WaitQueue) Wait(t *Task) {
	w.waiters = append(w.waiters, t)
	t.Park()
}

// WakeOne unparks the first waiter (if any) at time at; it returns whether
// a task was woken.
func (w *WaitQueue) WakeOne(t *Task, at Time) bool {
	if len(w.waiters) == 0 {
		return false
	}
	target := w.waiters[0]
	w.waiters = slices.Delete(w.waiters, 0, 1)
	t.Unpark(target, at)
	return true
}

// WakeAll unparks every waiter at time at, in task-ID order; the run
// queue then orders them on (clock, id). The queue keeps its backing
// array: Unpark only queues a task, so no woken task can wait again
// before the loop ends.
func (w *WaitQueue) WakeAll(t *Task, at Time) int {
	ws := w.waiters
	slices.SortStableFunc(ws, func(a, b *Task) int { return cmp.Compare(a.ID, b.ID) })
	for _, target := range ws {
		t.Unpark(target, at)
	}
	clear(ws)
	w.waiters = ws[:0]
	return len(ws)
}

// Empty reports whether no task is waiting.
func (w *WaitQueue) Empty() bool { return len(w.waiters) == 0 }
