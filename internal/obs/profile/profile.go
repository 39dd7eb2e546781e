// Package profile is the deterministic virtual-time sampling profiler.
//
// The kernel charges every on-core compute slot, off-core latency, and
// lock wait to the plane as (stack, kind, cpu, duration) intervals; the
// plane converts them into samples at a fixed virtual-time quantum using
// a residual accumulator per (cpu, kind) — the stack charged when the
// accumulated time crosses a quantum boundary owns the whole tick,
// exactly like a tick-based kernel profiler. Because sampling consumes
// the same durations the engine already charged and never touches task
// clocks, profiles are byte-deterministic and arming the plane cannot
// move the simulated timeline.
//
// Design constraints, shared with the flight/causal planes:
//
//  1. A kernel without a profiler holds a nil plane; the nil path is one
//     pointer test — no locks, no allocation — pinned ≤5ns / 0 allocs by
//     tests.
//  2. Sampling never advances a virtual clock; goldens stay
//     byte-identical whether the plane is armed or not.
//  3. Accounting is exact: per (cpu, kind), sampled time plus the
//     residual equals the charged time to the nanosecond, so the total
//     sampled time per CPU matches the engine's recorded busy time
//     within one quantum. CheckExact verifies the identity.
//  4. Exports are deterministic: stacks, string tables, and samples are
//     emitted in sorted order.
package profile

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"ufork/internal/sim"
)

// DefaultQuantum is the sampling period when New is given zero: one
// sample per 10µs of charged virtual time per (cpu, kind).
const DefaultQuantum = 10 * sim.Microsecond

// Kind classifies the charge a sample was cut from. Run is on-core
// compute (Work/Book slots), Latency is off-core time the kernel charges
// to a task (device waits, fork/fault engine phases), LockWait is time
// spent queued on a kernel lock.
type Kind int

const (
	KindRun Kind = iota
	KindLatency
	KindLockWait
	NumKinds
)

var kindNames = [NumKinds]string{"run", "latency", "lock-wait"}

func (k Kind) String() string {
	if k < 0 || k >= NumKinds {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Stack is the synthetic call stack attached to a sample, assembled from
// the kernel's existing attribution state. The zero value of a field
// omits its frame: Sys is empty outside syscalls, Phase is empty outside
// fork/fault/lock windows.
type Stack struct {
	CPU   int32
	PID   int32
	Proc  string // program name, e.g. "kvsrv"
	Sys   string // syscall name while inside a syscall, else ""
	Phase string // "fork:<phase>", "fault:<copy-mode>", "lock:<site>", or ""
}

// Key renders the folded-stack form: semicolon-joined frames, root
// first — `cpu0;proc:kvsrv[3];syscall:fork;phase:fork:ptecopy`.
func (st Stack) Key() string {
	return strings.Join(st.Frames(), ";")
}

// Frames returns the stack frames root-first.
func (st Stack) Frames() []string {
	f := make([]string, 0, 4)
	f = append(f, fmt.Sprintf("cpu%d", st.CPU))
	f = append(f, fmt.Sprintf("proc:%s[%d]", st.Proc, st.PID))
	if st.Sys != "" {
		f = append(f, "syscall:"+st.Sys)
	}
	if st.Phase != "" {
		f = append(f, "phase:"+st.Phase)
	}
	return f
}

// cpuAcct is the exact per-CPU ledger: for each kind, the virtual time
// charged, the part already emitted as samples, and the residual still
// accumulating toward the next quantum boundary. Invariant (CheckExact):
// charged == sampled + residual, residual < quantum.
type cpuAcct struct {
	charged  [NumKinds]uint64
	sampled  [NumKinds]uint64
	residual [NumKinds]uint64
}

// Plane is the profiler. One plane may aggregate across several kernel
// boots (like the causal plane, kernel.New does not reset it), which is
// how sweep-wide profiles and cross-run diffs are built. A plane samples
// from the moment it exists; a nil *Plane is the one that is off.
type Plane struct {
	samples atomic.Uint64 // total ticks emitted
	quantum sim.Time

	mu      sync.Mutex
	cpus    []cpuAcct
	buckets map[Stack]uint64 // tick counts per stack
}

// New creates a plane sampling every quantum nanoseconds of
// charged virtual time; quantum 0 selects DefaultQuantum.
func New(quantum sim.Time) *Plane {
	if quantum == 0 {
		quantum = DefaultQuantum
	}
	return &Plane{quantum: quantum, buckets: make(map[Stack]uint64)}
}

// Quantum returns the sampling period.
func (pl *Plane) Quantum() sim.Time { return pl.quantum }

// Samples returns the total number of ticks emitted so far.
func (pl *Plane) Samples() uint64 {
	if pl == nil {
		return 0
	}
	return pl.samples.Load()
}

// Add charges d nanoseconds of kind time on cpu to stack st, emitting
// one sample per quantum boundary the (cpu, kind) accumulator crosses.
// The stack on the CPU at the crossing owns the whole tick. A nil plane
// ignores the charge.
func (pl *Plane) Add(st Stack, kind Kind, cpu int, d sim.Time) {
	if pl != nil && d != 0 {
		pl.add(st, kind, cpu, d)
	}
}

// add is Add's armed path, split out so the nil check inlines at every
// call site.
func (pl *Plane) add(st Stack, kind Kind, cpu int, d sim.Time) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for cpu >= len(pl.cpus) {
		pl.cpus = append(pl.cpus, cpuAcct{})
	}
	c := &pl.cpus[cpu]
	c.charged[kind] += uint64(d)
	c.residual[kind] += uint64(d)
	q := uint64(pl.quantum)
	if n := c.residual[kind] / q; n > 0 {
		c.residual[kind] -= n * q
		c.sampled[kind] += n * q
		pl.buckets[st] += n
		pl.samples.Add(n)
	}
}

// Reset clears all samples and accounting.
func (pl *Plane) Reset() {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.cpus = nil
	pl.buckets = make(map[Stack]uint64)
	pl.samples.Store(0)
}

// CheckExact verifies the accounting identity on every (cpu, kind):
// charged == sampled + residual and residual < quantum. A non-nil error
// means the sampler lost or invented time.
func (pl *Plane) CheckExact() error {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	var ticks uint64
	for cpu := range pl.cpus {
		c := &pl.cpus[cpu]
		for k := Kind(0); k < NumKinds; k++ {
			if c.residual[k] >= uint64(pl.quantum) {
				return fmt.Errorf("profile: cpu%d %s residual %d ≥ quantum %d",
					cpu, k, c.residual[k], pl.quantum)
			}
			if c.sampled[k]+c.residual[k] != c.charged[k] {
				return fmt.Errorf("profile: cpu%d %s sampled %d + residual %d != charged %d",
					cpu, k, c.sampled[k], c.residual[k], c.charged[k])
			}
			if c.sampled[k]%uint64(pl.quantum) != 0 {
				return fmt.Errorf("profile: cpu%d %s sampled %d not a multiple of quantum %d",
					cpu, k, c.sampled[k], pl.quantum)
			}
			ticks += c.sampled[k] / uint64(pl.quantum)
		}
	}
	var bucketTicks uint64
	for _, n := range pl.buckets {
		bucketTicks += n
	}
	if bucketTicks != ticks {
		return fmt.Errorf("profile: bucket ticks %d != per-cpu sampled ticks %d", bucketTicks, ticks)
	}
	if got := pl.samples.Load(); got != ticks {
		return fmt.Errorf("profile: sample counter %d != per-cpu sampled ticks %d", got, ticks)
	}
	return nil
}

// CPUAcct is the exported per-CPU accounting row of a Snapshot.
type CPUAcct struct {
	Charged  [NumKinds]uint64 `json:"charged"`
	Sampled  [NumKinds]uint64 `json:"sampled"`
	Residual [NumKinds]uint64 `json:"residual"`
}

// ChargedNS returns the total virtual time charged on cpu for kind —
// for Run this equals the scheduler's recorded core-busy time.
func (pl *Plane) ChargedNS(cpu int, kind Kind) uint64 {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if cpu >= len(pl.cpus) {
		return 0
	}
	return pl.cpus[cpu].charged[kind]
}

// SampledNS returns the virtual time emitted as samples on cpu for kind.
func (pl *Plane) SampledNS(cpu int, kind Kind) uint64 {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if cpu >= len(pl.cpus) {
		return 0
	}
	return pl.cpus[cpu].sampled[kind]
}

// StackCount is one aggregated stack with its tick count.
type StackCount struct {
	Stack   Stack
	Samples uint64
}

// Snapshot is a consistent, sorted copy of the plane's state.
type Snapshot struct {
	Quantum sim.Time
	Samples uint64
	Stacks  []StackCount // sorted by folded key
	CPUs    []CPUAcct
}

// Snapshot copies the plane state with stacks sorted by folded key.
func (pl *Plane) Snapshot() Snapshot {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	s := Snapshot{Quantum: pl.quantum, Samples: pl.samples.Load()}
	s.Stacks = make([]StackCount, 0, len(pl.buckets))
	for st, n := range pl.buckets {
		s.Stacks = append(s.Stacks, StackCount{Stack: st, Samples: n})
	}
	sort.Slice(s.Stacks, func(i, j int) bool {
		return s.Stacks[i].Stack.Key() < s.Stacks[j].Stack.Key()
	})
	s.CPUs = make([]CPUAcct, len(pl.cpus))
	for i := range pl.cpus {
		s.CPUs[i] = CPUAcct{
			Charged:  pl.cpus[i].charged,
			Sampled:  pl.cpus[i].sampled,
			Residual: pl.cpus[i].residual,
		}
	}
	return s
}
