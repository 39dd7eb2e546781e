// Package flight implements the kernel flight recorder: an always-on
// capable, fixed-capacity, sharded ring buffer of compact binary kernel
// events. It is the kernel's one event stream: cheap enough to leave
// running under production traffic, bounded in memory, and dumped — as
// human-readable text, or converted by the kernel into a Chrome trace —
// the moment a panic, invariant violation, or chaos-fuzzer divergence
// needs the event history that led up to it, or a -trace run asks for its
// timeline.
//
// Design constraints, in order:
//
//  1. Zero-allocation append. An Event is a fixed-size value written in
//     place into a preallocated ring; Emit never allocates, on any path.
//  2. Cheap when off. A kernel without a recorder holds a nil one, and a
//     nil Emit is one pointer test and a branch — pinned under 10 ns/event
//     by the benchmarks next to the obs disabled-path suite.
//  3. Race-safe and shard-scalable. Events are sharded by PID so kernels
//     driven from concurrent host goroutines contend only within a shard;
//     a global atomic sequence number preserves total order across shards.
//  4. Deterministic. Timestamps are virtual (sim-clock) nanoseconds and
//     the sequence counter is per-recorder, so the same seeded run
//     produces a byte-identical dump — a chaos repro line replays not just
//     the failure but its entire event history.
package flight

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind classifies one flight-recorder event. The argument meanings are
// fixed per kind (documented on each constant) so dumps decode without any
// side table.
type Kind uint8

const (
	// KindSyscall is syscall entry. Args: syscall number.
	KindSyscall Kind = iota
	// KindSysRet is syscall exit. Args: syscall number, latency (virtual ns).
	KindSysRet
	// KindForkStart marks fork-engine entry. Args: none.
	KindForkStart
	// KindForkDone marks a completed fork. Args: child PID, pages copied,
	// capabilities relocated.
	KindForkDone
	// KindFault is a taken page fault. Args: vm.FaultKind, faulting VA.
	KindFault
	// KindFaultDone is a resolved page fault. Args: vm.FaultKind, pages
	// copied by the resolution, capabilities relocated by the resolution.
	KindFaultDone
	// KindFrameAlloc is a physical-frame allocation. Args: PFN.
	KindFrameAlloc
	// KindFrameFree is a physical-frame free. Args: PFN.
	KindFrameFree
	// KindCtxSwitch is one scheduler context switch. Args: switch cost
	// (virtual ns).
	KindCtxSwitch
	// KindProcSpawn is μprocess creation. Args: parent PID.
	KindProcSpawn
	// KindProcExit is μprocess termination. Args: exit status.
	KindProcExit
	// KindMark is a harness annotation (e.g. a chaos invariant audit).
	// Args: caller-defined.
	KindMark
	// KindFrameOwnerChange is a CoW/CoA/CoPA sharing break that transferred
	// exclusive frame ownership to the faulting μprocess. Args: the frame
	// now exclusively owned, the break mode (1=CoW, 2=CoA, 3=CoPA), and the
	// shared ancestor frame the owner split from (equal to the owned frame
	// for an in-place CoA adoption).
	KindFrameOwnerChange
	// KindLockWait is a contended lock acquisition that stalled the
	// caller. Args: wait (virtual ns), syscall number being entered.
	KindLockWait
	// KindDispatch is a core grant that had to queue behind busy cores.
	// Args: queueing delay (virtual ns).
	KindDispatch
	// KindTraceStart is a causal trace origin: an op minted a trace ID on
	// this μprocess. Args: trace ID.
	KindTraceStart
	// KindTraceEdge is a causal handoff that pulled another μprocess into
	// a trace. Args: trace ID, edge kind (0=fork, 1=pipe, 2=signal), peer
	// PID (the child/reader/target that joined).
	KindTraceEdge
	// KindTraceEnd is a completed causal trace. Args: trace ID, root-span
	// latency (virtual ns).
	KindTraceEnd
	// KindForkPhase is one phase of a completed fork, stamped at the
	// phase's start on the parent's timeline. Args: phase (an index into
	// ForkPhases), duration (virtual ns), units of work the phase covered.
	KindForkPhase
	numKinds
)

var kindNames = [numKinds]string{
	"syscall", "sysret", "fork-start", "fork-done", "fault", "fault-done",
	"frame-alloc", "frame-free", "ctx-switch", "proc-spawn", "proc-exit",
	"mark", "frame-owner", "lock-wait", "dispatch",
	"trace-start", "trace-edge", "trace-end", "fork-phase",
}

// ForkPhases decodes KindForkPhase's phase argument, in the order a fork
// runs them. The names match the profiler's fork:<phase> frames and the
// fork.phase.* histograms.
var ForkPhases = [...]string{"reserve", "ptecopy", "eagercopy", "scan", "reg", "fixup"}

// ownerChangeModes decodes KindFrameOwnerChange's mode argument.
var ownerChangeModes = [...]string{"?", "cow", "coa", "copa"}

// traceEdgeNames decodes KindTraceEdge's edge-kind argument (mirroring
// causal.EdgeKind; flight cannot import causal without inverting the
// dependency).
var traceEdgeNames = [...]string{"fork", "pipe", "signal"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one compact binary flight record: 48 bytes, no pointers, no
// per-event allocation.
type Event struct {
	TS   uint64 // virtual ns
	Seq  uint64 // global order across shards (1-based)
	PID  int32
	Kind Kind
	Args [3]uint64
}

// Format renders the event as one line of the text dump.
func (e Event) Format() string {
	switch e.Kind {
	case KindSyscall:
		return fmt.Sprintf("%12d  pid=%-3d syscall     no=%d", e.TS, e.PID, e.Args[0])
	case KindSysRet:
		return fmt.Sprintf("%12d  pid=%-3d sysret      no=%d lat=%dns", e.TS, e.PID, e.Args[0], e.Args[1])
	case KindForkStart:
		return fmt.Sprintf("%12d  pid=%-3d fork-start", e.TS, e.PID)
	case KindForkDone:
		return fmt.Sprintf("%12d  pid=%-3d fork-done   child=%d pages=%d relocs=%d", e.TS, e.PID, e.Args[0], e.Args[1], e.Args[2])
	case KindFault:
		return fmt.Sprintf("%12d  pid=%-3d fault       kind=%d va=%#x", e.TS, e.PID, e.Args[0], e.Args[1])
	case KindFaultDone:
		return fmt.Sprintf("%12d  pid=%-3d fault-done  kind=%d copied=%d relocs=%d", e.TS, e.PID, e.Args[0], e.Args[1], e.Args[2])
	case KindFrameAlloc:
		return fmt.Sprintf("%12d  pid=%-3d frame-alloc pfn=%d", e.TS, e.PID, e.Args[0])
	case KindFrameFree:
		return fmt.Sprintf("%12d  pid=%-3d frame-free  pfn=%d", e.TS, e.PID, e.Args[0])
	case KindCtxSwitch:
		return fmt.Sprintf("%12d  pid=%-3d ctx-switch  cost=%dns", e.TS, e.PID, e.Args[0])
	case KindProcSpawn:
		return fmt.Sprintf("%12d  pid=%-3d proc-spawn  parent=%d", e.TS, e.PID, e.Args[0])
	case KindProcExit:
		return fmt.Sprintf("%12d  pid=%-3d proc-exit   status=%d", e.TS, e.PID, e.Args[0])
	case KindMark:
		return fmt.Sprintf("%12d  pid=%-3d mark        a0=%d a1=%d a2=%d", e.TS, e.PID, e.Args[0], e.Args[1], e.Args[2])
	case KindFrameOwnerChange:
		mode := "?"
		if e.Args[1] < uint64(len(ownerChangeModes)) {
			mode = ownerChangeModes[e.Args[1]]
		}
		return fmt.Sprintf("%12d  pid=%-3d frame-owner pfn=%d mode=%s from=%d", e.TS, e.PID, e.Args[0], mode, e.Args[2])
	case KindLockWait:
		return fmt.Sprintf("%12d  pid=%-3d lock-wait   wait=%dns no=%d", e.TS, e.PID, e.Args[0], e.Args[1])
	case KindDispatch:
		return fmt.Sprintf("%12d  pid=%-3d dispatch    wait=%dns", e.TS, e.PID, e.Args[0])
	case KindTraceStart:
		return fmt.Sprintf("%12d  pid=%-3d trace-start id=%d", e.TS, e.PID, e.Args[0])
	case KindTraceEdge:
		edge := "?"
		if e.Args[1] < uint64(len(traceEdgeNames)) {
			edge = traceEdgeNames[e.Args[1]]
		}
		return fmt.Sprintf("%12d  pid=%-3d trace-edge  id=%d kind=%s peer=%d", e.TS, e.PID, e.Args[0], edge, e.Args[2])
	case KindTraceEnd:
		return fmt.Sprintf("%12d  pid=%-3d trace-end   id=%d lat=%dns", e.TS, e.PID, e.Args[0], e.Args[1])
	case KindForkPhase:
		phase := "?"
		if e.Args[0] < uint64(len(ForkPhases)) {
			phase = ForkPhases[e.Args[0]]
		}
		return fmt.Sprintf("%12d  pid=%-3d fork-phase  %s dur=%dns n=%d", e.TS, e.PID, phase, e.Args[1], e.Args[2])
	default:
		return fmt.Sprintf("%12d  pid=%-3d %v a0=%d a1=%d a2=%d", e.TS, e.PID, e.Kind, e.Args[0], e.Args[1], e.Args[2])
	}
}

// Default recorder geometry (the live telemetry plane, the chaos and YCSB
// harnesses): 8 shards × 4096 events bounds memory at ~1.5 MiB while
// holding the last ~32k kernel events.
const (
	DefaultShards   = 8
	DefaultPerShard = 4096
)

// shard is one ring. The mutex serializes writers hashing to the same
// shard; the buffer is written in place, never grown.
type shard struct {
	mu   sync.Mutex
	buf  []Event
	next int // next write index
	n    int // live events (saturates at len(buf))
	_    [4]uint64
}

// Recorder is a sharded fixed-capacity event ring. The zero value is not
// usable; construct with New. A recorder records from the moment it
// exists; a nil *Recorder is the one that is off, and Emit, Seq and
// Dropped accept it. All methods are safe for concurrent use.
type Recorder struct {
	seq     atomic.Uint64
	dropped atomic.Uint64
	shards  []shard
	mask    uint64
}

// New creates a recorder with the given shard count (rounded up to a power
// of two, minimum 1) each holding perShard events.
func New(shards, perShard int) *Recorder {
	if shards < 1 {
		shards = 1
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	if perShard < 1 {
		perShard = 1
	}
	r := &Recorder{shards: make([]shard, n), mask: uint64(n - 1)}
	for i := range r.shards {
		r.shards[i].buf = make([]Event, perShard)
	}
	return r
}

// Emit appends one event. On a nil recorder this is a pointer test and a
// branch; otherwise it is a shard-mutex acquisition and an in-place
// 48-byte write — no allocation on any path.
func (r *Recorder) Emit(ts uint64, pid int32, kind Kind, a0, a1, a2 uint64) {
	if r == nil {
		return
	}
	seq := r.seq.Add(1)
	s := &r.shards[uint64(uint32(pid))&r.mask]
	s.mu.Lock()
	if s.n == len(s.buf) {
		r.dropped.Add(1)
	} else {
		s.n++
	}
	s.buf[s.next] = Event{TS: ts, Seq: seq, PID: pid, Kind: kind, Args: [3]uint64{a0, a1, a2}}
	s.next++
	if s.next == len(s.buf) {
		s.next = 0
	}
	s.mu.Unlock()
}

// Len returns the number of buffered events across all shards.
func (r *Recorder) Len() int {
	n := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		n += s.n
		s.mu.Unlock()
	}
	return n
}

// Dropped returns the number of events evicted by ring wrap-around.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// Seq returns the number of events ever emitted.
func (r *Recorder) Seq() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}

// Reset discards all buffered events and restarts the sequence counter.
func (r *Recorder) Reset() {
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		s.next, s.n = 0, 0
		s.mu.Unlock()
	}
	r.seq.Store(0)
	r.dropped.Store(0)
}

// Snapshot returns every buffered event in global (sequence) order. The
// per-shard rings are drained under their mutexes and merged; the result
// is a fresh slice safe to hold across further emission.
func (r *Recorder) Snapshot() []Event {
	var out []Event
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		start := s.next - s.n
		if start < 0 {
			start += len(s.buf)
		}
		for j := 0; j < s.n; j++ {
			out = append(out, s.buf[(start+j)%len(s.buf)])
		}
		s.mu.Unlock()
	}
	// Restore global order via the sequence number; dump paths are cold.
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Tail returns the last n events in global order (all of them when fewer
// are buffered).
func (r *Recorder) Tail(n int) []Event {
	evs := r.Snapshot()
	if n >= 0 && len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	return evs
}
