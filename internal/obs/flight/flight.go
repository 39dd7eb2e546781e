// Package flight implements the kernel flight recorder: an always-on
// capable, fixed-capacity ring buffer of compact binary kernel events. It
// is the kernel's one event stream: cheap enough to leave running under
// production traffic, bounded in memory, and dumped — as human-readable
// text, or converted by the kernel into a Chrome trace — the moment a
// panic, invariant violation, or chaos-fuzzer divergence needs the event
// history that led up to it, or a -trace run asks for its timeline.
//
// Design constraints, in order:
//
//  1. Zero-allocation append. An Event is a fixed-size value written in
//     place into a preallocated ring; Emit never allocates, on any path.
//  2. Cheap when off. A kernel without a recorder holds a nil one, and a
//     nil Emit is one pointer test and a branch — pinned under 10 ns/event
//     by the benchmarks next to the obs disabled-path suite.
//  3. Race-safe and totally ordered. One mutex guards the ring, and each
//     event's sequence number is assigned under it, so the buffer holds a
//     contiguous run of the newest events in emission order.
//  4. Deterministic. Timestamps are virtual (sim-clock) nanoseconds and
//     the sequence counter is per-recorder, so the same seeded run
//     produces a byte-identical dump — a chaos repro line replays not just
//     the failure but its entire event history.
package flight

import (
	"fmt"
	"sync"
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
	// caller. Args: wait (virtual ns), syscall number being entered, the
	// lock's site as its kernel lock rank (LockSites decodes rank/10:
	// 0 the legacy big kernel lock, 10/20/30/40/50 uproc, proctable,
	// fdtable, tmem and the residual global lock).
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
	// KindBlock is a sleep that parked the μprocess, stamped at its wake.
	// Args: cause (an index into BlockCauses), blocked time (virtual ns).
	KindBlock
	// KindFaultError is a fault whose resolution failed, closing the
	// window its KindFault opened. Args: vm.FaultKind, faulting VA.
	KindFaultError
	numKinds
)

var kindNames = [numKinds]string{
	"syscall", "sysret", "fork-start", "fork-done", "fault", "fault-done",
	"frame-alloc", "frame-free", "ctx-switch", "proc-spawn", "proc-exit",
	"mark", "frame-owner", "lock-wait", "dispatch",
	"trace-start", "trace-edge", "trace-end", "fork-phase", "block",
	"fault-error",
}

// ForkPhases decodes KindForkPhase's phase argument, in the order a fork
// runs them. The names match the profiler's fork:<phase> frames and the
// fork.phase.* histograms.
var ForkPhases = [...]string{"reserve", "ptecopy", "eagercopy", "scan", "reg", "fixup"}

// LockSites decodes KindLockWait's site argument: the site of rank r is
// LockSites[r/10]. The names match the lock:<site> labels of the causal
// and profile planes.
var LockSites = [...]string{"bkl", "uproc", "proctable", "fdtable", "tmem", "residual"}

// BlockCauses decodes KindBlock's cause argument; the names match the
// block:<cause> labels of the causal plane.
var BlockCauses = [...]string{"pipe", "net", "child"}

// ownerChangeModes decodes KindFrameOwnerChange's mode argument.
var ownerChangeModes = [...]string{"?", "cow", "coa", "copa"}

// traceEdgeNames decodes KindTraceEdge's edge-kind argument (mirroring
// causal.EdgeKind; flight cannot import causal without inverting the
// dependency).
var traceEdgeNames = [...]string{"fork", "pipe", "signal"}

// decode names table[i], or "?" for an index outside it.
func decode(table []string, i uint64) string {
	if i < uint64(len(table)) {
		return table[i]
	}
	return "?"
}

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
	Seq  uint64 // emission order (1-based)
	PID  int32
	Kind Kind
	Args [3]uint64
}

// LockSite names a KindLockWait event's lock site.
func (e Event) LockSite() string { return decode(LockSites[:], e.Args[2]/10) }

// BlockCause names a KindBlock event's cause.
func (e Event) BlockCause() string { return decode(BlockCauses[:], e.Args[0]) }

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
		return fmt.Sprintf("%12d  pid=%-3d frame-owner pfn=%d mode=%s from=%d", e.TS, e.PID, e.Args[0], decode(ownerChangeModes[:], e.Args[1]), e.Args[2])
	case KindLockWait:
		return fmt.Sprintf("%12d  pid=%-3d lock-wait   wait=%dns no=%d site=%s", e.TS, e.PID, e.Args[0], e.Args[1], e.LockSite())
	case KindDispatch:
		return fmt.Sprintf("%12d  pid=%-3d dispatch    wait=%dns", e.TS, e.PID, e.Args[0])
	case KindTraceStart:
		return fmt.Sprintf("%12d  pid=%-3d trace-start id=%d", e.TS, e.PID, e.Args[0])
	case KindTraceEdge:
		return fmt.Sprintf("%12d  pid=%-3d trace-edge  id=%d kind=%s peer=%d", e.TS, e.PID, e.Args[0], decode(traceEdgeNames[:], e.Args[1]), e.Args[2])
	case KindTraceEnd:
		return fmt.Sprintf("%12d  pid=%-3d trace-end   id=%d lat=%dns", e.TS, e.PID, e.Args[0], e.Args[1])
	case KindForkPhase:
		return fmt.Sprintf("%12d  pid=%-3d fork-phase  %s dur=%dns n=%d", e.TS, e.PID, decode(ForkPhases[:], e.Args[0]), e.Args[1], e.Args[2])
	case KindBlock:
		return fmt.Sprintf("%12d  pid=%-3d block       cause=%s blocked=%dns", e.TS, e.PID, e.BlockCause(), e.Args[1])
	case KindFaultError:
		return fmt.Sprintf("%12d  pid=%-3d fault-error kind=%d va=%#x", e.TS, e.PID, e.Args[0], e.Args[1])
	default:
		return fmt.Sprintf("%12d  pid=%-3d %v a0=%d a1=%d a2=%d", e.TS, e.PID, e.Kind, e.Args[0], e.Args[1], e.Args[2])
	}
}

// DefaultEvents is the default ring capacity (the live telemetry plane,
// the chaos and YCSB harnesses): the last 32k kernel events in ~1.5 MiB.
const DefaultEvents = 1 << 15

// Recorder is a fixed-capacity event ring. The zero value is not usable;
// construct with New. A recorder records from the moment it exists; a nil
// *Recorder is the one that is off, and Emit, Seq and Dropped accept it.
// All methods are safe for concurrent use: one mutex serializes writers,
// and the buffer is written in place, never grown.
type Recorder struct {
	mu      sync.Mutex
	buf     []Event
	next    int // next write index
	n       int // live events (saturates at len(buf))
	seq     uint64
	dropped uint64
}

// New creates a recorder holding the last capacity events (minimum 1).
func New(capacity int) *Recorder {
	return &Recorder{buf: make([]Event, max(capacity, 1))}
}

// Emit appends one event. On a nil recorder this is a pointer test and a
// branch; otherwise it is a mutex acquisition and an in-place 48-byte
// write — no allocation on any path.
func (r *Recorder) Emit(ts uint64, pid int32, kind Kind, a0, a1, a2 uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.seq++
	if r.n == len(r.buf) {
		r.dropped++
	} else {
		r.n++
	}
	r.buf[r.next] = Event{TS: ts, Seq: r.seq, PID: pid, Kind: kind, Args: [3]uint64{a0, a1, a2}}
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
	r.mu.Unlock()
}

// Len returns the number of buffered events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Dropped returns the number of events evicted by ring wrap-around.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Seq returns the number of events ever emitted.
func (r *Recorder) Seq() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Reset discards all buffered events and restarts the sequence counter.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.next, r.n, r.seq, r.dropped = 0, 0, 0, 0
	r.mu.Unlock()
}

// Snapshot returns every buffered event in sequence order, as a fresh
// slice safe to hold across further emission.
func (r *Recorder) Snapshot() []Event { return r.Tail(-1) }

// Tail returns the last n events in sequence order (all of them when n < 0
// or fewer are buffered).
func (r *Recorder) Tail(n int) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n < 0 || n > r.n {
		n = r.n
	}
	out := make([]Event, n)
	start := r.next - n
	if start < 0 {
		start += len(r.buf)
	}
	copied := copy(out, r.buf[start:])
	copy(out[copied:], r.buf)
	return out
}
