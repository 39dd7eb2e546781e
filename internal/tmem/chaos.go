// Chaos-harness surface of the tagged-memory substrate: fault-injection
// hooks, a per-frame consistency audit, and process-wide live-frame
// accounting. Everything here is inert (one nil pointer compare on the hot
// paths) unless a harness arms it; internal/chaos drives these points from
// a seeded schedule so every failure replays from one seed.
package tmem

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"ufork/internal/cap"
)

// Hooks are the optional interception points a chaos harness arms on a
// Memory. All fields may be left zero; a nil hook is never called.
type Hooks struct {
	// FailAlloc, when non-nil, is consulted on every frame allocation
	// (zeroed and copy-destination alike); returning true fails the
	// allocation with an injected ErrOutOfMemory before any state changes,
	// modelling physical-memory exhaustion at arbitrary points.
	FailAlloc func() bool
	// PoisonFreed fills freed frames with a recognisable poison pattern and
	// revokes their tags, so any use-after-free surfaces as wild data (and
	// a lost capability) instead of silently reading stale-but-plausible
	// contents out of the frame pool.
	PoisonFreed bool
	// SkipTagCopy is a deliberate bug for harness self-tests: CopyFrame
	// moves the data bytes and capability plane but drops the packed tag
	// words, losing every capability in the copy. The invariant checker
	// must catch the resulting tag-plane inconsistency (cached count vs.
	// popcount); a harness that tolerates this mutation is broken.
	SkipTagCopy bool
}

// SetHooks installs (or, with nil, removes) the chaos interception points.
func (m *Memory) SetHooks(h *Hooks) { m.hooks = h }

// poisonByte fills freed frames under Hooks.PoisonFreed; 0xDB reads as
// "dead bytes" in hex dumps.
const poisonByte = 0xDB

func poisonFrame(f *Frame) {
	d := f.data()
	for i := range d {
		d[i] = poisonByte
	}
	f.tags = [TagWords]uint64{}
	f.ntags = 0
}

// liveFrames counts allocated-minus-freed frames across every Memory in
// the process. The frame-leak regression guard (TestMain in the kernel and
// bench test packages) asserts it returns to zero once all kernels have
// wound down. Atomic: independent of any single Memory's lifetime.
var liveFrames atomic.Int64

// LiveFrames returns the process-wide count of frames currently allocated
// across all Memory banks.
func LiveFrames() int64 { return liveFrames.Load() }

// FreeFrames returns the number of free frames in this bank: the shared
// free list plus any frames parked in per-CPU caches. Together with
// Allocated it must account for every physical frame:
// Allocated()+FreeFrames() == NumFrames() is the conservation law the
// invariant checker audits.
func (m *Memory) FreeFrames() int {
	n := m.freeCount()
	if m.caches != nil {
		for _, s := range m.caches.stacks {
			n += len(s)
		}
	}
	return n
}

// ForEachAllocated calls fn with every currently allocated PFN in
// ascending order.
func (m *Memory) ForEachAllocated(fn func(pfn PFN)) {
	for ci, c := range m.chunks {
		for i := range c {
			if c[i].live {
				fn(PFN(ci<<chunkBits | i))
			}
		}
	}
}

// AuditFrame verifies the internal consistency of one allocated frame:
// the cached tag count matches the popcount of the packed tag words, every
// tagged granule has a tagged capability in the capability plane, and the
// granule's data bytes agree with the capability's cursor and base (the
// representation StoreCap maintains). Any mismatch means tag plane, data,
// and capability plane have come apart — the CHERI porting literature's
// classic silent-tag-loss failure mode.
func (m *Memory) AuditFrame(pfn PFN) error {
	f, err := m.frame(pfn)
	if err != nil {
		return err
	}
	n := 0
	for _, w := range f.tags {
		n += bits.OnesCount64(w)
	}
	if int(f.ntags) != n {
		return fmt.Errorf("tmem: frame %d cached tag count %d != tag-plane popcount %d", pfn, f.ntags, n)
	}
	if n == 0 {
		return nil
	}
	if f.caps == nil {
		return fmt.Errorf("tmem: frame %d has %d tagged granules but no capability plane", pfn, n)
	}
	for wi, w := range f.tags {
		for w != 0 {
			g := uint64(wi*64 + bits.TrailingZeros64(w))
			w &= w - 1
			c := f.caps[g]
			if !c.Tag() {
				return fmt.Errorf("tmem: frame %d granule %d tagged but capability plane holds an untagged value", pfn, g)
			}
			off := g * cap.GranuleSize
			if got := f.word(off); got != c.Addr() {
				return fmt.Errorf("tmem: frame %d granule %d data cursor %#x != capability address %#x", pfn, g, got, c.Addr())
			}
			if got := f.word(off + 8); got != c.Base() {
				return fmt.Errorf("tmem: frame %d granule %d data base %#x != capability base %#x", pfn, g, got, c.Base())
			}
		}
	}
	return nil
}

// InjectTagFlip flips the raw validity bit of granule g in frame pfn
// WITHOUT updating the cached tag count or capability plane — a simulated
// tag-plane bit flip (alpha particle, controller bug). It deliberately
// leaves the frame inconsistent; AuditFrame must detect it.
func (m *Memory) InjectTagFlip(pfn PFN, g uint64) error {
	f, err := m.frame(pfn)
	if err != nil {
		return err
	}
	if g >= GranulesPerPage {
		return fmt.Errorf("%w: granule %d", ErrPageOverflow, g)
	}
	f.tags[g/64] ^= uint64(1) << (g % 64)
	return nil
}
