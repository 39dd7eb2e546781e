package tmem

import "sync/atomic"

// Per-CPU free-frame caches: the lock-free fast path of the fine-grained
// tmem allocator. Each simulated CPU keeps a small stack of free PFNs so
// the fault path can allocate and free pooled frames without taking the
// shared allocator lock; the kernel refills a CPU's stack (under the lock)
// only when it runs dry. The layer changes only WHICH pfn an allocation
// returns — allocation bookkeeping, observers and Allocated() are
// identical — so allocator invariants and leak checks are unaffected, and
// machines that never call EnableCPUCaches (the BKL and POSIX models) keep
// their exact historical PFN ordering.
//
// tmem itself is single-goroutined per the engine's cooperative schedule;
// "lock-free" here means free of the *virtual-time* allocator lock, which
// is what the contention experiment measures.

// DefaultCacheBatch is the refill size used when EnableCPUCaches is given
// a batch of 0: large enough that a CoW fault burst stays on the fast
// path, small enough that per-CPU hoarding cannot strand a meaningful
// slice of physical memory.
const DefaultCacheBatch = 32

type frameCaches struct {
	stacks [][]PFN
	batch  int
	cpu    int

	// Counters are atomic: the telemetry server samples them from an HTTP
	// goroutine while the simulation allocates.
	hits    atomic.Uint64
	refills atomic.Uint64
	spills  atomic.Uint64
	steals  atomic.Uint64
}

// EnableCPUCaches arms ncpu per-CPU free-frame caches holding up to
// 2×batch PFNs each (batch 0 selects DefaultCacheBatch). Call once, before
// any allocation traffic that should use the fast path.
func (m *Memory) EnableCPUCaches(ncpu, batch int) {
	if ncpu < 1 {
		ncpu = 1
	}
	if batch <= 0 {
		batch = DefaultCacheBatch
	}
	m.caches = &frameCaches{stacks: make([][]PFN, ncpu), batch: batch}
}

// CachesEnabled reports whether per-CPU frame caches are armed.
func (m *Memory) CachesEnabled() bool { return m.caches != nil }

// SetCPU selects the cache that subsequent alloc/free traffic is
// attributed to — the kernel calls it with the faulting task's last core.
// Out-of-range values clamp to cache 0. No-op when caches are disabled.
func (m *Memory) SetCPU(cpu int) {
	c := m.caches
	if c == nil {
		return
	}
	if cpu < 0 || cpu >= len(c.stacks) {
		cpu = 0
	}
	c.cpu = cpu
}

// CacheReady reports whether the current CPU's cache can serve n
// allocations without touching the shared free list — the fault path's
// lock-elision test. Always false when caches are disabled.
func (m *Memory) CacheReady(n int) bool {
	c := m.caches
	return c != nil && len(c.stacks[c.cpu]) >= n
}

// RefillCache tops the current CPU's cache up to batch PFNs from the
// shared free list. The kernel calls it with the tmem allocator lock held;
// a short free list refills partially, and exhaustion is left for alloc to
// report.
func (m *Memory) RefillCache() {
	c := m.caches
	if c == nil {
		return
	}
	moved := false
	for len(c.stacks[c.cpu]) < c.batch {
		pfn, ok := m.popFree()
		if !ok {
			break
		}
		c.stacks[c.cpu] = append(c.stacks[c.cpu], pfn)
		moved = true
	}
	if moved {
		c.refills.Add(1)
	}
}

// CacheStats returns the fast-path counters: cache-hit allocations,
// refills from the shared free list, frees spilled past the per-CPU cap,
// and whole-cache steals taken to stave off ErrOutOfMemory.
func (m *Memory) CacheStats() (hits, refills, spills, steals uint64) {
	c := m.caches
	if c == nil {
		return 0, 0, 0, 0
	}
	return c.hits.Load(), c.refills.Load(), c.spills.Load(), c.steals.Load()
}

// takeCached pops a PFN from the current CPU's cache, if one is there.
func (m *Memory) takeCached() (PFN, bool) {
	c := m.caches
	if c == nil {
		return NoFrame, false
	}
	s := c.stacks[c.cpu]
	n := len(s)
	if n == 0 {
		return NoFrame, false
	}
	pfn := s[n-1]
	c.stacks[c.cpu] = s[:n-1]
	c.hits.Add(1)
	return pfn, true
}

// stealCaches drains every per-CPU cache back into the shared free list —
// the last resort before declaring the bank out of memory, mirroring how a
// real allocator reclaims per-CPU magazines under pressure. Returns
// whether any frame was recovered.
func (m *Memory) stealCaches() bool {
	c := m.caches
	if c == nil {
		return false
	}
	moved := false
	for i := range c.stacks {
		for j := len(c.stacks[i]) - 1; j >= 0; j-- {
			m.freeList = append(m.freeList, c.stacks[i][j])
			moved = true
		}
		c.stacks[i] = c.stacks[i][:0]
	}
	if moved {
		c.steals.Add(1)
	}
	return moved
}

// cacheFree offers a just-freed PFN to the current CPU's cache. A cache
// past 2×batch spills to the shared free list instead, bounding hoarding.
func (m *Memory) cacheFree(pfn PFN) bool {
	c := m.caches
	if c == nil {
		return false
	}
	if len(c.stacks[c.cpu]) >= 2*c.batch {
		c.spills.Add(1)
		return false
	}
	c.stacks[c.cpu] = append(c.stacks[c.cpu], pfn)
	return true
}
