// Lockstat: named, site-attributed lock instrumentation in the spirit of
// Solaris/Linux lockstat. A LockMeter hangs off a VLock (or shadows a
// subsystem the BKL serializes) and collects acquisition counts, wait and
// hold histograms, and a waiters high-water mark — the per-site evidence
// the BKL-splitting refactor needs. All observation reads the virtual
// clock and never mutates it, so arming lockstat cannot change a
// simulation's timeline.
package sim

import (
	"sort"
	"sync"
	"sync/atomic"

	"ufork/internal/obs"
)

// LockMeter collects lockstat for one named lock. All counters are atomic
// so the telemetry server snapshots them live; the waiters window is only
// mutated on the simulation goroutine. A nil *LockMeter is valid and
// inert: the disabled path is a single nil check (pinned ≤5 ns by
// BenchmarkDisabledLockMeter).
type LockMeter struct {
	name string
	site string

	acquired  atomic.Uint64
	contended atomic.Uint64
	waitTotal atomic.Uint64 // virtual ns lost waiting
	holdTotal atomic.Uint64 // virtual ns held

	waitHist *obs.Histogram
	holdHist *obs.Histogram

	// pending holds the grant times of contended acquisitions whose wait
	// window may still overlap new arrivals; the high-water mark is the
	// most waiters ever simultaneously queued.
	pending     []Time
	waitersHigh atomic.Int64
}

// Name returns the lock's registered name.
func (m *LockMeter) Name() string { return m.name }

// Site returns the code site the lock was registered for.
func (m *LockMeter) Site() string { return m.site }

// Acquisitions returns the total acquisition count.
func (m *LockMeter) Acquisitions() uint64 {
	if m == nil {
		return 0
	}
	return m.acquired.Load()
}

// ContendedCount returns acquisitions that had to wait.
func (m *LockMeter) ContendedCount() uint64 {
	if m == nil {
		return 0
	}
	return m.contended.Load()
}

// WaitHist returns the wait-time histogram (virtual ns).
func (m *LockMeter) WaitHist() *obs.Histogram { return m.waitHist }

// HoldHist returns the hold-time histogram (virtual ns).
func (m *LockMeter) HoldHist() *obs.Histogram { return m.holdHist }

// WaitersHighWater returns the most waiters ever queued at once.
func (m *LockMeter) WaitersHighWater() int64 {
	if m == nil {
		return 0
	}
	return m.waitersHigh.Load()
}

// onLock records one acquisition granted at virtual time now after wait ns
// of contention (0 = the lock was free). Nil-safe.
func (m *LockMeter) onLock(now, wait Time) {
	if m == nil {
		return
	}
	m.acquired.Add(1)
	if wait == 0 {
		return
	}
	m.contended.Add(1)
	m.waitTotal.Add(uint64(wait))
	m.waitHist.Observe(uint64(wait))
	// Waiters window: this waiter queued at now-wait and was granted at
	// now. Drop pending grants that happened before it queued; whatever
	// remains overlapped it.
	started := now - wait
	live := m.pending[:0]
	for _, grant := range m.pending {
		if grant > started {
			live = append(live, grant)
		}
	}
	m.pending = append(live, now)
	if n := int64(len(m.pending)); n > m.waitersHigh.Load() {
		m.waitersHigh.Store(n)
	}
}

// onUnlock records hold ns of critical-section time. Nil-safe.
func (m *LockMeter) onUnlock(hold Time) {
	if m == nil {
		return
	}
	m.holdTotal.Add(uint64(hold))
	m.holdHist.Observe(uint64(hold))
}

// Acquire counts one uncontended acquisition of a shadow lock — a
// subsystem the BKL already serializes (proc table, FD table, tmem), where
// there is no real VLock to bracket. Nil-safe.
func (m *LockMeter) Acquire(now Time) { m.onLock(now, 0) }

// ObserveHold credits d ns of critical-section time to a shadow lock.
// Nil-safe.
func (m *LockMeter) ObserveHold(d Time) { m.onUnlock(d) }

// LockStat is the JSON snapshot of one lock's statistics.
type LockStat struct {
	Name             string          `json:"name"`
	Site             string          `json:"site"`
	Acquisitions     uint64          `json:"acquisitions"`
	Contended        uint64          `json:"contended"`
	WaitTotalNS      uint64          `json:"wait_total_ns"`
	HoldTotalNS      uint64          `json:"hold_total_ns"`
	WaitersHighWater int64           `json:"waiters_high_water"`
	Wait             obs.HistSummary `json:"wait_ns"`
	Hold             obs.HistSummary `json:"hold_ns"`
}

// Stat returns the meter's snapshot.
func (m *LockMeter) Stat() LockStat {
	return LockStat{
		Name:             m.name,
		Site:             m.site,
		Acquisitions:     m.acquired.Load(),
		Contended:        m.contended.Load(),
		WaitTotalNS:      m.waitTotal.Load(),
		HoldTotalNS:      m.holdTotal.Load(),
		WaitersHighWater: m.waitersHigh.Load(),
		Wait:             m.waitHist.Summary(),
		Hold:             m.holdHist.Summary(),
	}
}

// LockTable is the registry of named lock meters — the kernel arms one
// through kernel.Planes and the telemetry server snapshots it.
type LockTable struct {
	mu     sync.Mutex
	meters map[string]*LockMeter
	order  []*LockMeter
}

// NewLockTable creates an empty lock table.
func NewLockTable() *LockTable {
	return &LockTable{meters: map[string]*LockMeter{}}
}

// Meter returns the meter registered under name, creating it (with the
// given site attribution) on first use.
func (lt *LockTable) Meter(name, site string) *LockMeter {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if m, ok := lt.meters[name]; ok {
		return m
	}
	m := &LockMeter{
		name:     name,
		site:     site,
		waitHist: obs.NewHistogram(nil),
		holdHist: obs.NewHistogram(nil),
	}
	lt.meters[name] = m
	lt.order = append(lt.order, m)
	return m
}

// Reset drops every meter, so a table rearmed on a fresh kernel starts
// clean.
func (lt *LockTable) Reset() {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	lt.meters = map[string]*LockMeter{}
	lt.order = nil
}

// Meters returns the registered meters sorted by name.
func (lt *LockTable) Meters() []*LockMeter {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	out := make([]*LockMeter, len(lt.order))
	copy(out, lt.order)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Snapshot returns every lock's statistics, sorted by name.
func (lt *LockTable) Snapshot() []LockStat {
	ms := lt.Meters()
	out := make([]LockStat, len(ms))
	for i, m := range ms {
		out[i] = m.Stat()
	}
	return out
}
