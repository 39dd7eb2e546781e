package obs

import (
	"math"
	"slices"
	"sort"
	"sync/atomic"
)

// DefaultBuckets are the fixed latency bucket upper bounds in virtual
// nanoseconds: a 1-2-5 series from 1 ns to 1000 s. Everything above the
// last bound lands in an implicit overflow bucket.
var DefaultBuckets = func() []uint64 {
	var b []uint64
	for decade := uint64(1); decade <= 100_000_000_000; decade *= 10 {
		b = append(b, decade, 2*decade, 5*decade)
	}
	return append(b, 1_000_000_000_000)
}()

// Histogram is a fixed-bucket latency histogram. Observations and reads
// are lock-free; Summary is a best-effort consistent view (exact whenever
// no Observe races it, which is always true in the single-running-task
// simulation).
type Histogram struct {
	bounds []uint64        // ascending upper bounds (inclusive)
	counts []atomic.Uint64 // len(bounds)+1; last is overflow
	count  atomic.Uint64
	sum    atomic.Uint64
	min    atomic.Uint64 // MaxUint64 until first observation
	max    atomic.Uint64
}

// NewHistogram creates a histogram with the given ascending bucket upper
// bounds; nil selects DefaultBuckets.
func NewHistogram(bounds []uint64) *Histogram {
	if bounds == nil {
		bounds = DefaultBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	h := &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	h.min.Store(math.MaxUint64)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	h.widen(v, v)
}

// widen lowers the recorded minimum to lo and raises the maximum to hi
// where they extend the observed range.
func (h *Histogram) widen(lo, hi uint64) {
	for {
		cur := h.min.Load()
		if lo >= cur || h.min.CompareAndSwap(cur, lo) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if hi <= cur || h.max.CompareAndSwap(cur, hi) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() uint64 {
	if h.count.Load() == 0 {
		return 0
	}
	return h.min.Load()
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() uint64 { return h.max.Load() }

// Percentile returns the q-quantile (0 < q <= 1) under nearest-rank
// semantics over the bucket boundaries: the upper bound of the bucket
// containing the ⌈q·n⌉-th smallest observation, clamped to the observed
// [min, max]. When every observation lands exactly on a bucket bound —
// the case for sim-clock costs, which are sums of fixed model constants
// chosen near the 1-2-5 series — the result is exact.
func (h *Histogram) Percentile(q float64) uint64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank > n {
		rank = n
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			var v uint64
			if i < len(h.bounds) {
				v = h.bounds[i]
			} else {
				v = h.Max() // overflow bucket
			}
			return clamp(v, h.Min(), h.Max())
		}
	}
	return h.Max()
}

func clamp(v, lo, hi uint64) uint64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Reset zeroes the histogram.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.min.Store(math.MaxUint64)
	h.max.Store(0)
}

// Merge adds every observation of src into h. Both must share the same
// bucket bounds.
func (h *Histogram) Merge(src *Histogram) {
	if !slices.Equal(h.bounds, src.bounds) {
		panic("obs: merging histograms with different bounds")
	}
	if src.Count() == 0 {
		return
	}
	for i := range src.counts {
		h.counts[i].Add(src.counts[i].Load())
	}
	h.count.Add(src.count.Load())
	h.sum.Add(src.sum.Load())
	h.widen(src.min.Load(), src.max.Load())
}

// Buckets returns the bucket upper bounds and the cumulative observation
// counts up to each bound, with one final cumulative entry for the +Inf
// overflow bucket — the Prometheus exposition form.
func (h *Histogram) Buckets() (bounds []uint64, cumulative []uint64) {
	bounds = h.bounds
	cumulative = make([]uint64, len(h.counts))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		cumulative[i] = cum
	}
	return bounds, cumulative
}

// HistSummary is the exported percentile summary of a histogram.
type HistSummary struct {
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
	Min   uint64 `json:"min"`
	Max   uint64 `json:"max"`
	P50   uint64 `json:"p50"`
	P90   uint64 `json:"p90"`
	P99   uint64 `json:"p99"`
	P999  uint64 `json:"p999"`
}

// Summary captures count, sum, min/max and the p50/p90/p99/p99.9
// quantiles.
func (h *Histogram) Summary() HistSummary {
	return HistSummary{
		Count: h.Count(),
		Sum:   h.Sum(),
		Min:   h.Min(),
		Max:   h.Max(),
		P50:   h.Percentile(0.50),
		P90:   h.Percentile(0.90),
		P99:   h.Percentile(0.99),
		P999:  h.Percentile(0.999),
	}
}
