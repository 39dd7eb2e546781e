package obs

import (
	"math"
	"testing"
)

// unitBounds returns bucket bounds 1..n with step 1, so every integer
// observation lands exactly on its own bound and percentiles are exact.
func unitBounds(n int) []uint64 {
	b := make([]uint64, n)
	for i := range b {
		b[i] = uint64(i + 1)
	}
	return b
}

func TestHistogramExactPercentiles(t *testing.T) {
	// Uniform 1..1000, one observation per value: the ⌈q·n⌉-th smallest
	// observation is exactly q·1000.
	h := NewHistogram(unitBounds(1000))
	for v := uint64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if got := h.Count(); got != 1000 {
		t.Fatalf("Count = %d, want 1000", got)
	}
	if got := h.Sum(); got != 1000*1001/2 {
		t.Fatalf("Sum = %d, want %d", got, 1000*1001/2)
	}
	for _, tc := range []struct {
		q    float64
		want uint64
	}{
		{0.50, 500}, {0.90, 900}, {0.99, 990}, {1.0, 1000}, {0.001, 1},
	} {
		if got := h.Percentile(tc.q); got != tc.want {
			t.Errorf("Percentile(%v) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got, want := h.Min(), uint64(1); got != want {
		t.Errorf("Min = %d, want %d", got, want)
	}
	if got, want := h.Max(), uint64(1000); got != want {
		t.Errorf("Max = %d, want %d", got, want)
	}
}

func TestHistogramSkewedDistribution(t *testing.T) {
	// 90 fast observations at 10, 9 at 50, 1 at 100 (n=100): p50 and p90
	// land in the fast bucket, p99 in the middle one, max-only beyond.
	h := NewHistogram(unitBounds(100))
	for i := 0; i < 90; i++ {
		h.Observe(10)
	}
	for i := 0; i < 9; i++ {
		h.Observe(50)
	}
	h.Observe(100)
	if got := h.Percentile(0.50); got != 10 {
		t.Errorf("p50 = %d, want 10", got)
	}
	if got := h.Percentile(0.90); got != 10 {
		t.Errorf("p90 = %d, want 10 (rank 90 of 100 is the last fast observation)", got)
	}
	if got := h.Percentile(0.99); got != 50 {
		t.Errorf("p99 = %d, want 50", got)
	}
	if got := h.Percentile(1.0); got != 100 {
		t.Errorf("p100 = %d, want 100", got)
	}
}

func TestHistogramSingleValueClamped(t *testing.T) {
	// A constant latency observed through the coarse default buckets: every
	// percentile must clamp to the one observed value, not a bucket bound.
	h := NewHistogram(nil)
	for i := 0; i < 10; i++ {
		h.Observe(42)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if got := h.Percentile(q); got != 42 {
			t.Errorf("Percentile(%v) = %d, want 42 (clamped to observed)", q, got)
		}
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram([]uint64{10, 20})
	h.Observe(5)
	h.Observe(15)
	h.Observe(1000) // beyond the last bound: overflow bucket
	if got := h.Percentile(0.99); got != 1000 {
		t.Errorf("p99 = %d, want 1000 (overflow reports Max)", got)
	}
	if got := h.Max(); got != 1000 {
		t.Errorf("Max = %d, want 1000", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(nil)
	if h.Count() != 0 || h.Min() != 0 || h.Max() != 0 || h.Percentile(0.5) != 0 {
		t.Errorf("empty histogram must report zeros: count=%d min=%d max=%d p50=%d",
			h.Count(), h.Min(), h.Max(), h.Percentile(0.5))
	}
	s := h.Summary()
	if s != (HistSummary{}) {
		t.Errorf("empty Summary = %+v, want zero value", s)
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram(unitBounds(10))
	h.Observe(3)
	h.Observe(7)
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("Reset left state: %+v", h.Summary())
	}
	// The histogram must be reusable after Reset.
	h.Observe(5)
	if got := h.Percentile(0.5); got != 5 {
		t.Errorf("post-Reset p50 = %d, want 5", got)
	}
}

func TestHistogramSummaryMatchesPercentiles(t *testing.T) {
	h := NewHistogram(unitBounds(100))
	for v := uint64(1); v <= 100; v++ {
		h.Observe(v)
	}
	s := h.Summary()
	want := HistSummary{Count: 100, Sum: 100 * 101 / 2, Min: 1, Max: 100, P50: 50, P90: 90, P99: 99, P999: 100}
	if s != want {
		t.Errorf("Summary = %+v, want %+v", s, want)
	}
}

func TestHistogramDefaultBucketsAscending(t *testing.T) {
	for i := 1; i < len(DefaultBuckets); i++ {
		if DefaultBuckets[i] <= DefaultBuckets[i-1] {
			t.Fatalf("DefaultBuckets not ascending at %d: %d <= %d",
				i, DefaultBuckets[i], DefaultBuckets[i-1])
		}
	}
	if DefaultBuckets[0] != 1 {
		t.Errorf("DefaultBuckets[0] = %d, want 1", DefaultBuckets[0])
	}
	if last := DefaultBuckets[len(DefaultBuckets)-1]; last != 1_000_000_000_000 {
		t.Errorf("last bound = %d, want 1e12", last)
	}
}

func TestHistogramMinMaxCAS(t *testing.T) {
	// Min starts at MaxUint64 sentinel; a single huge observation must not
	// confuse min/max tracking.
	h := NewHistogram(nil)
	h.Observe(math.MaxUint64 / 2)
	h.Observe(1)
	if h.Min() != 1 || h.Max() != math.MaxUint64/2 {
		t.Errorf("min/max = %d/%d", h.Min(), h.Max())
	}
}

// TestHistogramMerge: merging two histograms gives the same summary as
// observing every value into one, and mismatched bounds are refused.
func TestHistogramMerge(t *testing.T) {
	a, b, all := NewHistogram(nil), NewHistogram(nil), NewHistogram(nil)
	for i, v := range []uint64{3, 70, 900, 12_000, 5, 400_000} {
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		all.Observe(v)
	}
	a.Merge(b)
	a.Merge(NewHistogram(nil)) // empty: min/max untouched
	if got, want := a.Summary(), all.Summary(); got != want {
		t.Fatalf("merged summary = %+v, want %+v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("merging different bounds did not panic")
		}
	}()
	a.Merge(NewHistogram([]uint64{1, 2}))
}
