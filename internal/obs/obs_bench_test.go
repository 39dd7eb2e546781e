package obs

import "testing"

// The disabled-path benchmarks prove the acceptance criterion that a
// compiled-in probe costs effectively nothing when observability is off:
// each disabled probe is one atomic load and a branch, well under 5 ns/op
// on any modern machine (the enabled variants are included for contrast).
//
//	go test -bench Disabled -benchtime 100000000x ./internal/obs

// BenchmarkDisabledSyscallProbe is the exact shape of the probe on the
// kernel's syscall dispatch path: guard, then (skipped) counter lookup.
func BenchmarkDisabledSyscallProbe(b *testing.B) {
	Disable()
	reg := NewRegistry()
	var hits int
	for i := 0; i < b.N; i++ {
		if On() {
			reg.Counter("syscall.write").Inc()
			hits++
		}
	}
	if hits != 0 {
		b.Fatal("disabled probe took the enabled path")
	}
}

// BenchmarkDisabledHistogramProbe is the fork-latency observation site.
func BenchmarkDisabledHistogramProbe(b *testing.B) {
	Disable()
	reg := NewRegistry()
	for i := 0; i < b.N; i++ {
		if On() {
			reg.Histogram("fork.latency").Observe(uint64(i))
		}
	}
}

// BenchmarkCounterInc is the always-on path: kernel.Stats counters are
// plain atomics with no enable guard, replacing the old bare uint64s.
func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
	if c.Value() != uint64(b.N) {
		b.Fatal("lost increments")
	}
}

// BenchmarkEnabledHistogramObserve is the enabled fork-latency site with
// the histogram handle held (the recommended hot-path shape).
func BenchmarkEnabledHistogramObserve(b *testing.B) {
	Enable()
	b.Cleanup(Disable)
	h := NewHistogram(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i) % 1_000_000)
	}
}
