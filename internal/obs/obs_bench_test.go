package obs

import "testing"

// The disabled-path benchmarks prove the acceptance criterion that a
// compiled-in probe costs effectively nothing when metrics are off: the
// kernel's Metrics registry is nil, so each probe is one nil check and a
// branch, well under 5 ns/op and 0 allocs on any modern machine (the
// enabled variant is included for contrast).
//
//	go test -bench Disabled -benchtime 100000000x ./internal/obs

// probeKernel stands in for kernel.Kernel: the probe reads the registry
// through a pointer, exactly as the kernel's syscall path does.
type probeKernel struct{ Metrics *Registry }

// offKernel is package-level so the compiler cannot prove the registry
// nil and delete the probe.
var offKernel = &probeKernel{}

// BenchmarkDisabledSyscallProbe is the exact shape of the probe on the
// kernel's syscall dispatch path: guard, then (skipped) counter lookup.
func BenchmarkDisabledSyscallProbe(b *testing.B) {
	k := offKernel
	b.ReportAllocs()
	var hits int
	for i := 0; i < b.N; i++ {
		if k.Metrics != nil {
			k.Metrics.Counter("syscall.write").Inc()
			hits++
		}
	}
	if hits != 0 {
		b.Fatal("disabled probe took the enabled path")
	}
}

// BenchmarkDisabledHistogramProbe is the fork-latency observation site.
func BenchmarkDisabledHistogramProbe(b *testing.B) {
	k := offKernel
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if k.Metrics != nil {
			k.Metrics.Histogram("fork.latency").Observe(uint64(i))
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
	h := NewHistogram(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i) % 1_000_000)
	}
}
