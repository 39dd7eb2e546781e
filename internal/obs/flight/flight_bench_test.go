package flight

import (
	"sync/atomic"
	"testing"
)

// The disabled-path benchmark sits beside the obs disabled-path suite and
// pins the flight recorder's acceptance criterion: a compiled-in Emit on
// the nil recorder a kernel without one holds is a pointer test and a
// branch — under 10 ns/event on any modern machine. TestDisabledEmitUnder10ns enforces the bound in the
// normal test run, not just under -bench.
//
//	go test -bench Disabled ./internal/obs/flight

// BenchmarkDisabledEmit is the exact shape of every kernel emit point with
// the recorder off (the unit-test and production-default configuration).
func BenchmarkDisabledEmit(b *testing.B) {
	var r *Recorder
	for i := 0; i < b.N; i++ {
		r.Emit(uint64(i), 1, KindSyscall, 3, 0, 0)
	}
}

// BenchmarkDisabledGuardedEmit is the guarded form hot paths use to skip
// argument marshalling: a nil check plus the skipped call.
func BenchmarkDisabledGuardedEmit(b *testing.B) {
	var r *Recorder
	for i := 0; i < b.N; i++ {
		if r != nil {
			r.Emit(uint64(i), 1, KindSyscall, 3, 0, 0)
		}
	}
}

// BenchmarkEnabledEmit is the contrast case: the full ring append.
func BenchmarkEnabledEmit(b *testing.B) {
	r := New(DefaultEvents)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Emit(uint64(i), int32(i&7), KindSyscall, 3, 0, 0)
	}
}

// TestDisabledEmitUnder10ns pins the <10ns/event disabled-path bound as a
// plain test so CI enforces it on every run. The 10x margin over the
// typical sub-ns cost absorbs noisy shared runners.
func TestDisabledEmitUnder10ns(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation breaks the timing bound")
	}
	var r *Recorder
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.Emit(uint64(i), 1, KindSyscall, 3, 0, 0)
		}
	})
	if ns := res.NsPerOp(); ns >= 10 {
		t.Fatalf("disabled Emit costs %d ns/event, want <10", ns)
	}
	if allocs := res.AllocsPerOp(); allocs != 0 {
		t.Fatalf("disabled Emit allocates %d objects/event, want 0", allocs)
	}
	// The enabled path must be allocation-free too (ring append in place).
	r = New(64)
	var sink atomic.Uint64
	enabled := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.Emit(uint64(i), 1, KindSyscall, 3, 0, 0)
		}
		sink.Store(r.Seq())
	})
	if allocs := enabled.AllocsPerOp(); allocs != 0 {
		t.Fatalf("enabled Emit allocates %d objects/event, want 0", allocs)
	}
}
