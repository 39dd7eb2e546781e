package kernel

import (
	"testing"

	"ufork/internal/obs/flight"
)

// BenchmarkDisabledEmit is every kernel event site with no plane armed
// (the production-default configuration): two pointer tests.
//
//	go test -bench Disabled ./internal/kernel
func BenchmarkDisabledEmit(b *testing.B) {
	k := &Kernel{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.emit(0, 1, flight.KindSyscall, 3, 0, 0)
	}
}

// TestDisabledEmitAllocatesNothing: with no plane armed an event costs no
// allocation.
func TestDisabledEmitAllocatesNothing(t *testing.T) {
	k := &Kernel{}
	if n := testing.AllocsPerRun(1000, func() { k.emit(0, 1, flight.KindFault, 2, 0x1000, 0) }); n != 0 {
		t.Fatalf("disabled emit allocates %v objects/event, want 0", n)
	}
}
