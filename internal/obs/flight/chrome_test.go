package flight_test

// The recorder's Chrome dump goes through the kernel's converter (which
// knows syscall and fault-kind names), so this test lives in the external
// test package where importing the kernel closes no cycle.

import (
	"strings"
	"testing"

	"ufork/internal/kernel"
	"ufork/internal/obs/flight"
	"ufork/internal/vm"
)

// TestChromeTraceDump converts hand-built events: instants keep their
// virtual timestamps, a sysret becomes a span ending at it, and a fault
// with no fault-done (a segfault) degrades to an instant.
func TestChromeTraceDump(t *testing.T) {
	r := flight.New(16)
	r.Emit(1000, 2, flight.KindForkStart, 0, 0, 0)
	r.Emit(2500, 2, flight.KindForkDone, 3, 10, 7)
	r.Emit(3000, 2, flight.KindSysRet, uint64(kernel.SysFork), 2100, 0)
	r.Emit(4000, 3, flight.KindFault, uint64(vm.FaultWriteProtect), 0x1000, 0)
	var b strings.Builder
	if err := kernel.WriteChromeTrace(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`{"traceEvents":[`,
		`"name":"fork-start","cat":"flight","ph":"i","ts":1.000`,
		`"name":"fork-done","cat":"flight","ph":"i","ts":2.500`,
		`"name":"fork","cat":"syscall","ph":"X","ts":0.900,"pid":2,"tid":2,"dur":2.100`,
		`"name":"fault","cat":"flight","ph":"i","ts":4.000,"pid":3`,
		`"displayTimeUnit":"ns"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("chrome trace missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, `"ph":`); n != 4 {
		t.Fatalf("got %d events, want 4:\n%s", n, out)
	}
}
