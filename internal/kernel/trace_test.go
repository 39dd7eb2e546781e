package kernel_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"ufork/internal/kernel"
	"ufork/internal/obs/flight"
	"ufork/internal/tmem"
)

// chromeEvent is the decoded shape of one exported trace event.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	Args map[string]uint64 `json:"args"`
}

// ns converts an exported trace-µs value back to virtual nanoseconds.
func ns(us float64) uint64 { return uint64(math.Round(us * 1000)) }

// TestChromeExportCoPAFork runs one CoPA fork whose child takes a cap-load
// fault and checks the kernel's flight events export as a timeline: the
// fork syscall span holds fork:<phase> spans that tile the fork exactly,
// the fault is a span carrying its resolution counts, and frame traffic
// stays instant.
func TestChromeExportCoPAFork(t *testing.T) {
	rec := flight.New(1 << 14)
	k := newKernelWith(2, kernel.IsolationFull, kernel.Planes{Flight: rec})
	var parent, child int
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		parent = int(p.PID)
		target, err := p.HeapCap.SetAddr(p.HeapCap.Base() + 8192).SetBounds(16)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.StoreCap(p.HeapCap, 0, target); err != nil {
			t.Fatal(err)
		}
		pid, err := k.Fork(p, func(c *kernel.Proc) {
			if _, err := c.LoadCap(c.HeapCap, 0); err != nil {
				t.Errorf("child cap load: %v", err)
			}
			k.Exit(c, 0)
		})
		if err != nil {
			t.Fatal(err)
		}
		child = int(pid)
		if _, _, err := k.Wait(p); err != nil {
			t.Fatal(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if rec.Dropped() != 0 {
		t.Fatalf("recorder wrapped (%d dropped); enlarge it", rec.Dropped())
	}

	var buf bytes.Buffer
	if err := kernel.WriteChromeTrace(&buf, rec.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	var fork *chromeEvent
	var forkStart, forkDone uint64
	var phases []chromeEvent
	var fault, frameAlloc bool
	evs := doc.TraceEvents
	for i, ev := range evs {
		switch {
		case ev.Ph == "X" && ev.Cat == "syscall" && ev.Name == "fork" && ev.PID == parent:
			fork = &evs[i]
		case ev.Ph == "X" && strings.HasPrefix(ev.Name, "fork:") && ev.PID == parent:
			phases = append(phases, ev)
		case ev.Ph == "i" && ev.Name == "fork-start" && ev.PID == parent:
			forkStart = ns(ev.TS)
		case ev.Ph == "i" && ev.Name == "fork-done" && ev.PID == parent:
			forkDone = ns(ev.TS)
		case ev.Ph == "X" && ev.Name == "fault:cap-load" && ev.PID == child:
			a, hasCopied := ev.Args["copied"]
			if _, hasRelocs := ev.Args["relocs"]; !hasCopied || !hasRelocs || a != 1 {
				t.Errorf("cap-load fault span args = %v, want copied=1 and relocs", ev.Args)
			}
			fault = true
		case ev.Ph == "i" && ev.Name == "frame-alloc":
			frameAlloc = true
		}
	}
	if fork == nil {
		t.Fatal("no fork syscall span")
	}
	if len(phases) != len(flight.ForkPhases) {
		t.Fatalf("got %d fork phase spans, want %d", len(phases), len(flight.ForkPhases))
	}
	var sum uint64
	for i, ph := range phases {
		if want := "fork:" + flight.ForkPhases[i]; ph.Name != want {
			t.Errorf("phase %d = %q, want %q", i, ph.Name, want)
		}
		if ns(ph.TS) < ns(fork.TS) || ns(ph.TS)+ns(ph.Dur) > ns(fork.TS)+ns(fork.Dur) {
			t.Errorf("%s [%v,+%v) not nested in the fork span [%v,+%v)", ph.Name, ph.TS, ph.Dur, fork.TS, fork.Dur)
		}
		sum += ns(ph.Dur)
	}
	if forkDone == 0 || sum != forkDone-forkStart {
		t.Errorf("fork phases sum to %d ns, want fork-done - fork-start = %d", sum, forkDone-forkStart)
	}
	if !fault {
		t.Error("no fault:cap-load span in the child's row")
	}
	if !frameAlloc {
		t.Error("frame-alloc must stay an instant event")
	}
}

// TestChromeExportPlaneLabels: the export names spans with the labels the
// causal and profile planes use — a lock wait is a lock:<site> span and a
// sleep a block:<cause> span, each ending at its event, and a fault whose
// resolution failed is a fault:error span up to its fault-error event.
func TestChromeExportPlaneLabels(t *testing.T) {
	r := flight.New(16)
	r.Emit(4000, 3, flight.KindFault, 2, 0x1000, 0)
	r.Emit(4500, 3, flight.KindFaultError, 2, 0x1000, 0)
	r.Emit(6000, 3, flight.KindLockWait, 700, uint64(kernel.SysRead), 50)
	r.Emit(7000, 4, flight.KindLockWait, 300, uint64(kernel.SysFork), 0)
	r.Emit(9000, 3, flight.KindBlock, 1, 2000, 0)
	var buf bytes.Buffer
	if err := kernel.WriteChromeTrace(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	type span struct {
		name    string
		pid     int
		ts, dur uint64
	}
	var got []span
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("%s exported as %q, want a span", ev.Name, ev.Ph)
		}
		got = append(got, span{ev.Name, ev.PID, ns(ev.TS), ns(ev.Dur)})
	}
	want := []span{
		{"fault:error", 3, 4000, 500},
		{"lock:residual", 3, 5300, 700},
		{"lock:bkl", 4, 6700, 300},
		{"block:net", 3, 7000, 2000},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("spans = %v, want %v", got, want)
	}
}

// TestFailedFaultExportsErrorSpan: a fault whose handler fails is
// recorded as a fault-error event closing its window, so the export
// shows a fault:error span, not a dangling fault instant.
func TestFailedFaultExportsErrorSpan(t *testing.T) {
	rec := flight.New(1 << 12)
	k := newKernelWith(1, kernel.IsolationFault, kernel.Planes{Flight: rec})
	fail := false
	k.Mem.SetHooks(&tmem.Hooks{FailAlloc: func() bool { return fail }})
	if _, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		if _, err := k.Fork(p, func(c *kernel.Proc) { k.Exit(c, 0) }); err != nil {
			t.Fatal(err)
		}
		fail = true
		if err := p.StoreU64(p.HeapCap, 0, 2); !errors.Is(err, kernel.ErrSegfault) {
			t.Errorf("store with failing allocations: %v, want a segfault", err)
		}
		fail = false
		if _, _, err := k.Wait(p); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
	var buf bytes.Buffer
	if err := kernel.WriteChromeTrace(&buf, rec.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"name":"fault:error","cat":"fault","ph":"X"`) {
		t.Errorf("no fault:error span in the export:\n%s", out)
	}
	if strings.Contains(out, `"name":"fault","cat":"flight"`) {
		t.Errorf("a fault was left a dangling instant:\n%s", out)
	}
}
