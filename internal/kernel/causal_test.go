package kernel_test

import (
	"strings"
	"testing"

	"ufork/internal/kernel"
	"ufork/internal/obs/causal"
	"ufork/internal/obs/flight"
)

// tracedKernel boots a kernel with an armed causal plane.
func tracedKernel(cores int) (*kernel.Kernel, *causal.Plane) {
	pl := causal.New(0)
	return newKernelWith(cores, kernel.IsolationFull, kernel.Planes{Causal: pl}), pl
}

// rootOf returns the finished trace's root span JSON from a snapshot.
func rootOf(t *testing.T, tr causal.TraceJSON) causal.SpanJSON {
	t.Helper()
	for _, s := range tr.Spans {
		if s.Root {
			return s
		}
	}
	t.Fatal("trace has no root span")
	return causal.SpanJSON{}
}

// TestTraceSpansForkExactSum is the acceptance-shaped scenario: one traced
// op forks a child that dirties CoW memory, waits, and ends. The finished
// exemplar must carry the fork edge and a root span whose causal segments
// sum to the op's virtual-time latency exactly.
func TestTraceSpansForkExactSum(t *testing.T) {
	k, pl := tracedKernel(2)
	var opStart, opEnd uint64
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		k.TraceBegin(p, "kernel-test", "fork-op")
		opStart = uint64(p.Task.Now())
		p.Compute(2000)
		if _, err := k.Fork(p, func(c *kernel.Proc) {
			// Dirty heap pages so the child services deferred-copy faults
			// inside the trace window.
			for i := 0; i < 8; i++ {
				if err := c.StoreU64(c.HeapCap, uint64(i)*4096, uint64(i)); err != nil {
					t.Errorf("child store: %v", err)
				}
			}
			c.Compute(1000)
			k.Exit(c, 0)
		}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := k.Wait(p); err != nil {
			t.Fatal(err)
		}
		opEnd = uint64(p.Task.Now())
		k.TraceEnd(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()

	snap := pl.Snapshot(0)
	if snap.Started != 1 || snap.Finished != 1 || snap.Exemplars != 1 {
		t.Fatalf("plane counters started=%d finished=%d exemplars=%d, want 1/1/1",
			snap.Started, snap.Finished, snap.Exemplars)
	}
	tr := snap.Groups[0].Traces[0]
	if tr.DurNS != opEnd-opStart {
		t.Fatalf("trace dur %d != measured op latency %d", tr.DurNS, opEnd-opStart)
	}
	if len(tr.Spans) != 2 {
		t.Fatalf("trace has %d spans, want root + forked child", len(tr.Spans))
	}
	if len(tr.Edges) != 1 || tr.Edges[0].Kind != "fork" {
		t.Fatalf("edges = %+v, want one fork edge", tr.Edges)
	}

	root := rootOf(t, tr)
	var sum uint64
	labels := map[string]bool{}
	for _, seg := range root.Segs {
		sum += seg.DurNS
		labels[seg.Label] = true
	}
	if sum != tr.DurNS {
		t.Fatalf("root segments sum to %d, want exactly the op latency %d (segs %v)",
			sum, tr.DurNS, root.Segs)
	}
	if len(labels) < 2 {
		t.Fatalf("root span shows only %v — want distinct causal classes (run + block/wait)", labels)
	}
	if !labels["block:child"] {
		t.Fatalf("wait-for-child time not attributed as block:child: %v", root.Segs)
	}

	// The child span must show fault-service segments labelled with a copy
	// mode: the fork cost the parent's op deferred.
	var childFault bool
	for _, s := range tr.Spans {
		if s.Root {
			continue
		}
		for _, seg := range s.Segs {
			if strings.HasPrefix(seg.Label, "fault:") {
				childFault = true
			}
		}
	}
	if !childFault {
		t.Fatalf("child span has no fault:<mode> segment: %+v", tr.Spans)
	}
}

// TestTracePipeAdoption verifies a reader with no op of its own joins the
// writer's trace via the pipe stamp.
func TestTracePipeAdoption(t *testing.T) {
	k, pl := tracedKernel(2)
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		rfd, wfd, err := k.Pipe(p)
		if err != nil {
			t.Fatal(err)
		}
		// Fork before tracing: the child has no span and must adopt.
		if _, err := k.Fork(p, func(c *kernel.Proc) {
			if _, err := k.Read(c, rfd, make([]byte, 8)); err != nil {
				t.Errorf("child read: %v", err)
			}
			c.Compute(500)
			k.Exit(c, 0)
		}); err != nil {
			t.Fatal(err)
		}
		k.TraceBegin(p, "kernel-test", "pipe-op")
		if _, err := k.Write(p, wfd, []byte("payload!")); err != nil {
			t.Fatal(err)
		}
		if _, _, err := k.Wait(p); err != nil {
			t.Fatal(err)
		}
		k.TraceEnd(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()

	snap := pl.Snapshot(0)
	if snap.Finished != 1 {
		t.Fatalf("finished = %d, want 1", snap.Finished)
	}
	tr := snap.Groups[0].Traces[0]
	if len(tr.Spans) != 2 {
		t.Fatalf("trace has %d spans, want writer + adopted reader", len(tr.Spans))
	}
	if len(tr.Edges) != 1 || tr.Edges[0].Kind != "pipe" {
		t.Fatalf("edges = %+v, want one pipe edge", tr.Edges)
	}
	if tr.Edges[0].FromPID == tr.Edges[0].ToPID {
		t.Fatalf("pipe edge is a self-loop: %+v", tr.Edges[0])
	}
}

// TestTraceSignalAdoption verifies signal delivery carries the sender's
// trace: a target with no op in flight joins with a signal edge.
func TestTraceSignalAdoption(t *testing.T) {
	k, pl := tracedKernel(2)
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		rfd, wfd, err := k.Pipe(p)
		if err != nil {
			t.Fatal(err)
		}
		pid, err := k.Fork(p, func(c *kernel.Proc) {
			got := kernel.Signal(0)
			if err := k.Sigaction(c, kernel.SIGUSR1, func(cp *kernel.Proc, s kernel.Signal) {
				got = s
			}); err != nil {
				t.Errorf("sigaction: %v", err)
				return
			}
			if _, err := k.Write(c, wfd, []byte{1}); err != nil {
				return
			}
			for i := 0; i < 1000 && got == 0; i++ {
				k.Getpid(c)
				c.Compute(500)
			}
			k.Exit(c, 0)
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.Read(p, rfd, make([]byte, 1)); err != nil {
			t.Fatal(err)
		}
		k.TraceBegin(p, "kernel-test", "signal-op")
		if err := k.SignalPID(p, pid, kernel.SIGUSR1); err != nil {
			t.Fatal(err)
		}
		if _, _, err := k.Wait(p); err != nil {
			t.Fatal(err)
		}
		k.TraceEnd(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()

	snap := pl.Snapshot(0)
	if snap.Finished != 1 {
		t.Fatalf("finished = %d, want 1", snap.Finished)
	}
	tr := snap.Groups[0].Traces[0]
	var sig bool
	for _, e := range tr.Edges {
		if e.Kind == "signal" {
			sig = true
		}
	}
	if !sig {
		t.Fatalf("no signal edge in %+v", tr.Edges)
	}
}

// TestTraceFlightEvents verifies the flight recorder sees the new trace
// kinds with decodable payloads when both planes are armed.
func TestTraceFlightEvents(t *testing.T) {
	rec := flight.New(flight.DefaultEvents)
	pl := causal.New(0)
	k := newKernelWith(2, kernel.IsolationFull, kernel.Planes{Flight: rec, Causal: pl})

	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		k.TraceBegin(p, "kernel-test", "flight-op")
		if _, err := k.Fork(p, func(c *kernel.Proc) { k.Exit(c, 0) }); err != nil {
			t.Fatal(err)
		}
		if _, _, err := k.Wait(p); err != nil {
			t.Fatal(err)
		}
		k.TraceEnd(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()

	kinds := map[flight.Kind]int{}
	for _, ev := range rec.Snapshot() {
		kinds[ev.Kind]++
		// Format must render every trace kind without panicking.
		if ev.Kind == flight.KindTraceStart || ev.Kind == flight.KindTraceEdge || ev.Kind == flight.KindTraceEnd {
			if s := ev.Format(); !strings.Contains(s, "id=") {
				t.Errorf("unformatted trace event: %q", s)
			}
		}
	}
	if kinds[flight.KindTraceStart] != 1 || kinds[flight.KindTraceEdge] != 1 || kinds[flight.KindTraceEnd] != 1 {
		t.Fatalf("trace event kinds = %v, want one each of start/edge/end", kinds)
	}
}

// TestUntracedKernelUnaffected pins virtual-time invariance: the same
// workload with and without an armed plane finishes at the identical
// virtual instant — tracing never advances a clock.
func TestUntracedKernelUnaffected(t *testing.T) {
	run := func(arm bool) uint64 {
		var planes kernel.Planes
		if arm {
			planes.Causal = causal.New(0)
		}
		k := newKernelWith(2, kernel.IsolationFull, planes)
		var end uint64
		_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
			k.TraceBegin(p, "inv", "op")
			p.Compute(1000)
			if _, err := k.Fork(p, func(c *kernel.Proc) {
				if err := c.StoreU64(c.HeapCap, 0, 7); err != nil {
					t.Errorf("store: %v", err)
				}
				k.Exit(c, 0)
			}); err != nil {
				t.Fatal(err)
			}
			if _, _, err := k.Wait(p); err != nil {
				t.Fatal(err)
			}
			k.TraceEnd(p)
			end = uint64(p.Task.Now())
		})
		if err != nil {
			t.Fatal(err)
		}
		k.Run()
		return end
	}
	if on, off := run(true), run(false); on != off {
		t.Fatalf("armed plane perturbed virtual time: %d != %d", on, off)
	}
}
