package flight

import (
	"strings"
	"sync"
	"testing"
)

// drain returns the snapshot's (seq, kind) pairs for compact assertions.
func seqs(evs []Event) []uint64 {
	out := make([]uint64, len(evs))
	for i, e := range evs {
		out[i] = e.Seq
	}
	return out
}

// TestEmitDisabledRecordsNothing: a nil recorder is the one that is off;
// emitting into it and reading its counters must not panic.
func TestEmitDisabledRecordsNothing(t *testing.T) {
	var nilRec *Recorder
	nilRec.Emit(1, 1, KindSyscall, 0, 0, 0)
	if nilRec.Seq() != 0 || nilRec.Dropped() != 0 {
		t.Fatalf("nil recorder counted events: seq=%d dropped=%d", nilRec.Seq(), nilRec.Dropped())
	}
}

func TestSnapshotGlobalOrder(t *testing.T) {
	r := New(64)
	// Interleave emits across pids; the snapshot must come back in
	// emission order.
	for i := 0; i < 32; i++ {
		r.Emit(uint64(i), int32(i%7), KindMark, uint64(i), 0, 0)
	}
	evs := r.Snapshot()
	if len(evs) != 32 {
		t.Fatalf("snapshot has %d events, want 32", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Fatalf("snapshot out of order at %d: seqs %v", i, seqs(evs))
		}
		if e.Args[0] != uint64(i) {
			t.Fatalf("event %d payload corrupted: %+v", i, e)
		}
	}
}

// TestWraparoundKeepsNewest: once the ring has wrapped it holds the newest
// events, and Tail(n) is the n newest with contiguous sequence numbers
// however the events spread over PIDs; the dump header counts exactly
// what it prints.
func TestWraparoundKeepsNewest(t *testing.T) {
	for _, pids := range [][]int32{{1}, {1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, {-3, 7, 7, 2}} {
		r := New(8) // tiny ring
		for i := 0; i < 20; i++ {
			r.Emit(uint64(i), pids[i%len(pids)], KindMark, uint64(i), 0, 0)
		}
		if r.Len() != 8 || r.Dropped() != 12 {
			t.Fatalf("pids %v: ring holds %d events, %d dropped; want 8 and 12", pids, r.Len(), r.Dropped())
		}
		for _, n := range []int{1, 5, 8} {
			tail := r.Tail(n)
			if len(tail) != n {
				t.Fatalf("pids %v: Tail(%d) returned %d events", pids, n, len(tail))
			}
			for i, e := range tail {
				if want := uint64(20 - n + i); e.Args[0] != want || e.Seq != want+1 {
					t.Fatalf("pids %v: Tail(%d) seqs = %v, want the %d newest", pids, n, seqs(tail), n)
				}
			}
		}
		if h, _, _ := strings.Cut(r.TextDump(5), "\n"); h != "flight recorder: last 5 of 20 events (12 dropped by ring wrap)" {
			t.Fatalf("pids %v: dump header %q", pids, h)
		}
	}
}

func TestTail(t *testing.T) {
	r := New(64)
	for i := 0; i < 10; i++ {
		r.Emit(uint64(i), int32(i), KindMark, uint64(i), 0, 0)
	}
	tail := r.Tail(3)
	if len(tail) != 3 || tail[0].Args[0] != 7 || tail[2].Args[0] != 9 {
		t.Fatalf("Tail(3) = %v", seqs(tail))
	}
	if got := len(r.Tail(-1)); got != 10 {
		t.Fatalf("Tail(-1) returned %d events, want all 10", got)
	}
	if got := len(r.Tail(100)); got != 10 {
		t.Fatalf("Tail(100) returned %d events, want 10", got)
	}
}

func TestReset(t *testing.T) {
	r := New(16)
	for i := 0; i < 20; i++ {
		r.Emit(0, int32(i), KindMark, 0, 0, 0)
	}
	r.Reset()
	if r.Len() != 0 || r.Seq() != 0 || r.Dropped() != 0 {
		t.Fatalf("Reset left state: len=%d seq=%d dropped=%d", r.Len(), r.Seq(), r.Dropped())
	}
	r.Emit(1, 1, KindSyscall, 2, 0, 0)
	if r.Len() != 1 || r.Snapshot()[0].Seq != 1 {
		t.Fatal("recorder unusable after Reset")
	}
}

// TestConcurrentWriters hammers the ring from racing goroutines: run
// under -race, this is the race-safety proof. Total order must still be
// strict and gap-free over the surviving window.
func TestConcurrentWriters(t *testing.T) {
	r := New(1024)
	const writers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Emit(uint64(i), int32(w), KindMark, uint64(w), uint64(i), 0)
			}
		}(w)
	}
	wg.Wait()
	if r.Seq() != writers*per {
		t.Fatalf("seq = %d, want %d", r.Seq(), writers*per)
	}
	evs := r.Snapshot()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("snapshot not gap-free at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}

func TestTextDumpFormat(t *testing.T) {
	r := New(64)
	r.Emit(100, 1, KindSyscall, 3, 0, 0)
	r.Emit(250, 1, KindFault, 2, 0xdeadb000, 0)
	r.Emit(300, 1, KindFaultDone, 2, 1, 4)
	r.Emit(400, 1, KindSysRet, 3, 300, 0)
	dump := r.TextDump(DumpTail)
	if !strings.HasPrefix(dump, "flight recorder: last 4 of 4 events (0 dropped by ring wrap)\n") {
		t.Fatalf("dump header wrong:\n%s", dump)
	}
	for _, want := range []string{
		"syscall     no=3",
		"fault       kind=2 va=0xdeadb000",
		"fault-done  kind=2 copied=1 relocs=4",
		"sysret      no=3 lat=300ns",
	} {
		if !strings.Contains(dump, want) {
			t.Fatalf("dump missing %q:\n%s", want, dump)
		}
	}
	lines := strings.Split(strings.TrimRight(dump, "\n"), "\n")
	if len(lines) != 6 { // header + column header + 4 events
		t.Fatalf("dump has %d lines, want 6:\n%s", len(lines), dump)
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if s := k.String(); s == "" || strings.HasPrefix(s, "kind(") {
			t.Fatalf("Kind %d has no name", k)
		}
		// Every kind must render without falling into the default case's
		// raw a0/a1/a2 form unintentionally (Format never panics).
		_ = Event{Kind: k}.Format()
	}
	if s := Kind(200).String(); s != "kind(200)" {
		t.Fatalf("out-of-range Kind string = %q", s)
	}
}
