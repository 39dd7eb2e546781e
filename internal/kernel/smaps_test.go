package kernel_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"ufork/internal/core"
	"ufork/internal/kernel"
	"ufork/internal/model"
	"ufork/internal/obs/flight"
	"ufork/internal/obs/memmap"
)

// TestSmapsSyscall drives SYS_SMAPS across a live fork pair under CoPA:
// the parent and child share almost the whole image, so RSS diverges from
// PSS and USS, the shared split lands clean for text and dirty for heap,
// and ΣPSS across the pair equals exactly the frames they occupy.
func TestSmapsSyscall(t *testing.T) {
	k := newKernel(1, kernel.IsolationFull)
	var parent, child kernel.SmapsReport
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		_, err := k.Fork(p, func(c *kernel.Proc) {
			st, err := k.Smaps(c, 0)
			if err != nil {
				t.Errorf("child smaps: %v", err)
			}
			child = st
			pst, err := k.Smaps(c, p.PID)
			if err != nil {
				t.Errorf("child smaps of parent: %v", err)
			}
			parent = pst
			k.Exit(c, 0)
		})
		if err != nil {
			t.Errorf("fork: %v", err)
			return
		}
		if _, _, err := k.Wait(p); err != nil {
			t.Errorf("wait: %v", err)
		}
		if _, err := k.Smaps(p, kernel.PID(9999)); !errors.Is(err, kernel.ErrNoProc) {
			t.Errorf("smaps of missing pid: got %v, want ErrNoProc", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()

	if child.Gen != 1 || parent.Gen != 0 {
		t.Errorf("generations = parent %d / child %d, want 0 / 1", parent.Gen, child.Gen)
	}
	for _, r := range []kernel.SmapsReport{parent, child} {
		tot := r.Total
		if tot.MappedPages == 0 || tot.RSSBytes != uint64(tot.MappedPages)*kernel.PageSize {
			t.Errorf("%s[%d]: mapped=%d rss=%d", r.Name, r.PID, tot.MappedPages, tot.RSSBytes)
		}
		if tot.SharedPages == 0 {
			t.Errorf("%s[%d]: no shared pages right after fork", r.Name, r.PID)
		}
		if tot.PSSBytes >= tot.RSSBytes || tot.PSSBytes < tot.USSBytes {
			t.Errorf("%s[%d]: PSS %d outside (USS %d, RSS %d)", r.Name, r.PID,
				tot.PSSBytes, tot.USSBytes, tot.RSSBytes)
		}
		if tot.SharedCleanBytes == 0 || tot.SharedDirtyBytes == 0 {
			t.Errorf("%s[%d]: shared clean/dirty = %d/%d, want both nonzero",
				r.Name, r.PID, tot.SharedCleanBytes, tot.SharedDirtyBytes)
		}
	}
	// Per-segment semantics: text can only share clean, heap only dirty.
	segs := make(map[string]kernel.SmapsRow)
	for _, row := range child.Rows {
		segs[row.Segment] = row
	}
	if text := segs["text"]; text.SharedDirtyBytes != 0 || text.SharedCleanBytes == 0 {
		t.Errorf("text row clean/dirty = %d/%d", text.SharedCleanBytes, text.SharedDirtyBytes)
	}
	if heap := segs["heap"]; heap.SharedCleanBytes != 0 || heap.SharedDirtyBytes == 0 {
		t.Errorf("heap row clean/dirty = %d/%d", heap.SharedCleanBytes, heap.SharedDirtyBytes)
	}
	// ΣPSS == live frames: both snapshots were taken at the same instant
	// (inside the child, before any further fault), every reference count
	// is 1 or 2, so the fixed-point division is exact.
	sum := parent.Total.PSSBytes + child.Total.PSSBytes
	want := uint64(parent.Total.MappedPages+child.Total.MappedPages-
		parent.Total.SharedPages) * kernel.PageSize
	if sum != want {
		t.Errorf("ΣPSS = %d bytes, want %d (distinct frames)", sum, want)
	}

	// The renderer mentions every populated segment and the totals line.
	text := kernel.RenderSmaps(child)
	for _, wantSub := range []string{"smaps for hello", "text", "heap", "total"} {
		if !strings.Contains(text, wantSub) {
			t.Errorf("RenderSmaps missing %q in:\n%s", wantSub, text)
		}
	}
}

// TestSmapsGaugesAndPlane arms the provenance plane on a kernel and checks
// the full pipeline: ProcStat carries the smaps gauges, exited snapshots
// freeze the final footprint, the plane's per-process aggregates agree
// with the page-table walk, and the sharing break emits FrameOwnerChange.
func TestSmapsGaugesAndPlane(t *testing.T) {
	fr := flight.New(8192)
	pl := memmap.New()
	k := kernel.New(kernel.Config{
		Machine:   model.UFork(1),
		Engine:    core.New(core.CopyOnPointerAccess),
		Isolation: kernel.IsolationFull,
		Frames:    1 << 16,
		Planes:    kernel.Planes{Flight: fr, Memmap: pl},
	})

	var childStat kernel.ProcStat
	var planeMid memmap.Snapshot
	var midAllocated int
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		_, err := k.Fork(p, func(c *kernel.Proc) {
			// Break sharing on one heap page, then snapshot everything
			// while both processes are alive.
			if err := c.Store(c.HeapCap, 0, []byte{1}); err != nil {
				t.Errorf("child store: %v", err)
			}
			if _, err := k.Smaps(c, 0); err != nil {
				t.Errorf("child smaps: %v", err)
			}
			st, err := k.Procstat(c, 0)
			if err != nil {
				t.Errorf("child procstat: %v", err)
			}
			childStat = st
			planeMid = pl.Snapshot(0)
			midAllocated = k.Mem.Allocated()
			k.Exit(c, 0)
		})
		if err != nil {
			t.Errorf("fork: %v", err)
			return
		}
		if _, _, err := k.Wait(p); err != nil {
			t.Errorf("wait: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()

	if childStat.RSSBytes == 0 || childStat.PSSBytes == 0 || childStat.USSBytes == 0 {
		t.Fatalf("child stat gauges empty: %+v", childStat)
	}
	if childStat.PSSBytes >= childStat.RSSBytes {
		t.Errorf("child PSS %d >= RSS %d with live sharing", childStat.PSSBytes, childStat.RSSBytes)
	}

	// Plane vs walk, mid-run: the plane tracked every allocation and its
	// per-process nodes must agree with the syscall-walk gauges.
	if planeMid.LiveFrames != midAllocated {
		t.Errorf("plane tracked %d live frames, allocator had %d", planeMid.LiveFrames, midAllocated)
	}
	if planeMid.OwnerChanges == 0 {
		t.Errorf("plane saw no owner change after a CoW break")
	}
	if planeMid.LiveByOrigin["image"] == 0 {
		t.Errorf("plane origins missing image pages: %v", planeMid.LiveByOrigin)
	}
	var childNode *memmap.ProcNode
	for i := range planeMid.Procs {
		if planeMid.Procs[i].PID == int32(childStat.PID) {
			childNode = &planeMid.Procs[i]
		}
	}
	if childNode == nil {
		t.Fatalf("plane lost the child: %+v", planeMid.Procs)
	}
	if childNode.RSSBytes != uint64(childStat.RSSBytes) ||
		childNode.PSSBytes != uint64(childStat.PSSBytes) ||
		childNode.USSBytes != uint64(childStat.USSBytes) {
		t.Errorf("plane node %+v disagrees with walk gauges %+v", childNode, childStat)
	}
	if childNode.Gen != 1 {
		t.Errorf("plane child gen = %d, want 1", childNode.Gen)
	}

	// The reaped snapshot froze the pre-unmap footprint.
	final := k.ProcStats()
	for _, st := range final {
		if !st.Exited {
			t.Fatalf("proc %d not exited", st.PID)
		}
		if st.RSSBytes == 0 || st.USSBytes == 0 {
			t.Errorf("reaped proc %d lost its frozen footprint: %+v", st.PID, st)
		}
	}

	// The sharing break emitted a decodable FrameOwnerChange event.
	found := false
	for _, ev := range fr.Snapshot() {
		if ev.Kind == flight.KindFrameOwnerChange {
			found = true
			line := ev.Format()
			if !strings.Contains(line, "frame-owner") || !strings.Contains(line, "mode=") {
				t.Errorf("owner-change format: %q", line)
			}
		}
	}
	if !found {
		t.Errorf("no FrameOwnerChange event in the flight recorder")
	}
}

// TestProcStatRingEviction pins the reaped-snapshot ring: bounded at 128
// entries, evicting oldest-first.
func TestProcStatRingEviction(t *testing.T) {
	const children = 140 // deadStatsCap (128) + 12
	k := newKernel(1, kernel.IsolationFault)
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		for i := 0; i < children; i++ {
			if _, err := k.Fork(p, func(c *kernel.Proc) { k.Exit(c, 0) }); err != nil {
				t.Errorf("fork %d: %v", i, err)
				return
			}
			if _, _, err := k.Wait(p); err != nil {
				t.Errorf("wait %d: %v", i, err)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()

	stats := k.ProcStats()
	dead, sawRoot := 0, false
	minPID, maxPID := int(1<<30), 0
	for _, st := range stats {
		if !st.Exited {
			t.Errorf("proc %d not exited after the run", st.PID)
		}
		dead++
		if st.PID == 1 {
			sawRoot = true
			continue
		}
		if st.PID < minPID {
			minPID = st.PID
		}
		if st.PID > maxPID {
			maxPID = st.PID
		}
	}
	if dead != 128 {
		t.Fatalf("dead ring holds %d snapshots, want exactly deadStatsCap (128)", dead)
	}
	// The root exits last, so its snapshot is the newest entry; the rest
	// are the newest 127 children. Eviction is oldest-first, so the
	// earliest children (lowest PIDs) are the ones that fell off.
	if !sawRoot {
		t.Errorf("root's own snapshot evicted, want it retained (reaped last)")
	}
	if wantMin := children + 1 - 127 + 1; minPID != wantMin {
		t.Errorf("oldest surviving child PID = %d, want %d (oldest evicted first)", minPID, wantMin)
	}
	if maxPID != children+1 {
		t.Errorf("newest surviving child PID = %d, want %d", maxPID, children+1)
	}
}

// TestProcStatRingImmutability: a reaped snapshot is final — later kernel
// activity, and mutation of a returned slice, must not alter it.
func TestProcStatRingImmutability(t *testing.T) {
	k := newKernel(1, kernel.IsolationFault)
	var afterFirst []kernel.ProcStat
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		if _, err := k.Fork(p, func(c *kernel.Proc) {
			_, _ = k.Procstat(c, 0)
			k.Exit(c, 7)
		}); err != nil {
			t.Errorf("fork: %v", err)
			return
		}
		if _, _, err := k.Wait(p); err != nil {
			t.Errorf("wait: %v", err)
		}
		afterFirst = k.ProcStats()
		// Tamper with the returned copy; the ring must be unaffected.
		for i := range afterFirst {
			if afterFirst[i].Exited {
				afterFirst[i].Syscalls = map[string]uint64{"bogus": 99}
			}
		}
		afterFirst = k.ProcStats()
		// More activity after the reap: another child, more syscalls.
		if _, err := k.Fork(p, func(c *kernel.Proc) { k.Exit(c, 0) }); err != nil {
			t.Errorf("fork 2: %v", err)
			return
		}
		if _, _, err := k.Wait(p); err != nil {
			t.Errorf("wait 2: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()

	var first, again *kernel.ProcStat
	for i := range afterFirst {
		if afterFirst[i].Exited {
			first = &afterFirst[i]
		}
	}
	for _, st := range k.ProcStats() {
		if st.Exited && st.PID == first.PID {
			cp := st
			again = &cp
		}
	}
	if first == nil || again == nil {
		t.Fatal("reaped snapshot missing")
	}
	if first.Syscalls["bogus"] != 0 {
		t.Errorf("tampering with a returned snapshot reached the ring")
	}
	if !reflect.DeepEqual(*first, *again) {
		t.Errorf("reaped snapshot changed after reap:\n first=%+v\n again=%+v", *first, *again)
	}
}
