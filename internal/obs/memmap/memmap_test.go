package memmap

import (
	"sync"
	"testing"

	"ufork/internal/tmem"
)

// TestDisabledIsNoOp: a nil plane is the one that is off; every probe on
// it returns without panicking and it reports no state.
func TestDisabledIsNoOp(t *testing.T) {
	var nilPlane *Plane
	nilPlane.OnAlloc(1, 1, 0, OriginImage)
	nilPlane.OnMap(1, 1)
	nilPlane.OnCopy(2, 1)
	nilPlane.OwnerChange(1, 2, 1)
	if nilPlane.LiveFrames() != 0 || nilPlane.OwnerChanges() != 0 {
		t.Fatal("nil plane reported state")
	}
	if _, ok := nilPlane.FrameRefs(1); ok {
		t.Fatal("nil plane tracked a frame ref")
	}
}

func TestLifecycleAndOrigins(t *testing.T) {
	pl := New()
	pl.OnAlloc(10, 1, 0, OriginImage)
	pl.OnAlloc(11, 2, 1, OriginEager)
	pl.OnAlloc(12, 2, 1, OriginDemand)
	pl.Reclassify(12, OriginCoW)
	pl.OnCopy(12, 10)
	if pl.LiveFrames() != 3 {
		t.Fatalf("LiveFrames = %d, want 3", pl.LiveFrames())
	}
	snap := pl.Snapshot(16)
	if snap.LiveByOrigin["image"] != 1 || snap.LiveByOrigin["eager"] != 1 || snap.LiveByOrigin["cow"] != 1 {
		t.Fatalf("live by origin = %v", snap.LiveByOrigin)
	}
	if snap.LiveByOrigin["demand"] != 0 || snap.AllocsByOrigin["demand"] != 0 {
		t.Fatalf("reclassify left demand residue: %v / %v", snap.LiveByOrigin, snap.AllocsByOrigin)
	}
	var cow *FrameLine
	for i := range snap.Frames {
		if snap.Frames[i].PFN == 12 {
			cow = &snap.Frames[i]
		}
	}
	if cow == nil || cow.Parent != 10 || cow.Origin != "cow" {
		t.Fatalf("cow frame lineage = %+v", cow)
	}
	pl.OnFree(12)
	if pl.LiveFrames() != 2 {
		t.Fatalf("LiveFrames after free = %d, want 2", pl.LiveFrames())
	}
	if _, ok := pl.FrameRefs(12); ok {
		t.Fatal("freed frame still tracked")
	}
}

func TestRSSPSSUSSDerivation(t *testing.T) {
	pl := New()
	pl.OnSpawn(1, 0, "parent", 0)
	pl.OnSpawn(2, 1, "child", 1)
	// Frame 100: shared by both. Frame 101: exclusive to pid 1.
	// Frame 102: exclusive to pid 2.
	for _, f := range []tmem.PFN{100, 101, 102} {
		pl.OnAlloc(f, 1, 0, OriginImage)
	}
	pl.OnMap(1, 100)
	pl.OnMap(2, 100)
	pl.OnMap(1, 101)
	pl.OnMap(2, 102)

	snap := pl.Snapshot(0)
	if len(snap.Procs) != 2 {
		t.Fatalf("procs = %d, want 2", len(snap.Procs))
	}
	p1, p2 := snap.Procs[0], snap.Procs[1]
	const pg = tmem.PageSize
	if p1.RSSBytes != 2*pg || p1.USSBytes != pg || p1.SharedPages != 1 {
		t.Fatalf("p1 = %+v", p1)
	}
	if p1.PSSBytes != pg+pg/2 {
		t.Fatalf("p1 PSS = %d, want %d", p1.PSSBytes, pg+pg/2)
	}
	if p2.PSSBytes != pg+pg/2 || p2.USSBytes != pg {
		t.Fatalf("p2 = %+v", p2)
	}
	if len(p1.Children) != 1 || p1.Children[0] != 2 {
		t.Fatalf("p1 children = %v", p1.Children)
	}
	// ΣPSS over the tree equals total mapped frames.
	if p1.PSSBytes+p2.PSSBytes != 3*pg {
		t.Fatalf("ΣPSS = %d, want %d", p1.PSSBytes+p2.PSSBytes, 3*pg)
	}

	// Sharing break: pid 2 replaces its view of 100 with a private copy.
	pl.OnAlloc(103, 2, 1, OriginCoW)
	pl.OnCopy(103, 100)
	pl.OnUnmap(2, 100)
	pl.OnMap(2, 103)
	pl.OwnerChange(103, 2, 1)
	if pl.OwnerChanges() != 1 {
		t.Fatalf("OwnerChanges = %d", pl.OwnerChanges())
	}
	snap = pl.Snapshot(0)
	p1, p2 = snap.Procs[0], snap.Procs[1]
	if p1.USSBytes != 2*pg || p2.USSBytes != 2*pg || p1.SharedPages != 0 {
		t.Fatalf("after break: p1=%+v p2=%+v", p1, p2)
	}

	pl.OnExit(2)
	if got := len(pl.Snapshot(0).Procs); got != 1 {
		t.Fatalf("procs after exit = %d", got)
	}
}

func TestConcurrentCopyObservers(t *testing.T) {
	pl := New()
	for i := tmem.PFN(0); i < 128; i++ {
		pl.OnAlloc(i, 1, 0, OriginEager)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := tmem.PFN(0); i < 128; i++ {
				pl.OnCopy(i, tmem.PFN(w))
				pl.Snapshot(4)
			}
		}(w)
	}
	wg.Wait()
	if pl.LiveFrames() != 128 {
		t.Fatalf("LiveFrames = %d", pl.LiveFrames())
	}
}
