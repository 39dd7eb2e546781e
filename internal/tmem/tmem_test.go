package tmem

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"ufork/internal/cap"
)

func TestAllocFree(t *testing.T) {
	m := New(4)
	pfns := make([]PFN, 0, 4)
	for i := 0; i < 4; i++ {
		pfn, err := m.AllocFrame()
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		pfns = append(pfns, pfn)
	}
	if m.Allocated() != 4 || m.PeakAllocated() != 4 {
		t.Fatalf("allocated=%d peak=%d", m.Allocated(), m.PeakAllocated())
	}
	if _, err := m.AllocFrame(); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected OOM, got %v", err)
	}
	for _, pfn := range pfns {
		if err := m.FreeFrame(pfn); err != nil {
			t.Fatalf("free %d: %v", pfn, err)
		}
	}
	if m.Allocated() != 0 {
		t.Fatalf("allocated=%d after freeing all", m.Allocated())
	}
	if err := m.FreeFrame(pfns[0]); err == nil {
		t.Fatal("double free should fail")
	}
}

func TestReadWriteBytes(t *testing.T) {
	m := New(2)
	pfn, _ := m.AllocFrame()
	msg := []byte("the quick brown fox")
	if err := m.WriteBytes(pfn, 100, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := m.ReadBytes(pfn, 100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
	// Cross-page access rejected.
	if err := m.WriteBytes(pfn, PageSize-4, msg); !errors.Is(err, ErrPageOverflow) {
		t.Fatalf("expected overflow, got %v", err)
	}
	// Unallocated frame rejected.
	if err := m.ReadBytes(PFN(1), 0, got); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("expected bad frame, got %v", err)
	}
}

func TestCapStoreLoad(t *testing.T) {
	m := New(1)
	pfn, _ := m.AllocFrame()
	c := cap.Root(0x10000, 0x1000).SetAddr(0x10400).WithPerms(cap.PermData)
	if err := m.StoreCap(pfn, 64, c); err != nil {
		t.Fatal(err)
	}
	tag, err := m.TagAt(pfn, 64)
	if err != nil || !tag {
		t.Fatalf("tag=%v err=%v", tag, err)
	}
	got, err := m.LoadCap(pfn, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(c) {
		t.Fatalf("got %v want %v", got, c)
	}
	// Misaligned capability access rejected.
	if err := m.StoreCap(pfn, 65, c); !errors.Is(err, ErrUnaligned) {
		t.Fatalf("expected unaligned, got %v", err)
	}
	if _, err := m.LoadCap(pfn, 65); !errors.Is(err, ErrUnaligned) {
		t.Fatalf("expected unaligned load, got %v", err)
	}
}

func TestByteWriteClearsTag(t *testing.T) {
	m := New(1)
	pfn, _ := m.AllocFrame()
	c := cap.Root(0x10000, 0x1000).SetAddr(0x10420)
	if err := m.StoreCap(pfn, 32, c); err != nil {
		t.Fatal(err)
	}
	// Overwrite one byte in the middle of the granule.
	if err := m.WriteBytes(pfn, 40, []byte{0xff}); err != nil {
		t.Fatal(err)
	}
	tag, _ := m.TagAt(pfn, 32)
	if tag {
		t.Fatal("byte write must clear the granule tag")
	}
	got, err := m.LoadCap(pfn, 32)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tag() {
		t.Fatal("loading an overwritten granule must yield an untagged cap")
	}
	// The integer bytes remain readable: first 8 bytes hold the cursor.
	buf := make([]byte, 8)
	if err := m.ReadBytes(pfn, 32, buf); err != nil {
		t.Fatal(err)
	}
}

func TestUntaggedLoadSeesAddressBytes(t *testing.T) {
	m := New(1)
	pfn, _ := m.AllocFrame()
	c := cap.Root(0x2000, 0x100).SetAddr(0x2040)
	if err := m.StoreCap(pfn, 0, c); err != nil {
		t.Fatal(err)
	}
	// An integer read of the pointer sees its address.
	buf := make([]byte, 8)
	if err := m.ReadBytes(pfn, 0, buf); err != nil {
		t.Fatal(err)
	}
	var addr uint64
	for i := 7; i >= 0; i-- {
		addr = addr<<8 | uint64(buf[i])
	}
	if addr != 0x2040 {
		t.Fatalf("integer view of pointer = %#x, want 0x2040", addr)
	}
}

// taggedOffsets collects ForEachTagged's visit order (test helper standing
// in for the removed slice-returning TaggedGranules).
func taggedOffsets(t *testing.T, m *Memory, pfn PFN) []uint64 {
	t.Helper()
	var got []uint64
	if err := m.ForEachTagged(pfn, func(off uint64) error {
		got = append(got, off)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestTaggedGranulesScan(t *testing.T) {
	m := New(1)
	pfn, _ := m.AllocFrame()
	offs := []uint64{0, 256, 4080}
	for _, off := range offs {
		c := cap.Root(uint64(off)*16+0x1000, 64)
		if err := m.StoreCap(pfn, off, c); err != nil {
			t.Fatal(err)
		}
	}
	got := taggedOffsets(t, m, pfn)
	if len(got) != len(offs) {
		t.Fatalf("found %d tagged granules, want %d", len(got), len(offs))
	}
	for i := range offs {
		if got[i] != offs[i] {
			t.Fatalf("granule %d at %d, want %d", i, got[i], offs[i])
		}
	}
	n, _ := m.CountTags(pfn)
	if n != 3 {
		t.Fatalf("CountTags = %d", n)
	}
}

// TestLastGranuleRoundTrip pins the top-of-frame corner: a capability in
// the final granule (offset 4080, bit 63 of the last tag word) must
// round-trip, scan, and clear like any other.
func TestLastGranuleRoundTrip(t *testing.T) {
	m := New(1)
	pfn, _ := m.AllocFrame()
	c := cap.Root(0x9000, 0x100).SetAddr(0x9040)
	if err := m.StoreCap(pfn, PageSize-cap.GranuleSize, c); err != nil {
		t.Fatal(err)
	}
	got, err := m.LoadCap(pfn, 4080)
	if err != nil || !got.Equal(c) {
		t.Fatalf("last-granule load = %v, %v; want %v", got, err, c)
	}
	if offs := taggedOffsets(t, m, pfn); len(offs) != 1 || offs[0] != 4080 {
		t.Fatalf("scan found %v, want [4080]", offs)
	}
	if n, _ := m.CountTags(pfn); n != 1 {
		t.Fatalf("CountTags = %d, want 1", n)
	}
	// A write to the frame's final byte clears exactly that granule.
	if err := m.WriteBytes(pfn, PageSize-1, []byte{0}); err != nil {
		t.Fatal(err)
	}
	if tag, _ := m.TagAt(pfn, 4080); tag {
		t.Fatal("write to last byte must clear last granule tag")
	}
	if n, _ := m.CountTags(pfn); n != 0 {
		t.Fatalf("CountTags = %d after clear, want 0", n)
	}
}

// TestWriteBytesSpanningGranules verifies a write straddling a granule
// boundary clears exactly the touched granules' tags — neighbours keep
// theirs and the cached count tracks the change.
func TestWriteBytesSpanningGranules(t *testing.T) {
	m := New(1)
	pfn, _ := m.AllocFrame()
	// Tag granules 1, 2, 3 and 4 (offsets 16, 32, 48, 64).
	for g := uint64(1); g <= 4; g++ {
		if err := m.StoreCap(pfn, g*cap.GranuleSize, cap.Root(0x4000, 64)); err != nil {
			t.Fatal(err)
		}
	}
	// Write bytes [30, 50): touches granules 1 (tail), 2, and 3 (head).
	if err := m.WriteBytes(pfn, 30, make([]byte, 20)); err != nil {
		t.Fatal(err)
	}
	want := map[uint64]bool{1: false, 2: false, 3: false, 4: true}
	for g, wantTag := range want {
		if tag, _ := m.TagAt(pfn, g*cap.GranuleSize); tag != wantTag {
			t.Fatalf("granule %d tag = %v, want %v", g, tag, wantTag)
		}
	}
	if n, _ := m.CountTags(pfn); n != 1 {
		t.Fatalf("CountTags = %d, want 1", n)
	}
}

// TestCopyFrameCountsBytesMoved is the regression test for the cost-
// accounting gap: CopyFrame moves 4 KiB of data plus the packed tag plane
// and must charge both to BytesMoved.
func TestCopyFrameCountsBytesMoved(t *testing.T) {
	m := New(2)
	src, _ := m.AllocFrame()
	dst, _ := m.AllocFrame()
	if err := m.StoreCap(src, 0, cap.Root(0x1000, 64)); err != nil {
		t.Fatal(err)
	}
	before := m.BytesMoved()
	if err := m.CopyFrame(dst, src); err != nil {
		t.Fatal(err)
	}
	if got := m.BytesMoved() - before; got != PageSize+TagPlaneBytes {
		t.Fatalf("CopyFrame moved %d bytes, want %d", got, PageSize+TagPlaneBytes)
	}
}

// TestDoubleFree verifies the double-free error actually fires, and that
// out-of-range frees stay ErrBadFrame.
func TestDoubleFree(t *testing.T) {
	m := New(2)
	pfn, _ := m.AllocFrame()
	if err := m.FreeFrame(pfn); err != nil {
		t.Fatal(err)
	}
	if err := m.FreeFrame(pfn); !errors.Is(err, ErrFreeFree) {
		t.Fatalf("double free = %v, want ErrFreeFree", err)
	}
	// A never-allocated frame is equally not-allocated: double-free class.
	if err := m.FreeFrame(PFN(1)); !errors.Is(err, ErrFreeFree) {
		t.Fatalf("free of never-allocated frame = %v, want ErrFreeFree", err)
	}
	if err := m.FreeFrame(NoFrame); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("free of NoFrame = %v, want ErrBadFrame", err)
	}
	if err := m.FreeFrame(PFN(99)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("out-of-range free = %v, want ErrBadFrame", err)
	}
}

// TestFramePoolReuse verifies a pooled frame comes back fully reset: no
// data, no tags, no cached count — even when the previous tenant held
// capabilities.
func TestFramePoolReuse(t *testing.T) {
	m := New(1)
	pfn, _ := m.AllocFrame()
	if err := m.StoreCap(pfn, 128, cap.Root(0x2000, 64)); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteBytes(pfn, 512, []byte("junk")); err != nil {
		t.Fatal(err)
	}
	if err := m.FreeFrame(pfn); err != nil {
		t.Fatal(err)
	}
	pfn2, err := m.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if pfn2 != pfn {
		t.Fatalf("expected frame reuse, got pfn %d vs %d", pfn2, pfn)
	}
	if n, _ := m.CountTags(pfn2); n != 0 {
		t.Fatalf("pooled frame CountTags = %d, want 0", n)
	}
	buf := make([]byte, PageSize)
	if err := m.ReadBytes(pfn2, 0, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("pooled frame byte %d = %#x, want 0", i, b)
		}
	}
	if offs := taggedOffsets(t, m, pfn2); len(offs) != 0 {
		t.Fatalf("pooled frame has tagged granules %v", offs)
	}
}

func TestCopyFramePreservesTags(t *testing.T) {
	m := New(2)
	src, _ := m.AllocFrame()
	dst, _ := m.AllocFrame()
	c := cap.Root(0x8000, 0x800).SetAddr(0x8100)
	if err := m.StoreCap(src, 128, c); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteBytes(src, 512, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := m.CopyFrame(dst, src); err != nil {
		t.Fatal(err)
	}
	got, err := m.LoadCap(dst, 128)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(c) {
		t.Fatal("tag plane must travel with the copy")
	}
	buf := make([]byte, 7)
	if err := m.ReadBytes(dst, 512, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "payload" {
		t.Fatalf("data not copied: %q", buf)
	}
	// The copy is independent of the source.
	if err := m.WriteBytes(src, 512, []byte("XXXXXXX")); err != nil {
		t.Fatal(err)
	}
	if err := m.ReadBytes(dst, 512, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "payload" {
		t.Fatal("copy aliases source")
	}
}

// TestUnwrittenFrameReadsZeros pins frame data on first write: a fresh
// frame has no data storage, reads as zeros through both the byte and the
// capability path, and reading does not allocate it.
func TestUnwrittenFrameReadsZeros(t *testing.T) {
	m := New(1)
	pfn, _ := m.AllocFrame()
	buf := bytes.Repeat([]byte{0xAA}, PageSize)
	if err := m.ReadBytes(pfn, 0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, PageSize)) {
		t.Fatal("unwritten frame must read as zeros")
	}
	c, err := m.LoadCap(pfn, 256)
	if err != nil {
		t.Fatal(err)
	}
	if c.Tag() || c.Addr() != 0 {
		t.Fatalf("unwritten granule loads as %v, want an untagged zero", c)
	}
	if m.slot(pfn).Data != nil {
		t.Fatal("reads must not allocate frame data")
	}
	if err := m.WriteBytes(pfn, 8, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if m.slot(pfn).Data == nil {
		t.Fatal("the first write must allocate frame data")
	}
}

// TestCopyFrameFromUnwrittenClearsPooledDest: a copy destination taken
// from the pool keeps its previous tenant's bytes until the copy lands;
// copying an unwritten source must leave only zeros, not the stale bytes.
func TestCopyFrameFromUnwrittenClearsPooledDest(t *testing.T) {
	m := New(2)
	src, _ := m.AllocFrame()
	old, _ := m.AllocFrame()
	if err := m.WriteBytes(old, 100, []byte("SECRETS")); err != nil {
		t.Fatal(err)
	}
	if err := m.FreeFrame(old); err != nil {
		t.Fatal(err)
	}
	dst, err := m.AllocFrameForCopy()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 7)
	if err := m.ReadBytes(dst, 100, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "SECRETS" {
		t.Fatalf("pooled copy destination should still hold its old bytes, got %q", buf)
	}
	if err := m.CopyFrame(dst, src); err != nil {
		t.Fatal(err)
	}
	page := make([]byte, PageSize)
	if err := m.ReadBytes(dst, 0, page); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(page, make([]byte, PageSize)) {
		t.Fatal("copy from an unwritten frame left stale bytes in the destination")
	}
}

// TestAuditAfterPoison: poisoning writes every byte of a freed frame —
// allocating data for one never written — and revokes its tags, leaving a
// frame the audit accepts when it comes back out of the pool.
func TestAuditAfterPoison(t *testing.T) {
	m := New(2)
	m.SetHooks(&Hooks{PoisonFreed: true})
	tagged, _ := m.AllocFrame()
	blank, _ := m.AllocFrame()
	if err := m.StoreCap(tagged, 64, cap.Root(0x4000, 64)); err != nil {
		t.Fatal(err)
	}
	for _, pfn := range []PFN{tagged, blank} {
		if err := m.FreeFrame(pfn); err != nil {
			t.Fatal(err)
		}
	}
	for range 2 {
		pfn, err := m.AllocFrameForCopy()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AuditFrame(pfn); err != nil {
			t.Fatalf("audit after poison: %v", err)
		}
		buf := make([]byte, 16)
		if err := m.ReadBytes(pfn, 64, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, bytes.Repeat([]byte{poisonByte}, 16)) {
			t.Fatalf("frame %d not poisoned: % x", pfn, buf)
		}
	}
}

func TestZeroFrame(t *testing.T) {
	m := New(1)
	pfn, _ := m.AllocFrame()
	if err := m.StoreCap(pfn, 0, cap.Root(0, 16)); err != nil {
		t.Fatal(err)
	}
	if err := m.ZeroFrame(pfn); err != nil {
		t.Fatal(err)
	}
	tag, _ := m.TagAt(pfn, 0)
	if tag {
		t.Fatal("zeroing must clear tags")
	}
	if n, _ := m.CountTags(pfn); n != 0 {
		t.Fatalf("zeroing must clear the cached tag count, got %d", n)
	}
}

// Property: store/load round-trips for arbitrary offsets and payloads.
func TestRoundTripProperty(t *testing.T) {
	m := New(8)
	pfn, _ := m.AllocFrame()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		off := uint64(r.Intn(PageSize - 64))
		n := r.Intn(64) + 1
		buf := make([]byte, n)
		r.Read(buf)
		if err := m.WriteBytes(pfn, off, buf); err != nil {
			return false
		}
		got := make([]byte, n)
		if err := m.ReadBytes(pfn, off, got); err != nil {
			return false
		}
		return bytes.Equal(buf, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: after any interleaving of capability stores and byte writes,
// every tagged granule holds a tagged capability (no stale tags survive a
// byte overwrite). This is the soundness half of tag-directed pointer
// identification.
func TestTagSoundnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := New(1)
		pfn, _ := m.AllocFrame()
		for i := 0; i < 100; i++ {
			if r.Intn(2) == 0 {
				g := uint64(r.Intn(GranulesPerPage)) * cap.GranuleSize
				_ = m.StoreCap(pfn, g, cap.Root(uint64(r.Intn(1<<20)), 64))
			} else {
				off := uint64(r.Intn(PageSize - 8))
				_ = m.WriteBytes(pfn, off, []byte{1, 2, 3})
			}
		}
		sound := true
		if err := m.ForEachTagged(pfn, func(off uint64) error {
			c, err := m.LoadCap(pfn, off)
			if err != nil || !c.Tag() {
				sound = false
			}
			return nil
		}); err != nil {
			return false
		}
		// The cached count must agree with the scan.
		n, visited := 0, 0
		_ = m.ForEachTagged(pfn, func(uint64) error { visited++; return nil })
		n, _ = m.CountTags(pfn)
		return sound && n == visited
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestFreedPlaneSkipsDataFrames: a frame's capability plane leaves with
// its tags' owner. A tagged frame freed and reallocated for plain data,
// zeroed or as a copy of an untagged source, holds no plane.
func TestFreedPlaneSkipsDataFrames(t *testing.T) {
	m := New(4)
	tagged, _ := m.AllocFrame()
	plain, _ := m.AllocFrame()
	if err := m.StoreCap(tagged, 32, cap.Root(0x8000, 64)); err != nil {
		t.Fatal(err)
	}
	if m.CapPlanes() != 1 {
		t.Fatalf("CapPlanes = %d after one tagged store, want 1", m.CapPlanes())
	}
	if err := m.FreeFrame(tagged); err != nil {
		t.Fatal(err)
	}
	if m.CapPlanes() != 0 {
		t.Fatalf("CapPlanes = %d after freeing the tagged frame, want 0", m.CapPlanes())
	}
	data, _ := m.AllocFrame()
	if err := m.WriteBytes(data, 0, []byte("plain value bytes")); err != nil {
		t.Fatal(err)
	}
	copied, _ := m.AllocFrameForCopy()
	if err := m.CopyFrame(copied, plain); err != nil {
		t.Fatal(err)
	}
	for _, pfn := range []PFN{data, copied, plain} {
		if m.slot(pfn).caps != nil {
			t.Errorf("frame %d holds a capability plane without ever holding a tag", pfn)
		}
		if err := m.AuditFrame(pfn); err != nil {
			t.Error(err)
		}
	}
	if err := m.StoreCap(data, 0, cap.Root(0x8000, 64)); err != nil {
		t.Fatal(err)
	}
	if err := m.ZeroFrame(data); err != nil {
		t.Fatal(err)
	}
	if m.slot(data).caps != nil || m.CapPlanes() != 0 {
		t.Fatalf("ZeroFrame kept the plane: CapPlanes=%d", m.CapPlanes())
	}
}

// TestCopyFramePlaneFollowsSourceTags: a copy carries a plane exactly when
// its source holds tags, for sparse and dense sources alike, and the
// copy's tagged entries equal the source's.
func TestCopyFramePlaneFollowsSourceTags(t *testing.T) {
	m := New(8)
	// Recycle a plane full of capabilities that must not leak into copies.
	junk, _ := m.AllocFrame()
	for g := uint64(0); g < GranulesPerPage; g++ {
		if err := m.StoreCap(junk, g*cap.GranuleSize, cap.Root(0xdead0000+g, 16)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.FreeFrame(junk); err != nil {
		t.Fatal(err)
	}
	for _, stride := range []uint64{1, 2, 37} { // dense to sparse
		src, _ := m.AllocFrame()
		for g := uint64(0); g < GranulesPerPage; g += stride {
			if err := m.StoreCap(src, g*cap.GranuleSize, cap.Root(0x10000+g*64, 64)); err != nil {
				t.Fatal(err)
			}
		}
		dst, err := m.AllocFrameForCopy()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.CopyFrame(dst, src); err != nil {
			t.Fatal(err)
		}
		if m.slot(dst).caps == nil {
			t.Fatalf("stride %d: copy of a tagged source has no plane", stride)
		}
		for _, pfn := range []PFN{src, dst} {
			if err := m.AuditFrame(pfn); err != nil {
				t.Fatalf("stride %d: %v", stride, err)
			}
		}
		for g := uint64(0); g < GranulesPerPage; g++ {
			want, _ := m.LoadCap(src, g*cap.GranuleSize)
			got, _ := m.LoadCap(dst, g*cap.GranuleSize)
			if got != want {
				t.Fatalf("stride %d granule %d: copy holds %v, source %v", stride, g, got, want)
			}
		}
		for _, pfn := range []PFN{src, dst} {
			if err := m.FreeFrame(pfn); err != nil {
				t.Fatal(err)
			}
		}
	}
	if m.CapPlanes() != 0 {
		t.Fatalf("CapPlanes = %d with every frame freed", m.CapPlanes())
	}
}

// TestRecycledPlaneLoadsUntagged: a plane reused by another frame (in its
// own bank or in another one) still holds its previous frame's
// capabilities, and none of them is readable: LoadCap of an untagged
// granule returns an untagged capability holding the data bytes.
func TestRecycledPlaneLoadsUntagged(t *testing.T) {
	fill := func(m *Memory) {
		pfn, _ := m.AllocFrame()
		for g := uint64(0); g < GranulesPerPage; g++ {
			if err := m.StoreCap(pfn, g*cap.GranuleSize, cap.Root(0x4000, 1024)); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.FreeFrame(pfn); err != nil {
			t.Fatal(err)
		}
	}
	check := func(m *Memory) {
		t.Helper()
		pfn, _ := m.AllocFrame()
		if err := m.StoreCap(pfn, 0, cap.Root(0x9000, 16)); err != nil {
			t.Fatal(err)
		}
		if err := m.AuditFrame(pfn); err != nil {
			t.Fatal(err)
		}
		for g := uint64(1); g < GranulesPerPage; g++ {
			c, err := m.LoadCap(pfn, g*cap.GranuleSize)
			if err != nil {
				t.Fatal(err)
			}
			if c.Tag() || c.Addr() != 0 {
				t.Fatalf("granule %d of a recycled plane loads %v, want an untagged zero", g, c)
			}
		}
	}
	m := New(2)
	fill(m)
	check(m)
	fill(New(2))
	check(New(2))
}

// TestFreedFrameKeepsStorage: a freed frame keeps its data storage for
// the next tenant of its PFN, which AllocFrame hands out zeroed; Release
// moves the storage of free frames, and only theirs, to the pool.
func TestFreedFrameKeepsStorage(t *testing.T) {
	m := New(2)
	pfn, _ := m.AllocFrame()
	kept, _ := m.AllocFrame()
	for _, f := range []PFN{pfn, kept} {
		if err := m.WriteBytes(f, 0, bytes.Repeat([]byte{0xAA}, PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	d := m.slot(pfn).Data
	if err := m.FreeFrame(pfn); err != nil {
		t.Fatal(err)
	}
	again, _ := m.AllocFrame()
	if again != pfn || m.slot(again).Data != d {
		t.Fatalf("pfn %d reallocated as %d with storage %p, want its own %p", pfn, again, m.slot(again).Data, d)
	}
	if got := readPage(t, m, again); !bytes.Equal(got, make([]byte, PageSize)) {
		t.Fatal("AllocFrame must zero a recycled frame's storage")
	}
	if err := m.FreeFrame(again); err != nil {
		t.Fatal(err)
	}
	m.Release()
	if m.slot(pfn).Data != nil {
		t.Fatal("Release must move a free frame's storage to the pool")
	}
	if m.slot(kept).Data == nil {
		t.Fatal("Release must leave an allocated frame's storage in place")
	}
	if err := m.FreeFrame(kept); err != nil {
		t.Fatal(err)
	}
}

// TestPooledStorageReadsZerosAroundWrite: a frame of a second bank whose
// storage came from a first bank's written frame reads as zeros around a
// partial write, and a copy into pooled storage holds exactly its source.
func TestPooledStorageReadsZerosAroundWrite(t *testing.T) {
	first := New(2)
	for i := 0; i < 2; i++ {
		pfn, _ := first.AllocFrame()
		if err := first.WriteBytes(pfn, 0, bytes.Repeat([]byte{0xAA}, PageSize)); err != nil {
			t.Fatal(err)
		}
		if err := first.FreeFrame(pfn); err != nil {
			t.Fatal(err)
		}
	}
	first.Release()

	m := New(3)
	pfn, _ := m.AllocFrame()
	if err := m.WriteBytes(pfn, 100, []byte("xy")); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, PageSize)
	copy(want[100:], "xy")
	if got := readPage(t, m, pfn); !bytes.Equal(got, want) {
		t.Fatal("a partial write to pooled storage must leave zeros around it")
	}
	dst, _ := m.AllocFrameForCopy()
	if err := m.CopyFrame(dst, pfn); err != nil {
		t.Fatal(err)
	}
	if got := readPage(t, m, dst); !bytes.Equal(got, want) {
		t.Fatal("a copy into pooled storage must hold exactly its source")
	}
	for _, f := range []PFN{pfn, dst} {
		if err := m.FreeFrame(f); err != nil {
			t.Fatal(err)
		}
	}
}

func readPage(t *testing.T, m *Memory, pfn PFN) []byte {
	t.Helper()
	buf := make([]byte, PageSize)
	if err := m.ReadBytes(pfn, 0, buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestWordAccessMatchesBytes: ReadU64 and WriteU64 read and write what
// the byte path does, clear the tags of the granules the word touches,
// count 8 bytes moved, and fail as the byte path fails.
func TestWordAccessMatchesBytes(t *testing.T) {
	m := New(2)
	pfn, _ := m.AllocFrame()
	for g := uint64(0); g < 4; g++ {
		if err := m.StoreCap(pfn, g*cap.GranuleSize, cap.Root(0x4000, 64)); err != nil {
			t.Fatal(err)
		}
	}
	before := m.BytesMoved()
	// Bytes [12, 20) straddle granules 0 and 1.
	if err := m.WriteU64(pfn, 12, 0x0102030405060708); err != nil {
		t.Fatal(err)
	}
	for g, wantTag := range []bool{false, false, true, true} {
		if tag, _ := m.TagAt(pfn, uint64(g)*cap.GranuleSize); tag != wantTag {
			t.Fatalf("granule %d tag = %v, want %v", g, tag, wantTag)
		}
	}
	if err := m.AuditFrame(pfn); err != nil {
		t.Fatal(err)
	}
	v, err := m.ReadU64(pfn, 12)
	if err != nil || v != 0x0102030405060708 {
		t.Fatalf("ReadU64 = %#x, %v", v, err)
	}
	var b [8]byte
	if err := m.ReadBytes(pfn, 12, b[:]); err != nil || b != [8]byte{8, 7, 6, 5, 4, 3, 2, 1} {
		t.Fatalf("ReadBytes after WriteU64 = %v, %v", b, err)
	}
	if got := m.BytesMoved() - before; got != 24 {
		t.Fatalf("BytesMoved grew by %d, want 24", got)
	}
	free, _ := m.AllocFrame()
	if err := m.FreeFrame(free); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		pfn PFN
		off uint64
	}{{pfn, PageSize - 4}, {pfn, ^uint64(0) - 3}, {free, 0}, {NoFrame, 0}} {
		_, werr := m.ReadU64(tc.pfn, tc.off)
		berr := m.ReadBytes(tc.pfn, tc.off, b[:])
		if werr == nil || berr == nil || werr.Error() != berr.Error() {
			t.Errorf("read pfn %d off %#x: word %v, bytes %v", tc.pfn, tc.off, werr, berr)
		}
		werr = m.WriteU64(tc.pfn, tc.off, 1)
		berr = m.WriteBytes(tc.pfn, tc.off, b[:])
		if werr == nil || berr == nil || werr.Error() != berr.Error() {
			t.Errorf("write pfn %d off %#x: word %v, bytes %v", tc.pfn, tc.off, werr, berr)
		}
	}
	if err := m.FreeFrame(pfn); err != nil {
		t.Fatal(err)
	}
}
