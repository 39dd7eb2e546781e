// Package tmem implements tagged physical memory: the DRAM + tag-plane
// substrate CHERI systems run on.
//
// Memory is organised in 4 KiB frames. Each frame carries, beside its data
// bytes, one validity-tag bit per 16-byte capability granule, plus the
// authoritative capability value for tagged granules. The tag plane is the
// mechanism μFork exploits for pointer identification: a granule whose tag
// is set is — by hardware guarantee — a genuine capability, so the
// relocation pass can find every absolute memory reference in a page by a
// 16-byte-stride tag scan with zero false positives (§3.4, block 3).
//
// The tag plane is stored compressed, as on real Morello hardware (whose
// tag controller keeps tags in dedicated packed storage, not one byte per
// granule): 256 granule tags pack into four uint64 bitset words, the scan
// walks set bits with bits.TrailingZeros64, and a per-frame cached tag
// population count lets capability-free pages skip the scan entirely.
//
// Byte-granularity writes clear the tags of every granule they touch,
// modelling the hardware rule that partial overwrites destroy capability
// validity.
package tmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"ufork/internal/cap"
)

// PageSize is the frame/page size in bytes.
const PageSize = 4096

// GranulesPerPage is the number of capability granules in one frame.
const GranulesPerPage = PageSize / cap.GranuleSize

// TagWords is the number of uint64 bitset words holding one frame's tags.
const TagWords = GranulesPerPage / 64

// TagPlaneBytes is the size of one frame's packed tag plane: the extra
// bytes a frame copy moves beside its 4 KiB of data.
const TagPlaneBytes = GranulesPerPage / 8

// PFN is a physical frame number.
type PFN uint64

// NoFrame is the sentinel invalid PFN.
const NoFrame PFN = ^PFN(0)

// Errors reported by the memory subsystem.
var (
	ErrOutOfMemory  = errors.New("tmem: out of physical frames")
	ErrBadFrame     = errors.New("tmem: access to unallocated frame")
	ErrUnaligned    = errors.New("tmem: capability access not granule aligned")
	ErrFreeFree     = errors.New("tmem: double free of frame")
	ErrPageOverflow = errors.New("tmem: access crosses frame boundary")
)

// Frame is one 4 KiB physical frame with its tag plane.
//
// For tagged granules the authoritative capability value lives in caps;
// the data bytes hold the capability's cursor (so integer reads of a
// pointer see its address, as on real hardware) followed by a descriptive
// pattern. Clearing the tag leaves the bytes behind but revokes authority.
type Frame struct {
	// Data is attached on the frame's first write: a frame never written
	// reads as zeros, so mapping a large static heap costs no host memory
	// for the pages nobody touches. A freed frame keeps its storage for
	// the next tenant of its PFN until the bank is released.
	Data *[PageSize]byte
	// tags is the packed tag plane: bit g%64 of word g/64 is the validity
	// tag of granule g.
	tags [TagWords]uint64
	// ntags caches the population count of tags so capability-free frames
	// answer CountTags and ForEachTagged without touching the words.
	ntags int32
	// caps is attached on the first tagged store (or by a copy of a tagged
	// frame) and detached when the frame is freed or zeroed: most frames
	// hold plain data and never carry a capability plane. A plane comes
	// from planePool with its previous frame's entries; they are
	// unobservable, because every read is gated on the tag bit.
	caps *plane
	// live is set while the frame is allocated.
	live bool
}

// plane is one frame's capability plane: the authoritative value of each
// tagged granule.
type plane [GranulesPerPage]cap.Capability

// tag reports granule g's validity bit.
func (f *Frame) tag(g uint64) bool { return f.tags[g/64]>>(g%64)&1 != 0 }

// setTag sets or clears granule g's validity bit, keeping ntags in step.
func (f *Frame) setTag(g uint64, v bool) {
	word, bit := g/64, uint64(1)<<(g%64)
	if v {
		if f.tags[word]&bit == 0 {
			f.tags[word] |= bit
			f.ntags++
		}
	} else if f.tags[word]&bit != 0 {
		f.tags[word] &^= bit
		f.ntags--
	}
}

// data returns the frame's bytes for writing, attaching zeroed storage on
// first use.
func (f *Frame) data() *[PageSize]byte {
	if f.Data == nil {
		f.Data = takeData(true)
	}
	return f.Data
}

// takeData returns data storage from dataPool, cleared when zero is set,
// or else a new zeroed array.
func takeData(zero bool) *[PageSize]byte {
	if d, ok := dataPool.Get().(*[PageSize]byte); ok {
		if zero {
			clear(d[:])
		}
		return d
	}
	return new([PageSize]byte)
}

// word reads the little-endian uint64 at off; unwritten bytes read zero.
func (f *Frame) word(off uint64) uint64 {
	if f.Data == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(f.Data[off:])
}

// reset clears the frame's bytes and tags, keeping its data storage.
// A frame being reset holds no capability plane: FreeFrame and ZeroFrame
// detach it first.
func (f *Frame) reset() {
	if f.Data != nil {
		clear(f.Data[:])
	}
	f.tags = [TagWords]uint64{}
	f.ntags = 0
}

// dataPool holds the data storage of frames freed by finished banks
// (Release), for the first write to a frame of any bank booted after
// them: a sweep boots hundreds of kernels, and each would otherwise
// allocate its frames' bytes afresh. Pooled arrays hold their previous
// frame's bytes; takeData clears them unless the caller overwrites the
// whole array.
var dataPool sync.Pool

// planePool holds the capability planes detached from freed or zeroed
// frames, for the next frame of any bank that stores a capability. A
// pooled plane's entries are unreachable until a tagged store or copy
// overwrites them. It is safe for the concurrent CopyFrame calls of
// fork's eager-copy workers.
var planePool sync.Pool

// Memory is a bank of tagged physical frames with a free-list allocator.
// Frames are held by value in fixed chunks, and a freed frame keeps its
// data storage for the next tenant of its PFN: fork-heavy workloads
// recycle tens of thousands of frames per fork, and allocating each afresh
// dominated host wall-clock time.
type Memory struct {
	// chunks holds the frames, frame pfn at chunks[pfn>>chunkBits]
	// [pfn&chunkMask]. A chunk is allocated when its first PFN is handed
	// out, so a bank costs host memory in proportion to the frames it has
	// used, not to its size.
	chunks  []*chunk
	nframes int
	// freeList holds freed frames, the most recent on top. Frames
	// [fresh, nframes) have never been handed out and sit logically
	// below it, lowest first (see popFree).
	freeList  []PFN
	fresh     PFN
	allocated int
	peak      int
	// totalOps counts byte-level read/write/copy volume. Atomic: frame
	// copies fan out across host goroutines on the fork hot path.
	totalOps atomic.Uint64
	// hooks holds the optional chaos-harness interception points; nil in
	// production so the hot paths pay a single pointer compare.
	hooks *Hooks
	// observer, when non-nil, is called after every successful frame
	// allocation and free (flight-recorder wiring). tmem has no clock or
	// process notion, so the kernel closure supplies both.
	observer func(alloc bool, pfn PFN)
	// copyObserver, when non-nil, is called after every CopyFrame
	// (provenance-plane lineage wiring). Unlike the alloc/free observer it
	// MUST be safe for concurrent use: fork eager copies fan out across
	// host worker goroutines.
	copyObserver func(dst, src PFN)
	// caches, when armed via EnableCPUCaches, holds the per-CPU free-frame
	// stacks of the fine-grained allocator's lock-free fast path; nil on
	// BKL/POSIX machines so their PFN ordering is untouched. See cache.go.
	caches *frameCaches
}

// Frames are held in chunks of 512, like the page table's directories.
const (
	chunkBits = 9
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

type chunk [chunkSize]Frame

// New creates a memory bank with the given number of physical frames.
func New(nframes int) *Memory { return &Memory{nframes: nframes} }

// slot returns frame pfn's storage, allocated or not. pfn must have been
// handed out by popFree.
func (m *Memory) slot(pfn PFN) *Frame { return &m.chunks[pfn>>chunkBits][pfn&chunkMask] }

// NumFrames returns the total number of physical frames.
func (m *Memory) NumFrames() int { return m.nframes }

// freeCount returns the number of frames on the shared free list,
// counting the never-allocated ones.
func (m *Memory) freeCount() int { return len(m.freeList) + m.nframes - int(m.fresh) }

// popFree takes the top of the shared free list: the most recently freed
// frame, else the lowest never-allocated one — low frames go out first,
// for reproducibility. It reports false when the list is empty.
func (m *Memory) popFree() (PFN, bool) {
	if n := len(m.freeList); n > 0 {
		pfn := m.freeList[n-1]
		m.freeList = m.freeList[:n-1]
		return pfn, true
	}
	if int(m.fresh) == m.nframes {
		return NoFrame, false
	}
	pfn := m.fresh
	m.fresh++
	if pfn&chunkMask == 0 {
		if m.chunks == nil {
			m.chunks = make([]*chunk, 0, (m.nframes+chunkMask)>>chunkBits)
		}
		m.chunks = append(m.chunks, new(chunk))
	}
	return pfn, true
}

// Allocated returns the number of frames currently allocated.
func (m *Memory) Allocated() int { return m.allocated }

// PeakAllocated returns the high-water mark of allocated frames.
func (m *Memory) PeakAllocated() int { return m.peak }

// CapPlanes returns the number of allocated frames holding a capability
// plane: each costs 10 KiB of host memory beside the frame's 4 KiB.
func (m *Memory) CapPlanes() int {
	n := 0
	for _, c := range m.chunks {
		for i := range c {
			if c[i].live && c[i].caps != nil {
				n++
			}
		}
	}
	return n
}

// AllocFrame allocates a zeroed frame and returns its PFN.
func (m *Memory) AllocFrame() (PFN, error) { return m.alloc(true) }

// AllocFrameForCopy allocates a frame whose data bytes are UNSPECIFIED (a
// recycled frame keeps its previous contents); its tag plane is clear and it
// holds no capability plane. The caller must fully overwrite it with
// CopyFrame before anything reads it. The fork eager-copy path uses this
// to skip zeroing 4 KiB per page that the copy is about to overwrite
// anyway.
func (m *Memory) AllocFrameForCopy() (PFN, error) { return m.alloc(false) }

func (m *Memory) alloc(zero bool) (PFN, error) {
	if m.hooks != nil && m.hooks.FailAlloc != nil && m.hooks.FailAlloc() {
		return NoFrame, fmt.Errorf("%w (injected)", ErrOutOfMemory)
	}
	pfn, ok := m.takeCached()
	if !ok {
		if m.freeCount() == 0 && !m.stealCaches() {
			return NoFrame, ErrOutOfMemory
		}
		pfn, _ = m.popFree()
	}
	f := m.slot(pfn)
	if zero {
		f.reset()
	} else {
		f.tags = [TagWords]uint64{}
		f.ntags = 0
	}
	f.live = true
	m.allocated++
	if m.allocated > m.peak {
		m.peak = m.allocated
	}
	liveFrames.Add(1)
	if m.observer != nil {
		m.observer(true, pfn)
	}
	return pfn, nil
}

// takePlane returns a capability plane for a frame about to hold tags,
// from planePool or else new. Its entries are stale until overwritten.
func takePlane() *plane {
	if p, ok := planePool.Get().(*plane); ok {
		return p
	}
	return new(plane)
}

// detachPlane moves f's capability plane, if any, to planePool.
func detachPlane(f *Frame) {
	if f.caps != nil {
		planePool.Put(f.caps)
		f.caps = nil
	}
}

// Release moves the data storage of the bank's free frames to dataPool,
// for the banks booted after it: a frame a bank has never written holds
// no storage. The bank stays usable. kernel.Run calls it once every task
// has finished.
func (m *Memory) Release() {
	for _, c := range m.chunks {
		for i := range c {
			if f := &c[i]; !f.live && f.Data != nil {
				dataPool.Put(f.Data)
				f.Data = nil
			}
		}
	}
}

// SetFrameObserver installs fn as the alloc/free observer; nil removes it.
// Allocation is confined to the simulation goroutine, so the observer need
// not be safe for concurrent use.
func (m *Memory) SetFrameObserver(fn func(alloc bool, pfn PFN)) { m.observer = fn }

// SetCopyObserver installs fn as the frame-copy observer; nil removes it.
// Install before the simulation runs: CopyFrame is invoked from parallel
// fork workers, so fn must be safe for concurrent use and the installation
// itself is not synchronized.
func (m *Memory) SetCopyObserver(fn func(dst, src PFN)) { m.copyObserver = fn }

// FreeFrame returns a frame to the allocator. Freeing a frame that is not
// currently allocated reports ErrFreeFree. The frame keeps its data
// storage for the next tenant of its PFN; its capability plane goes to
// planePool, for the next frame that stores a capability.
func (m *Memory) FreeFrame(pfn PFN) error {
	if pfn == NoFrame || int(pfn) >= m.nframes {
		return fmt.Errorf("%w: pfn %d", ErrBadFrame, pfn)
	}
	f, err := m.frame(pfn)
	if err != nil {
		return fmt.Errorf("%w: pfn %d", ErrFreeFree, pfn)
	}
	if m.hooks != nil && m.hooks.PoisonFreed {
		poisonFrame(f)
	}
	f.live = false
	detachPlane(f)
	if !m.cacheFree(pfn) {
		m.freeList = append(m.freeList, pfn)
	}
	m.allocated--
	liveFrames.Add(-1)
	if m.observer != nil {
		m.observer(false, pfn)
	}
	return nil
}

func (m *Memory) frame(pfn PFN) (*Frame, error) {
	if pfn < m.fresh {
		if f := m.slot(pfn); f.live {
			return f, nil
		}
	}
	return nil, fmt.Errorf("%w: pfn %d", ErrBadFrame, pfn)
}

// checkRange validates that [off, off+n) lies within one frame.
func checkRange(off, n uint64) error {
	if off+n > PageSize || off+n < off {
		return fmt.Errorf("%w: off=%d n=%d", ErrPageOverflow, off, n)
	}
	return nil
}

// ReadBytes copies n bytes at offset off of frame pfn into buf.
func (m *Memory) ReadBytes(pfn PFN, off uint64, buf []byte) error {
	f, err := m.frame(pfn)
	if err != nil {
		return err
	}
	if err := checkRange(off, uint64(len(buf))); err != nil {
		return err
	}
	if f.Data == nil {
		clear(buf)
	} else {
		copy(buf, f.Data[off:])
	}
	m.totalOps.Add(uint64(len(buf)))
	return nil
}

// WriteBytes stores buf at offset off of frame pfn, clearing the tags of
// every granule the write touches.
func (m *Memory) WriteBytes(pfn PFN, off uint64, buf []byte) error {
	f, err := m.frame(pfn)
	if err != nil {
		return err
	}
	if err := checkRange(off, uint64(len(buf))); err != nil {
		return err
	}
	copy(f.data()[off:], buf)
	f.clearTags(off, uint64(len(buf)))
	m.totalOps.Add(uint64(len(buf)))
	return nil
}

// clearTags clears the tags of every granule [off, off+n) touches.
func (f *Frame) clearTags(off, n uint64) {
	if f.ntags == 0 || n == 0 {
		return
	}
	first := off / cap.GranuleSize
	last := (off + n - 1) / cap.GranuleSize
	// Clear whole words at a time; the popcount of the cleared bits keeps
	// the cached tag count exact.
	for w := first / 64; w <= last/64; w++ {
		mask := ^uint64(0)
		if w == first/64 {
			mask &= ^uint64(0) << (first % 64)
		}
		if w == last/64 && last%64 != 63 {
			mask &= (uint64(1) << (last%64 + 1)) - 1
		}
		if cleared := f.tags[w] & mask; cleared != 0 {
			f.tags[w] &^= mask
			f.ntags -= int32(bits.OnesCount64(cleared))
		}
	}
}

// ReadU64 reads the little-endian uint64 at offset off of frame pfn: the
// word-granular ReadBytes, with the same checks and byte accounting.
func (m *Memory) ReadU64(pfn PFN, off uint64) (uint64, error) {
	f, err := m.frame(pfn)
	if err != nil {
		return 0, err
	}
	if err := checkRange(off, 8); err != nil {
		return 0, err
	}
	m.totalOps.Add(8)
	return f.word(off), nil
}

// WriteU64 stores v little-endian at offset off of frame pfn, clearing the
// tags of the granules the word touches: the word-granular WriteBytes.
func (m *Memory) WriteU64(pfn PFN, off uint64, v uint64) error {
	f, err := m.frame(pfn)
	if err != nil {
		return err
	}
	if err := checkRange(off, 8); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(f.data()[off:], v)
	f.clearTags(off, 8)
	m.totalOps.Add(8)
	return nil
}

// LoadCap loads the capability at granule-aligned offset off of frame pfn.
// If the granule's tag is clear the returned capability is untagged (its
// byte pattern reinterpreted as an invalid capability), exactly as on
// hardware.
func (m *Memory) LoadCap(pfn PFN, off uint64) (cap.Capability, error) {
	f, err := m.frame(pfn)
	if err != nil {
		return cap.Null(), err
	}
	if off%cap.GranuleSize != 0 {
		return cap.Null(), ErrUnaligned
	}
	if err := checkRange(off, cap.GranuleSize); err != nil {
		return cap.Null(), err
	}
	g := off / cap.GranuleSize
	if !f.tag(g) || f.caps == nil {
		// Untagged load: reconstruct an invalid capability whose cursor is
		// whatever integer the bytes hold.
		return cap.Null().SetAddr(f.word(off)).Untag(), nil
	}
	return f.caps[g], nil
}

// StoreCap stores capability c at granule-aligned offset off of frame pfn.
// Tagged capabilities set the granule tag; untagged ones clear it. The
// data bytes receive the capability's cursor so that subsequent integer
// loads observe the pointer's address.
func (m *Memory) StoreCap(pfn PFN, off uint64, c cap.Capability) error {
	f, err := m.frame(pfn)
	if err != nil {
		return err
	}
	if off%cap.GranuleSize != 0 {
		return ErrUnaligned
	}
	if err := checkRange(off, cap.GranuleSize); err != nil {
		return err
	}
	g := off / cap.GranuleSize
	d := f.data()
	binary.LittleEndian.PutUint64(d[off:], c.Addr())
	binary.LittleEndian.PutUint64(d[off+8:], c.Base())
	f.setTag(g, c.Tag())
	if c.Tag() {
		if f.caps == nil {
			f.caps = takePlane()
		}
		f.caps[g] = c
	} else if f.caps != nil {
		f.caps[g] = cap.Null()
	}
	return nil
}

// TagAt reports the validity tag of the granule at offset off.
func (m *Memory) TagAt(pfn PFN, off uint64) (bool, error) {
	f, err := m.frame(pfn)
	if err != nil {
		return false, err
	}
	if off%cap.GranuleSize != 0 {
		return false, ErrUnaligned
	}
	return f.tag(off / cap.GranuleSize), nil
}

// ForEachTagged calls fn with the byte offset of every tagged granule in
// frame pfn, in ascending order: the 16-byte-stride tag scan at the heart
// of μFork's relocation pass, allocation-free. A frame whose cached tag
// count is zero returns without touching the tag words. fn may rewrite the
// granule it is visiting (the word is snapshotted before its bits are
// walked); a non-nil error from fn aborts the scan.
func (m *Memory) ForEachTagged(pfn PFN, fn func(off uint64) error) error {
	f, err := m.frame(pfn)
	if err != nil {
		return err
	}
	if f.ntags == 0 {
		return nil
	}
	for wi := range f.tags {
		w := f.tags[wi]
		for w != 0 {
			g := uint64(wi*64 + bits.TrailingZeros64(w))
			w &= w - 1
			if err := fn(g * cap.GranuleSize); err != nil {
				return err
			}
		}
	}
	return nil
}

// CountTags returns the number of tagged granules in frame pfn, from the
// per-frame cached population count.
func (m *Memory) CountTags(pfn PFN) (int, error) {
	f, err := m.frame(pfn)
	if err != nil {
		return 0, err
	}
	return int(f.ntags), nil
}

// CopyFrame copies the full contents of frame src — data bytes AND the tag
// plane with its capabilities — into frame dst. This is the page-copy
// primitive used by every copy-on-* strategy; the tag plane travels with
// the data exactly as on Morello. The moved volume (data + packed tag
// plane) is charged to the byte-accounting counter.
func (m *Memory) CopyFrame(dst, src PFN) error {
	fs, err := m.frame(src)
	if err != nil {
		return err
	}
	fd, err := m.frame(dst)
	if err != nil {
		return err
	}
	if fs.Data != nil {
		if fd.Data == nil {
			// The copy overwrites every byte: skip the clear.
			fd.Data = takeData(false)
		}
		*fd.Data = *fs.Data
	} else if fd.Data != nil {
		// A recycled destination must not keep its previous contents.
		clear(fd.Data[:])
	}
	fd.tags = fs.tags
	fd.ntags = fs.ntags
	if fs.caps != nil && fs.ntags > 0 {
		if fd.caps == nil {
			fd.caps = takePlane()
		}
		if int(fs.ntags) >= GranulesPerPage/4 {
			*fd.caps = *fs.caps
		} else {
			// Sparse page: copy only the tagged entries. Stale dst entries
			// at untagged granules are unobservable — every capability read
			// is gated on the (just copied) tag bit.
			for wi := range fs.tags {
				w := fs.tags[wi]
				for w != 0 {
					g := wi*64 + bits.TrailingZeros64(w)
					w &= w - 1
					fd.caps[g] = fs.caps[g]
				}
			}
		}
	}
	// A plane fd already held is likewise unobservable when fs carried no
	// tags: fd's tag plane is now all-clear.
	if m.hooks != nil && m.hooks.SkipTagCopy {
		fd.tags = [TagWords]uint64{}
	}
	m.totalOps.Add(PageSize + TagPlaneBytes)
	if m.copyObserver != nil {
		m.copyObserver(dst, src)
	}
	return nil
}

// ZeroFrame clears a frame's data, tags, and cached tag count, and
// detaches its capability plane.
func (m *Memory) ZeroFrame(pfn PFN) error {
	f, err := m.frame(pfn)
	if err != nil {
		return err
	}
	detachPlane(f)
	f.reset()
	return nil
}

// RewriteCap replaces the capability at offset off with c without touching
// neighbouring granules. It is the in-place relocation primitive.
func (m *Memory) RewriteCap(pfn PFN, off uint64, c cap.Capability) error {
	return m.StoreCap(pfn, off, c)
}

// BytesMoved returns the cumulative byte read/write/copy volume, used by
// cost accounting.
func (m *Memory) BytesMoved() uint64 { return m.totalOps.Load() }
