// Package alloc is a tinyalloc-style heap allocator that lives *inside*
// simulated μprocess memory.
//
// All allocator state — block descriptors, free/used lists, the arena
// watermark — resides in the μprocess's allocator-metadata segment, and
// every block pointer is stored as a CHERI capability. This is the fidelity
// point the paper's fork depends on: because the descriptors hold tagged
// capabilities, μFork's proactive copy of the metadata pages relocates them
// (§3.5 step 1), so the child's allocator immediately operates on the
// child's own heap.
//
// Per §4.1, allocations are 16-byte aligned and every returned capability
// is bounded to its block.
package alloc

import (
	"errors"
	"fmt"

	"ufork/internal/cap"
	"ufork/internal/kernel"
)

const (
	// headerSize is the metadata header: numBlocks, freshTop, freeHead,
	// usedHead (4 × u64, padded to a granule boundary).
	headerSize = 64
	// blockSize is one block descriptor: capability (16 B), size (8 B),
	// next link (8 B).
	blockSize = 32

	offNumBlocks = 0
	offFreshTop  = 8
	offFreeHead  = 16
	offUsedHead  = 24
)

// Errors returned by the allocator.
var (
	ErrOutOfMemory = errors.New("alloc: arena exhausted")
	ErrNoBlocks    = errors.New("alloc: block descriptor table full")
	ErrBadFree     = errors.New("alloc: free of unknown block")
)

// Allocator manages one μprocess heap. It holds no state of its own beyond
// the process handle: everything lives in simulated memory, which is what
// makes it fork-transparent. The one host-side structure, the process's
// used-list index, only speeds up Free and is never the source of truth.
type Allocator struct {
	p *kernel.Proc
}

// Attach binds an allocator view to a process. Call Init once on a freshly
// loaded image; a forked child attaches to already-initialised (and
// already-relocated) metadata.
func Attach(p *kernel.Proc) *Allocator { return &Allocator{p: p} }

// maxBlocks returns the descriptor table capacity.
func (a *Allocator) maxBlocks() uint64 {
	return (a.p.MetaCap.Len() - headerSize) / blockSize
}

// Init formats the metadata segment for an empty heap.
func (a *Allocator) Init() error {
	a.dropIndex()
	for _, off := range []uint64{offNumBlocks, offFreshTop, offFreeHead, offUsedHead} {
		if err := a.p.StoreU64(a.p.MetaCap, off, 0); err != nil {
			return err
		}
	}
	return nil
}

func (a *Allocator) blockOff(i uint64) uint64 { return headerSize + i*blockSize }

func (a *Allocator) loadBlock(i uint64) (c cap.Capability, size, next uint64, err error) {
	off := a.blockOff(i)
	if c, err = a.p.LoadCap(a.p.MetaCap, off); err != nil {
		return
	}
	if size, err = a.p.LoadU64(a.p.MetaCap, off+16); err != nil {
		return
	}
	next, err = a.p.LoadU64(a.p.MetaCap, off+24)
	return
}

func (a *Allocator) storeBlock(i uint64, c cap.Capability, size, next uint64) error {
	off := a.blockOff(i)
	if err := a.p.StoreCap(a.p.MetaCap, off, c); err != nil {
		return err
	}
	if err := a.p.StoreU64(a.p.MetaCap, off+16, size); err != nil {
		return err
	}
	return a.p.StoreU64(a.p.MetaCap, off+24, next)
}

// Alloc returns a bounded, 16-byte-aligned capability over n bytes of
// heap. The capability's bounds are exactly the block (CHERI allocator
// discipline, §4.1); sizes are rounded and bases aligned so the compressed
// bounds encoding represents them exactly — the adjustment the paper's
// tinyalloc port had to make.
func (a *Allocator) Alloc(n uint64) (cap.Capability, error) {
	c, err := a.alloc(n)
	if err != nil {
		a.dropIndex()
	}
	return c, err
}

func (a *Allocator) alloc(n uint64) (cap.Capability, error) {
	if n == 0 {
		n = 1
	}
	n = (n + cap.GranuleSize - 1) &^ uint64(cap.GranuleSize-1)
	n = cap.RepresentableLength(n)
	align := cap.RepresentableAlign(n)
	if align < cap.GranuleSize {
		align = cap.GranuleSize
	}

	// First fit on the free list.
	prev := uint64(0)
	head, err := a.p.LoadU64(a.p.MetaCap, offFreeHead)
	if err != nil {
		return cap.Null(), err
	}
	for cur := head; cur != 0; {
		c, size, next, err := a.loadBlock(cur - 1)
		if err != nil {
			return cap.Null(), err
		}
		if size >= n && c.Addr()%align == 0 {
			// Unlink from free list, push onto used list.
			if prev == 0 {
				if err := a.p.StoreU64(a.p.MetaCap, offFreeHead, next); err != nil {
					return cap.Null(), err
				}
			} else {
				pc, psize, _, err := a.loadBlock(prev - 1)
				if err != nil {
					return cap.Null(), err
				}
				if err := a.storeBlock(prev-1, pc, psize, next); err != nil {
					return cap.Null(), err
				}
			}
			if err := a.pushUsed(cur, c, size); err != nil {
				return cap.Null(), err
			}
			a.churn("alloc.reuse", size)
			return c, nil
		}
		prev, cur = cur, next
	}

	// Carve a fresh block from the arena top, aligned for representability.
	freshTop, err := a.p.LoadU64(a.p.MetaCap, offFreshTop)
	if err != nil {
		return cap.Null(), err
	}
	if rem := (a.p.HeapCap.Base() + freshTop) % align; rem != 0 {
		freshTop += align - rem
	}
	if freshTop+n > a.p.HeapCap.Len() {
		return cap.Null(), fmt.Errorf("%w: %d + %d > %d", ErrOutOfMemory, freshTop, n, a.p.HeapCap.Len())
	}
	numBlocks, err := a.p.LoadU64(a.p.MetaCap, offNumBlocks)
	if err != nil {
		return cap.Null(), err
	}
	if numBlocks >= a.maxBlocks() {
		return cap.Null(), ErrNoBlocks
	}
	c, err := a.p.HeapCap.SetAddr(a.p.HeapCap.Base() + freshTop).SetBounds(n)
	if err != nil {
		return cap.Null(), err
	}
	// Advance the brk watermark page by page (the kernel tracks heap use
	// for the demand-paging baseline's accounting).
	oldPages := int((freshTop + kernel.PageSize - 1) / kernel.PageSize)
	newPages := int((freshTop + n + kernel.PageSize - 1) / kernel.PageSize)
	if newPages > oldPages {
		if err := a.p.Kernel().Sbrk(a.p, newPages-oldPages); err != nil {
			return cap.Null(), err
		}
	}
	if err := a.p.StoreU64(a.p.MetaCap, offFreshTop, freshTop+n); err != nil {
		return cap.Null(), err
	}
	if err := a.pushUsed(numBlocks+1, c, n); err != nil {
		return cap.Null(), err
	}
	if err := a.p.StoreU64(a.p.MetaCap, offNumBlocks, numBlocks+1); err != nil {
		return cap.Null(), err
	}
	a.churn("alloc.fresh", n)
	return c, nil
}

// pushUsed links descriptor d (1-based), describing block c of size
// bytes, onto the head of the used list.
func (a *Allocator) pushUsed(d uint64, c cap.Capability, size uint64) error {
	head, err := a.p.LoadU64(a.p.MetaCap, offUsedHead)
	if err != nil {
		return err
	}
	if err := a.storeBlock(d-1, c, size, head); err != nil {
		return err
	}
	if err := a.p.StoreU64(a.p.MetaCap, offUsedHead, d); err != nil {
		return err
	}
	a.index().push(c.Addr(), d, head)
	return nil
}

// churn records allocator activity (op count + bytes) in the owning
// kernel's metrics registry when one is armed.
func (a *Allocator) churn(op string, bytes uint64) {
	reg := a.p.Kernel().Metrics
	if reg == nil {
		return
	}
	reg.Counter(op).Inc()
	reg.Counter(op + ".bytes").Add(bytes)
}

// Free returns a block to the free list. The block is identified by the
// capability's address.
func (a *Allocator) Free(c cap.Capability) error {
	err := a.free(c)
	if err != nil && !errors.Is(err, ErrBadFree) {
		a.dropIndex()
	}
	return err
}

func (a *Allocator) free(c cap.Capability) error {
	cur, prev, err := a.findUsed(c)
	if err != nil {
		return err
	}
	bc, size, next, err := a.loadBlock(cur - 1)
	if err != nil {
		return err
	}
	// Unlink from used list.
	if prev == 0 {
		if err := a.p.StoreU64(a.p.MetaCap, offUsedHead, next); err != nil {
			return err
		}
	} else {
		pc, psize, _, err := a.loadBlock(prev - 1)
		if err != nil {
			return err
		}
		if err := a.storeBlock(prev-1, pc, psize, next); err != nil {
			return err
		}
	}
	freeHead, err := a.p.LoadU64(a.p.MetaCap, offFreeHead)
	if err != nil {
		return err
	}
	if err := a.storeBlock(cur-1, bc, size, freeHead); err != nil {
		return err
	}
	a.churn("alloc.free", size)
	if err := a.p.StoreU64(a.p.MetaCap, offFreeHead, cur); err != nil {
		return err
	}
	a.index().unlink(c.Addr(), prev, next)
	return nil
}

// findUsed returns the descriptor number of the used block at c's address
// and its predecessor on the used list (0 when usedHead points at it).
// The index answers in O(1) once memory confirms both the descriptor and
// the link to it; anything it cannot vouch for is found by walking the
// list, as the allocator did before it had an index.
func (a *Allocator) findUsed(c cap.Capability) (cur, prev uint64, err error) {
	ix := a.index()
	if ix == nil {
		ix = a.buildIndex()
	}
	cur, prev, hit := ix.lookup(c.Addr())
	if hit && a.linked(cur, prev, c.Addr()) {
		return cur, prev, nil
	}
	cur, prev, err = a.walk(c)
	if hit || err == nil {
		// The index named a block memory does not hold there, or lacked
		// one the list holds: it no longer mirrors the list.
		a.dropIndex()
	}
	return cur, prev, err
}

// linked reports whether memory agrees that descriptor d holds the block
// at addr and that prev's next link (usedHead when prev is 0) points at d.
func (a *Allocator) linked(d, prev, addr uint64) bool {
	bc, err := a.p.LoadCap(a.p.MetaCap, a.blockOff(d-1))
	if err != nil || bc.Addr() != addr {
		return false
	}
	linkOff := uint64(offUsedHead)
	if prev != 0 {
		linkOff = a.blockOff(prev-1) + 24
	}
	link, err := a.p.LoadU64(a.p.MetaCap, linkOff)
	return err == nil && link == d
}

// walk finds the first block on the used list whose address is c's.
func (a *Allocator) walk(c cap.Capability) (cur, prev uint64, err error) {
	cur, err = a.p.LoadU64(a.p.MetaCap, offUsedHead)
	if err != nil {
		return 0, 0, err
	}
	for cur != 0 {
		bc, _, next, err := a.loadBlock(cur - 1)
		if err != nil {
			return 0, 0, err
		}
		if bc.Addr() == c.Addr() {
			return cur, prev, nil
		}
		prev, cur = cur, next
	}
	return 0, 0, fmt.Errorf("%w: %v", ErrBadFree, c)
}

// index mirrors the used list on the host so Free finds a block without
// walking the list. desc maps a used block's address to its descriptor
// number (the first such descriptor from the head, as the walk would
// find); prev[d] is the descriptor before d on the list, 0 when usedHead
// points at d. It lives in the process's AllocIndex slot, so every view
// Attach returns shares it, and a forked child starts without one. A nil
// index is valid: its lookups miss and its updates do nothing.
type index struct {
	desc map[uint64]uint64
	prev []uint64
}

// index returns the process's used-list index, or nil if it has none.
func (a *Allocator) index() *index {
	ix, _ := a.p.AllocIndex.(*index)
	return ix
}

// dropIndex discards the index; the next Free rebuilds it.
func (a *Allocator) dropIndex() { a.p.AllocIndex = nil }

// buildIndex walks the used list once and installs the index it yields.
// It installs nothing and returns nil if a load fails or the walk does not
// end within the descriptor table's capacity (a cycle).
func (a *Allocator) buildIndex() *index {
	cur, err := a.p.LoadU64(a.p.MetaCap, offUsedHead)
	if err != nil {
		return nil
	}
	ix := &index{desc: map[uint64]uint64{}}
	prev := uint64(0)
	for steps := a.maxBlocks(); cur != 0; steps-- {
		if steps == 0 {
			return nil
		}
		bc, _, next, err := a.loadBlock(cur - 1)
		if err != nil {
			return nil
		}
		if _, dup := ix.desc[bc.Addr()]; !dup {
			ix.desc[bc.Addr()] = cur
		}
		ix.setPrev(cur, prev)
		prev, cur = cur, next
	}
	a.p.AllocIndex = ix
	return ix
}

func (ix *index) lookup(addr uint64) (d, prev uint64, ok bool) {
	if ix == nil {
		return 0, 0, false
	}
	if d, ok = ix.desc[addr]; ok {
		prev = ix.prev[d]
	}
	return d, prev, ok
}

func (ix *index) setPrev(d, prev uint64) {
	if n := uint64(len(ix.prev)); d >= n {
		ix.prev = append(ix.prev, make([]uint64, d+1-n)...)
	}
	ix.prev[d] = prev
}

// push records descriptor d, holding the block at addr, linked in front
// of the old head.
func (ix *index) push(addr, d, head uint64) {
	if ix == nil {
		return
	}
	ix.desc[addr] = d
	ix.setPrev(d, 0)
	if head != 0 {
		ix.setPrev(head, d)
	}
}

// unlink records the removal of the block at addr from between prev and
// next.
func (ix *index) unlink(addr, prev, next uint64) {
	if ix == nil {
		return
	}
	delete(ix.desc, addr)
	if next != 0 {
		ix.setPrev(next, prev)
	}
}

// UsedBlocks walks the used list, returning each live block capability.
func (a *Allocator) UsedBlocks() ([]cap.Capability, error) {
	var out []cap.Capability
	cur, err := a.p.LoadU64(a.p.MetaCap, offUsedHead)
	if err != nil {
		return nil, err
	}
	for cur != 0 {
		c, _, next, err := a.loadBlock(cur - 1)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
		cur = next
	}
	return out, nil
}
