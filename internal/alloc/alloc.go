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
	"ufork/internal/obs"
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
// makes it fork-transparent.
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
			usedHead, err := a.p.LoadU64(a.p.MetaCap, offUsedHead)
			if err != nil {
				return cap.Null(), err
			}
			if err := a.storeBlock(cur-1, c, size, usedHead); err != nil {
				return cap.Null(), err
			}
			if err := a.p.StoreU64(a.p.MetaCap, offUsedHead, cur); err != nil {
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
	usedHead, err := a.p.LoadU64(a.p.MetaCap, offUsedHead)
	if err != nil {
		return cap.Null(), err
	}
	if err := a.storeBlock(numBlocks, c, n, usedHead); err != nil {
		return cap.Null(), err
	}
	if err := a.p.StoreU64(a.p.MetaCap, offUsedHead, numBlocks+1); err != nil {
		return cap.Null(), err
	}
	if err := a.p.StoreU64(a.p.MetaCap, offNumBlocks, numBlocks+1); err != nil {
		return cap.Null(), err
	}
	a.churn("alloc.fresh", n)
	return c, nil
}

// churn records allocator activity (op count + bytes) in the owning
// kernel's metrics registry when observability is on.
func (a *Allocator) churn(op string, bytes uint64) {
	if !obs.On() {
		return
	}
	reg := a.p.Kernel().Metrics
	reg.Counter(op).Inc()
	reg.Counter(op + ".bytes").Add(bytes)
}

// Free returns a block to the free list. The block is identified by the
// capability's address.
func (a *Allocator) Free(c cap.Capability) error {
	prev := uint64(0)
	cur, err := a.p.LoadU64(a.p.MetaCap, offUsedHead)
	if err != nil {
		return err
	}
	for cur != 0 {
		bc, size, next, err := a.loadBlock(cur - 1)
		if err != nil {
			return err
		}
		if bc.Addr() == c.Addr() {
			// Unlink from used list.
			if prev == 0 {
				if err := a.p.StoreU64(a.p.MetaCap, offUsedHead, next); err != nil {
					return err
				}
			} else {
				pc, psize, pnext, err := a.loadBlock(prev - 1)
				if err != nil {
					return err
				}
				_ = pnext
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
			return a.p.StoreU64(a.p.MetaCap, offFreeHead, cur)
		}
		prev, cur = cur, next
	}
	return fmt.Errorf("%w: %v", ErrBadFree, c)
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

// ArenaUsed returns the high-water mark of arena consumption in bytes.
func (a *Allocator) ArenaUsed() (uint64, error) {
	return a.p.LoadU64(a.p.MetaCap, offFreshTop)
}
