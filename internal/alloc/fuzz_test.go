package alloc_test

import (
	"errors"
	"fmt"
	"testing"

	"ufork/internal/alloc"
	"ufork/internal/cap"
	"ufork/internal/kernel"
)

// FuzzAllocFree is a differential check of the allocator against a shadow
// model. Each pair of input bytes is one step: alloc, free of a live
// block, free of a block freed earlier, a switch to the second allocator
// view of the process, or a fork whose child runs the remaining steps on
// its relocated heap. After every step the used list must hold exactly the
// model's live blocks and the index must agree with the list; a free must
// succeed exactly when the model holds the address.
func FuzzAllocFree(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 4, 0, 9, 0, 1, 2, 1, 3, 0, 2, 0, 3, 0},
		{0, 1, 0, 2, 0, 3, 4, 1, 2, 2, 0, 2, 3, 0, 4, 0, 2, 0},
		{0, 1, 0, 2, 0, 3, 2, 1, 5, 0, 2, 0, 3, 0, 0, 7, 4, 1, 2, 1, 5, 0, 2, 0},
		{0, 255, 0, 255, 0, 255, 0, 255, 0, 255, 0, 255, 0, 255, 0, 255, 2, 3, 0, 100},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		withProc(t, func(k *kernel.Kernel, p *kernel.Proc, a *alloc.Allocator) {
			h := newShadow(k, p)
			h.views[0] = a
			forks := 0
			if err := h.run(ops, &forks); err != nil {
				t.Error(err)
			}
		})
	})
}

// shadowHeap is the model: the blocks the used list must hold, in a fixed
// order so a failing input replays the same steps.
type shadowHeap struct {
	k     *kernel.Kernel
	p     *kernel.Proc
	views [2]*alloc.Allocator
	view  int
	live  map[uint64]cap.Capability
	order []uint64
	freed []cap.Capability
}

func newShadow(k *kernel.Kernel, p *kernel.Proc) *shadowHeap {
	return &shadowHeap{
		k: k, p: p,
		views: [2]*alloc.Allocator{alloc.Attach(p), alloc.Attach(p)},
		live:  map[uint64]cap.Capability{},
	}
}

func (h *shadowHeap) add(c cap.Capability) {
	h.live[c.Addr()] = c
	h.order = append(h.order, c.Addr())
}

func (h *shadowHeap) remove(addr uint64) {
	delete(h.live, addr)
	for i, a := range h.order {
		if a == addr {
			h.order[i] = h.order[len(h.order)-1]
			h.order = h.order[:len(h.order)-1]
			return
		}
	}
}

// maxForks bounds the forks one input may perform: every child runs all
// the steps after its fork.
const maxForks = 3

func (h *shadowHeap) run(ops []byte, forks *int) error {
	for i := 0; i+1 < len(ops); i += 2 {
		step, arg := ops[i]%6, ops[i+1]
		a := h.views[h.view]
		switch step {
		case 0, 1:
			c, err := a.Alloc(uint64(arg)*16 + 1)
			if errors.Is(err, alloc.ErrOutOfMemory) || errors.Is(err, alloc.ErrNoBlocks) {
				break
			}
			if err != nil {
				return fmt.Errorf("step %d: alloc: %w", i/2, err)
			}
			if _, dup := h.live[c.Addr()]; dup {
				return fmt.Errorf("step %d: alloc returned live block %#x", i/2, c.Addr())
			}
			h.add(c)
		case 2:
			if len(h.order) == 0 {
				break
			}
			c := h.live[h.order[int(arg)%len(h.order)]]
			if err := a.Free(c); err != nil {
				return fmt.Errorf("step %d: free %#x: %w", i/2, c.Addr(), err)
			}
			h.remove(c.Addr())
			h.freed = append(h.freed, c)
		case 3:
			if len(h.freed) == 0 {
				break
			}
			c := h.freed[int(arg)%len(h.freed)]
			err := a.Free(c)
			if _, live := h.live[c.Addr()]; live {
				// The block was handed out again: freeing it is legal.
				if err != nil {
					return fmt.Errorf("step %d: free of reused %#x: %w", i/2, c.Addr(), err)
				}
				h.remove(c.Addr())
			} else if !errors.Is(err, alloc.ErrBadFree) {
				return fmt.Errorf("step %d: double free of %#x: got %v, want ErrBadFree", i/2, c.Addr(), err)
			}
		case 4:
			h.view = int(arg) % len(h.views)
		case 5:
			if *forks >= maxForks {
				break
			}
			*forks++
			if err := h.fork(ops[i+2:], forks); err != nil {
				return fmt.Errorf("step %d: %w", i/2, err)
			}
		}
		if err := checkHeap(a, h.live); err != nil {
			return fmt.Errorf("step %d (%d): %w", i/2, step, err)
		}
	}
	return nil
}

// fork forks the process. The child checks that its used list is the
// parent's relocated, that a parent address frees nothing, then runs rest
// on its own model; the parent waits for it and continues.
func (h *shadowHeap) fork(rest []byte, forks *int) error {
	var childErr error
	_, err := h.k.Fork(h.p, func(c *kernel.Proc) {
		childErr = func() error {
			ch := newShadow(h.k, c)
			delta := int64(c.Region.Base) - int64(h.p.Region.Base)
			blocks, err := ch.views[0].UsedBlocks()
			if err != nil {
				return err
			}
			byAddr := map[uint64]cap.Capability{}
			for _, b := range blocks {
				byAddr[b.Addr()] = b
			}
			if len(blocks) != len(h.order) {
				return fmt.Errorf("child used list holds %d blocks, parent %d", len(blocks), len(h.order))
			}
			for _, addr := range h.order {
				b, ok := byAddr[uint64(int64(addr)+delta)]
				if !ok {
					return fmt.Errorf("child used list lacks the relocation of %#x", addr)
				}
				ch.add(b)
			}
			for _, f := range h.freed {
				ch.freed = append(ch.freed, f.Rebase(delta))
			}
			if len(h.order) > 0 {
				pc := h.live[h.order[0]]
				if err := ch.views[0].Free(pc); !errors.Is(err, alloc.ErrBadFree) {
					return fmt.Errorf("child free of parent address %#x: got %v, want ErrBadFree", pc.Addr(), err)
				}
			}
			return ch.run(rest, forks)
		}()
	})
	if err != nil {
		return fmt.Errorf("fork: %w", err)
	}
	if _, _, err := h.k.Wait(h.p); err != nil {
		return fmt.Errorf("wait: %w", err)
	}
	if childErr != nil {
		return fmt.Errorf("child: %w", childErr)
	}
	return nil
}
