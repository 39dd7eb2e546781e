package alloc_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ufork/internal/alloc"
	"ufork/internal/cap"
	"ufork/internal/kernel"
)

// checkHeap reports the first way the used list differs from the live
// set, or the index from the used list.
func checkHeap(a *alloc.Allocator, live map[uint64]cap.Capability) error {
	blocks, err := a.UsedBlocks()
	if err != nil {
		return err
	}
	if len(blocks) != len(live) {
		return fmt.Errorf("used list holds %d blocks, %d live", len(blocks), len(live))
	}
	for _, b := range blocks {
		if _, ok := live[b.Addr()]; !ok {
			return fmt.Errorf("used list holds %#x, which is not live", b.Addr())
		}
	}
	_, err = alloc.CheckIndex(a)
	return err
}

// requireIndex fails the test unless the process has an index that agrees
// with its used list: a test that never gets one exercises only the walk.
func requireIndex(t *testing.T, a *alloc.Allocator) {
	t.Helper()
	if built, err := alloc.CheckIndex(a); err != nil || !built {
		t.Errorf("index built=%v err=%v, want a built index matching the list", built, err)
	}
}

func TestIndexSharedAcrossViews(t *testing.T) {
	withProc(t, func(k *kernel.Kernel, p *kernel.Proc, a *alloc.Allocator) {
		views := []*alloc.Allocator{a, alloc.Attach(p)}
		r := rand.New(rand.NewSource(11))
		live := map[uint64]cap.Capability{}
		var addrs []uint64
		for i := 0; i < 400; i++ {
			v := views[r.Intn(2)]
			if len(addrs) < 4 || r.Intn(2) == 0 {
				c, err := v.Alloc(uint64(r.Intn(300) + 1))
				if err != nil {
					t.Errorf("op %d alloc: %v", i, err)
					return
				}
				live[c.Addr()] = c
				addrs = append(addrs, c.Addr())
			} else {
				j := r.Intn(len(addrs))
				addr := addrs[j]
				addrs[j] = addrs[len(addrs)-1]
				addrs = addrs[:len(addrs)-1]
				if err := v.Free(live[addr]); err != nil {
					t.Errorf("op %d free %#x: %v", i, addr, err)
					return
				}
				delete(live, addr)
			}
			if err := checkHeap(a, live); err != nil {
				t.Errorf("op %d: %v", i, err)
				return
			}
		}
		requireIndex(t, a)
	})
}

func TestDoubleFreeAcrossViews(t *testing.T) {
	withProc(t, func(k *kernel.Kernel, p *kernel.Proc, a *alloc.Allocator) {
		b := alloc.Attach(p)
		var cs []cap.Capability
		for i := 0; i < 3; i++ {
			c, err := a.Alloc(64)
			if err != nil {
				t.Errorf("alloc: %v", err)
				return
			}
			cs = append(cs, c)
		}
		for _, c := range cs[:2] {
			if err := b.Free(c); err != nil {
				t.Errorf("free through the second view: %v", err)
				return
			}
			if err := a.Free(c); !errors.Is(err, alloc.ErrBadFree) {
				t.Errorf("second free through the first view: got %v, want ErrBadFree", err)
			}
		}
		if err := checkHeap(a, map[uint64]cap.Capability{cs[2].Addr(): cs[2]}); err != nil {
			t.Error(err)
		}
		requireIndex(t, a)
	})
}

// TestChildFreesRelocatedBlocks: the proactive metadata copy rebases every
// descriptor to the child's region, so the child's index must come from
// the child's own list, never the parent's.
func TestChildFreesRelocatedBlocks(t *testing.T) {
	withProc(t, func(k *kernel.Kernel, p *kernel.Proc, a *alloc.Allocator) {
		live := map[uint64]cap.Capability{}
		var order []cap.Capability
		for i := 0; i < 8; i++ {
			c, err := a.Alloc(64)
			if err != nil {
				t.Errorf("alloc: %v", err)
				return
			}
			live[c.Addr()] = c
			order = append(order, c)
		}
		// Give the parent an index before the fork.
		if err := a.Free(order[3]); err != nil {
			t.Errorf("parent free: %v", err)
			return
		}
		delete(live, order[3].Addr())
		requireIndex(t, a)
		parentLive := map[uint64]cap.Capability{}
		for addr, c := range live {
			parentLive[addr] = c
		}

		_, err := k.Fork(p, func(c *kernel.Proc) {
			ca := alloc.Attach(c)
			if built, _ := alloc.CheckIndex(ca); built {
				t.Errorf("forked child starts with an index")
			}
			reloc := func(addr uint64) uint64 { return addr - p.Region.Base + c.Region.Base }
			blocks, err := ca.UsedBlocks()
			if err != nil {
				t.Errorf("child used blocks: %v", err)
				return
			}
			childLive := map[uint64]cap.Capability{}
			for _, b := range blocks {
				childLive[b.Addr()] = b
			}
			for addr := range parentLive {
				if _, ok := childLive[reloc(addr)]; !ok {
					t.Errorf("child list lacks the relocation of %#x", addr)
					return
				}
			}
			for _, pc := range order {
				addr := reloc(pc.Addr())
				cc, ok := childLive[addr]
				if !ok {
					continue
				}
				if err := ca.Free(pc); !errors.Is(err, alloc.ErrBadFree) {
					t.Errorf("child free of parent address %#x: got %v, want ErrBadFree", pc.Addr(), err)
				}
				if err := ca.Free(cc); err != nil {
					t.Errorf("child free of %#x: %v", addr, err)
					return
				}
				delete(childLive, addr)
				if err := checkHeap(ca, childLive); err != nil {
					t.Errorf("child after freeing %#x: %v", addr, err)
					return
				}
				requireIndex(t, ca)
			}
			nc, err := ca.Alloc(64)
			if err != nil {
				t.Errorf("child alloc: %v", err)
				return
			}
			if !c.Region.Contains(nc.Addr()) {
				t.Errorf("child allocation %v outside child region", nc)
			}
		})
		if err != nil {
			t.Errorf("fork: %v", err)
			return
		}
		if _, _, err := k.Wait(p); err != nil {
			t.Errorf("wait: %v", err)
			return
		}
		if err := checkHeap(a, parentLive); err != nil {
			t.Errorf("parent after child exit: %v", err)
			return
		}
		for addr, c := range parentLive {
			if err := a.Free(c); err != nil {
				t.Errorf("parent free %#x: %v", addr, err)
				return
			}
		}
		requireIndex(t, a)
	})
}

func TestFailedAllocKeepsFreesCorrect(t *testing.T) {
	for _, tc := range []struct {
		name string
		// fail makes one Alloc fail after the allocator has read its
		// lists, and returns a function that undoes the cause. Blocks it
		// allocates on the way go to add.
		fail func(p *kernel.Proc, a *alloc.Allocator, add func(cap.Capability)) (func(), error)
	}{
		{"no-blocks", func(p *kernel.Proc, a *alloc.Allocator, add func(cap.Capability)) (func(), error) {
			for i := 0; ; i++ {
				c, err := a.Alloc(16)
				if errors.Is(err, alloc.ErrNoBlocks) {
					return func() {}, nil
				}
				if err != nil || i > 1<<16 {
					return nil, fmt.Errorf("filling the descriptor table: %v after %d", err, i)
				}
				add(c)
			}
		}},
		{"sbrk", func(p *kernel.Proc, a *alloc.Allocator, add func(cap.Capability)) (func(), error) {
			brk := p.BrkPages
			p.BrkPages = p.Layout.Pages[kernel.SegHeap]
			if _, err := a.Alloc(2 * kernel.PageSize); err == nil {
				return nil, errors.New("alloc past the brk limit succeeded")
			}
			return func() { p.BrkPages = brk }, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			withProc(t, func(k *kernel.Kernel, p *kernel.Proc, a *alloc.Allocator) {
				live := map[uint64]cap.Capability{}
				var order []cap.Capability
				add := func(c cap.Capability) {
					live[c.Addr()] = c
					order = append(order, c)
				}
				for i := 0; i < 16; i++ {
					c, err := a.Alloc(48)
					if err != nil {
						t.Errorf("alloc: %v", err)
						return
					}
					add(c)
				}
				if err := a.Free(order[0]); err != nil {
					t.Errorf("free: %v", err)
					return
				}
				delete(live, order[0].Addr())
				requireIndex(t, a)
				undo, err := tc.fail(p, a, add)
				if err != nil {
					t.Error(err)
					return
				}
				undo()
				// Free the other 48-byte blocks and the first few 16-byte
				// ones, oldest first.
				for _, c := range order[1:min(len(order), 40)] {
					if err := a.Free(c); err != nil {
						t.Errorf("free %#x after failed alloc: %v", c.Addr(), err)
						return
					}
					delete(live, c.Addr())
					if err := checkHeap(a, live); err != nil {
						t.Error(err)
						return
					}
				}
				requireIndex(t, a)
				c, err := a.Alloc(48)
				if err != nil {
					t.Errorf("alloc after frees: %v", err)
					return
				}
				live[c.Addr()] = c
				if err := checkHeap(a, live); err != nil {
					t.Error(err)
				}
			})
		})
	}
}

// TestFreeChecksIndexAgainstMemory covers memory the index does not
// describe. Free must then behave as the list walk does, so both checks
// it makes before trusting the index are exercised: the link to the
// descriptor, and the block address the descriptor holds.
func TestFreeChecksIndexAgainstMemory(t *testing.T) {
	t.Run("metadata-restored", func(t *testing.T) {
		withProc(t, func(k *kernel.Kernel, p *kernel.Proc, a *alloc.Allocator) {
			var cs []cap.Capability
			for i := 0; i < 3; i++ {
				c, err := a.Alloc(64)
				if err != nil {
					t.Errorf("alloc: %v", err)
					return
				}
				cs = append(cs, c)
			}
			restore, err := snapshotMeta(p)
			if err != nil {
				t.Error(err)
				return
			}
			if err := a.Free(cs[1]); err != nil {
				t.Errorf("free: %v", err)
				return
			}
			// The program puts its heap metadata back as it was before
			// that free: the list is c2 -> c1 -> c0 again, while the index
			// still has c0 right after c2.
			if err := restore(); err != nil {
				t.Error(err)
				return
			}
			if err := a.Free(cs[0]); err != nil {
				t.Errorf("free after restore: %v", err)
				return
			}
			live := map[uint64]cap.Capability{cs[1].Addr(): cs[1], cs[2].Addr(): cs[2]}
			if err := checkHeap(a, live); err != nil {
				t.Error(err)
				return
			}
			for _, c := range cs[1:] {
				if err := a.Free(c); err != nil {
					t.Errorf("free %v: %v", c, err)
				}
			}
			if err := a.Free(cs[0]); !errors.Is(err, alloc.ErrBadFree) {
				t.Errorf("double free: got %v, want ErrBadFree", err)
			}
		})
	})
	t.Run("foreign-index", func(t *testing.T) {
		withProc(t, func(k *kernel.Kernel, p *kernel.Proc, a *alloc.Allocator) {
			var cs []cap.Capability
			for i := 0; i < 3; i++ {
				c, err := a.Alloc(64)
				if err != nil {
					t.Errorf("alloc: %v", err)
					return
				}
				cs = append(cs, c)
			}
			if err := a.Free(cs[2]); err != nil {
				t.Errorf("free: %v", err)
				return
			}
			requireIndex(t, a)
			_, err := k.Fork(p, func(c *kernel.Proc) {
				// Fork never copies the slot; hand the child its parent's
				// index anyway. Its descriptors hold relocated addresses,
				// so the parent's addresses must not free anything.
				c.AllocIndex = p.AllocIndex
				ca := alloc.Attach(c)
				if err := ca.Free(cs[0]); !errors.Is(err, alloc.ErrBadFree) {
					t.Errorf("child free of parent address: got %v, want ErrBadFree", err)
				}
				blocks, err := ca.UsedBlocks()
				if err != nil || len(blocks) != 2 {
					t.Errorf("child used list: %d blocks, %v; want 2", len(blocks), err)
				}
			})
			if err != nil {
				t.Errorf("fork: %v", err)
				return
			}
			if _, _, err := k.Wait(p); err != nil {
				t.Errorf("wait: %v", err)
			}
		})
	})
}

// snapshotMeta copies the process's allocator metadata segment, bytes and
// capabilities, and returns a function that writes the copy back with
// plain stores, as a program restoring its own heap state would.
func snapshotMeta(p *kernel.Proc) (func() error, error) {
	meta := p.MetaCap
	data := make([]byte, meta.Len())
	if err := p.Load(meta, 0, data); err != nil {
		return nil, err
	}
	caps := map[uint64]cap.Capability{}
	for off := uint64(0); off < meta.Len(); off += cap.GranuleSize {
		c, err := p.LoadCap(meta, off)
		if err != nil {
			return nil, err
		}
		if c.Tag() {
			caps[off] = c
		}
	}
	return func() error {
		if err := p.Store(meta, 0, data); err != nil {
			return err
		}
		for off, c := range caps {
			if err := p.StoreCap(meta, off, c); err != nil {
				return err
			}
		}
		return nil
	}, nil
}
