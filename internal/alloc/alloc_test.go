package alloc_test

import (
	"errors"
	"math/rand"
	"testing"

	"ufork/internal/alloc"
	"ufork/internal/cap"
	"ufork/internal/core"
	"ufork/internal/kernel"
	"ufork/internal/model"
)

func withProc(t *testing.T, fn func(k *kernel.Kernel, p *kernel.Proc, a *alloc.Allocator)) {
	t.Helper()
	k := kernel.New(kernel.Config{
		Machine:   model.UFork(2),
		Engine:    core.New(core.CopyOnPointerAccess),
		Isolation: kernel.IsolationFull,
		Frames:    1 << 16,
	})
	if _, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		a := alloc.Attach(p)
		if err := a.Init(); err != nil {
			t.Errorf("init: %v", err)
			return
		}
		fn(k, p, a)
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
}

func TestAllocBoundsAndAlignment(t *testing.T) {
	withProc(t, func(k *kernel.Kernel, p *kernel.Proc, a *alloc.Allocator) {
		c, err := a.Alloc(100)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		if c.Addr()%cap.GranuleSize != 0 {
			t.Errorf("allocation not 16-byte aligned: %v", c)
		}
		if c.Len() != 112 { // 100 rounded up to 16
			t.Errorf("len = %d, want 112", c.Len())
		}
		// The capability is bounded: writing past the block fails.
		if err := p.Store(c, 0, make([]byte, 112)); err != nil {
			t.Errorf("in-bounds store: %v", err)
		}
		if err := p.Store(c, 112, []byte{1}); !errors.Is(err, kernel.ErrCapFault) {
			t.Errorf("out-of-bounds store: got %v, want cap fault", err)
		}
	})
}

func TestAllocDistinctBlocks(t *testing.T) {
	withProc(t, func(k *kernel.Kernel, p *kernel.Proc, a *alloc.Allocator) {
		seen := map[uint64]bool{}
		for i := 0; i < 50; i++ {
			c, err := a.Alloc(64)
			if err != nil {
				t.Fatalf("alloc %d: %v", i, err)
			}
			if seen[c.Addr()] {
				t.Fatalf("duplicate allocation at %#x", c.Addr())
			}
			seen[c.Addr()] = true
		}
		blocks, err := a.UsedBlocks()
		if err != nil {
			t.Fatal(err)
		}
		if len(blocks) != 50 {
			t.Fatalf("used list has %d blocks, want 50", len(blocks))
		}
	})
}

func TestFreeAndReuse(t *testing.T) {
	withProc(t, func(k *kernel.Kernel, p *kernel.Proc, a *alloc.Allocator) {
		c1, err := a.Alloc(256)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Free(c1); err != nil {
			t.Fatalf("free: %v", err)
		}
		c2, err := a.Alloc(128)
		if err != nil {
			t.Fatal(err)
		}
		if c2.Addr() != c1.Addr() {
			t.Errorf("freed block not reused: %#x vs %#x", c2.Addr(), c1.Addr())
		}
		// Double free fails.
		if err := a.Free(c1); !errors.Is(err, alloc.ErrBadFree) {
			// c1 was reused by c2, so freeing it once more is legal; free
			// again to force the error.
			if err != nil {
				t.Fatalf("unexpected: %v", err)
			}
			if err := a.Free(c1); !errors.Is(err, alloc.ErrBadFree) {
				t.Errorf("double free: got %v", err)
			}
		}
	})
}

func TestArenaExhaustion(t *testing.T) {
	withProc(t, func(k *kernel.Kernel, p *kernel.Proc, a *alloc.Allocator) {
		if _, err := a.Alloc(p.HeapCap.Len() * 2); !errors.Is(err, alloc.ErrOutOfMemory) {
			t.Errorf("oversize alloc: got %v", err)
		}
	})
}

func TestBrkTracksArena(t *testing.T) {
	withProc(t, func(k *kernel.Kernel, p *kernel.Proc, a *alloc.Allocator) {
		before := p.BrkPages
		if _, err := a.Alloc(10 * kernel.PageSize); err != nil {
			t.Fatal(err)
		}
		if p.BrkPages < before+10 {
			t.Errorf("BrkPages = %d, want >= %d", p.BrkPages, before+10)
		}
	})
}

// TestAllocatorSurvivesFork is the critical property: the child's allocator
// operates on the child's heap because the metadata capabilities were
// relocated by the proactive copy (§3.5 step 1).
func TestAllocatorSurvivesFork(t *testing.T) {
	withProc(t, func(k *kernel.Kernel, p *kernel.Proc, a *alloc.Allocator) {
		pc, err := a.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Store(pc, 0, []byte("parent-block")); err != nil {
			t.Fatal(err)
		}
		_, err = k.Fork(p, func(c *kernel.Proc) {
			ca := alloc.Attach(c)
			// The used list must enumerate the pre-fork block, relocated.
			blocks, err := ca.UsedBlocks()
			if err != nil {
				t.Errorf("child used blocks: %v", err)
				return
			}
			if len(blocks) != 1 {
				t.Errorf("child sees %d blocks, want 1", len(blocks))
				return
			}
			if !c.Region.Contains(blocks[0].Addr()) {
				t.Errorf("child block points at parent heap: %v", blocks[0])
				return
			}
			buf := make([]byte, 12)
			if err := c.Load(blocks[0], 0, buf); err != nil {
				t.Errorf("child block load: %v", err)
				return
			}
			if string(buf) != "parent-block" {
				t.Errorf("child block = %q", buf)
			}
			// New allocations in the child land in the child's heap and do
			// not disturb the parent.
			cc, err := ca.Alloc(64)
			if err != nil {
				t.Errorf("child alloc: %v", err)
				return
			}
			if !c.Region.Contains(cc.Addr()) {
				t.Errorf("child allocation outside child region: %v", cc)
			}
			if err := c.Store(cc, 0, []byte("child-block!")); err != nil {
				t.Errorf("child store: %v", err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := k.Wait(p); err != nil {
			t.Fatal(err)
		}
		// Parent's allocator is undisturbed: still exactly one block.
		blocks, err := a.UsedBlocks()
		if err != nil {
			t.Fatal(err)
		}
		if len(blocks) != 1 {
			t.Errorf("parent used list has %d blocks after child allocated", len(blocks))
		}
		buf := make([]byte, 12)
		if err := p.Load(pc, 0, buf); err != nil {
			t.Fatal(err)
		}
		if string(buf) != "parent-block" {
			t.Errorf("parent block = %q", buf)
		}
	})
}

// Property-style stress: random alloc/free interleavings keep the used
// list consistent, the index in step with it, and blocks disjoint.
func TestAllocFreeStress(t *testing.T) {
	withProc(t, func(k *kernel.Kernel, p *kernel.Proc, a *alloc.Allocator) {
		r := rand.New(rand.NewSource(7))
		live := map[uint64]cap.Capability{}
		for i := 0; i < 300; i++ {
			if len(live) == 0 || r.Intn(3) != 0 {
				c, err := a.Alloc(uint64(r.Intn(500) + 1))
				if err != nil {
					t.Fatalf("alloc %d: %v", i, err)
				}
				if _, dup := live[c.Addr()]; dup {
					t.Fatalf("allocator returned live block %#x", c.Addr())
				}
				live[c.Addr()] = c
			} else {
				for addr, c := range live {
					if err := a.Free(c); err != nil {
						t.Fatalf("free: %v", err)
					}
					delete(live, addr)
					break
				}
			}
			if err := checkHeap(a, live); err != nil {
				t.Errorf("op %d: %v", i, err)
				return
			}
		}
		requireIndex(t, a)
		blocks, err := a.UsedBlocks()
		if err != nil {
			t.Fatal(err)
		}
		if len(blocks) != len(live) {
			t.Fatalf("used list %d vs live %d", len(blocks), len(live))
		}
		// Disjointness check.
		for i, b1 := range blocks {
			for j, b2 := range blocks {
				if i == j {
					continue
				}
				if b1.Base() < b2.Top() && b2.Base() < b1.Top() {
					t.Fatalf("overlapping blocks %v and %v", b1, b2)
				}
			}
		}
	})
}
