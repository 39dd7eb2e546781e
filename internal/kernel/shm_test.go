package kernel_test

import (
	"errors"
	"testing"

	"ufork/internal/chaos/invariant"
	"ufork/internal/kernel"
)

// TestShmOutlivesItsMapper: a named object keeps its frames after its only
// mapper exits, so a later opener maps the same data, and the frames are
// freed once the name is unlinked and the last mapping goes. Before the
// name pinned its frames, the mapper's exit freed the frame and the second
// mapper's exit freed it again.
func TestShmOutlivesItsMapper(t *testing.T) {
	k := newKernel(1, kernel.IsolationFault)
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		if _, err := k.Fork(p, func(c *kernel.Proc) {
			obj, err := k.ShmOpen(c, "/s", 1)
			if err != nil {
				t.Fatal(err)
			}
			base, err := k.ShmMap(c, obj, 8*kernel.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Store(c.DDC.SetAddr(base), 0, []byte("kept")); err != nil {
				t.Fatal(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := k.Wait(p); err != nil {
			t.Fatal(err)
		}
		// The mapper is gone: the unmapped page holds an allocated frame
		// with zero references, owned by the registry.
		if err := invariant.Check(k); err != nil {
			t.Fatalf("after the mapper exits: %v", err)
		}
		obj, err := k.ShmOpen(p, "/s", 1)
		if err != nil {
			t.Fatal(err)
		}
		base, err := k.ShmMap(p, obj, 8*kernel.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 4)
		if err := p.Load(p.DDC.SetAddr(base), 0, buf); err != nil || string(buf) != "kept" {
			t.Errorf("shm after its mapper exited = %q (%v), want %q", buf, err, "kept")
		}
		// Unlinked while mapped: the frame goes with this process's exit.
		if err := k.ShmUnlink(p, "/s"); err != nil {
			t.Fatal(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if err := invariant.Check(k); err != nil {
		t.Fatal(err)
	}
}

// TestShmUnlinkFreesUnmappedFrames: unlinking an object nobody mapped
// frees its frames at once; unlinking a missing name is ErrNoEnt.
func TestShmUnlinkFreesUnmappedFrames(t *testing.T) {
	k := newKernel(1, kernel.IsolationFault)
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		before := k.Mem.Allocated()
		if _, err := k.ShmOpen(p, "/s", 4); err != nil {
			t.Fatal(err)
		}
		if got := k.Mem.Allocated() - before; got != 4 {
			t.Fatalf("ShmOpen allocated %d frames, want 4", got)
		}
		if err := k.ShmUnlink(p, "/s"); err != nil {
			t.Fatal(err)
		}
		if got := k.Mem.Allocated(); got != before {
			t.Errorf("after unlink %d frames allocated, want %d", got, before)
		}
		if err := k.ShmUnlink(p, "/s"); !errors.Is(err, kernel.ErrNoEnt) {
			t.Errorf("unlink of a missing name: err = %v, want ErrNoEnt", err)
		}
		if err := invariant.Check(k); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
}
