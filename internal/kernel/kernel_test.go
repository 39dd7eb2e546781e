package kernel_test

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"ufork/internal/cap"
	"ufork/internal/core"
	"ufork/internal/kernel"
	"ufork/internal/model"
	"ufork/internal/sim"
)

func newKernel(cores int, iso kernel.IsolationLevel) *kernel.Kernel {
	return newKernelWith(cores, iso, kernel.Planes{})
}

// newKernelWith is newKernel with the given observability planes armed.
func newKernelWith(cores int, iso kernel.IsolationLevel, pl kernel.Planes) *kernel.Kernel {
	return kernel.New(kernel.Config{
		Machine:   model.UFork(cores),
		Engine:    core.New(core.CopyOnPointerAccess),
		Isolation: iso,
		Frames:    1 << 16,
		Planes:    pl,
	})
}

func TestSpawnAndMemoryOps(t *testing.T) {
	k := newKernel(1, kernel.IsolationFull)
	var got []byte
	var u64 uint64
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		if err := p.Store(p.HeapCap, 64, []byte("hello heap")); err != nil {
			t.Errorf("store: %v", err)
		}
		buf := make([]byte, 10)
		if err := p.Load(p.HeapCap, 64, buf); err != nil {
			t.Errorf("load: %v", err)
		}
		got = buf
		if err := p.StoreU64(p.StackCap, 8, 0xdeadbeef); err != nil {
			t.Errorf("storeU64: %v", err)
		}
		v, err := p.LoadU64(p.StackCap, 8)
		if err != nil {
			t.Errorf("loadU64: %v", err)
		}
		u64 = v
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if string(got) != "hello heap" {
		t.Fatalf("heap round trip = %q", got)
	}
	if u64 != 0xdeadbeef {
		t.Fatalf("u64 round trip = %#x", u64)
	}
}

func TestCapabilityIsolationEnforced(t *testing.T) {
	k := newKernel(1, kernel.IsolationFull)
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		// Out-of-bounds access through a segment capability fails.
		buf := make([]byte, 8)
		err := p.Load(p.HeapCap, p.HeapCap.Len(), buf)
		if !errors.Is(err, kernel.ErrCapFault) {
			t.Errorf("oob load: got %v, want cap fault", err)
		}
		// The DDC is bounded to the region: an address below the region is
		// unreachable even through the widest capability the process holds.
		below := p.DDC.SetAddr(p.Region.Base - 4096)
		if err := p.Load(below, 0, buf); !errors.Is(err, kernel.ErrCapFault) {
			t.Errorf("below-region load: got %v, want cap fault", err)
		}
		// An untagged (forged) capability is useless.
		forged := cap.Null().SetAddr(p.Region.Base)
		if err := p.Load(forged, 0, buf); !errors.Is(err, kernel.ErrCapFault) {
			t.Errorf("forged cap load: got %v, want cap fault", err)
		}
		// Store through a read-only capability fails.
		if err := p.Store(p.GOTCap, 0, buf); !errors.Is(err, kernel.ErrCapFault) {
			t.Errorf("store via RO cap: got %v, want cap fault", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
}

func TestWriteToTextSegfaults(t *testing.T) {
	k := newKernel(1, kernel.IsolationFull)
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		// Derive a writable-looking cap over text via DDC and try to write:
		// the PTE protection must still refuse it.
		textVA := p.Layout.SegBase(p.Region.Base, kernel.SegText)
		c := p.DDC.SetAddr(textVA)
		err := p.Store(c, 0, []byte{1})
		if !errors.Is(err, kernel.ErrSegfault) {
			t.Errorf("text write: got %v, want segfault", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
}

func TestGOTPopulated(t *testing.T) {
	k := newKernel(1, kernel.IsolationFull)
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		for i := 0; i < p.Spec.GOTEntries; i++ {
			c, err := p.GOTLoad(i)
			if err != nil {
				t.Fatalf("GOT[%d]: %v", i, err)
			}
			if !c.Tag() {
				t.Fatalf("GOT[%d] untagged", i)
			}
			if !p.Region.Contains(c.Addr()) {
				t.Fatalf("GOT[%d] points outside region: %v", i, c)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
}

func TestExecPermission(t *testing.T) {
	k := newKernel(1, kernel.IsolationFull)
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		if err := p.FetchCode(0); err != nil {
			t.Errorf("fetch from text: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
}

func TestFilesReadWrite(t *testing.T) {
	k := newKernel(1, kernel.IsolationFull)
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		fd, err := k.Open(p, "/tmp/dump.rdb", true)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if _, err := k.Write(p, fd, []byte("snapshot-data")); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := k.Close(p, fd); err != nil {
			t.Fatalf("close: %v", err)
		}
		fd, err = k.Open(p, "/tmp/dump.rdb", false)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		buf := make([]byte, 64)
		n, err := k.Read(p, fd, buf)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if string(buf[:n]) != "snapshot-data" {
			t.Fatalf("read back %q", buf[:n])
		}
		// Missing file fails without create.
		if _, err := k.Open(p, "/nope", false); !errors.Is(err, kernel.ErrNoEnt) {
			t.Fatalf("open missing: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
}

func TestWriteVMFlowsThroughSimulatedMemory(t *testing.T) {
	k := newKernel(1, kernel.IsolationFull)
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		payload := []byte("user-memory-payload")
		if err := p.Store(p.HeapCap, 0, payload); err != nil {
			t.Fatal(err)
		}
		fd, err := k.Open(p, "/f", true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.WriteVM(p, fd, p.HeapCap, 0, uint64(len(payload))); err != nil {
			t.Fatalf("WriteVM: %v", err)
		}
		ino, ok := k.VFS().Lookup("/f")
		if !ok || !bytes.Equal(ino.Data, payload) {
			t.Fatalf("file content = %q", ino.Data)
		}
		// And back into a different heap location.
		of, _ := p.FDs.Get(fd)
		of.Offset = 0
		if _, err := k.ReadVM(p, fd, p.HeapCap, 4096, uint64(len(payload))); err != nil {
			t.Fatalf("ReadVM: %v", err)
		}
		back := make([]byte, len(payload))
		if err := p.Load(p.HeapCap, 4096, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, payload) {
			t.Fatalf("round trip = %q", back)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
}

func TestPipeBetweenProcesses(t *testing.T) {
	k := newKernel(2, kernel.IsolationFull)
	var received []byte
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		rfd, wfd, err := k.Pipe(p)
		if err != nil {
			t.Fatalf("pipe: %v", err)
		}
		_, err = k.Fork(p, func(c *kernel.Proc) {
			// Child: write then exit.
			if _, err := k.Write(c, wfd, []byte("ping")); err != nil {
				t.Errorf("child write: %v", err)
			}
		})
		if err != nil {
			t.Fatalf("fork: %v", err)
		}
		buf := make([]byte, 16)
		n, err := k.Read(p, rfd, buf)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		received = buf[:n]
		if _, _, err := k.Wait(p); err != nil {
			t.Fatalf("wait: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if string(received) != "ping" {
		t.Fatalf("received %q", received)
	}
}

func TestPipeEOFAndEPIPE(t *testing.T) {
	k := newKernel(1, kernel.IsolationFull)
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		rfd, wfd, err := k.Pipe(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Close(p, wfd); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 4)
		n, err := k.Read(p, rfd, buf)
		if err != nil || n != 0 {
			t.Fatalf("read after writer close: n=%d err=%v, want EOF", n, err)
		}
		// EPIPE: writing with no readers.
		rfd2, wfd2, _ := k.Pipe(p)
		if err := k.Close(p, rfd2); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Write(p, wfd2, []byte("x")); !errors.Is(err, kernel.ErrPipeClosed) {
			t.Fatalf("write after reader close: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
}

func TestForkWaitExitStatus(t *testing.T) {
	k := newKernel(2, kernel.IsolationFull)
	var waitedPID kernel.PID
	var status int
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		childPID, err := k.Fork(p, func(c *kernel.Proc) {
			k.Exit(c, 42)
			t.Error("Exit returned") // unreachable
		})
		if err != nil {
			t.Fatalf("fork: %v", err)
		}
		pid, st, err := k.Wait(p)
		if err != nil {
			t.Fatalf("wait: %v", err)
		}
		waitedPID, status = pid, st
		if pid != childPID {
			t.Errorf("waited pid %d != forked pid %d", pid, childPID)
		}
		// Second wait has no children.
		if _, _, err := k.Wait(p); !errors.Is(err, kernel.ErrNoChildren) {
			t.Errorf("second wait: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if status != 42 {
		t.Fatalf("status = %d", status)
	}
	if waitedPID == 0 {
		t.Fatal("no child reaped")
	}
}

func TestGetpidDistinct(t *testing.T) {
	k := newKernel(2, kernel.IsolationFull)
	pids := map[kernel.PID]bool{}
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		pids[k.Getpid(p)] = true
		for i := 0; i < 3; i++ {
			_, err := k.Fork(p, func(c *kernel.Proc) {
				pids[k.Getpid(c)] = true
			})
			if err != nil {
				t.Fatalf("fork %d: %v", i, err)
			}
		}
		for i := 0; i < 3; i++ {
			if _, _, err := k.Wait(p); err != nil {
				t.Fatalf("wait %d: %v", i, err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if len(pids) != 4 {
		t.Fatalf("got %d distinct PIDs, want 4", len(pids))
	}
}

func TestFDsInheritedAndShared(t *testing.T) {
	k := newKernel(2, kernel.IsolationFull)
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		fd, err := k.Open(p, "/shared", true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.Write(p, fd, []byte("AAAA")); err != nil {
			t.Fatal(err)
		}
		_, err = k.Fork(p, func(c *kernel.Proc) {
			// The child inherits the description, including its offset.
			if _, err := k.Write(c, fd, []byte("BBBB")); err != nil {
				t.Errorf("child write: %v", err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := k.Wait(p); err != nil {
			t.Fatal(err)
		}
		// Parent's next write continues after the child's: shared offset.
		if _, err := k.Write(p, fd, []byte("CCCC")); err != nil {
			t.Fatal(err)
		}
		ino, _ := k.VFS().Lookup("/shared")
		if string(ino.Data) != "AAAABBBBCCCC" {
			t.Errorf("file = %q, want shared-offset interleaving", ino.Data)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
}

func TestShmSharedAcrossFork(t *testing.T) {
	k := newKernel(2, kernel.IsolationFull)
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		obj, err := k.ShmOpen(p, "/shm0", 1)
		if err != nil {
			t.Fatal(err)
		}
		base, err := k.ShmMap(p, obj, 8*kernel.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		shmCap := p.DDC.SetAddr(base)
		_, err = k.Fork(p, func(c *kernel.Proc) {
			cobj, err := k.ShmOpen(c, "/shm0", 1)
			if err != nil {
				t.Errorf("child shm open: %v", err)
				return
			}
			cbase, err := k.ShmMap(c, cobj, 8*kernel.PageSize)
			if err != nil {
				t.Errorf("child shm map: %v", err)
				return
			}
			ccap := c.DDC.SetAddr(cbase)
			if err := c.Store(ccap, 0, []byte("from-child")); err != nil {
				t.Errorf("child shm store: %v", err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := k.Wait(p); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 10)
		if err := p.Load(shmCap, 0, buf); err != nil {
			t.Fatal(err)
		}
		if string(buf) != "from-child" {
			t.Errorf("shared memory = %q: child writes must be visible", buf)
		}
		if err := k.ShmUnlink(p, "/shm0"); err != nil {
			t.Fatal(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
}

func TestSyscallCostCharged(t *testing.T) {
	k := newKernel(1, kernel.IsolationFull)
	var t0, t1 sim.Time
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		t0 = p.Now()
		k.Getpid(p)
		t1 = p.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	m := model.UFork(1)
	min := m.SyscallEnter + m.SyscallExit + m.SyscallBase
	if t1-t0 < min {
		t.Fatalf("getpid cost %v < floor %v", t1-t0, min)
	}
}

func TestTrapCostsExceedSealedCosts(t *testing.T) {
	cost := func(m *model.Machine) sim.Time {
		k := kernel.New(kernel.Config{Machine: m, Engine: core.New(core.CopyOnPointerAccess), Isolation: kernel.IsolationFull, Frames: 1 << 14})
		var d sim.Time
		_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
			t0 := p.Now()
			for i := 0; i < 100; i++ {
				k.Getpid(p)
			}
			d = p.Now() - t0
		})
		if err != nil {
			t.Fatal(err)
		}
		k.Run()
		return d
	}
	ufork := cost(model.UFork(1))
	posixLike := model.UFork(1)
	posixLike.TrapSyscalls = true
	posixLike.SyscallEnter = model.Posix(1).SyscallEnter
	posixLike.SyscallExit = model.Posix(1).SyscallExit
	trap := cost(posixLike)
	if trap <= ufork {
		t.Fatalf("trap syscalls (%v) must cost more than sealed-cap syscalls (%v)", trap, ufork)
	}
}

func TestSbrkBounds(t *testing.T) {
	k := newKernel(1, kernel.IsolationFull)
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		if err := k.Sbrk(p, 8); err != nil {
			t.Errorf("sbrk: %v", err)
		}
		if err := k.Sbrk(p, 1<<20); err == nil {
			t.Error("sbrk beyond static heap must fail")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
}

func TestConsoleCapturesOutput(t *testing.T) {
	k := newKernel(1, kernel.IsolationFull)
	var p0 *kernel.Proc
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		p0 = p
		if _, err := k.Write(p, 1, []byte("hello world\n")); err != nil {
			t.Errorf("write stdout: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	of, err := p0.FDs.Get(1)
	if err == nil {
		if c, ok := of.File.(*kernel.Console); ok && string(c.Out) == "hello world\n" {
			return
		}
	}
	// FDs are closed at exit; the console content check above is best
	// effort — the write not erroring is the real assertion.
}

// TestSpawnStaticHeapHostAlloc guards frame data on first write: booting
// a μprocess maps its build-time static heap page by page (§4.2), but a
// page nobody writes must cost no host data storage. A 32768-page (128
// MiB) heap has to spawn in well under its simulated size of host memory.
func TestSpawnStaticHeapHostAlloc(t *testing.T) {
	k := newKernel(1, kernel.IsolationFull)
	spec := kernel.HelloWorldSpec()
	spec.HeapPages = 32768
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := k.Spawn(spec, 0, func(p *kernel.Proc) {}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	k.Run()
	if got := after.TotalAlloc - before.TotalAlloc; got >= 16<<20 {
		t.Fatalf("spawning a 128 MiB static heap allocated %.1f MiB of host memory, want < 16",
			float64(got)/(1<<20))
	}
}
