package kernel_test

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"ufork/internal/kernel"
)

// dumpBytes and dumpChunk match a kvstore BGSAVE of 4096 x 4 KiB values:
// a 16 MiB dump written as 64 KiB write(2) calls.
const (
	dumpBytes = 16 << 20
	dumpChunk = 64 << 10
)

// writeDump recreates path and fills it with dumpBytes of chunk.
func writeDump(tb testing.TB, k *kernel.Kernel, p *kernel.Proc, path string, chunk []byte) {
	fd, err := k.Open(p, path, true)
	if err != nil {
		tb.Fatal(err)
	}
	for n := 0; n < dumpBytes; n += len(chunk) {
		if _, err := k.Write(p, fd, chunk); err != nil {
			tb.Fatal(err)
		}
	}
	if err := k.Close(p, fd); err != nil {
		tb.Fatal(err)
	}
}

// TestRamdiskRewriteAllocs guards the host cost of a repeated dump: once
// a file has held 16 MiB, truncating and rewriting it reuses its storage
// instead of allocating the file again.
func TestRamdiskRewriteAllocs(t *testing.T) {
	k := newKernel(1, kernel.IsolationFault)
	chunk := make([]byte, dumpChunk)
	var before, after runtime.MemStats
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		writeDump(t, k, p, "/dump.rdb", chunk)
		runtime.ReadMemStats(&before)
		writeDump(t, k, p, "/dump.rdb", chunk)
		runtime.ReadMemStats(&after)
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if ino, _ := k.VFS().Lookup("/dump.rdb"); len(ino.Data) != dumpBytes {
		t.Fatalf("dump is %d bytes, want %d", len(ino.Data), dumpBytes)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("rewriting a %d MiB file allocated %d bytes of host memory, want < 1 MiB", dumpBytes>>20, got)
	}
}

// BenchmarkRamdiskWrite measures the host cost of writing a 16 MiB dump
// in 64 KiB writes, to a fresh file and as a rewrite after truncate.
func BenchmarkRamdiskWrite(b *testing.B) {
	for _, bc := range []struct {
		name  string
		fresh bool
	}{{"fresh", true}, {"rewrite", false}} {
		b.Run(bc.name, func(b *testing.B) {
			k := newKernel(1, kernel.IsolationFault)
			chunk := make([]byte, dumpChunk)
			b.SetBytes(dumpBytes)
			_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
				writeDump(b, k, p, "/dump.rdb", chunk)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if bc.fresh {
						if err := k.Unlink(p, "/dump.rdb"); err != nil {
							b.Fatal(err)
						}
					}
					writeDump(b, k, p, "/dump.rdb", chunk)
				}
				b.StopTimer()
			})
			if err != nil {
				b.Fatal(err)
			}
			k.Run()
		})
	}
}

// chunkOf is the content of the i-th 64 KiB write in the extent tests.
func chunkOf(i int) []byte {
	b := make([]byte, dumpChunk)
	for j := range b {
		b[j] = byte(i*131 + j*7)
	}
	return b
}

// TestExtentAppendsThroughDups writes a 5 MiB file in 64 KiB writes
// through two descriptors sharing one offset. Each kernel view asked for
// in the first 4 MiB while appends sit in extents (Stat, Lseek(SeekEnd),
// Read) sees the whole file; the last MiB is still in extents at close,
// and after the last close Data holds every byte.
func TestExtentAppendsThroughDups(t *testing.T) {
	const chunks = 80
	var ref bytes.Buffer
	k := runFileOps(t, func(k *kernel.Kernel, p *kernel.Proc) error {
		fd, err := k.Open(p, "/big", true)
		if err != nil {
			return err
		}
		dup, err := k.Dup(p, fd)
		if err != nil {
			return err
		}
		rd, err := k.Open(p, "/big", false)
		if err != nil {
			return err
		}
		ino, _ := k.VFS().Lookup("/big")
		for i := 0; i < chunks; i++ {
			w := fd
			if i%2 == 1 {
				w = dup
			}
			if _, err := k.Write(p, w, chunkOf(i)); err != nil {
				return err
			}
			ref.Write(chunkOf(i))
			if i%16 != 15 || i == chunks-1 {
				continue
			}
			if kernel.PendingExtents(ino) == 0 {
				t.Errorf("after %d KiB: no extents pending", ref.Len()>>10)
			}
			switch i / 16 {
			case 0:
				if size, err := k.Stat(p, "/big"); err != nil || size != uint64(ref.Len()) {
					t.Errorf("stat = %d, %v; want %d", size, err, ref.Len())
				}
			case 1:
				if end, err := k.Lseek(p, dup, 0, kernel.SeekEnd); err != nil || end != uint64(ref.Len()) {
					t.Errorf("seek end = %d, %v; want %d", end, err, ref.Len())
				}
			default:
				if _, err := k.Lseek(p, rd, 0, kernel.SeekSet); err != nil {
					return err
				}
				got := make([]byte, ref.Len()+1)
				n, err := k.Read(p, rd, got)
				if err != nil {
					return err
				}
				if !bytes.Equal(got[:n], ref.Bytes()) {
					t.Errorf("read %d bytes mid-write, want the %d written", n, ref.Len())
				}
			}
		}
		if kernel.PendingExtents(ino) == 0 {
			t.Error("no extents pending at close")
		}
		for _, d := range []int{fd, dup, rd} {
			if err := k.Close(p, d); err != nil {
				return err
			}
		}
		return nil
	})
	ino, _ := k.VFS().Lookup("/big")
	if kernel.PendingExtents(ino) != 0 || !bytes.Equal(ino.Data, ref.Bytes()) {
		t.Fatalf("after close: %d extents pending, Data %d bytes; want 0 and the %d written",
			kernel.PendingExtents(ino), len(ino.Data), ref.Len())
	}
}

// TestExtentHoleZeroFilled: a write past the end of a file whose appends
// sit in extents leaves zeros in the hole, both inside the folded file's
// headroom and beyond it.
func TestExtentHoleZeroFilled(t *testing.T) {
	var ref bytes.Buffer
	k := runFileOps(t, func(k *kernel.Kernel, p *kernel.Proc) error {
		fd, err := k.Open(p, "/holes", true)
		if err != nil {
			return err
		}
		for i := 0; i < 17; i++ {
			if _, err := k.Write(p, fd, chunkOf(i)); err != nil {
				return err
			}
			ref.Write(chunkOf(i))
		}
		ino, _ := k.VFS().Lookup("/holes")
		if kernel.PendingExtents(ino) == 0 {
			t.Errorf("no extents pending after %d KiB", ref.Len()>>10)
		}
		for _, gap := range []int{1000, 4 << 20} {
			ref.Write(make([]byte, gap))
			if _, err := k.Lseek(p, fd, int64(gap), kernel.SeekCur); err != nil {
				return err
			}
			if _, err := k.Write(p, fd, []byte("x")); err != nil {
				return err
			}
			ref.WriteByte('x')
		}
		return k.Close(p, fd)
	})
	ino, _ := k.VFS().Lookup("/holes")
	if !bytes.Equal(ino.Data, ref.Bytes()) {
		t.Fatalf("file is %d bytes and differs from the %d-byte reference", len(ino.Data), ref.Len())
	}
}

// TestKilledWriterLeavesDataComplete: a writer killed while its appends
// sit in extents closes its descriptors on exit, so Data holds every byte
// of every write that returned.
func TestKilledWriterLeavesDataComplete(t *testing.T) {
	k := newKernel(2, kernel.IsolationFull)
	var ref bytes.Buffer
	pending := 0
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		rfd, wfd, err := k.Pipe(p)
		if err != nil {
			t.Error(err)
			return
		}
		pid, err := k.Fork(p, func(c *kernel.Proc) {
			fd, err := k.Open(c, "/victim", true)
			if err != nil {
				t.Error(err)
				return
			}
			ino, _ := k.VFS().Lookup("/victim")
			for i := 0; ; i++ {
				if _, err := k.Write(c, fd, chunkOf(i)); err != nil {
					t.Error(err)
					return
				}
				ref.Write(chunkOf(i))
				if i == 31 {
					pending = kernel.PendingExtents(ino)
					if _, err := k.Write(c, wfd, []byte{1}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := k.Read(p, rfd, make([]byte, 1)); err != nil {
			t.Error(err)
			return
		}
		if err := k.Kill(p, pid); err != nil {
			t.Error(err)
			return
		}
		if _, status, err := k.Wait(p); err != nil || status != 137 {
			t.Errorf("wait: status %d, %v; want 137", status, err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	ino, _ := k.VFS().Lookup("/victim")
	if pending == 0 {
		t.Error("no extents pending when the writer was killed")
	}
	if kernel.PendingExtents(ino) != 0 || !bytes.Equal(ino.Data, ref.Bytes()) {
		t.Fatalf("after kill: %d extents pending, Data %d bytes; want 0 and the %d written",
			kernel.PendingExtents(ino), len(ino.Data), ref.Len())
	}
}

// TestRewriteSameSizeNoExtents: after a file's extents have folded, a
// truncating rewrite of the same size fits the folded storage and appends
// in place.
func TestRewriteSameSizeNoExtents(t *testing.T) {
	const chunks = 48 // 3 MiB
	k := runFileOps(t, func(k *kernel.Kernel, p *kernel.Proc) error {
		for round := 0; round < 2; round++ {
			fd, err := k.Open(p, "/again", true)
			if err != nil {
				return err
			}
			for i := 0; i < chunks; i++ {
				if _, err := k.Write(p, fd, chunkOf(round+i)); err != nil {
					return err
				}
			}
			ino, _ := k.VFS().Lookup("/again")
			if n := kernel.PendingExtents(ino); (n == 0) != (round == 1) {
				t.Errorf("round %d: %d extents pending before close", round, n)
			}
			if err := k.Close(p, fd); err != nil {
				return err
			}
		}
		return nil
	})
	var ref bytes.Buffer
	for i := 0; i < chunks; i++ {
		ref.Write(chunkOf(1 + i))
	}
	ino, _ := k.VFS().Lookup("/again")
	if !bytes.Equal(ino.Data, ref.Bytes()) {
		t.Fatalf("rewritten file is %d bytes and differs from the %d-byte reference", len(ino.Data), ref.Len())
	}
}

// TestReopenReusesDescription: once its last descriptor closes, a regular
// file's open file description serves the next open, of any file, from
// offset 0, and an open/close pair then allocates nothing.
func TestReopenReusesDescription(t *testing.T) {
	k := newKernel(1, kernel.IsolationFault)
	k.VFS().WriteFile("/b", []byte("bbbb"))
	var allocs float64
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		fd, err := k.Open(p, "/a", true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.Write(p, fd, []byte("aaaa")); err != nil {
			t.Fatal(err)
		}
		dup, err := k.Dup(p, fd)
		if err != nil {
			t.Fatal(err)
		}
		_ = k.Close(p, fd)
		// The dup still holds the description, so this open gets a new one.
		fd2, err := k.Open(p, "/b", false)
		if err != nil {
			t.Fatal(err)
		}
		if off, err := k.Lseek(p, dup, 0, kernel.SeekCur); err != nil || off != 4 {
			t.Errorf("dup's offset = %d, %v after another open; want 4", off, err)
		}
		_ = k.Close(p, fd2)
		_ = k.Close(p, dup)
		fd, err = k.Open(p, "/b", false)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 8)
		if n, err := k.Read(p, fd, buf); err != nil || string(buf[:n]) != "bbbb" {
			t.Errorf("read %q, %v from a reopened description; want \"bbbb\"", buf[:n], err)
		}
		_ = k.Close(p, fd)
		allocs = testing.AllocsPerRun(100, func() {
			fd, _ := k.Open(p, "/b", false)
			_ = k.Close(p, fd)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if allocs != 0 {
		t.Errorf("an open/close pair allocates %v objects, want 0", allocs)
	}
}

// TestOpenPathDoesNotAllocate opens a path held in a byte slice, the way
// a server opens the path it parsed from a request: Open copies the name
// only where it keeps it, so the string(b) conversion stays on the
// caller's stack and an open/close pair allocates nothing. A file created
// that way, and the error for a missing one, keep their names after the
// caller overwrites b.
func TestOpenPathDoesNotAllocate(t *testing.T) {
	k := newKernel(1, kernel.IsolationFault)
	k.VFS().WriteFile("/docs/index-000042.html", []byte("doc"))
	var allocs float64
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		path := []byte("/docs/index-000042.html")
		allocs = testing.AllocsPerRun(100, func() {
			fd, err := k.Open(p, string(path), false)
			if err != nil {
				t.Error(err)
				return
			}
			_ = k.Close(p, fd)
		})

		path = []byte("/created")
		fd, err := k.Open(p, string(path), true)
		if err != nil {
			t.Error(err)
			return
		}
		_ = k.Close(p, fd)
		copy(path, "/garbled")
		if ino, ok := k.VFS().Lookup("/created"); !ok || ino.Name != "/created" {
			t.Errorf("file created through a byte slice: found %v, %+v after the slice changed", ok, ino)
		}

		path = []byte("/missing")
		_, err = k.Open(p, string(path), false)
		copy(path, "/garbled")
		if err == nil || !strings.HasSuffix(err.Error(), ": /missing") {
			t.Errorf("open of a missing file: %v after the slice changed, want it to name /missing", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if allocs != 0 {
		t.Errorf("an open/close pair through string(b) allocates %v objects, want 0", allocs)
	}
}
