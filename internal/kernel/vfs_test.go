package kernel_test

import (
	"runtime"
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
