package kvstore_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"ufork/internal/alloc"
	"ufork/internal/apps/kvstore"
	"ufork/internal/cap"
	"ufork/internal/core"
	"ufork/internal/kernel"
	"ufork/internal/model"
)

// redisSpec sizes a μprocess image for a small test database.
func redisSpec(heapPages int) kernel.ProgramSpec {
	s := kernel.HelloWorldSpec()
	s.Name = "kvstore"
	s.HeapPages = heapPages
	s.AllocMetaPages = 64
	return s
}

func withStore(t testing.TB, mode core.CopyMode, fn func(k *kernel.Kernel, p *kernel.Proc, s *kvstore.Store)) {
	t.Helper()
	withStoreSpec(t, mode, redisSpec(4096), 256, fn)
}

func withStoreSpec(t testing.TB, mode core.CopyMode, spec kernel.ProgramSpec, nbuckets int, fn func(k *kernel.Kernel, p *kernel.Proc, s *kvstore.Store)) {
	t.Helper()
	k := kernel.New(kernel.Config{
		Machine:   model.UFork(2),
		Engine:    core.New(mode),
		Isolation: kernel.IsolationFull,
		Frames:    1 << 16,
	})
	if _, err := k.Spawn(spec, 0, func(p *kernel.Proc) {
		a := alloc.Attach(p)
		if err := a.Init(); err != nil {
			t.Errorf("alloc init: %v", err)
			return
		}
		s, err := kvstore.Init(p, a, nbuckets)
		if err != nil {
			t.Errorf("store init: %v", err)
			return
		}
		fn(k, p, s)
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
}

func TestSetGetDelete(t *testing.T) {
	withStore(t, core.CopyOnPointerAccess, func(k *kernel.Kernel, p *kernel.Proc, s *kvstore.Store) {
		if err := s.Set("alpha", []byte("one")); err != nil {
			t.Fatalf("set: %v", err)
		}
		if err := s.Set("beta", []byte("two")); err != nil {
			t.Fatalf("set: %v", err)
		}
		v, err := s.Get("alpha")
		if err != nil || string(v) != "one" {
			t.Fatalf("get alpha = %q, %v", v, err)
		}
		// Replace.
		if err := s.Set("alpha", []byte("uno!")); err != nil {
			t.Fatalf("replace: %v", err)
		}
		v, err = s.Get("alpha")
		if err != nil || string(v) != "uno!" {
			t.Fatalf("get alpha after replace = %q, %v", v, err)
		}
		n, err := s.Count()
		if err != nil || n != 2 {
			t.Fatalf("count = %d, %v", n, err)
		}
		if err := s.Delete("alpha"); err != nil {
			t.Fatalf("delete: %v", err)
		}
		if _, err := s.Get("alpha"); !errors.Is(err, kvstore.ErrNotFound) {
			t.Fatalf("get deleted: %v", err)
		}
		if _, err := s.Get("gamma"); !errors.Is(err, kvstore.ErrNotFound) {
			t.Fatalf("get missing: %v", err)
		}
		if err := s.Delete("gamma"); !errors.Is(err, kvstore.ErrNotFound) {
			t.Fatalf("delete missing: %v", err)
		}
		n, _ = s.Count()
		if n != 1 {
			t.Fatalf("count after delete = %d", n)
		}
	})
}

func TestManyKeysCollisions(t *testing.T) {
	withStore(t, core.CopyOnPointerAccess, func(k *kernel.Kernel, p *kernel.Proc, s *kvstore.Store) {
		// 256 buckets, 600 keys: plenty of chaining.
		for i := 0; i < 600; i++ {
			if err := s.Set(fmt.Sprintf("key:%04d", i), []byte(fmt.Sprintf("val-%d", i))); err != nil {
				t.Fatalf("set %d: %v", i, err)
			}
		}
		for i := 0; i < 600; i++ {
			v, err := s.Get(fmt.Sprintf("key:%04d", i))
			if err != nil {
				t.Fatalf("get %d: %v", i, err)
			}
			if string(v) != fmt.Sprintf("val-%d", i) {
				t.Fatalf("key %d = %q", i, v)
			}
		}
		n, _ := s.Count()
		if n != 600 {
			t.Fatalf("count = %d", n)
		}
	})
}

func TestForEachVisitsAll(t *testing.T) {
	withStore(t, core.CopyOnPointerAccess, func(k *kernel.Kernel, p *kernel.Proc, s *kvstore.Store) {
		want := map[string]bool{}
		for i := 0; i < 50; i++ {
			key := fmt.Sprintf("k%d", i)
			want[key] = true
			if err := s.Set(key, bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
				t.Fatal(err)
			}
		}
		seen := map[string]bool{}
		var kbuf [kvstore.MaxKeyLen]byte
		err := s.ForEach(&kbuf, func(key []byte, _ capability) error {
			seen[string(key)] = true
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != len(want) {
			t.Fatalf("visited %d keys, want %d", len(seen), len(want))
		}
	})
}

func TestSaveAndParse(t *testing.T) {
	withStore(t, core.CopyOnPointerAccess, func(k *kernel.Kernel, p *kernel.Proc, s *kvstore.Store) {
		vals := map[string][]byte{}
		for i := 0; i < 40; i++ {
			key := fmt.Sprintf("key-%d", i)
			val := bytes.Repeat([]byte{byte(i + 1)}, 300+i)
			vals[key] = val
			if err := s.Set(key, val); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Save("/dump.rdb"); err != nil {
			t.Fatalf("save: %v", err)
		}
		ino, ok := k.VFS().Lookup("/dump.rdb")
		if !ok {
			t.Fatal("dump file missing")
		}
		got, err := kvstore.LoadDump(ino.Data)
		if err != nil {
			t.Fatalf("parse dump: %v", err)
		}
		if len(got) != len(vals) {
			t.Fatalf("dump has %d keys, want %d", len(got), len(vals))
		}
		for key, val := range vals {
			if !bytes.Equal(got[key], val) {
				t.Fatalf("dump[%s] mismatch", key)
			}
		}
	})
}

// TestSaveRoundTripChunkEdges round-trips values that are empty, tiny,
// and on either side of the serializer's 64 KiB write chunk or several
// chunks long, so value loads into the write buffer cross flushes. The
// 200000-byte value is larger than a chunk, so it loads in pieces. Every
// write but the last is a full chunk, so the dump takes the fewest writes
// its size allows.
//
// The dump must hold exactly what the store serves. Set keeps a value
// whose length the capability bounds cannot encode (65535, 65537) in its
// representable-rounded block, so Get and Save both return it padded
// with zeros to that length (a known defect, listed in ROADMAP.md).
// Failures use Errorf and return: Fatal would strand the engine task.
func TestSaveRoundTripChunkEdges(t *testing.T) {
	withStore(t, core.CopyOnPointerAccess, func(k *kernel.Kernel, p *kernel.Proc, s *kvstore.Store) {
		vals := map[string][]byte{}
		for i, n := range []int{0, 1, 65535, 65536, 65537, 200000} {
			key := fmt.Sprintf("v%d", n)
			val := make([]byte, n)
			for j := range val {
				val[j] = byte(j*7 + i + 1)
			}
			vals[key] = val
			if err := s.Set(key, val); err != nil {
				t.Error(err)
				return
			}
		}
		writes := &p.Acct.Syscalls[kernel.SysWrite]
		writes0 := writes.Value()
		if err := s.Save("/dump.rdb"); err != nil {
			t.Errorf("save: %v", err)
			return
		}
		ino, _ := k.VFS().Lookup("/dump.rdb")
		const saveChunk = 64 << 10
		if got, want := writes.Value()-writes0, uint64(len(ino.Data)+saveChunk-1)/saveChunk; got != want {
			t.Errorf("a %d-byte dump took %d writes, want %d", len(ino.Data), got, want)
		}
		got, err := kvstore.LoadDump(ino.Data)
		if err != nil {
			t.Errorf("parse dump: %v", err)
			return
		}
		if len(got) != len(vals) {
			t.Errorf("dump has %d keys, want %d", len(got), len(vals))
			return
		}
		size := 12
		for key, val := range vals {
			served, err := s.Get(key)
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got[key], served) {
				t.Errorf("dump[%s]: %d bytes differ from the %d the store serves", key, len(got[key]), len(served))
				return
			}
			pad := served[min(len(val), len(served)):]
			if !bytes.HasPrefix(served, val) || len(pad) >= cap.GranuleSize || len(bytes.Trim(pad, "\x00")) != 0 {
				t.Errorf("value %s: set %d bytes, store serves %d", key, len(val), len(served))
				return
			}
			size += 16 + len(key) + len(served)
		}
		if len(ino.Data) != size {
			t.Errorf("dump is %d bytes, want %d", len(ino.Data), size)
			return
		}
	})
}

// dumpKeys is the kv-snapshot keyspace: 4096 keys of 4 KiB values.
const dumpKeys = 4096

// dumpKey names key i of the kv-snapshot database.
func dumpKey(i int) string { return fmt.Sprintf("key-%04d", i) }

// withDumpStore runs fn on a store holding 4096 x 4 KiB values in 8192
// buckets, the kv-snapshot database.
func withDumpStore(tb testing.TB, fn func(k *kernel.Kernel, p *kernel.Proc, s *kvstore.Store)) {
	tb.Helper()
	spec := redisSpec(3 * 4096)
	spec.AllocMetaPages = 256
	withStoreSpec(tb, core.CopyOnPointerAccess, spec, 2*dumpKeys, func(k *kernel.Kernel, p *kernel.Proc, s *kvstore.Store) {
		val := bytes.Repeat([]byte{0xA5}, 4096)
		for i := 0; i < dumpKeys; i++ {
			if err := s.Set(dumpKey(i), val); err != nil {
				tb.Error(err)
				return
			}
		}
		fn(k, p, s)
	})
}

// BenchmarkGet measures the host cost of a lookup in the kv-snapshot
// database. An odd key stride visits every key, spread over the table
// and the value pages, before any repeats.
func BenchmarkGet(b *testing.B) {
	withDumpStore(b, func(k *kernel.Kernel, p *kernel.Proc, s *kvstore.Store) {
		names := make([]string, dumpKeys)
		for i := range names {
			names[i] = dumpKey(i)
		}
		b.SetBytes(4096)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Get(names[i*2749%dumpKeys]); err != nil {
				b.Error(err)
				return
			}
		}
		b.StopTimer()
	})
}

// BenchmarkSave measures the host cost of serializing a 4096 x 4 KiB
// store, the kv-snapshot dump, over an existing dump on the ram-disk. One
// untimed Save first grows the file, so every timed one is a rewrite at
// any -benchtime (BenchmarkFirstDump times the growth).
func BenchmarkSave(b *testing.B) {
	withDumpStore(b, func(k *kernel.Kernel, p *kernel.Proc, s *kvstore.Store) {
		if err := s.Save("/dump.rdb"); err != nil {
			b.Error(err)
			return
		}
		b.SetBytes(4096 * 4096)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Save("/dump.rdb"); err != nil {
				b.Error(err)
				return
			}
		}
		b.StopTimer()
	})
}

// BenchmarkFirstDump measures the host cost of the first Save of the
// kv-snapshot store to a path: the dump file is unlinked before every
// save, so each one grows a fresh ram-disk file from empty.
func BenchmarkFirstDump(b *testing.B) {
	withDumpStore(b, func(k *kernel.Kernel, p *kernel.Proc, s *kvstore.Store) {
		b.SetBytes(4096 * 4096)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i > 0 {
				if err := k.Unlink(p, "/dump.rdb"); err != nil {
					b.Error(err)
					return
				}
			}
			if err := s.Save("/dump.rdb"); err != nil {
				b.Error(err)
				return
			}
		}
		b.StopTimer()
	})
}

// maxFirstDumpAlloc bounds the host bytes the first Save to a fresh path
// allocates, as a multiple of the dump's size. Appends past the first
// extent land in extents and fold into the file once, with an eighth of
// headroom: about 2.2x. Regrowing the whole file on each 1.25x step, as
// slices.Grow does, allocated about 5.9x.
const maxFirstDumpAlloc = 2.5

func TestFirstDumpAllocs(t *testing.T) {
	withDumpStore(t, func(k *kernel.Kernel, p *kernel.Proc, s *kvstore.Store) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := s.Save("/first.rdb"); err != nil {
			t.Error(err)
			return
		}
		runtime.ReadMemStats(&after)
		ino, _ := k.VFS().Lookup("/first.rdb")
		ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(ino.Data))
		t.Logf("first %d-byte dump allocated %.2fx its size", len(ino.Data), ratio)
		if ratio > maxFirstDumpAlloc {
			t.Errorf("first %d-byte dump allocated %.2fx its size, want at most %.1fx", len(ino.Data), ratio, maxFirstDumpAlloc)
		}
	})
}

// TestBGSaveSnapshotConsistency is the Redis headline property: the dump
// reflects the database at fork time even though the parent keeps
// mutating concurrently.
func TestBGSaveSnapshotConsistency(t *testing.T) {
	for _, mode := range []core.CopyMode{core.CopyOnPointerAccess, core.CopyOnAccess, core.CopyFull} {
		t.Run(mode.String(), func(t *testing.T) {
			withStore(t, mode, func(k *kernel.Kernel, p *kernel.Proc, s *kvstore.Store) {
				for i := 0; i < 30; i++ {
					if err := s.Set(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("orig-%d", i))); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := s.BGSave("/bg.rdb"); err != nil {
					t.Fatalf("bgsave: %v", err)
				}
				// Parent mutates immediately after fork: overwrites and new keys.
				for i := 0; i < 30; i++ {
					if err := s.Set(fmt.Sprintf("k%d", i), []byte("MUTATED")); err != nil {
						t.Fatal(err)
					}
				}
				for i := 30; i < 40; i++ {
					if err := s.Set(fmt.Sprintf("k%d", i), []byte("NEW")); err != nil {
						t.Fatal(err)
					}
				}
				if err := s.Reap(); err != nil {
					t.Fatalf("reap: %v", err)
				}
				ino, ok := k.VFS().Lookup("/bg.rdb")
				if !ok {
					t.Fatal("dump missing")
				}
				got, err := kvstore.LoadDump(ino.Data)
				if err != nil {
					t.Fatalf("parse: %v", err)
				}
				if len(got) != 30 {
					t.Fatalf("snapshot has %d keys, want 30 (fork-time state)", len(got))
				}
				for i := 0; i < 30; i++ {
					if string(got[fmt.Sprintf("k%d", i)]) != fmt.Sprintf("orig-%d", i) {
						t.Fatalf("snapshot k%d = %q: parent mutation leaked", i, got[fmt.Sprintf("k%d", i)])
					}
				}
				// The live store has the mutations.
				v, err := s.Get("k0")
				if err != nil || string(v) != "MUTATED" {
					t.Fatalf("live k0 = %q, %v", v, err)
				}
			})
		})
	}
}

// TestCoPAChildMemoryFarBelowCoA reproduces the Fig. 5 mechanism at test
// scale: the snapshot child under CoPA copies only pointer-bearing pages,
// under CoA every page it reads.
func TestCoPAChildMemoryFarBelowCoA(t *testing.T) {
	childPrivate := func(mode core.CopyMode) (pages int) {
		withStore(t, mode, func(k *kernel.Kernel, p *kernel.Proc, s *kvstore.Store) {
			// 64 keys × 16 KiB values = 1 MiB of value pages.
			val := bytes.Repeat([]byte{0xab}, 16*1024)
			for i := 0; i < 64; i++ {
				if err := s.Set(fmt.Sprintf("key%d", i), val); err != nil {
					t.Fatal(err)
				}
			}
			_, err := k.Fork(p, func(c *kernel.Proc) {
				cs, err := kvstore.Attach(c)
				if err != nil {
					t.Errorf("attach: %v", err)
					return
				}
				if err := cs.Save("/m.rdb"); err != nil {
					t.Errorf("save: %v", err)
					return
				}
				pages = c.Usage().PrivatePages
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := k.Wait(p); err != nil {
				t.Fatal(err)
			}
		})
		return pages
	}
	copa := childPrivate(core.CopyOnPointerAccess)
	coa := childPrivate(core.CopyOnAccess)
	if copa*3 > coa {
		t.Fatalf("CoPA child private pages (%d) should be far below CoA (%d)", copa, coa)
	}
}

// TestGetReplyBuffer pins Get's contract: every Get loads into the one
// reply buffer the Store keeps, the slice it returns is exactly the value
// (capacity too), and a forked child's Store has a buffer of its own.
func TestGetReplyBuffer(t *testing.T) {
	withStore(t, core.CopyOnPointerAccess, func(k *kernel.Kernel, p *kernel.Proc, s *kvstore.Store) {
		short := bytes.Repeat([]byte{'s'}, 100)
		long := bytes.Repeat([]byte{'l'}, 3000)
		for key, val := range map[string][]byte{"short": short, "long": long} {
			if err := s.Set(key, val); err != nil {
				t.Error(err)
				return
			}
		}
		get := func(s *kvstore.Store, key string, want []byte) []byte {
			v, err := s.Get(key)
			// The builtin cap is shadowed by package cap.
			if c := reflect.ValueOf(v).Cap(); err != nil || !bytes.Equal(v, want) || c != len(v) {
				t.Errorf("get %s: %d bytes (cap %d), %v; want the %d set", key, len(v), c, err, len(want))
				return nil
			}
			return v
		}
		// A longer value after a shorter one comes back whole.
		if get(s, "short", short) == nil {
			return
		}
		first := get(s, "long", long)
		if first == nil {
			return
		}
		// A shorter one after a longer comes back at its own length, in
		// the same storage, overwriting the first reply.
		second := get(s, "short", short)
		if second == nil {
			return
		}
		if &second[0] != &first[0] {
			t.Error("a second Get did not reuse the first one's storage")
		}
		if !bytes.Equal(first[:len(short)], short) {
			t.Error("a second Get did not overwrite the first one's reply")
		}

		// The parent holds a reply across a BGSAVE and a child's Gets.
		held := get(s, "long", long)
		if held == nil {
			return
		}
		if _, err := s.BGSave("/dump.rdb"); err != nil {
			t.Error(err)
			return
		}
		if err := s.Reap(); err != nil {
			t.Error(err)
			return
		}
		if _, err := k.Fork(p, func(c *kernel.Proc) {
			cs, err := kvstore.Attach(c)
			if err != nil {
				t.Errorf("attach: %v", err)
				return
			}
			get(cs, "short", short)
			get(cs, "long", long)
		}); err != nil {
			t.Error(err)
			return
		}
		if _, _, err := k.Wait(p); err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(held, long) {
			t.Error("a child's Gets overwrote the parent's reply")
		}
	})
}

// capability aliases the capability type for the ForEach callback.
type capability = cap.Capability

// TestBGSavePlanesStayBounded: BGSAVE cycles must not leave capability
// planes behind on plain value pages. Each snapshot child copies the
// capability-dense pages and frees them on exit; the parent's next writes
// copy value pages. Were a freed frame to keep its plane, those copies
// would pick planes up, and the count of frames holding one would grow
// with the number of cycles.
func TestBGSavePlanesStayBounded(t *testing.T) {
	withStore(t, core.CopyOnPointerAccess, func(k *kernel.Kernel, p *kernel.Proc, s *kvstore.Store) {
		const keys = 256
		val := bytes.Repeat([]byte{0x5a}, 2048)
		for i := 0; i < keys; i++ {
			if err := s.Set(fmt.Sprintf("key-%03d", i), val); err != nil {
				t.Error(err)
				return
			}
		}
		var planes []int
		x := uint32(1)
		for cycle := 1; cycle <= 40; cycle++ {
			if _, err := s.BGSave("/dump.rdb"); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 64; i++ {
				x = x*1664525 + 1013904223
				val[0] = byte(cycle)
				if err := s.Set(fmt.Sprintf("key-%03d", x>>8%keys), val); err != nil {
					t.Error(err)
					return
				}
			}
			if err := s.Reap(); err != nil {
				t.Error(err)
				return
			}
			if cycle == 4 || cycle == 40 {
				planes = append(planes, k.Mem.CapPlanes())
			}
		}
		t.Logf("frames holding a capability plane after 4 and 40 cycles: %v", planes)
		if planes[1] > planes[0] {
			t.Errorf("frames holding a capability plane grew from %d after 4 BGSAVE cycles to %d after 40", planes[0], planes[1])
		}
	})
}

// Allocation gates: a lookup allocates nothing, an overwriting Set
// nothing, and the snapshot walk allocates per Save call, not per entry.
// Save's one holds its write buffer, sized so no entry grows it, and the
// key buffer ForEach loads into (the dump file's open-file description is
// reused); the gate leaves room for one more.
const (
	maxMallocsPerGet  = 0
	maxMallocsPerSet  = 0
	maxMallocsPerSave = 2
)

// TestOpAllocs measures host allocations of Get, of overwriting Set and of
// Save on a 200-key store.
func TestOpAllocs(t *testing.T) {
	withStore(t, core.CopyOnPointerAccess, func(k *kernel.Kernel, p *kernel.Proc, s *kvstore.Store) {
		const keys = 200
		names := make([]string, keys)
		val := bytes.Repeat([]byte{0x3c}, 100)
		for i := range names {
			names[i] = fmt.Sprintf("key-%03d", i)
			if err := s.Set(names[i], val); err != nil {
				t.Error(err)
				return
			}
		}
		i := 0
		get := testing.AllocsPerRun(400, func() {
			if _, err := s.Get(names[i%keys]); err != nil {
				t.Error(err)
			}
			i++
		})
		set := testing.AllocsPerRun(400, func() {
			if err := s.Set(names[i%keys], val); err != nil {
				t.Error(err)
			}
			i++
		})
		save := testing.AllocsPerRun(20, func() {
			if err := s.Save("/dump.rdb"); err != nil {
				t.Error(err)
			}
		})
		t.Logf("mallocs: %.2f per Get, %.2f per Set, %.1f per Save", get, set, save)
		if get > maxMallocsPerGet {
			t.Errorf("%.2f mallocs per Get, want at most %d", get, maxMallocsPerGet)
		}
		if set > maxMallocsPerSet {
			t.Errorf("%.2f mallocs per overwriting Set, want at most %d", set, maxMallocsPerSet)
		}
		if save > maxMallocsPerSave {
			t.Errorf("%.1f mallocs per Save of %d keys, want at most %d", save, keys, maxMallocsPerSave)
		}
	})
}
