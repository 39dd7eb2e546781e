package kvstore_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"ufork/internal/apps/kvstore"
	"ufork/internal/core"
	"ufork/internal/kernel"
)

// TestLoadDumpParsesInPlace pins LoadDump's aliasing contract: values are
// subslices of the dump whose capacity is clipped, so appending to one
// leaves the next record intact.
func TestLoadDumpParsesInPlace(t *testing.T) {
	data := dumpBytes([2]string{"a", "xy"}, [2]string{"b", "zw"})
	got, err := kvstore.LoadDump(data)
	if err != nil {
		t.Fatal(err)
	}
	if &got["a"][0] != &data[12+16+1] {
		t.Fatal("value a was copied out of the dump")
	}
	if cap(got["a"]) != len(got["a"]) {
		t.Fatalf("value a has cap %d, want its length %d", cap(got["a"]), len(got["a"]))
	}
	_ = append(got["a"], '!')
	if got, err := kvstore.LoadDump(data); err != nil || string(got["b"]) != "zw" {
		t.Fatalf("appending to a changed the dump: b = %q, %v", got["b"], err)
	}
}

// TestLoadDumpHostileLengths feeds LoadDump headers and lengths a corrupt
// or hostile dump can carry; each must return ErrCorrupt, not panic.
func TestLoadDumpHostileLengths(t *testing.T) {
	wrap := dumpHeader(1)
	wrap = binary.LittleEndian.AppendUint64(wrap, 1<<64-8) // klen: pos+klen wraps
	wrap = binary.LittleEndian.AppendUint64(wrap, 0)
	wrap = append(wrap, "12345678"...)
	vwrap := dumpHeader(1)
	vwrap = binary.LittleEndian.AppendUint64(vwrap, 1)
	vwrap = binary.LittleEndian.AppendUint64(vwrap, 1<<64-1) // vlen: klen+vlen wraps
	vwrap = append(vwrap, "k"...)
	for name, data := range map[string][]byte{
		"klen-wraps":   wrap,
		"vlen-wraps":   vwrap,
		"huge-count":   dumpHeader(1e8),
		"short-header": []byte("KVD1\x01"),
		"bad-magic":    append([]byte("KVD2"), make([]byte, 8)...),
		"short-record": append(dumpHeader(1), make([]byte, 15)...),
	} {
		if _, err := kvstore.LoadDump(data); !errors.Is(err, kvstore.ErrCorrupt) {
			t.Errorf("%s (%d bytes): err = %v, want ErrCorrupt", name, len(data), err)
		}
	}
	if got, err := kvstore.LoadDump(dumpHeader(0)); err != nil || len(got) != 0 {
		t.Errorf("empty dump = %v, %v", got, err)
	}
	// A header claiming 10^8 records must not size a map for them.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _ = kvstore.LoadDump(dumpHeader(1e8))
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Errorf("a 12-byte dump claiming 1e8 records allocated %d bytes", n)
	}
}

// FuzzLoadDump feeds LoadDump arbitrary bytes, which must never panic, and
// saves the key/value set the input spells (see fuzzEntries) to check that
// any dump Save writes parses back to exactly what the store serves.
func FuzzLoadDump(f *testing.F) {
	f.Add(dumpBytes([2]string{"key", "value"}, [2]string{"", ""}))
	f.Add([]byte("alpha|one|beta|two|gamma|"))
	f.Add(dumpHeader(1e8))
	f.Add(append(binary.LittleEndian.AppendUint64(dumpHeader(1), 1<<64-8), make([]byte, 16)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		dump, err := kvstore.LoadDump(data)
		if err != nil && !errors.Is(err, kvstore.ErrCorrupt) {
			t.Fatalf("LoadDump error %v is not ErrCorrupt", err)
		}
		for key, val := range dump {
			if cap(val) != len(val) {
				t.Fatalf("value %q has cap %d > len %d", key, cap(val), len(val))
			}
		}
		entries := fuzzEntries(data)
		withStoreSpec(t, core.CopyOnPointerAccess, redisSpec(256), 256, func(k *kernel.Kernel, p *kernel.Proc, s *kvstore.Store) {
			for _, e := range entries {
				if err := s.Set(e[0], []byte(e[1])); err != nil {
					t.Errorf("set %q: %v", e[0], err)
					return
				}
			}
			if err := s.Save("/fuzz.rdb"); err != nil {
				t.Errorf("save: %v", err)
				return
			}
			ino, _ := k.VFS().Lookup("/fuzz.rdb")
			got, err := kvstore.LoadDump(ino.Data)
			if err != nil {
				t.Errorf("parse a saved dump: %v", err)
				return
			}
			if n, err := s.Count(); err != nil || uint64(len(got)) != n {
				t.Errorf("dump has %d keys, store holds %d (%v)", len(got), n, err)
				return
			}
			for _, e := range entries {
				served, err := s.Get(e[0])
				if err != nil || !bytes.Equal(got[e[0]], served) {
					t.Errorf("dump[%q] = %q, store serves %q (%v)", e[0], got[e[0]], served, err)
					return
				}
			}
		})
	})
}

// fuzzEntries splits a fuzz input at '|' into at most 64 key/value pairs
// (fields alternate key, value; keys are cut to 8 bytes) from its first
// 32 KiB, so the fuzzer steers key collisions and value lengths.
func fuzzEntries(data []byte) [][2]string {
	fields := bytes.Split(data[:min(len(data), 32<<10)], []byte("|"))
	var out [][2]string
	for i := 0; i < len(fields) && len(out) < 64; i += 2 {
		key := fields[i][:min(len(fields[i]), 8)]
		var val []byte
		if i+1 < len(fields) {
			val = fields[i+1]
		}
		out = append(out, [2]string{string(key), string(val)})
	}
	return out
}

// dumpHeader returns a dump header claiming count records.
func dumpHeader(count uint64) []byte {
	return binary.LittleEndian.AppendUint64([]byte("KVD1"), count)
}

// dumpBytes encodes key/value pairs in Save's format.
func dumpBytes(kvs ...[2]string) []byte {
	out := dumpHeader(uint64(len(kvs)))
	for _, kv := range kvs {
		out = binary.LittleEndian.AppendUint64(out, uint64(len(kv[0])))
		out = binary.LittleEndian.AppendUint64(out, uint64(len(kv[1])))
		out = append(append(out, kv[0]...), kv[1]...)
	}
	return out
}
