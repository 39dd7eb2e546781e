package kvstore

import (
	"hash/fnv"
	"testing"
)

// TestHashKeyIsFNV1a: bucket placement, and with it the order of every
// dump, depends on hashKey staying 64-bit FNV-1a.
func TestHashKeyIsFNV1a(t *testing.T) {
	for _, key := range []string{"", "a", "key-0001", "k99", "\x00\xff", string(make([]byte, MaxKeyLen))} {
		h := fnv.New64a()
		h.Write([]byte(key))
		if got, want := hashKey(key), h.Sum64(); got != want {
			t.Errorf("hashKey(%q) = %#x, want %#x", key, got, want)
		}
	}
}
