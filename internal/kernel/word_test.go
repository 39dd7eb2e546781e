package kernel_test

import (
	"encoding/binary"
	"errors"
	"testing"

	"ufork/internal/cap"
	"ufork/internal/kernel"
	"ufork/internal/vm"
)

// TestWordAccessMatchesBytePath: LoadU64 and StoreU64 check and translate
// a word once instead of staging it through Load and Store, and must fail
// exactly as those do: the same error values and messages for untagged,
// sealed, permission-less, out-of-bounds, unmapped and page-straddling
// accesses, and the same value and bytes moved when they succeed.
func TestWordAccessMatchesBytePath(t *testing.T) {
	k := newKernel(1, kernel.IsolationFull)
	if _, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		// The first page past the image is unmapped, the one before it is
		// the image's last page.
		end := p.Region.Base + p.Layout.Bytes()
		if p.AS.Lookup(vm.VPNOf(end)) != nil || p.AS.Lookup(vm.VPNOf(end-1)) == nil {
			t.Fatalf("page at %#x should be unmapped, the one before it mapped", end)
		}
		heap := p.HeapCap
		narrow, err := heap.SetBounds(20)
		if err != nil {
			t.Fatal(err)
		}
		cases := []struct {
			name    string
			c       cap.Capability
			off     uint64
			want    error
			wantErr bool
		}{
			{"untagged", heap.Untag(), 0, kernel.ErrCapFault, true},
			{"sealed", p.SyscallCap, 0, kernel.ErrCapFault, true},
			{"no-perms", heap.WithPerms(0), 0, kernel.ErrCapFault, true},
			{"out-of-bounds", narrow, 16, kernel.ErrCapFault, true},
			{"out-of-bounds-straddles", heap, heap.Len() - 4, kernel.ErrCapFault, true},
			{"unmapped", cap.Root(end, 64).WithPerms(cap.PermData), 8, kernel.ErrSegfault, true},
			{"straddles-unmapped", cap.Root(end-8, 64).WithPerms(cap.PermData), 4, kernel.ErrSegfault, true},
			{"straddles", heap, vm.PageSize - 4, nil, false},
			{"in-page", heap, 24, nil, false},
		}
		for _, tc := range cases {
			mem := p.Kernel().Mem
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], 0x1122334455667788)
			moved := mem.BytesMoved()
			byteStore := p.Store(tc.c, tc.off, b[:])
			byteMoved := mem.BytesMoved() - moved
			moved = mem.BytesMoved()
			wordStore := p.StoreU64(tc.c, tc.off, 0x1122334455667788)
			wordMoved := mem.BytesMoved() - moved
			sameErr(t, tc.name+"/store", wordStore, byteStore, tc.want, tc.wantErr)

			moved = mem.BytesMoved()
			byteLoad := p.Load(tc.c, tc.off, b[:])
			byteMoved += mem.BytesMoved() - moved
			moved = mem.BytesMoved()
			v, wordLoad := p.LoadU64(tc.c, tc.off)
			wordMoved += mem.BytesMoved() - moved
			sameErr(t, tc.name+"/load", wordLoad, byteLoad, tc.want, tc.wantErr)
			if wordMoved != byteMoved {
				t.Errorf("%s: the word path moved %d bytes, the byte path %d", tc.name, wordMoved, byteMoved)
			}
			if !tc.wantErr && (v != 0x1122334455667788 || binary.LittleEndian.Uint64(b[:]) != v) {
				t.Errorf("%s: LoadU64 = %#x, Load = %x", tc.name, v, b)
			}
		}
		// A word store clears the tags of the granules it touches.
		if err := p.StoreCap(heap, 16, heap); err != nil {
			t.Fatal(err)
		}
		if err := p.StoreU64(heap, 12, 7); err != nil {
			t.Fatal(err)
		}
		if c, err := p.LoadCap(heap, 16); err != nil || c.Tag() {
			t.Errorf("LoadCap after a straddling StoreU64 = %v, %v; want an untagged capability", c, err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
}

func sameErr(t *testing.T, name string, word, bytePath, want error, wantErr bool) {
	t.Helper()
	switch {
	case !wantErr:
		if word != nil || bytePath != nil {
			t.Errorf("%s: word %v, bytes %v; want success", name, word, bytePath)
		}
	case word == nil || bytePath == nil || !errors.Is(word, want) || word.Error() != bytePath.Error():
		t.Errorf("%s: word path %v, byte path %v; want the same %v", name, word, bytePath, want)
	}
}
