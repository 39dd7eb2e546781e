package vm

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"ufork/internal/tmem"
)

func newAS(t *testing.T, frames int) *AddressSpace {
	t.Helper()
	return NewAddressSpace(tmem.New(frames))
}

// One Page is allocated per CoW/CoPA copy fault; Pinned must fit beside
// Refs in one word.
func TestPageIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Page{}); n != 16 {
		t.Errorf("vm.Page is %d bytes, want 16", n)
	}
}

func TestMapUnmap(t *testing.T) {
	as := newAS(t, 8)
	page, err := as.MapNew(5, ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	if page.Refs != 1 {
		t.Fatalf("refs = %d", page.Refs)
	}
	if err := as.Map(5, page, ProtRW); !errors.Is(err, ErrAlreadyMapped) {
		t.Fatalf("remap: %v", err)
	}
	if as.MappedPages() != 1 {
		t.Fatalf("mapped = %d", as.MappedPages())
	}
	if err := as.Unmap(5); err != nil {
		t.Fatal(err)
	}
	if as.Mem().Allocated() != 0 {
		t.Fatal("frame leaked after last unmap")
	}
	if err := as.Unmap(5); !errors.Is(err, ErrNotMapped) {
		t.Fatalf("double unmap: %v", err)
	}
}

func TestSharedRefcount(t *testing.T) {
	mem := tmem.New(8)
	as1 := NewAddressSpace(mem)
	as2 := NewAddressSpace(mem)
	page, err := as1.MapNew(1, ProtRead)
	if err != nil {
		t.Fatal(err)
	}
	if err := as2.Map(7, page, ProtRead); err != nil {
		t.Fatal(err)
	}
	if page.Refs != 2 {
		t.Fatalf("refs = %d", page.Refs)
	}
	if err := as1.Unmap(1); err != nil {
		t.Fatal(err)
	}
	if page.Refs != 1 || mem.Allocated() != 1 {
		t.Fatalf("refs=%d allocated=%d", page.Refs, mem.Allocated())
	}
	if err := as2.Unmap(7); err != nil {
		t.Fatal(err)
	}
	if mem.Allocated() != 0 {
		t.Fatal("frame leaked")
	}
}

func TestTranslateFaults(t *testing.T) {
	as := newAS(t, 8)
	if _, err := as.MapNew(1, ProtRead); err != nil {
		t.Fatal(err)
	}
	if _, err := as.MapNew(2, ProtRW); err != nil {
		t.Fatal(err)
	}
	if _, err := as.MapNew(3, ProtRead|ProtCapLoadFault); err != nil {
		t.Fatal(err)
	}
	if _, err := as.MapNew(4, 0); err != nil { // CoA page: no access at all
		t.Fatal(err)
	}
	if _, err := as.MapNew(5, ProtRX); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		va   uint64
		acc  Access
		kind FaultKind
	}{
		{"read-ok", 1 * PageSize, AccRead, FaultNone},
		{"write-ro", 1 * PageSize, AccWrite, FaultWriteProtect},
		{"capwrite-ro", 1 * PageSize, AccCapWrite, FaultWriteProtect},
		{"write-ok", 2*PageSize + 100, AccWrite, FaultNone},
		{"capread-ok", 2 * PageSize, AccCapRead, FaultNone},
		{"capread-lcfault", 3 * PageSize, AccCapRead, FaultCapLoad},
		{"read-through-lcfault", 3 * PageSize, AccRead, FaultNone},
		{"coa-read", 4 * PageSize, AccRead, FaultNoRead},
		{"coa-write", 4 * PageSize, AccWrite, FaultNoRead},
		{"exec-ok", 5 * PageSize, AccExec, FaultNone},
		{"exec-data", 2 * PageSize, AccExec, FaultNoExec},
		{"unmapped", 99 * PageSize, AccRead, FaultNotMapped},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, fault := as.Translate(tc.va, tc.acc)
			got := FaultNone
			if fault != nil {
				got = fault.Kind
				if fault.VA != tc.va {
					t.Fatalf("fault VA = %#x, want %#x", fault.VA, tc.va)
				}
			}
			if got != tc.kind {
				t.Fatalf("fault = %v, want %v", got, tc.kind)
			}
		})
	}
	if as.Stats.Fault(FaultWriteProtect) != 2 {
		t.Fatalf("write-protect fault count = %d", as.Stats.Fault(FaultWriteProtect))
	}
}

func TestMakePrivateCopies(t *testing.T) {
	mem := tmem.New(8)
	parent := NewAddressSpace(mem)
	child := NewAddressSpace(mem)
	page, err := parent.MapNew(1, ProtRead)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.WriteBytes(page.PFN, 0, []byte("original")); err != nil {
		t.Fatal(err)
	}
	if err := child.Map(1, page, ProtRead); err != nil {
		t.Fatal(err)
	}

	newPage, copied, err := child.MakePrivate(1, ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	if !copied {
		t.Fatal("expected a physical copy for a shared page")
	}
	if newPage == page || newPage.Refs != 1 || page.Refs != 1 {
		t.Fatalf("bad descriptors: new=%+v old=%+v", newPage, page)
	}
	buf := make([]byte, 8)
	if err := mem.ReadBytes(newPage.PFN, 0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "original" {
		t.Fatalf("copy content = %q", buf)
	}
	// The parent's frame is untouched by child writes.
	if err := mem.WriteBytes(newPage.PFN, 0, []byte("CHANGED!")); err != nil {
		t.Fatal(err)
	}
	if err := mem.ReadBytes(page.PFN, 0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "original" {
		t.Fatal("child write leaked into parent frame")
	}
	if child.Stats.PagesCopied.Value() != 1 {
		t.Fatalf("PagesCopied = %d", child.Stats.PagesCopied.Value())
	}
}

func TestMakePrivateAdoptsLastRef(t *testing.T) {
	as := newAS(t, 8)
	page, err := as.MapNew(1, ProtRead)
	if err != nil {
		t.Fatal(err)
	}
	got, copied, err := as.MakePrivate(1, ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	if copied {
		t.Fatal("sole reference must be adopted, not copied")
	}
	if got != page {
		t.Fatal("adoption must keep the same page")
	}
	if as.Stats.PagesAdopted.Value() != 1 {
		t.Fatalf("PagesAdopted = %d", as.Stats.PagesAdopted.Value())
	}
	// And the new protection applies.
	if _, _, fault := as.Translate(PageSize, AccWrite); fault != nil {
		t.Fatalf("write after adopt: %v", fault)
	}
}

func TestUsageAccounting(t *testing.T) {
	mem := tmem.New(16)
	as1 := NewAddressSpace(mem)
	as2 := NewAddressSpace(mem)
	// 2 private pages + 2 pages shared between the spaces.
	if _, err := as1.MapNew(0, ProtRW); err != nil {
		t.Fatal(err)
	}
	if _, err := as1.MapNew(1, ProtRW); err != nil {
		t.Fatal(err)
	}
	for vpn := VPN(2); vpn < 4; vpn++ {
		p, err := as1.MapNew(vpn, ProtRead)
		if err != nil {
			t.Fatal(err)
		}
		if err := as2.Map(vpn, p, ProtRead); err != nil {
			t.Fatal(err)
		}
	}
	u := as1.Usage(0, 4*PageSize)
	if u.MappedPages != 4 || u.PrivatePages != 2 || u.SharedPages != 2 {
		t.Fatalf("usage = %+v", u)
	}
	wantPRSS := uint64(2*PageSize + 2*PageSize/2)
	if u.PRSSBytes != wantPRSS {
		t.Fatalf("PRSS = %d, want %d", u.PRSSBytes, wantPRSS)
	}
	if u.PrivateBytes != 2*PageSize {
		t.Fatalf("private = %d", u.PrivateBytes)
	}
}

func TestUnmapRange(t *testing.T) {
	as := newAS(t, 16)
	for vpn := VPN(0); vpn < 8; vpn++ {
		if _, err := as.MapNew(vpn, ProtRW); err != nil {
			t.Fatal(err)
		}
	}
	if err := as.UnmapRange(2*PageSize, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	if as.MappedPages() != 4 {
		t.Fatalf("mapped = %d", as.MappedPages())
	}
	for _, vpn := range []VPN{0, 1, 6, 7} {
		if as.Lookup(vpn) == nil {
			t.Fatalf("vpn %d should survive", vpn)
		}
	}
}

func TestRangeVPNsOrdered(t *testing.T) {
	as := newAS(t, 64)
	for _, vpn := range []VPN{9, 3, 27, 14, 1} {
		if _, err := as.MapNew(vpn, ProtRead); err != nil {
			t.Fatal(err)
		}
	}
	var got []VPN
	as.RangeVPNs(0, 100, func(vpn VPN, _ *PTE) { got = append(got, vpn) })
	want := []VPN{1, 3, 9, 14, 27}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

// Property: under random map/unmap/share/privatize sequences, the allocated
// frame count always equals the number of distinct page descriptors
// referenced, and refcounts equal the number of referencing PTEs.
func TestRefcountInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mem := tmem.New(256)
		spaces := []*AddressSpace{NewAddressSpace(mem), NewAddressSpace(mem)}
		for i := 0; i < 200; i++ {
			as := spaces[r.Intn(2)]
			vpn := VPN(r.Intn(32))
			switch r.Intn(4) {
			case 0:
				if as.Lookup(vpn) == nil {
					if _, err := as.MapNew(vpn, ProtRW); err != nil {
						return false
					}
				}
			case 1:
				if as.Lookup(vpn) != nil {
					if err := as.Unmap(vpn); err != nil {
						return false
					}
				}
			case 2: // share a page into the other space
				other := spaces[0]
				if as == other {
					other = spaces[1]
				}
				if pte := as.Lookup(vpn); pte != nil && other.Lookup(vpn) == nil {
					if err := other.Map(vpn, pte.Page, ProtRead); err != nil {
						return false
					}
				}
			case 3:
				if as.Lookup(vpn) != nil {
					if _, _, err := as.MakePrivate(vpn, ProtRW); err != nil {
						return false
					}
				}
			}
		}
		// Check invariants.
		refs := make(map[*Page]int32)
		for _, as := range spaces {
			for _, vpn := range as.VPNs() {
				refs[as.Lookup(vpn).Page]++
			}
		}
		for p, n := range refs {
			if p.Refs != n {
				return false
			}
		}
		return mem.Allocated() == len(refs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestDirCacheEvictsReleasedDir drives the two-slot directory cache the
// way fork's PTE copy does (alternating between directories A and B), then
// empties B while it sits in either slot. B's node goes back to the pool,
// so a stale slot would hand it out under key B while the pool also gives
// it to directory C: a Map into B would vanish from the page table and
// collide with C's mappings.
func TestDirCacheEvictsReleasedDir(t *testing.T) {
	const n = 4
	a, b, c, d := VPN(0), VPN(dirSize), VPN(2*dirSize), VPN(3*dirSize)
	for _, tc := range []struct {
		name string
		mapD bool // a miss on D pushes B from the last slot to the previous one
	}{{"B-in-last-slot", false}, {"B-in-prev-slot", true}} {
		t.Run(tc.name, func(t *testing.T) {
			as := newAS(t, 16)
			want := []VPN{a, a + 1, a + 2, a + 3, b, c}
			for i := VPN(0); i < n; i++ {
				if _, err := as.MapNew(a+i, ProtRW); err != nil {
					t.Fatal(err)
				}
				if _, err := as.MapNew(b+i, ProtRW); err != nil {
					t.Fatal(err)
				}
			}
			for i := VPN(0); i < n; i++ {
				if as.Lookup(a+i) == nil || as.Lookup(b+i) == nil {
					t.Fatalf("page %d unmapped after alternating maps", i)
				}
			}
			slot := &as.lastDir
			if tc.mapD {
				if _, err := as.MapNew(d, ProtRW); err != nil {
					t.Fatal(err)
				}
				slot, want = &as.prevDir, append(want, d)
			}
			if *slot != as.dirs[b>>dirBits] {
				t.Fatalf("setup: B is not in the %s", tc.name)
			}
			for i := VPN(0); i < n; i++ {
				if err := as.Unmap(b + i); err != nil {
					t.Fatal(err)
				}
			}
			if pte := as.Lookup(b); pte != nil {
				t.Fatalf("lookup in emptied B = %+v, want nil", *pte)
			}
			pb, err := as.MapNew(b, ProtRW)
			if err != nil {
				t.Fatal(err)
			}
			pc, err := as.MapNew(c, ProtRead)
			if err != nil {
				t.Fatalf("map C: %v", err)
			}
			if pte := as.Lookup(b); pte == nil || pte.Page != pb {
				t.Fatalf("lookup B = %v, want the page remapped there", pte)
			}
			if pte := as.Lookup(b + 1); pte != nil {
				t.Fatalf("lookup B+1 = %+v, want nil", *pte)
			}
			if pte := as.Lookup(c); pte == nil || pte.Page != pc || pte.Prot != ProtRead {
				t.Fatalf("lookup C = %v, want its own read-only page", pte)
			}
			if got := as.VPNs(); !slices.Equal(got, want) || as.MappedPages() != len(want) {
				t.Fatalf("VPNs = %v (mapped %d), want %v", got, as.MappedPages(), want)
			}
		})
	}
}

// mutationLog is an Observer that records every page-table mutation.
type mutationLog []string

func (l *mutationLog) OnMap(vpn VPN, p *Page) {
	*l = append(*l, fmt.Sprintf("map %d pfn %d refs %d", vpn, p.PFN, p.Refs))
}

func (l *mutationLog) OnUnmap(vpn VPN, p *Page) {
	*l = append(*l, fmt.Sprintf("unmap %d pfn %d refs %d", vpn, p.PFN, p.Refs))
}

func (l *mutationLog) OnReplace(vpn VPN, old, new *Page) {
	*l = append(*l, fmt.Sprintf("replace %d pfn %d -> %d", vpn, old.PFN, new.PFN))
}

// TestMapNewRangeMatchesMapNewLoop: MapNewRange hands out the PFNs, PTEs,
// frame and mapping observer calls, counts and errors that a MapNew loop
// does: across directory boundaries, on an already mapped page, on an
// injected PTE failure and out of memory, with and without per-CPU frame
// caches.
func TestMapNewRangeMatchesMapNewLoop(t *testing.T) {
	loop := func(as *AddressSpace, vpn VPN, n int, prot Prot) (int, error) {
		for i := 0; i < n; i++ {
			if _, err := as.MapNew(vpn+VPN(i), prot); err != nil {
				return i, err
			}
		}
		return n, nil
	}
	ranged := func(as *AddressSpace, vpn VPN, n int, prot Prot) (int, error) {
		return as.MapNewRange(vpn, n, prot)
	}
	run := func(mapRange func(*AddressSpace, VPN, int, Prot) (int, error), caches, failMap, observe bool) []string {
		mem := tmem.New(2000)
		if caches {
			mem.EnableCPUCaches(2, 8)
		}
		var log mutationLog
		mem.SetFrameObserver(func(alloc bool, pfn tmem.PFN) { log = append(log, fmt.Sprintf("frame %v %d", alloc, pfn)) })
		as := NewAddressSpace(mem)
		if failMap {
			as.SetHooks(&Hooks{FailMap: func(vpn VPN) bool { return vpn == 520 }})
		}
		if observe {
			as.SetObserver(&log)
		}
		for _, r := range []struct {
			vpn  VPN
			n    int
			prot Prot
		}{
			{10, 3, ProtRW},
			{500, 600, ProtRead}, // three directories
			{5, 10, ProtRW},      // runs into VPN 10
			{1100, 0, ProtRW},
			{3000, 2000, ProtRX}, // out of frames
		} {
			mem.SetCPU(int(r.vpn) % 2)
			n, err := mapRange(as, r.vpn, r.n, r.prot)
			log = append(log, fmt.Sprintf("range %d+%d: %d %v", r.vpn, r.n, n, err))
		}
		for _, vpn := range as.VPNs() {
			pte := as.Lookup(vpn)
			log = append(log, fmt.Sprintf("pte %d pfn %d refs %d prot %d", vpn, pte.Page.PFN, pte.Page.Refs, pte.Prot))
		}
		log = append(log, fmt.Sprintf("mapped %d allocated %d peak %d free %d",
			as.MappedPages(), mem.Allocated(), mem.PeakAllocated(), mem.FreeFrames()))
		if err := as.UnmapRange(0, 1<<30); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			pfn, err := mem.AllocFrame()
			log = append(log, fmt.Sprintf("next %d %v", pfn, err))
		}
		return log
	}
	for _, caches := range []bool{false, true} {
		for _, failMap := range []bool{false, true} {
			for _, observe := range []bool{false, true} {
				want := run(loop, caches, failMap, observe)
				got := run(ranged, caches, failMap, observe)
				if !slices.Equal(got, want) {
					for i := range min(len(got), len(want)) {
						if got[i] != want[i] {
							t.Fatalf("caches=%v failMap=%v observe=%v: line %d: MapNewRange %q, MapNew loop %q",
								caches, failMap, observe, i, got[i], want[i])
						}
					}
					t.Fatalf("caches=%v failMap=%v observe=%v: MapNewRange logs %d lines, the MapNew loop %d",
						caches, failMap, observe, len(got), len(want))
				}
			}
		}
	}
}

// TestUnmapRangePFNOrder pins the frames handed out after unmapping a
// mixed shared/private range: UnmapRange frees in ascending VPN order
// across a directory boundary, a shared page's frame stays with its other
// mapping, and the free list hands the freed frames back most recent
// first.
func TestUnmapRangePFNOrder(t *testing.T) {
	as := newAS(t, 16)
	if _, err := as.MapNewRange(510, 4, ProtRW); err != nil { // PFNs 0-3
		t.Fatal(err)
	}
	shared, err := as.MapNew(600, ProtRW) // PFN 4
	if err != nil {
		t.Fatal(err)
	}
	if err := as.Map(514, shared, ProtRead); err != nil {
		t.Fatal(err)
	}
	if _, err := as.MapNew(516, ProtRW); err != nil { // PFN 5
		t.Fatal(err)
	}
	if err := as.UnmapRange(510*PageSize, 7*PageSize); err != nil {
		t.Fatal(err)
	}
	if got := as.VPNs(); !slices.Equal(got, []VPN{600}) || shared.Refs != 1 {
		t.Fatalf("after UnmapRange: VPNs %v, shared refs %d; want [600] and 1", got, shared.Refs)
	}
	var got []tmem.PFN
	for i := 0; i < 6; i++ {
		pfn, err := as.Mem().AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, pfn)
	}
	if want := []tmem.PFN{5, 3, 2, 1, 0, 6}; !slices.Equal(got, want) {
		t.Fatalf("PFNs after UnmapRange = %v, want %v", got, want)
	}
}
