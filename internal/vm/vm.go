// Package vm implements the virtual-memory substrate: page tables with
// per-PTE permissions, reference-counted frame sharing, demand faults, and
// the Morello-style "fault on capability load" PTE bit that μFork's
// Copy-on-Pointer-Access strategy requires (§4.2).
//
// A single-address-space OS uses one AddressSpace shared by the kernel and
// every μprocess; a multi-address-space baseline (CheriBSD-like) creates
// one AddressSpace per process. All copy-on-write-style sharing is
// expressed with reference-counted Page descriptors: a write to a page with
// more than one reference triggers a copy, a write to the last reference
// simply takes ownership.
package vm

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"ufork/internal/obs"
	"ufork/internal/tmem"
)

// PageSize re-exports the frame size for convenience.
const PageSize = tmem.PageSize

// VPN is a virtual page number.
type VPN uint64

// VPNOf returns the virtual page number containing va.
func VPNOf(va uint64) VPN { return VPN(va / PageSize) }

// PageOff returns the offset of va within its page.
func PageOff(va uint64) uint64 { return va % PageSize }

// Prot is a PTE permission set.
type Prot uint8

const (
	// ProtRead permits data loads.
	ProtRead Prot = 1 << iota
	// ProtWrite permits data stores.
	ProtWrite
	// ProtExec permits instruction fetch.
	ProtExec
	// ProtCapLoadFault makes loads of tagged (capability) granules fault
	// while permitting plain data loads: the Morello load-side barrier bit
	// CoPA is built on. Plain reads proceed; a capability load traps so the
	// kernel can copy + relocate the page first.
	ProtCapLoadFault
)

// ProtRW is read+write.
const ProtRW = ProtRead | ProtWrite

// ProtRX is read+execute.
const ProtRX = ProtRead | ProtExec

// FaultKind classifies page faults.
type FaultKind int

const (
	// FaultNone means the access translated cleanly.
	FaultNone FaultKind = iota
	// FaultNotMapped means no PTE covers the address.
	FaultNotMapped
	// FaultNoRead means a load hit a page without ProtRead (Copy-on-Access
	// pages are mapped with no permissions at all).
	FaultNoRead
	// FaultWriteProtect means a store hit a read-only page (CoW/CoPA).
	FaultWriteProtect
	// FaultCapLoad means a capability load hit a ProtCapLoadFault page.
	FaultCapLoad
	// FaultNoExec means instruction fetch from a non-executable page.
	FaultNoExec
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultNotMapped:
		return "not-mapped"
	case FaultNoRead:
		return "no-read"
	case FaultWriteProtect:
		return "write-protect"
	case FaultCapLoad:
		return "cap-load"
	case FaultNoExec:
		return "no-exec"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// Fault describes a page fault.
type Fault struct {
	Kind FaultKind
	VA   uint64
}

func (f *Fault) Error() string {
	return fmt.Sprintf("vm: %v fault at %#x", f.Kind, f.VA)
}

// Access classifies a memory access for translation purposes.
type Access int

const (
	// AccRead is a plain data load.
	AccRead Access = iota
	// AccWrite is a data store.
	AccWrite
	// AccCapRead is a capability (tagged granule) load.
	AccCapRead
	// AccCapWrite is a capability store (a store for protection purposes).
	AccCapWrite
	// AccExec is instruction fetch.
	AccExec
)

// Page is a reference-counted descriptor of one physical frame. Multiple
// PTEs (across or within address spaces) may reference the same Page; the
// reference count drives copy-on-write decisions. Refs counts PTEs only:
// a page the kernel holds outside any page table (a named shared-memory
// object) is Pinned instead, and its last unmap leaves the frame
// allocated. The two fields share one word, so a Page stays 16 bytes.
type Page struct {
	PFN    tmem.PFN
	Refs   int32
	Pinned bool
}

// PTE is a page-table entry.
type PTE struct {
	Page *Page
	Prot Prot
}

// Errors returned by mapping operations.
var (
	ErrAlreadyMapped = errors.New("vm: page already mapped")
	ErrNotMapped     = errors.New("vm: page not mapped")
)

// Page-table geometry: PTEs live in fixed 512-entry directory nodes keyed
// by vpn>>dirBits, like a real two-level radix table. Directories slab-
// allocate their PTEs (one allocation per 512 mappings instead of one per
// Map), empty directories return to a free pool, and range walks iterate
// directory slots in index order — naturally ascending, no sorting.
const (
	dirBits = 9
	dirSize = 1 << dirBits
	dirMask = dirSize - 1
)

// dirPool recycles emptied directory nodes across every address space:
// fork/exit churn maps and unmaps tens of thousands of pages, a sweep
// boots hundreds of kernels, and the node allocations dominated.
var dirPool sync.Pool

// pageDir is one directory node. A slot is live iff its Page is non-nil;
// live counts them so the node can be pooled the moment it empties. A
// pooled node is always all-zero: every Unmap clears its slot.
type pageDir struct {
	ptes [dirSize]PTE
	live int
}

// AddressSpace is one page table. The zero value is not usable; call
// NewAddressSpace.
//
// *PTE pointers returned by Lookup/Translate/RangeVPNs point into
// directory storage and remain valid only until that mapping is unmapped.
type AddressSpace struct {
	mem  *tmem.Memory
	dirs map[VPN]*pageDir
	// mapped counts live PTEs across all directories.
	mapped int
	// scratch is the reusable VPN snapshot buffer for range walks.
	scratch []VPN
	// lastKey/lastDir cache the most recent directory hit and prevKey/
	// prevDir the one before it. Sequential page walks (region scans) and
	// walks that alternate between two directories (fork's parent→child
	// PTE copy) then skip the map lookup entirely.
	lastKey, prevKey VPN
	lastDir, prevDir *pageDir

	// Stats counts fault activity for experiment accounting.
	Stats Stats

	// hooks holds the optional chaos interception points; nil in production.
	hooks *Hooks

	// obs, when non-nil, observes page-table mutations (the memory-
	// provenance plane's mapping stream). Each mutation path pays one nil
	// check when no observer is installed.
	obs Observer
}

// Observer receives page-table mutation notifications. OnMap fires after a
// PTE is installed (the page's reference count already incremented);
// OnUnmap after a PTE is removed (reference count already decremented, the
// frame not yet freed); OnReplace when MakePrivate swaps a shared page for
// a private copy under an existing PTE. Callbacks run on the goroutine
// performing the mutation — the simulation goroutine.
type Observer interface {
	OnMap(vpn VPN, page *Page)
	OnUnmap(vpn VPN, page *Page)
	OnReplace(vpn VPN, old, new *Page)
}

// SetObserver installs o as the mutation observer; nil removes it.
func (as *AddressSpace) SetObserver(o Observer) { as.obs = o }

// numFaultKinds sizes the per-kind fault counter array.
const numFaultKinds = int(FaultNoExec) + 1

// Stats aggregates fault and copy counters per address space. Counters are
// atomic so concurrent host goroutines driving different kernels (and the
// race detector) see no data races, and Snapshot/Reset let harnesses drain
// them between benchmark iterations.
type Stats struct {
	faults        [numFaultKinds]obs.Counter
	PagesCopied   obs.Counter // frames duplicated by fault handling
	PagesAdopted  obs.Counter // last-reference pages taken over without a copy
	CapsRelocated obs.Counter // capabilities rewritten by relocation passes
}

// Fault returns the count of faults of the given kind.
func (s *Stats) Fault(kind FaultKind) uint64 {
	if int(kind) < 0 || int(kind) >= numFaultKinds {
		return 0
	}
	return s.faults[kind].Value()
}

// Snapshot returns every nonzero counter as a name→value map.
func (s *Stats) Snapshot() map[string]uint64 {
	out := make(map[string]uint64)
	for i := range s.faults {
		if v := s.faults[i].Value(); v > 0 {
			out["fault."+FaultKind(i).String()] = v
		}
	}
	if v := s.PagesCopied.Value(); v > 0 {
		out["pages-copied"] = v
	}
	if v := s.PagesAdopted.Value(); v > 0 {
		out["pages-adopted"] = v
	}
	if v := s.CapsRelocated.Value(); v > 0 {
		out["caps-relocated"] = v
	}
	return out
}

// NewAddressSpace creates an empty address space over physical memory mem.
func NewAddressSpace(mem *tmem.Memory) *AddressSpace {
	return &AddressSpace{
		mem:  mem,
		dirs: make(map[VPN]*pageDir),
	}
}

// Mem returns the backing physical memory.
func (as *AddressSpace) Mem() *tmem.Memory { return as.mem }

// MappedPages returns the number of mapped pages.
func (as *AddressSpace) MappedPages() int { return as.mapped }

// dir returns the directory node covering key (= vpn>>dirBits), creating
// one (from the pool when possible) if create is set.
func (as *AddressSpace) dir(key VPN, create bool) *pageDir {
	if as.lastDir != nil && as.lastKey == key {
		return as.lastDir
	}
	if as.prevDir != nil && as.prevKey == key {
		return as.prevDir
	}
	d := as.dirs[key]
	if d == nil {
		if !create {
			return nil
		}
		if d, _ = dirPool.Get().(*pageDir); d == nil {
			d = &pageDir{}
		}
		as.dirs[key] = d
	}
	as.prevKey, as.prevDir = as.lastKey, as.lastDir
	as.lastKey, as.lastDir = key, d
	return d
}

// Map installs a PTE for vpn referencing page with protection prot,
// incrementing the page's reference count.
func (as *AddressSpace) Map(vpn VPN, page *Page, prot Prot) error {
	if err := as.injectMapFailure(vpn); err != nil {
		return err
	}
	return as.install(as.dir(vpn>>dirBits, true), vpn, page, prot)
}

// install maps page at vpn, whose directory is d, unless vpn is mapped.
func (as *AddressSpace) install(d *pageDir, vpn VPN, page *Page, prot Prot) error {
	pte := &d.ptes[vpn&dirMask]
	if pte.Page != nil {
		return fmt.Errorf("%w: vpn %#x", ErrAlreadyMapped, vpn)
	}
	page.Refs++
	pte.Page, pte.Prot = page, prot
	d.live++
	as.mapped++
	if as.obs != nil {
		as.obs.OnMap(vpn, page)
	}
	return nil
}

// MapNew allocates a fresh zeroed frame, maps it at vpn and returns its
// page descriptor.
func (as *AddressSpace) MapNew(vpn VPN, prot Prot) (*Page, error) {
	pfn, err := as.mem.AllocFrame()
	if err != nil {
		return nil, err
	}
	page := &Page{PFN: pfn}
	if err := as.Map(vpn, page, prot); err != nil {
		_ = as.mem.FreeFrame(pfn)
		return nil, err
	}
	return page, nil
}

// MapNewRange maps n fresh zeroed frames at [vpn, vpn+n) with protection
// prot, exactly as a MapNew loop would: frames are allocated in ascending
// VPN order, hooks and the observer see each page as Map shows it to them,
// and a failure leaves the pages before it mapped. It returns the number
// of pages mapped. The page table is looked up once per directory and the
// page descriptors come from one slab sized to the run.
func (as *AddressSpace) MapNewRange(vpn VPN, n int, prot Prot) (int, error) {
	slab := NewPageSlab(n)
	var d *pageDir
	for i := 0; i < n; i++ {
		v := vpn + VPN(i)
		pfn, err := as.mem.AllocFrame()
		if err != nil {
			return i, err
		}
		// As in Map, an injected failure creates no directory.
		err = as.injectMapFailure(v)
		if err == nil {
			if d == nil || v&dirMask == 0 {
				d = as.dir(v>>dirBits, true)
			}
			err = as.install(d, v, slab.Page(pfn), prot)
		}
		if err != nil {
			_ = as.mem.FreeFrame(pfn)
			return i, err
		}
	}
	return n, nil
}

// PageSlab hands out page descriptors carved from one allocation sized to
// the run that maps them: loading an image or a CopyFull fork maps tens of
// thousands of fresh pages, and one heap object per descriptor was a
// measurable share of host time. Descriptors stay reachable through the
// page table; the slab is collected when its last page dies.
type PageSlab struct {
	block []Page
}

// NewPageSlab returns a slab of n descriptors.
func NewPageSlab(n int) PageSlab { return PageSlab{block: make([]Page, n)} }

// Page returns an unreferenced descriptor of frame pfn, allocating one of
// its own once the slab is used up.
func (s *PageSlab) Page(pfn tmem.PFN) *Page {
	if len(s.block) == 0 {
		return &Page{PFN: pfn}
	}
	p := &s.block[0]
	s.block = s.block[1:]
	p.PFN = pfn
	return p
}

// Unmap removes the PTE for vpn, dropping the page reference and freeing
// the frame when the last reference dies. A directory emptied by the unmap
// returns to the node pool.
func (as *AddressSpace) Unmap(vpn VPN) error {
	key := vpn >> dirBits
	d := as.dir(key, false)
	if d == nil || d.ptes[vpn&dirMask].Page == nil {
		return fmt.Errorf("%w: vpn %#x", ErrNotMapped, vpn)
	}
	_, err := as.unmapSlot(key, d, vpn&dirMask)
	return err
}

// unmapSlot clears the live PTE at slot of directory d (key key) and drops
// its page reference, freeing the frame when the last reference dies. It
// reports whether the unmap emptied d, which then went back to the node
// pool and must not be touched again.
func (as *AddressSpace) unmapSlot(key VPN, d *pageDir, slot VPN) (bool, error) {
	pte := &d.ptes[slot]
	page := pte.Page
	*pte = PTE{}
	d.live--
	as.mapped--
	emptied := d.live == 0
	if emptied {
		delete(as.dirs, key)
		dirPool.Put(d)
		// The pooled node can come back under another key: evict it.
		if as.lastDir == d {
			as.lastDir = nil
		}
		if as.prevDir == d {
			as.prevDir = nil
		}
	}
	page.Refs--
	if as.obs != nil {
		as.obs.OnUnmap(key<<dirBits|slot, page)
	}
	if page.Refs == 0 && !page.Pinned {
		return emptied, as.mem.FreeFrame(page.PFN)
	}
	return emptied, nil
}

// Lookup returns the PTE for vpn, or nil when unmapped.
func (as *AddressSpace) Lookup(vpn VPN) *PTE {
	d := as.dir(vpn>>dirBits, false)
	if d == nil {
		return nil
	}
	if pte := &d.ptes[vpn&dirMask]; pte.Page != nil {
		return pte
	}
	return nil
}

// Protect replaces the protection bits of an existing mapping.
func (as *AddressSpace) Protect(vpn VPN, prot Prot) error {
	pte := as.Lookup(vpn)
	if pte == nil {
		return fmt.Errorf("%w: vpn %#x", ErrNotMapped, vpn)
	}
	pte.Prot = prot
	return nil
}

// Translate resolves va for the given access. On success it returns the
// backing PFN and in-page offset; on failure a *Fault describing why.
// Fault statistics are recorded.
func (as *AddressSpace) Translate(va uint64, acc Access) (tmem.PFN, uint64, *Fault) {
	pte := as.Lookup(VPNOf(va))
	if pte == nil {
		return as.fault(FaultNotMapped, va)
	}
	switch acc {
	case AccRead:
		if pte.Prot&ProtRead == 0 {
			return as.fault(FaultNoRead, va)
		}
	case AccCapRead:
		if pte.Prot&ProtRead == 0 {
			return as.fault(FaultNoRead, va)
		}
		if pte.Prot&ProtCapLoadFault != 0 {
			return as.fault(FaultCapLoad, va)
		}
	case AccWrite, AccCapWrite:
		if pte.Prot&ProtWrite == 0 {
			if pte.Prot&ProtRead == 0 && pte.Prot&ProtExec == 0 {
				return as.fault(FaultNoRead, va)
			}
			return as.fault(FaultWriteProtect, va)
		}
	case AccExec:
		if pte.Prot&ProtExec == 0 {
			return as.fault(FaultNoExec, va)
		}
	}
	// Spurious-fault injection fires only on the shape a last-reference
	// adopt resolves without semantic effect: a write to a writable,
	// privately-held page.
	if as.hooks != nil && as.hooks.SpuriousFault != nil &&
		(acc == AccWrite || acc == AccCapWrite) &&
		pte.Prot&ProtWrite != 0 && pte.Page.Refs == 1 &&
		as.hooks.SpuriousFault(VPNOf(va)) {
		return as.fault(FaultWriteProtect, va)
	}
	return pte.Page.PFN, PageOff(va), nil
}

func (as *AddressSpace) fault(kind FaultKind, va uint64) (tmem.PFN, uint64, *Fault) {
	as.Stats.faults[kind].Inc()
	return tmem.NoFrame, 0, &Fault{Kind: kind, VA: va}
}

// MakePrivate gives vpn its own private copy of the underlying frame if it
// is currently shared, or adopts the existing frame when this mapping holds
// the last reference. It returns the (possibly new) page descriptor and
// whether a physical copy happened. This is the CoW/CoA/CoPA resolution
// primitive.
func (as *AddressSpace) MakePrivate(vpn VPN, prot Prot) (*Page, bool, error) {
	pte := as.Lookup(vpn)
	if pte == nil {
		return nil, false, fmt.Errorf("%w: vpn %#x", ErrNotMapped, vpn)
	}
	if pte.Page.Refs == 1 {
		// Last reference: adopt in place, no copy needed.
		pte.Prot = prot
		as.Stats.PagesAdopted.Inc()
		return pte.Page, false, nil
	}
	pfn, err := as.mem.AllocFrameForCopy()
	if err != nil {
		return nil, false, err
	}
	if err := as.mem.CopyFrame(pfn, pte.Page.PFN); err != nil {
		_ = as.mem.FreeFrame(pfn)
		return nil, false, err
	}
	old := pte.Page
	old.Refs--
	pte.Page = &Page{PFN: pfn, Refs: 1}
	pte.Prot = prot
	as.Stats.PagesCopied.Inc()
	if as.obs != nil {
		as.obs.OnReplace(vpn, old, pte.Page)
	}
	return pte.Page, true, nil
}

// VPNs returns all mapped virtual page numbers in ascending order. Only
// the directory keys need sorting — a few dozen entries where the old flat
// table sorted every mapped page.
func (as *AddressSpace) VPNs() []VPN {
	keys := make([]VPN, 0, len(as.dirs))
	for k := range as.dirs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]VPN, 0, as.mapped)
	for _, k := range keys {
		d := as.dirs[k]
		for i := VPN(0); i < dirSize; i++ {
			if d.ptes[i].Page != nil {
				out = append(out, k<<dirBits|i)
			}
		}
	}
	return out
}

// snapshotRange collects the mapped VPNs of [startVPN, endVPN) in ascending
// order into as.scratch (taking ownership of the buffer, so a walk callback
// that itself walks this address space degrades to a fresh allocation
// rather than corruption) and returns it. Directory keys are probed
// sequentially — regions are contiguous, so the probe count is span/512.
func (as *AddressSpace) snapshotRange(startVPN, endVPN VPN) []VPN {
	scratch := as.scratch[:0]
	as.scratch = nil
	if startVPN >= endVPN || as.mapped == 0 {
		return scratch
	}
	startKey, endKey := startVPN>>dirBits, (endVPN-1)>>dirBits
	for key := startKey; key <= endKey; key++ {
		d := as.dirs[key]
		if d == nil {
			continue
		}
		lo, hi := VPN(0), VPN(dirSize)
		if key == startKey {
			lo = startVPN & dirMask
		}
		if key == endKey {
			hi = (endVPN-1)&dirMask + 1
		}
		for i := lo; i < hi; i++ {
			if d.ptes[i].Page != nil {
				scratch = append(scratch, key<<dirBits|i)
			}
		}
	}
	return scratch
}

// RangeVPNs calls fn for each mapped page in [startVPN, endVPN), in
// ascending order. The set of pages visited is snapshotted up front: fn may
// map and unmap pages (anywhere) without disturbing the walk, and a page fn
// unmaps is simply skipped when its turn comes.
func (as *AddressSpace) RangeVPNs(startVPN, endVPN VPN, fn func(VPN, *PTE)) {
	scratch := as.snapshotRange(startVPN, endVPN)
	for _, vpn := range scratch {
		if pte := as.Lookup(vpn); pte != nil {
			fn(vpn, pte)
		}
	}
	as.scratch = scratch[:0]
}

// RegionUsage summarises memory occupancy of a virtual address range.
type RegionUsage struct {
	MappedPages  int
	PrivatePages int // pages whose frame has exactly one reference
	SharedPages  int
	PRSSBytes    uint64 // proportional set size: 4 KiB / refs per page
	PrivateBytes uint64 // private pages × 4 KiB
}

// Usage computes occupancy statistics for the pages of [base, base+size).
func (as *AddressSpace) Usage(base, size uint64) RegionUsage {
	var u RegionUsage
	as.RangeVPNs(VPNOf(base), VPNOf(base+size-1)+1, func(_ VPN, pte *PTE) {
		u.MappedPages++
		if pte.Page.Refs == 1 {
			u.PrivatePages++
			u.PRSSBytes += PageSize
		} else {
			u.SharedPages++
			u.PRSSBytes += PageSize / uint64(pte.Page.Refs)
		}
	})
	u.PrivateBytes = uint64(u.PrivatePages) * PageSize
	return u
}

// UnmapRange unmaps every mapped page in [base, base+size), in ascending
// order, walking each directory in place.
func (as *AddressSpace) UnmapRange(base, size uint64) error {
	startVPN, endVPN := VPNOf(base), VPNOf(base+size-1)+1
	if startVPN >= endVPN || as.mapped == 0 {
		return nil
	}
	startKey, endKey := startVPN>>dirBits, (endVPN-1)>>dirBits
	for key := startKey; key <= endKey; key++ {
		d := as.dirs[key]
		if d == nil {
			continue
		}
		lo, hi := VPN(0), VPN(dirSize)
		if key == startKey {
			lo = startVPN & dirMask
		}
		if key == endKey {
			hi = (endVPN-1)&dirMask + 1
		}
		for i := lo; i < hi; i++ {
			if d.ptes[i].Page == nil {
				continue
			}
			emptied, err := as.unmapSlot(key, d, i)
			if err != nil {
				return err
			}
			if emptied {
				break
			}
		}
	}
	return nil
}
