// Package invariant audits a running kernel against the global
// conservation laws the μFork design depends on. It is the third pillar of
// the chaos harness: fault injection and fuzzing perturb the kernel,
// Check proves the perturbation broke nothing.
//
// The laws audited, and where they come from:
//
//   - Frame conservation (no leak, no double-own): every physical frame is
//     either on the free list or reachable through exactly one page
//     descriptor, whose reference count equals the number of PTEs (across
//     all address spaces) plus shared-memory registry roots that hold it.
//     Fork engines juggle frames across regions and abort paths; a frame
//     that escapes this accounting is lost until reboot.
//   - Tag-plane consistency: per frame, the cached tag population count
//     matches the packed bitset, and every tagged granule carries a tagged
//     capability whose cursor/base agree with the data bytes — the silent
//     tag-loss failure mode CHERI porting studies warn about.
//   - Capability confinement (monotonicity at region granularity, §4.2):
//     under isolation, no unsealed capability reachable by a μprocess —
//     register file or stored in a non-pending page of its region —
//     extends beyond its region. Pages still pending relocation are
//     exempt by design: they hold ancestor-region capabilities that the
//     copy machinery must relocate before the child can load them.
//   - Region disjointness (Fig. 1): live μprocess regions never overlap
//     each other or the kernel region in the single address space.
//   - CoW/CoA/CoPA PTE legality: a frame referenced by more than one PTE
//     is mapped read-only everywhere (except explicit shared-memory
//     mappings); a PTE with the fault-on-capability-load bit, or with no
//     permissions at all, must be tracked as pending relocation by its
//     owning μprocess; pending pages are mapped and inside their region.
//   - No orphan mappings: every mapped page of the shared address space
//     belongs to the kernel region or a live μprocess region.
package invariant

import (
	"fmt"
	"sort"
	"strings"

	"ufork/internal/cap"
	"ufork/internal/kernel"
	"ufork/internal/tmem"
	"ufork/internal/vm"
)

// Violations is the error type Check returns: every broken invariant, in
// deterministic order.
type Violations struct {
	List []string
}

func (v *Violations) Error() string {
	const max = 20
	n := len(v.List)
	shown := v.List
	if n > max {
		shown = shown[:max]
	}
	s := fmt.Sprintf("%d invariant violation(s):\n  %s", n, strings.Join(shown, "\n  "))
	if n > max {
		s += fmt.Sprintf("\n  ... and %d more", n-max)
	}
	return s
}

type checker struct {
	k    *kernel.Kernel
	list []string
}

func (c *checker) failf(format string, args ...any) {
	c.list = append(c.list, fmt.Sprintf(format, args...))
}

// Check audits kernel k and returns a *Violations error when any invariant
// is broken, nil otherwise. It is read-only and deterministic: safe to
// call between any two syscalls of a simulation (from within a task, or
// after Run returns).
func Check(k *kernel.Kernel) error {
	c := &checker{k: k}
	c.frameConservation()
	procs := c.sortedProcs()
	entries, pages := c.walkAddressSpaces(procs)
	c.ownership(entries, pages)
	c.tagPlane()
	c.pteLegality(entries, procs)
	c.pssConservation(entries, procs)
	c.memmapPlane(entries)
	c.regions(procs)
	c.procState(procs)
	if len(c.list) == 0 {
		return nil
	}
	sort.Strings(c.list)
	return &Violations{List: c.list}
}

// sortedProcs returns every process (live and zombie) in PID order, for
// deterministic iteration.
func (c *checker) sortedProcs() []*kernel.Proc {
	m := c.k.Procs()
	pids := make([]kernel.PID, 0, len(m))
	for pid := range m {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	out := make([]*kernel.Proc, len(pids))
	for i, pid := range pids {
		out[i] = m[pid]
	}
	return out
}

// frameConservation: allocated + free must cover the whole bank.
func (c *checker) frameConservation() {
	mem := c.k.Mem
	if got := mem.Allocated() + mem.FreeFrames(); got != mem.NumFrames() {
		c.failf("frame conservation: allocated %d + free %d = %d != %d total frames",
			mem.Allocated(), mem.FreeFrames(), got, mem.NumFrames())
	}
}

// walkEntry is one observed PTE.
type walkEntry struct {
	as  *vm.AddressSpace
	vpn vm.VPN
	pte *vm.PTE
}

// walkAddressSpaces snapshots every PTE of every distinct address space
// and returns the entries plus the per-descriptor observed reference
// counts.
func (c *checker) walkAddressSpaces(procs []*kernel.Proc) ([]walkEntry, map[*vm.Page]int32) {
	seen := make(map[*vm.AddressSpace]bool)
	var ases []*vm.AddressSpace
	add := func(as *vm.AddressSpace) {
		if as != nil && !seen[as] {
			seen[as] = true
			ases = append(ases, as)
		}
	}
	add(c.k.SharedAS)
	for _, p := range procs {
		add(p.AS)
	}
	var entries []walkEntry
	pages := make(map[*vm.Page]int32)
	for _, as := range ases {
		for _, vpn := range as.VPNs() {
			pte := as.Lookup(vpn)
			entries = append(entries, walkEntry{as: as, vpn: vpn, pte: pte})
			pages[pte.Page]++
		}
	}
	return entries, pages
}

// ownership: each PFN held by exactly one descriptor, each descriptor's
// reference count equal to its observed PTE count (plus shm registry
// roots), every allocated frame reachable, every referenced frame
// allocated.
func (c *checker) ownership(entries []walkEntry, pages map[*vm.Page]int32) {
	mem := c.k.Mem
	owner := make(map[tmem.PFN]*vm.Page, len(pages))
	for _, e := range entries {
		page := e.pte.Page
		if prev, ok := owner[page.PFN]; ok && prev != page {
			c.failf("frame double-owned: pfn %d reachable through two distinct page descriptors", page.PFN)
		} else {
			owner[page.PFN] = page
		}
	}
	// Shared-memory objects are additional roots: their pages stay
	// allocated while unmapped (refs 0), and mapped shm pages must use the
	// registry's own descriptor.
	shmPages := make(map[*vm.Page]bool)
	for _, obj := range c.k.ShmObjects() {
		for _, page := range obj.Pages() {
			shmPages[page] = true
			if prev, ok := owner[page.PFN]; ok && prev != page {
				c.failf("frame double-owned: shm %q pfn %d also reachable through a foreign descriptor", obj.Name, page.PFN)
			} else {
				owner[page.PFN] = page
			}
			if page.Refs != pages[page] {
				c.failf("refcount drift: shm %q pfn %d has Refs=%d but %d PTEs reference it",
					obj.Name, page.PFN, page.Refs, pages[page])
			}
		}
	}
	for page, observed := range pages {
		if shmPages[page] {
			continue // already checked, including the unmapped-refs-0 case
		}
		if page.Refs != observed {
			c.failf("refcount drift: pfn %d has Refs=%d but %d PTEs reference it", page.PFN, page.Refs, observed)
		}
	}
	// Leak and dangling checks.
	mem.ForEachAllocated(func(pfn tmem.PFN) {
		if owner[pfn] == nil {
			c.failf("frame leaked: pfn %d allocated but reachable from no page table or shm object", pfn)
		}
	})
	for pfn := range owner {
		if _, err := mem.CountTags(pfn); err != nil {
			c.failf("dangling mapping: pfn %d referenced by a PTE or shm object but not allocated", pfn)
		}
	}
}

// tagPlane: audit every allocated frame's tag/capability consistency.
func (c *checker) tagPlane() {
	mem := c.k.Mem
	mem.ForEachAllocated(func(pfn tmem.PFN) {
		if err := mem.AuditFrame(pfn); err != nil {
			c.failf("tag plane: %v", err)
		}
	})
}

// ownerOf returns the live process whose region contains va.
func ownerOf(procs []*kernel.Proc, as *vm.AddressSpace, va uint64) *kernel.Proc {
	for _, p := range procs {
		if !p.Exited() && p.AS == as && p.Region.Contains(va) {
			return p
		}
	}
	return nil
}

// pteLegality: the CoW/CoA/CoPA state machine, shared-page write
// protection, and orphan-mapping detection.
func (c *checker) pteLegality(entries []walkEntry, procs []*kernel.Proc) {
	shm := make(map[*vm.Page]bool)
	for _, obj := range c.k.ShmObjects() {
		for _, page := range obj.Pages() {
			shm[page] = true
		}
	}
	for _, e := range entries {
		va := uint64(e.vpn) * vm.PageSize
		if e.pte.Page.Refs > 1 && e.pte.Prot&vm.ProtWrite != 0 && !shm[e.pte.Page] {
			c.failf("writable shared page: vpn %#x maps pfn %d (refs=%d) with write permission outside shm",
				e.vpn, e.pte.Page.PFN, e.pte.Page.Refs)
		}
		owner := ownerOf(procs, e.as, va)
		if e.pte.Prot&vm.ProtCapLoadFault != 0 {
			if owner == nil || !owner.Pending.Contains(e.vpn) {
				c.failf("CoPA state: vpn %#x has fault-on-cap-load set but is not pending relocation", e.vpn)
			}
		}
		if e.pte.Prot == 0 {
			if owner == nil || !owner.Pending.Contains(e.vpn) {
				c.failf("CoA state: vpn %#x mapped with no permissions but not pending relocation", e.vpn)
			}
		}
		if e.as == c.k.SharedAS && owner == nil && !c.k.KernelRegion.Contains(va) {
			c.failf("orphan mapping: vpn %#x mapped in the shared address space but inside no live region", e.vpn)
		}
	}
}

// pssConservation: the proportional-set-size decomposition conserves
// frames. Every frame reachable from a live μprocess region must have its
// reference count fully explained by those live mappings (each PTE is a
// 1/Refs share, so the shares of one frame sum to exactly one frame), and
// the distinct frames so reachable — plus unmapped shared-memory frames,
// which the registry roots — must account for every allocated frame.
// Together these make ΣPSS across live μprocesses equal the live frame
// population, the conservation law the smaps plane advertises.
func (c *checker) pssConservation(entries []walkEntry, procs []*kernel.Proc) {
	if !c.k.Machine.SingleAddressSpace {
		return
	}
	observed := make(map[*vm.Page]int32)
	for _, e := range entries {
		va := uint64(e.vpn) * vm.PageSize
		if c.k.KernelRegion.Contains(va) {
			continue
		}
		if ownerOf(procs, e.as, va) == nil {
			continue // reported as an orphan mapping already
		}
		observed[e.pte.Page]++
	}
	for page, n := range observed {
		if page.Refs != n {
			c.failf("pss conservation: pfn %d split across %d live-μprocess PTEs but Refs=%d — its PSS shares do not sum to one frame",
				page.PFN, n, page.Refs)
		}
	}
	unmappedShm := 0
	for _, obj := range c.k.ShmObjects() {
		for _, page := range obj.Pages() {
			if page.Refs == 0 {
				unmappedShm++
			}
		}
	}
	if got := len(observed) + unmappedShm; got != c.k.Mem.Allocated() {
		c.failf("pss conservation: ΣPSS accounts for %d distinct frames (+%d unmapped shm) but the allocator holds %d",
			len(observed), unmappedShm, c.k.Mem.Allocated())
	}
}

// memmapPlane: when the memory-provenance plane is armed, its ledger must
// agree with ground truth frame-for-frame — same live-frame population as
// the allocator, and per-frame mapping counts equal to the page tables'.
func (c *checker) memmapPlane(entries []walkEntry) {
	pl := c.k.Memmap
	if pl == nil || !c.k.Machine.SingleAddressSpace {
		return
	}
	if live := pl.LiveFrames(); live != c.k.Mem.Allocated() {
		c.failf("memmap plane: ledger tracks %d live frames but the allocator holds %d", live, c.k.Mem.Allocated())
	}
	counts := make(map[tmem.PFN]int)
	for _, e := range entries {
		if e.as == c.k.SharedAS {
			counts[e.pte.Page.PFN]++
		}
	}
	for pfn, n := range counts {
		refs, ok := pl.FrameRefs(pfn)
		if !ok {
			c.failf("memmap plane: pfn %d is mapped but absent from the ledger", pfn)
			continue
		}
		if refs != n {
			c.failf("memmap plane: pfn %d has %d PTEs but the ledger records %d references", pfn, n, refs)
		}
	}
}

// regions: live-region disjointness in the single address space.
func (c *checker) regions(procs []*kernel.Proc) {
	if !c.k.Machine.SingleAddressSpace {
		return
	}
	type owned struct {
		r   kernel.Region
		pid kernel.PID
	}
	var rs []owned
	rs = append(rs, owned{c.k.KernelRegion, 0})
	for _, p := range procs {
		if !p.Exited() {
			rs = append(rs, owned{p.Region, p.PID})
		}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].r.Base < rs[j].r.Base })
	for i := 1; i < len(rs); i++ {
		if rs[i].r.Base < rs[i-1].r.Top() {
			c.failf("region overlap: [%#x,%#x) (pid %d) overlaps [%#x,%#x) (pid %d)",
				rs[i-1].r.Base, rs[i-1].r.Top(), rs[i-1].pid,
				rs[i].r.Base, rs[i].r.Top(), rs[i].pid)
		}
	}
}

// procState: per-process pending-set sanity and capability confinement.
func (c *checker) procState(procs []*kernel.Proc) {
	for _, p := range procs {
		if p.Exited() {
			continue
		}
		p.Pending.Range(func(vpn vm.VPN) bool {
			va := uint64(vpn) * vm.PageSize
			if !p.Region.Contains(va) {
				c.failf("pending outside region: pid %d tracks vpn %#x beyond [%#x,%#x)",
					p.PID, vpn, p.Region.Base, p.Region.Top())
			} else if p.AS.Lookup(vpn) == nil {
				c.failf("pending unmapped: pid %d tracks vpn %#x with no PTE", p.PID, vpn)
			}
			return true
		})
		if c.k.Iso == kernel.IsolationNone {
			continue
		}
		c.registerConfinement(p)
		c.storedCapConfinement(p)
	}
}

// registerConfinement: no unsealed register capability of p may exceed its
// region (§4.2: "no parent capability ever leaks to the child").
func (c *checker) registerConfinement(p *kernel.Proc) {
	named := []struct {
		name string
		c    cap.Capability
	}{
		{"DDC", p.DDC}, {"PCC", p.PCC}, {"StackCap", p.StackCap},
		{"HeapCap", p.HeapCap}, {"GOTCap", p.GOTCap}, {"MetaCap", p.MetaCap},
		{"DataCap", p.DataCap}, {"TLSCap", p.TLSCap},
	}
	for _, nc := range named {
		c.confined(p, nc.name, nc.c)
	}
	for i, rc := range p.Regs {
		c.confined(p, fmt.Sprintf("Reg[%d]", i), rc)
	}
}

func (c *checker) confined(p *kernel.Proc, what string, cp cap.Capability) {
	if !cp.Tag() || cp.IsSealed() {
		return // untagged values and sealed sentries carry no usable authority
	}
	if cp.Base() < p.Region.Base || cp.Top() > p.Region.Top() {
		c.failf("capability escape: pid %d %s [%#x,%#x) exceeds region [%#x,%#x)",
			p.PID, what, cp.Base(), cp.Top(), p.Region.Base, p.Region.Top())
	}
}

// storedCapConfinement scans the frames of p's region: every capability
// stored in a page that is NOT pending relocation must already be confined
// to p's region. Pending pages legitimately hold ancestor capabilities;
// shm pages are shared data, not part of the image.
func (c *checker) storedCapConfinement(p *kernel.Proc) {
	shm := make(map[tmem.PFN]bool)
	for _, obj := range c.k.ShmObjects() {
		for _, page := range obj.Pages() {
			shm[page.PFN] = true
		}
	}
	mem := c.k.Mem
	p.AS.RangeVPNs(vm.VPNOf(p.Region.Base), vm.VPNOf(p.Region.Top()-1)+1, func(vpn vm.VPN, pte *vm.PTE) {
		if p.Pending.Contains(vpn) || shm[pte.Page.PFN] {
			return
		}
		_ = mem.ForEachTagged(pte.Page.PFN, func(off uint64) error {
			stored, err := mem.LoadCap(pte.Page.PFN, off)
			if err != nil {
				c.failf("stored cap load: pid %d vpn %#x+%#x: %v", p.PID, vpn, off, err)
				return nil
			}
			c.confined(p, fmt.Sprintf("mem[%#x+%#x]", uint64(vpn)*vm.PageSize, off), stored)
			return nil
		})
	})
}
