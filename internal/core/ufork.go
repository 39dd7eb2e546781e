// Package core implements μFork: POSIX fork within a single address space
// (§3–§4 of the paper).
//
// On fork, the child μprocess receives a fresh contiguous region of the
// shared virtual address space and is initially mapped onto the parent's
// physical pages. Pages containing the GOT and allocator metadata are
// copied and relocated eagerly; everything else is copied lazily under one
// of three strategies (§3.8):
//
//   - CopyFull — synchronous copy of the whole image at fork;
//   - CopyOnAccess (CoA) — pages are mapped inaccessible to the child; any
//     child access, and any parent write, triggers copy + relocation;
//   - CopyOnPointerAccess (CoPA) — pages are mapped read-only with the
//     fault-on-capability-load bit; parent/child writes and child
//     capability loads trigger copy + relocation, while plain child reads
//     proceed on the shared page.
//
// Relocation uses the CHERI tag plane: a 16-byte-stride scan of each copied
// page finds every genuine capability; those pointing outside the child's
// region are rebased to the corresponding offset of the child region and
// their bounds clamped to it, so no parent capability ever leaks to the
// child (§4.2–§4.3).
package core

import (
	"fmt"

	"ufork/internal/cap"
	"ufork/internal/kernel"
	"ufork/internal/sim"
	"ufork/internal/tmem"
	"ufork/internal/vm"
)

// CopyMode selects the state-transfer strategy (§3.8).
type CopyMode int

const (
	// CopyOnPointerAccess is the paper's headline optimisation (CoPA).
	CopyOnPointerAccess CopyMode = iota
	// CopyOnAccess (CoA) is the fallback for hardware without a
	// fault-on-capability-load bit.
	CopyOnAccess
	// CopyFull synchronously copies the entire parent image at fork.
	CopyFull
)

func (m CopyMode) String() string {
	switch m {
	case CopyOnPointerAccess:
		return "CoPA"
	case CopyOnAccess:
		return "CoA"
	case CopyFull:
		return "full-copy"
	default:
		return "unknown"
	}
}

// Engine is the μFork fork engine.
type Engine struct {
	Mode CopyMode
	// Parallelism bounds the host-side worker pool that fans eager
	// per-page copy+relocate work across goroutines. Zero means one
	// worker per available CPU; one forces the serial path. Virtual-time
	// results are invariant under this setting — only host wall-clock
	// changes.
	Parallelism int
}

// New returns a μFork engine using the given copy strategy.
func New(mode CopyMode) *Engine { return &Engine{Mode: mode} }

// Name implements kernel.ForkEngine.
func (e *Engine) Name() string { return "uFork/" + e.Mode.String() }

// Fork implements kernel.ForkEngine (§3.5 "Forking a μprocess").
func (e *Engine) Fork(k *kernel.Kernel, parent, child *kernel.Proc) (kernel.ForkStats, error) {
	var stats kernel.ForkStats
	m := k.Machine

	// 1. Reserve enough contiguous virtual memory for the entire child
	// μprocess (§3.5 step 1). The reservation is a bump-allocator hit (or
	// a size-class reuse), so no virtual time is modelled for it; the
	// phase still appears in traces with its true (zero) duration.
	child.AS = parent.AS // single address space
	child.Region = k.ReserveRegion(parent.Region.Size, parent.Spec.Name)
	child.Pending = vm.NewPageSet(vm.VPNOf(child.Region.Base), int(child.Region.Size/vm.PageSize))

	// 2. Copy the parent's page-table entries. The bulk PTE copy is cheap;
	// GOT and allocator-metadata pages are proactively copied and
	// relocated so the child immediately observes correct references when
	// loading through the GOT or touching heap metadata (§3.5, §3.7).
	startVPN := vm.VPNOf(parent.Region.Base)
	endVPN := vm.VPNOf(parent.Region.Top()-1) + 1
	var copyErr error
	// Eager pages are allocated and mapped serially during the PTE walk
	// (the allocator and page table are shared state, and frame-number
	// assignment must stay deterministic); the page copies and relocation
	// scans — the actual byte work — are queued and fanned out across the
	// worker pool below. The queue and the slab the page descriptors come
	// from are sized up front to the pages of the eagerly copied segments.
	nEager := 0
	for s, n := range parent.Layout.Pages {
		if e.Mode == CopyFull || e.proactive(kernel.Segment(s)) {
			nEager += n
		}
	}
	eager := make([]eagerCopy, 0, nEager)
	slab := vm.NewPageSlab(nEager)
	// The walk visits pages in ascending order, so the current segment
	// covers a long run of consecutive pages; cache it and only consult
	// SegmentOf when the offset leaves its bounds.
	var curSeg kernel.Segment
	var curStart, curEnd uint64
	parent.AS.RangeVPNs(startVPN, endVPN, func(vpn vm.VPN, pte *vm.PTE) {
		if copyErr != nil {
			return
		}
		off := uint64(vpn)*vm.PageSize - parent.Region.Base
		seg := curSeg
		if off < curStart || off >= curEnd {
			var ok bool
			seg, ok = parent.Layout.SegmentOf(off)
			if !ok {
				copyErr = fmt.Errorf("core: page %#x outside image layout", uint64(vpn)*vm.PageSize)
				return
			}
			curSeg = seg
			curStart = parent.Layout.Offsets[seg]
			curEnd = curStart + parent.Layout.SegLen(seg)
		}
		childVPN := vm.VPNOf(child.Region.Base + off)
		natural := seg.NaturalProt()
		proactive := e.proactive(seg)

		stats.PTEsCopied++
		stats.Latency += m.PTECopy
		stats.PTECopyTime += m.PTECopy

		if proactive || e.Mode == CopyFull {
			pfn, err := k.Mem.AllocFrameForCopy()
			if err != nil {
				copyErr = err
				return
			}
			if err := child.AS.Map(childVPN, slab.Page(pfn), natural); err != nil {
				// The frame was allocated but never mapped: free it here or
				// nothing ever will (the abort path only walks the page table).
				_ = k.Mem.FreeFrame(pfn)
				copyErr = err
				return
			}
			eager = append(eager, eagerCopy{dst: pfn, src: pte.Page.PFN})
			stats.PagesCopied++
			stats.Latency += m.PageCopy
			stats.EagerCopyTime += m.PageCopy
			if proactive {
				stats.ProactivePages++
			}
			return
		}

		// Lazy sharing: downgrade the parent to read-only (write faults
		// copy for the writer) and map the child per strategy.
		parentShared := pte.Prot &^ vm.ProtWrite
		if err := parent.AS.Protect(vpn, parentShared); err != nil {
			copyErr = err
			return
		}
		var childProt vm.Prot
		switch e.Mode {
		case CopyOnAccess:
			childProt = 0 // any access faults
		case CopyOnPointerAccess:
			childProt = (natural &^ vm.ProtWrite) | vm.ProtCapLoadFault
		}
		if err := child.AS.Map(childVPN, pte.Page, childProt); err != nil {
			copyErr = err
			return
		}
		child.Pending.Add(childVPN)
	})
	if copyErr != nil {
		return stats, copyErr
	}

	// Fan the queued copy+relocate work out across the worker pool. Each
	// job touches only its own private destination frame (and reads a
	// source frame no job writes), so jobs are independent; the per-job
	// relocation counts are folded into the virtual-time accounting
	// serially afterwards, and Latency is a sum, so the result is
	// identical to the serial order.
	parallelFor(len(eager), e.workers(), func(i int) {
		job := &eager[i]
		if job.err = k.Mem.CopyFrame(job.dst, job.src); job.err != nil {
			return
		}
		job.relocs, job.err = e.relocatePage(k, child, job.dst)
	})
	for i := range eager {
		if eager[i].err != nil {
			return stats, eager[i].err
		}
		relocs := eager[i].relocs
		stats.CapsRelocated += relocs
		stats.Latency += m.CapScanPage + sim.Time(relocs)*m.CapRelocate
		stats.ScanTime += m.CapScanPage + sim.Time(relocs)*m.CapRelocate
	}

	// Inherit the parent's own unresolved relocations: a page the parent
	// never privatised still holds grandparent-region capabilities, and the
	// child shares that page. (CopyFull resolved everything above.)
	if e.Mode != CopyFull {
		parent.Pending.Range(func(vpn vm.VPN) bool {
			off := uint64(vpn)*vm.PageSize - parent.Region.Base
			child.Pending.Add(vm.VPNOf(child.Region.Base + off))
			return true
		})
	}

	// 3. Relocate the capability register file (§3.5 step 2): tags extend
	// to registers, so genuine pointers are distinguished from integers.
	e.relocateRegisters(k, parent, child)
	stats.CapsRelocated += kernel.NumRegs
	stats.Latency += m.RegRelocate
	stats.RegTime = m.RegRelocate

	return stats, nil
}

// eagerCopy is one queued unit of fork-time page work: copy frame src into
// the child's private frame dst, then scan and relocate it. relocs and err
// are filled by the worker that executes the job.
type eagerCopy struct {
	dst, src tmemPFN
	relocs   int
	err      error
}

// proactive reports whether fork copies and relocates seg's pages at once
// in every copy mode: the GOT and allocator metadata (§3.5, §3.7), and
// under CoA the stack. Under CoA every child access faults, including the
// stack accesses of the return-from-fork path itself; copying the stack
// eagerly is what lets the child resume at all, and is why CoA forks are
// slightly slower than CoPA forks (Fig. 4: 283 µs vs 260 µs at 100 MB).
func (e *Engine) proactive(seg kernel.Segment) bool {
	return seg == kernel.SegGOT || seg == kernel.SegAllocMeta ||
		e.Mode == CopyOnAccess && seg == kernel.SegStack
}

// relocatePage performs the 16-byte-stride tag scan over one frame and
// relocates every capability that points outside the child's region
// (§4.2 "Copy-on-Pointer-Access", three-step copy). The scan walks the
// packed tag plane via ForEachTagged — allocation-free, and frames with a
// zero cached tag count skip the loop entirely. Safe to run concurrently
// with other relocatePage calls on distinct frames: it writes only the
// frame it scans, and the shared counters it touches are atomic.
func (e *Engine) relocatePage(k *kernel.Kernel, child *kernel.Proc, pfn tmemPFN) (int, error) {
	n := 0
	err := k.Mem.ForEachTagged(pfn, func(off uint64) error {
		c, err := k.Mem.LoadCap(pfn, off)
		if err != nil {
			return err
		}
		nc, changed := RelocateCap(k, child, c)
		if changed {
			if err := k.Mem.RewriteCap(pfn, off, nc); err != nil {
				return err
			}
			n++
		}
		return nil
	})
	if err != nil {
		return n, err
	}
	child.AS.Stats.CapsRelocated.Add(uint64(n))
	return n, nil
}

// RelocateCap maps a capability from an ancestor μprocess region into the
// child's region. Sealed capabilities (kernel entry sentries) and
// capabilities already confined to the child pass through unchanged. The
// relocated capability's bounds are clamped to the child region, restoring
// the §4.2 security invariant: every capability reachable by a μprocess
// grants access only to that μprocess's memory.
func RelocateCap(k *kernel.Kernel, child *kernel.Proc, c cap.Capability) (cap.Capability, bool) {
	if !c.Tag() || c.IsSealed() {
		return c, false
	}
	if child.Region.Contains(c.Addr()) && c.Base() >= child.Region.Base && c.Top() <= child.Region.Top() {
		return c, false
	}
	// Identify the region the capability refers to. Normally the direct
	// parent; for pages the parent itself never privatised it can be an
	// older ancestor.
	origin, ok := k.FindRegion(c.Addr())
	if !ok || origin.Base == k.KernelRegion.Base {
		// Not user-region memory: a capability the relocation pass does
		// not understand. Clearing the tag would also be sound; we leave
		// kernel-region capabilities alone as the loader never places any
		// in user pages.
		return c, false
	}
	if origin.Base == child.Region.Base {
		// In-region cursor but over-wide bounds: clamp only.
		nc := c.ClampBounds(child.Region.Base, child.Region.Top())
		return nc, true
	}
	delta := int64(child.Region.Base) - int64(origin.Base)
	nc := c.Rebase(delta).ClampBounds(child.Region.Base, child.Region.Top())
	return nc, true
}

// relocateRegisters rebuilds the child's capability register file from the
// parent's, relocating every tagged register (§3.5 step 2).
func (e *Engine) relocateRegisters(k *kernel.Kernel, parent, child *kernel.Proc) {
	reloc := func(c cap.Capability) cap.Capability {
		nc, _ := RelocateCap(k, child, c)
		return nc
	}
	for i, c := range parent.Regs {
		child.Regs[i] = reloc(c)
	}
	child.DDC = reloc(parent.DDC)
	child.PCC = relocCode(k, child, parent.PCC)
	child.StackCap = reloc(parent.StackCap)
	child.HeapCap = reloc(parent.HeapCap)
	child.GOTCap = reloc(parent.GOTCap)
	child.MetaCap = reloc(parent.MetaCap)
	child.DataCap = reloc(parent.DataCap)
	child.TLSCap = reloc(parent.TLSCap)
	child.SyscallCap = parent.SyscallCap // sealed sentry: shared by design
}

// relocCode relocates the program counter capability, preserving execute
// permissions (the PCC's bounds are what PIC code derives relative
// references from, §4.2).
func relocCode(k *kernel.Kernel, child *kernel.Proc, pcc cap.Capability) cap.Capability {
	nc, _ := RelocateCap(k, child, pcc)
	return nc
}

// HandleFault implements kernel.ForkEngine: CoW/CoA/CoPA resolution
// (Fig. 2). Writes by either side, any child access under CoA, and child
// capability loads under CoPA privatise the page; if the page still holds
// ancestor capabilities they are relocated in place.
func (e *Engine) HandleFault(k *kernel.Kernel, p *kernel.Proc, f *vm.Fault, acc vm.Access) error {
	if !p.Region.Contains(f.VA) {
		return fmt.Errorf("core: access outside μprocess region: %v", f)
	}
	vpn := vm.VPNOf(f.VA)
	off := f.VA - p.Region.Base
	seg, ok := p.Layout.SegmentOf(off)
	if !ok {
		return fmt.Errorf("core: fault outside image: %v", f)
	}
	natural := seg.NaturalProt()

	switch f.Kind {
	case vm.FaultWriteProtect:
		if natural&vm.ProtWrite == 0 {
			return fmt.Errorf("core: write to read-only %v segment: %v", seg, f)
		}
	case vm.FaultCapLoad, vm.FaultNoRead:
		// CoPA capability-load barrier or CoA inaccessible page: resolve by
		// privatising below.
	default:
		return fmt.Errorf("core: unresolvable fault: %v", f)
	}

	page, copied, err := p.AS.MakePrivate(vpn, natural)
	if err != nil {
		return err
	}
	m := k.Machine
	if copied {
		p.Task.Advance(m.PageCopy)
	}
	relocs := 0
	scanned := false
	if p.Pending.Contains(vpn) {
		// The frame content still refers to the ancestor region: scan and
		// relocate (in place when the frame was adopted rather than
		// copied — the copy was avoided but the relocation cannot be).
		scanned = true
		p.Task.Advance(m.CapScanPage)
		if relocs, err = e.relocatePage(k, p, page.PFN); err != nil {
			return err
		}
		p.Task.Advance(sim.Time(relocs) * m.CapRelocate)
		p.Pending.Remove(vpn)
	}
	if k.Metrics != nil && (copied || scanned) {
		k.Metrics.Counter("fault.copy-relocate").Inc()
	}
	return nil
}

// ChildStart implements kernel.ForkEngine; μFork children need no
// post-fork fixup beyond what fork already did.
func (e *Engine) ChildStart(k *kernel.Kernel, child *kernel.Proc) {}

// tmemPFN aliases the physical frame number type to keep signatures tidy.
type tmemPFN = tmem.PFN
