package kernel

import (
	"encoding/binary"
	"fmt"

	"ufork/internal/cap"
	"ufork/internal/obs/causal"
	"ufork/internal/obs/flight"
	"ufork/internal/obs/memmap"
	"ufork/internal/sim"
	"ufork/internal/tmem"
	"ufork/internal/vm"
)

// NumRegs is the size of the capability register file μFork relocates at
// fork (§3.5 step 2: "any absolute memory references contained in
// registers are relocated").
const NumRegs = 16

// Proc is one μprocess (or baseline process).
type Proc struct {
	k    *Kernel
	PID  PID
	Spec ProgramSpec
	// Layout is the image layout shared by parent and all descendants.
	Layout Layout
	// AS is the address space: the kernel-shared one on single-address-
	// space machines, private otherwise.
	AS *vm.AddressSpace
	// Region is the contiguous virtual range this μprocess owns (Fig. 1).
	Region Region
	// Task is the simulation thread running the process.
	Task *sim.Task

	// Capability register file. Regs are general-purpose capability
	// registers the program may stash pointers in across a fork; the named
	// capabilities are the ABI registers.
	Regs       [NumRegs]cap.Capability
	DDC        cap.Capability // default data capability (region bounds)
	PCC        cap.Capability // program counter capability (text)
	StackCap   cap.Capability
	HeapCap    cap.Capability
	GOTCap     cap.Capability
	MetaCap    cap.Capability // allocator metadata segment
	DataCap    cap.Capability
	TLSCap     cap.Capability
	SyscallCap cap.Capability // sealed kernel entry sentry

	FDs *FDTable

	Parent    *Proc
	children  []*Proc
	childExit sim.WaitQueue

	// OriginBase is the region base the process image's un-relocated
	// content refers to (the parent's region at fork time); equal to
	// Region.Base for a freshly loaded image.
	OriginBase uint64

	// Pending tracks region pages whose frames still hold ancestor-region
	// capabilities and need relocation when privatised: a region-offset
	// page bitmap maintained by the μFork engine. Nil for engines that
	// never defer relocation (the multi-address-space baselines).
	Pending *vm.PageSet

	exited     bool
	exitStatus int
	killed     bool
	sig        sigState

	// BrkPages tracks how many heap pages the program has asked for via
	// Sbrk; used by the demand-paged baseline heap accounting.
	BrkPages int

	// Acct is the per-μprocess accounting block (procfs-style counters the
	// ProcStat API, SYS_PROCSTAT, and the telemetry server snapshot live).
	Acct Accounting

	// Gen is the fork generation: 0 for a loaded root, parent's Gen+1 for
	// a forked child. The provenance plane stamps frame lineage with it.
	Gen int

	// Forked counts forks performed by this process.
	Forked int
	// LastFork holds the statistics of the most recent fork this process
	// performed; the benchmark harness reads it for latency accounting.
	LastFork ForkStats

	// AllocIndex is a host-side slot owned by the heap allocator
	// (internal/alloc), which caches a lookup index over its in-memory
	// used list here so every allocator view of the process shares it.
	// The kernel never reads it and fork does not copy it.
	AllocIndex any

	// cspan is the process's live causal-trace span (internal/obs/causal):
	// a root minted by TraceBegin, or a member joined via a fork, pipe, or
	// signal edge. Nil when untraced — the one check every causal hook
	// pays on the disabled path. Touched only on the simulation goroutine.
	cspan *causal.Span

	// at is the attribution context p's events maintain (see emit).
	at attrib

	// lk is the μprocess lock — the per-process footprint every syscall
	// acquires on fine-grained machines (rank uproc, seq = PID) — and fdlk
	// guards the descriptor table (rank fdtable). Initialized strict by
	// initProcLocks for every Proc; on BKL machines they are never
	// acquired, the BKL serializing instead. See kernel.lockPlane.
	lk   sim.VLock
	fdlk sim.VLock
}

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Exited reports whether the process has terminated.
func (p *Proc) Exited() bool { return p.exited }

// Children returns the live children (for tests).
func (p *Proc) Children() []*Proc { return p.children }

// permForAccess maps a VM access kind to the capability permissions it
// requires.
func permForAccess(acc vm.Access) cap.Perm {
	switch acc {
	case vm.AccRead:
		return cap.PermLoad
	case vm.AccWrite:
		return cap.PermStore
	case vm.AccCapRead:
		return cap.PermLoad | cap.PermLoadCap
	case vm.AccCapWrite:
		return cap.PermStore | cap.PermStoreCap
	case vm.AccExec:
		return cap.PermExecute
	default:
		return 0
	}
}

// translate resolves va for the access, invoking the fork engine's fault
// handler (CoW / CoA / CoPA resolution) as needed. A fault's events open
// and close its service window in p's attribution context, which the
// accounting counters and the planes label by the resolved copy mode.
func (p *Proc) translate(va uint64, acc vm.Access) (tmem.PFN, uint64, error) {
	for attempt := 0; attempt < 8; attempt++ {
		pfn, off, fault := p.AS.Translate(va, acc)
		if fault == nil {
			return pfn, off, nil
		}
		// Taking the fault costs a trap + handler dispatch. Everything
		// from here to the handler's return is fault-service time.
		p.emit(flight.KindFault, uint64(fault.Kind), fault.VA, 0)
		p.Task.Advance(p.k.Machine.PageFault)
		// Snapshot the faulting page's frame before the handler runs: if
		// the resolution breaks sharing, this is the ancestor frame the
		// owner-change event points back at.
		oldPFN := tmem.NoFrame
		if pte := p.AS.Lookup(vm.VPNOf(fault.VA)); pte != nil {
			oldPFN = pte.Page.PFN
		}
		// Snapshot the address-space copy counters around the handler: the
		// deltas classify the resolution outcome (CoW copy / CoA adopt /
		// CoPA relocation) without knowing which engine ran.
		st := &p.AS.Stats
		copied0, adopted0, relocs0 := st.PagesCopied.Value(), st.PagesAdopted.Value(), st.CapsRelocated.Value()
		// Fine-grained fault path: point the allocator at the faulting CPU's
		// frame cache, and take the shared tmem lock only when that cache
		// cannot cover the fault — the split allocator's lock-free fast
		// path. A fault that resolves from the cache (the common CoW case)
		// never serializes on the allocator at all.
		tmemHeld := false
		if p.k.Machine.FineGrainedLocks {
			p.k.Mem.SetCPU(p.Task.LastCore())
			if !p.k.Mem.CacheReady(1) {
				p.k.lockWait(p, &p.k.locks.tmem)
				p.k.Mem.RefillCache()
				tmemHeld = true
			}
		}
		phase0 := p.k.memPhase
		p.k.memPhase = memmap.OriginDemand
		err := p.k.Engine.HandleFault(p.k, p, fault, acc)
		p.k.memPhase = phase0
		if tmemHeld {
			p.k.locks.tmem.Unlock(p.Task)
		}
		if err != nil {
			p.emit(flight.KindFaultError, uint64(fault.Kind), fault.VA, 0)
			// Double-wrap so errors.Is sees both the segfault and the
			// handler's cause (e.g. an injected tmem.ErrOutOfMemory).
			return tmem.NoFrame, 0, fmt.Errorf("%w: %w", ErrSegfault, err)
		}
		copied := st.PagesCopied.Value() - copied0
		adopted := st.PagesAdopted.Value() - adopted0
		relocs := st.CapsRelocated.Value() - relocs0
		if copied > 0 {
			// Fault-path copies mutate tmem under BKL protection; credit
			// the shadow meter with the resolution's serialized cost.
			p.k.lkTmem.Acquire(p.Task.Now())
			p.k.lkTmem.ObserveHold(p.Task.Now() - p.at.fault0)
		}
		mode := uint64(0) // KindFrameOwnerChange mode: 1=CoW 2=CoA 3=CoPA
		switch {
		case relocs > 0:
			mode = 3
		case copied > 0:
			mode = 1
		case adopted > 0:
			mode = 2
		}
		if mode != 0 {
			// The resolution broke sharing: the faulting page's frame is now
			// exclusively owned by p (a fresh copy for CoW/CoPA, the adopted
			// last reference for CoA). Record who broke sharing and why.
			newPFN := oldPFN
			if pte := p.AS.Lookup(vm.VPNOf(fault.VA)); pte != nil {
				newPFN = pte.Page.PFN
			}
			if pl := p.k.Memmap; pl != nil {
				if copied > 0 && newPFN != oldPFN {
					origin := memmap.OriginCoW
					if mode == 3 {
						origin = memmap.OriginCoPA
					}
					pl.Reclassify(newPFN, origin)
				}
				pl.OwnerChange(newPFN, int32(p.PID), p.Gen)
			}
			old := newPFN
			if oldPFN != tmem.NoFrame {
				old = oldPFN
			}
			p.emit(flight.KindFrameOwnerChange, uint64(newPFN), mode, uint64(old))
		}
		p.emit(flight.KindFaultDone, uint64(fault.Kind), copied, relocs)
	}
	return tmem.NoFrame, 0, fmt.Errorf("%w: fault loop at %#x", ErrSegfault, va)
}

// checkCap performs the CHERI dereference check unless the capability
// system has been configured away.
func (p *Proc) checkCap(c cap.Capability, va, n uint64, acc vm.Access) error {
	if err := c.CheckDeref(va, n, permForAccess(acc)); err != nil {
		return fmt.Errorf("%w: %v", ErrCapFault, err)
	}
	return nil
}

// Load reads len(buf) bytes through capability c at byte offset off from
// the capability's cursor.
func (p *Proc) Load(c cap.Capability, off uint64, buf []byte) error {
	return p.rw(c, off, buf, vm.AccRead)
}

// Store writes buf through capability c at byte offset off.
func (p *Proc) Store(c cap.Capability, off uint64, buf []byte) error {
	return p.rw(c, off, buf, vm.AccWrite)
}

func (p *Proc) rw(c cap.Capability, off uint64, buf []byte, acc vm.Access) error {
	va := c.Addr() + off
	n := uint64(len(buf))
	if err := p.checkCap(c, va, n, acc); err != nil {
		return err
	}
	done := uint64(0)
	for done < n {
		cur := va + done
		chunk := PageSize - vm.PageOff(cur)
		if chunk > n-done {
			chunk = n - done
		}
		pfn, poff, err := p.translate(cur, acc)
		if err != nil {
			return err
		}
		if acc == vm.AccRead {
			if err := p.k.Mem.ReadBytes(pfn, poff, buf[done:done+chunk]); err != nil {
				return err
			}
		} else {
			if err := p.k.Mem.WriteBytes(pfn, poff, buf[done:done+chunk]); err != nil {
				return err
			}
		}
		done += chunk
	}
	return nil
}

// access checks c for an n-byte access acc at off from its cursor and
// translates it: the one check-and-translate of the word-granular
// accesses, with the error values and messages of rw's.
func (p *Proc) access(c cap.Capability, off, n uint64, acc vm.Access) (tmem.PFN, uint64, error) {
	va := c.Addr() + off
	if err := p.checkCap(c, va, n, acc); err != nil {
		return tmem.NoFrame, 0, err
	}
	return p.translate(va, acc)
}

// straddles reports whether the 8-byte word at off from c's cursor
// crosses a page boundary: such a word goes through rw's page loop.
func straddles(c cap.Capability, off uint64) bool {
	return vm.PageOff(c.Addr()+off) > PageSize-8
}

// LoadU64 reads a 64-bit little-endian value.
func (p *Proc) LoadU64(c cap.Capability, off uint64) (uint64, error) {
	if straddles(c, off) {
		var b [8]byte
		if err := p.Load(c, off, b[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b[:]), nil
	}
	pfn, poff, err := p.access(c, off, 8, vm.AccRead)
	if err != nil {
		return 0, err
	}
	return p.k.Mem.ReadU64(pfn, poff)
}

// StoreU64 writes a 64-bit little-endian value.
func (p *Proc) StoreU64(c cap.Capability, off uint64, v uint64) error {
	if straddles(c, off) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		return p.Store(c, off, b[:])
	}
	pfn, poff, err := p.access(c, off, 8, vm.AccWrite)
	if err != nil {
		return err
	}
	return p.k.Mem.WriteU64(pfn, poff, v)
}

// LoadCap loads a capability through c at offset off. On CoPA pages this
// is the access that triggers the copy-and-relocate fault (§3.8).
func (p *Proc) LoadCap(c cap.Capability, off uint64) (cap.Capability, error) {
	pfn, poff, err := p.access(c, off, cap.GranuleSize, vm.AccCapRead)
	if err != nil {
		return cap.Null(), err
	}
	return p.k.Mem.LoadCap(pfn, poff)
}

// StoreCap stores capability v through c at offset off.
func (p *Proc) StoreCap(c cap.Capability, off uint64, v cap.Capability) error {
	pfn, poff, err := p.access(c, off, cap.GranuleSize, vm.AccCapWrite)
	if err != nil {
		return err
	}
	return p.k.Mem.StoreCap(pfn, poff, v)
}

// FetchCode models instruction fetch at the PCC cursor (used by tests to
// demonstrate execute permissions).
func (p *Proc) FetchCode(off uint64) error {
	va := p.PCC.Addr() + off
	if err := p.checkCap(p.PCC, va, 4, vm.AccExec); err != nil {
		return err
	}
	_, _, err := p.translate(va, vm.AccExec)
	return err
}

// Compute books d nanoseconds of CPU work for the process.
func (p *Proc) Compute(d sim.Time) { p.Task.Work(d) }

// Now returns the process's virtual clock.
func (p *Proc) Now() sim.Time { return p.Task.Now() }

// SegCap derives a fresh capability over one of the process's segments.
func (p *Proc) SegCap(s Segment) cap.Capability {
	switch s {
	case SegStack:
		return p.StackCap
	case SegHeap:
		return p.HeapCap
	case SegGOT:
		return p.GOTCap
	case SegAllocMeta:
		return p.MetaCap
	case SegData:
		return p.DataCap
	case SegTLS:
		return p.TLSCap
	default:
		return deriveSeg(p.DDC, p, s)
	}
}

// Usage returns the memory occupancy of the process's region.
func (p *Proc) Usage() vm.RegionUsage {
	return p.AS.Usage(p.Region.Base, p.Region.Size)
}

// GOTLoad reads GOT entry i the way PIC code does: a capability load from
// the table. After fork this must observe a child-region target.
func (p *Proc) GOTLoad(i int) (cap.Capability, error) {
	return p.LoadCap(p.GOTCap, uint64(i)*cap.GranuleSize)
}
