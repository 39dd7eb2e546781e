package kernel

import (
	"fmt"

	"ufork/internal/cap"
	"ufork/internal/obs/memmap"
	"ufork/internal/vm"
)

// PageSize re-exports the system page size.
const PageSize = vm.PageSize

// Segment names one part of a μprocess memory image (Fig. 1).
type Segment int

const (
	// SegText is position-independent code.
	SegText Segment = iota
	// SegRodata is read-only data.
	SegRodata
	// SegGOT is the global offset table: capabilities to globals and
	// functions, copied and rewritten proactively at fork (§3.7).
	SegGOT
	// SegData is initialised read-write data.
	SegData
	// SegAllocMeta holds memory-allocator metadata, also proactively
	// copied at fork (§3.5 step 1).
	SegAllocMeta
	// SegHeap is the statically sized private heap (§4.2).
	SegHeap
	// SegStack is the μprocess stack.
	SegStack
	// SegTLS is thread-local storage.
	SegTLS
	// SegRuntime models the per-process runtime footprint a monolithic OS
	// adds (dynamic linker, private shared-library pages, allocator
	// arenas); empty on μFork.
	SegRuntime
	// SegOSImage models the unikernel OS image cloned along with the
	// application by the VM-cloning baseline; empty elsewhere.
	SegOSImage
	numSegments
)

func (s Segment) String() string {
	names := [...]string{"text", "rodata", "got", "data", "allocmeta",
		"heap", "stack", "tls", "runtime", "osimage"}
	if int(s) < len(names) {
		return names[s]
	}
	return fmt.Sprintf("seg(%d)", int(s))
}

// NaturalProt returns the protection a segment's pages carry when private.
func (s Segment) NaturalProt() vm.Prot {
	switch s {
	case SegText:
		return vm.ProtRX
	case SegRodata, SegGOT:
		return vm.ProtRead
	default:
		return vm.ProtRW
	}
}

// ProgramSpec describes a program image: how many pages each segment
// occupies and how many GOT entries the program uses. Sizes are chosen per
// workload and recorded with each experiment.
type ProgramSpec struct {
	Name string
	// Pages per segment.
	TextPages      int
	RodataPages    int
	GOTPages       int
	DataPages      int
	AllocMetaPages int
	HeapPages      int
	StackPages     int
	TLSPages       int

	// GOTEntries is the number of populated GOT capabilities.
	GOTEntries int
	// RodataCapsPerPage seeds read-only data pages with this many
	// capabilities each (static pointer tables); they exercise the
	// CoPA read-side relocation path.
	RodataCapsPerPage int
}

// HelloWorldSpec is the minimal C program used by the Fig. 8
// microbenchmark. Sizes follow a small static busybox-style binary.
func HelloWorldSpec() ProgramSpec {
	return ProgramSpec{
		Name:      "hello",
		TextPages: 16, RodataPages: 4, GOTPages: 4, DataPages: 8,
		AllocMetaPages: 8, HeapPages: 64, StackPages: 16, TLSPages: 1,
		GOTEntries: 96, RodataCapsPerPage: 0,
	}
}

// Layout is a resolved ProgramSpec: per-segment offsets within the
// μprocess region.
type Layout struct {
	Spec    ProgramSpec
	Offsets [numSegments]uint64 // byte offset of each segment in the region
	Pages   [numSegments]int
	Total   int // total pages
}

// BuildLayout resolves a spec into segment offsets. extraRuntime and
// osImage are machine-model additions (zero on μFork).
func BuildLayout(spec ProgramSpec, extraRuntimePages, osImagePages int) Layout {
	var l Layout
	l.Spec = spec
	l.Pages[SegText] = spec.TextPages
	l.Pages[SegRodata] = spec.RodataPages
	l.Pages[SegGOT] = spec.GOTPages
	l.Pages[SegData] = spec.DataPages
	l.Pages[SegAllocMeta] = spec.AllocMetaPages
	l.Pages[SegHeap] = spec.HeapPages
	l.Pages[SegStack] = spec.StackPages
	l.Pages[SegTLS] = spec.TLSPages
	l.Pages[SegRuntime] = extraRuntimePages
	l.Pages[SegOSImage] = osImagePages
	off := uint64(0)
	for s := Segment(0); s < numSegments; s++ {
		segLen := uint64(l.Pages[s]) * PageSize
		// Segment capabilities must be representable in the compressed
		// bounds encoding: align each segment's offset (region bases are
		// already strongly aligned) and pad its length.
		if segLen > 0 {
			align := cap.RepresentableAlign(segLen)
			if rem := off % align; rem != 0 {
				pad := align - rem
				off += pad
				l.Total += int(pad / PageSize)
			}
			rounded := cap.RepresentableLength(segLen)
			l.Pages[s] = int(rounded / PageSize)
		}
		l.Offsets[s] = off
		off += uint64(l.Pages[s]) * PageSize
		l.Total += l.Pages[s]
	}
	return l
}

// SegmentOf returns the segment containing the region offset, or false
// when the offset is past the image.
func (l Layout) SegmentOf(off uint64) (Segment, bool) {
	for s := numSegments - 1; s >= 0; s-- {
		if l.Pages[s] > 0 && off >= l.Offsets[s] {
			return s, off < l.Offsets[s]+uint64(l.Pages[s])*PageSize
		}
	}
	return 0, false
}

// Bytes returns the image size in bytes.
func (l Layout) Bytes() uint64 { return uint64(l.Total) * PageSize }

// SegBase returns the virtual address of a segment given the region base.
func (l Layout) SegBase(regionBase uint64, s Segment) uint64 {
	return regionBase + l.Offsets[s]
}

// SegLen returns the byte length of a segment.
func (l Layout) SegLen(s Segment) uint64 { return uint64(l.Pages[s]) * PageSize }

// load maps a fresh program image and returns its initial Proc.
func (k *Kernel) load(spec ProgramSpec) (*Proc, error) {
	layout := BuildLayout(spec, k.Machine.RuntimeImagePages, k.Machine.VMImagePages)
	region := k.Regions.reserve(layout.Bytes(), spec.Name)

	as := k.SharedAS
	if as == nil {
		as = vm.NewAddressSpace(k.Mem)
	}

	p := &Proc{
		k:      k,
		PID:    k.allocPID(),
		Spec:   spec,
		Layout: layout,
		AS:     as,
		Region: region,
		FDs:    NewFDTable(),
	}
	k.initProcLocks(p)
	k.procMu.Lock()
	k.procs[p.PID] = p
	k.procMu.Unlock()
	k.curPID = p.PID

	// Map every segment. The heap is mapped eagerly on unikernel machines
	// (μFork's build-time static heap, §4.2) and demand-paged on the
	// monolithic baseline, whose fault handler maps heap pages on first
	// touch.
	imagePages := 0
	phase0 := k.memPhase
	k.memPhase = memmap.OriginImage
	for s := Segment(0); s < numSegments; s++ {
		if s == SegHeap && k.Machine.DemandPagedHeap {
			continue
		}
		n, err := as.MapNewRange(vm.VPNOf(layout.SegBase(region.Base, s)), layout.Pages[s], s.NaturalProt())
		if err != nil {
			k.memPhase = phase0
			return nil, fmt.Errorf("kernel: load %s %v page %d: %w", spec.Name, s, n, err)
		}
		imagePages += n
	}
	k.memPhase = phase0
	p.Acct.chargeFrames(int64(imagePages))

	p.initCaps()
	if err := k.populateGOT(p); err != nil {
		return nil, err
	}
	if err := k.seedRodataCaps(p); err != nil {
		return nil, err
	}
	// Standard descriptors 0/1/2 on the console.
	for fd := 0; fd < 3; fd++ {
		p.FDs.Install(&OpenFile{File: &Console{}})
	}
	return p, nil
}

// initCaps builds the μprocess capability register file: DDC bounded to
// the region (the key security invariant of §4.2), PCC over text, stack
// and heap capabilities, and the sealed syscall entry capability.
func (p *Proc) initCaps() {
	k := p.k
	var ddc cap.Capability
	if k.Iso == IsolationNone {
		// Isolation disabled: capabilities span all of memory (R4).
		ddc = cap.Root(0, ^uint64(0)).WithPerms(cap.PermData)
	} else {
		ddc = cap.Root(p.Region.Base, p.Region.Size).WithPerms(cap.PermData)
	}
	p.DDC = ddc
	p.PCC = cap.Root(p.Layout.SegBase(p.Region.Base, SegText), p.Layout.SegLen(SegText)).
		WithPerms(cap.PermCode)
	p.StackCap = deriveSeg(ddc, p, SegStack)
	p.HeapCap = deriveSeg(ddc, p, SegHeap)
	p.GOTCap = deriveSeg(ddc, p, SegGOT).WithPerms(cap.PermRO)
	p.MetaCap = deriveSeg(ddc, p, SegAllocMeta)
	p.DataCap = deriveSeg(ddc, p, SegData)
	p.TLSCap = deriveSeg(ddc, p, SegTLS)
	p.SyscallCap = k.sentry
	p.Regs = [NumRegs]cap.Capability{}
}

// deriveSeg derives a data capability covering one segment from the DDC.
func deriveSeg(ddc cap.Capability, p *Proc, s Segment) cap.Capability {
	base := p.Layout.SegBase(p.Region.Base, s)
	c, err := ddc.SetAddr(base).SetBounds(p.Layout.SegLen(s))
	if err != nil {
		panic(fmt.Sprintf("kernel: derive %v cap: %v", s, err))
	}
	return c
}

// populateGOT writes the program's GOT: capabilities to globals (data
// segment) and functions (text segment). PIC loads globals through these
// entries, which is why fork must rewrite them eagerly (§3.7).
func (k *Kernel) populateGOT(p *Proc) error {
	dataBase := p.Layout.SegBase(p.Region.Base, SegData)
	textBase := p.Layout.SegBase(p.Region.Base, SegText)
	gotBase := p.Layout.SegBase(p.Region.Base, SegGOT)
	maxEntries := int(p.Layout.SegLen(SegGOT)) / cap.GranuleSize
	n := p.Spec.GOTEntries
	if n > maxEntries {
		n = maxEntries
	}
	for i := 0; i < n; i++ {
		var target cap.Capability
		if i%3 == 2 && p.Layout.Pages[SegText] > 0 {
			// Every third entry is a function pointer.
			off := uint64(i*64) % p.Layout.SegLen(SegText)
			target = p.PCC.SetAddr(textBase + off)
		} else {
			off := uint64(i*64) % p.Layout.SegLen(SegData)
			c, err := p.DataCap.SetAddr(dataBase + off).SetBounds(64)
			if err != nil {
				return err
			}
			target = c
		}
		va := gotBase + uint64(i)*cap.GranuleSize
		if err := k.storeCapPhys(p.AS, va, target); err != nil {
			return err
		}
	}
	return nil
}

// seedRodataCaps plants static pointer tables in read-only data.
func (k *Kernel) seedRodataCaps(p *Proc) error {
	per := p.Spec.RodataCapsPerPage
	if per == 0 {
		return nil
	}
	roBase := p.Layout.SegBase(p.Region.Base, SegRodata)
	dataBase := p.Layout.SegBase(p.Region.Base, SegData)
	for pg := 0; pg < p.Layout.Pages[SegRodata]; pg++ {
		for i := 0; i < per && i*cap.GranuleSize < PageSize; i++ {
			va := roBase + uint64(pg)*PageSize + uint64(i)*cap.GranuleSize
			tgt, err := p.DataCap.SetAddr(dataBase + uint64((pg*per+i)*32)%p.Layout.SegLen(SegData)).SetBounds(32)
			if err != nil {
				return err
			}
			if err := k.storeCapPhys(p.AS, va, tgt); err != nil {
				return err
			}
		}
	}
	return nil
}

// storeCapPhys writes a capability at va bypassing protection (kernel
// loader privilege).
func (k *Kernel) storeCapPhys(as *vm.AddressSpace, va uint64, c cap.Capability) error {
	pte := as.Lookup(vm.VPNOf(va))
	if pte == nil {
		return fmt.Errorf("kernel: storeCapPhys at unmapped %#x", va)
	}
	return k.Mem.StoreCap(pte.Page.PFN, vm.PageOff(va), c)
}
