// Package ufork is a faithful, fully simulated reproduction of
// "μFork: Supporting POSIX fork Within a Single-Address-Space OS"
// (Kressel, Lefeuvre, Olivier — SOSP 2025).
//
// It provides POSIX fork inside a single-address-space operating system:
// each child μprocess receives a fresh contiguous region of the shared
// virtual address space, tagged-memory scans relocate every absolute
// memory reference (CHERI capability) into the child's region, and
// Copy-on-Pointer-Access (CoPA) lets parent and child share pages until a
// write — or a child pointer load — forces a private, relocated copy.
//
// Because Go cannot execute CHERI instructions or run at EL1, the hardware
// (capabilities, tagged DRAM, page tables with a fault-on-capability-load
// bit) and the SASOS kernel are simulated deterministically in virtual
// time; see DESIGN.md for the substitution table and internal/model for
// every calibrated cost constant.
//
// # Quick start
//
//	sys := ufork.NewSystem(ufork.Options{})
//	sys.Main(func(p *ufork.Proc) {
//		k := p.Kernel()
//		pid, _ := k.Fork(p, func(child *ufork.Proc) {
//			// The child sees a relocated copy of the parent's memory.
//		})
//		k.Wait(p)
//		_ = pid
//	})
//	sys.Run()
//
// The three baseline-comparison engines (classic multi-address-space CoW
// fork and whole-VM cloning) and the full experiment harness live under
// internal/; the `ufork-bench` command regenerates every figure of the
// paper's evaluation.
package ufork

import (
	"ufork/internal/baseline/posix"
	"ufork/internal/baseline/vmclone"
	"ufork/internal/core"
	"ufork/internal/kernel"
	"ufork/internal/model"
	"ufork/internal/sim"
)

// Re-exported kernel types: the public API surface examples and embedders
// program against.
type (
	// Proc is a μprocess handle.
	Proc = kernel.Proc
	// Kernel is the simulated operating system instance.
	Kernel = kernel.Kernel
	// PID identifies a μprocess.
	PID = kernel.PID
	// ProgramSpec describes a program image's segment sizes.
	ProgramSpec = kernel.ProgramSpec
	// ForkStats reports the work one fork performed.
	ForkStats = kernel.ForkStats
	// Time is virtual time in nanoseconds.
	Time = sim.Time
	// Planes arms a kernel's observability planes.
	Planes = kernel.Planes
)

// CopyStrategy selects μFork's state-transfer strategy (§3.8).
type CopyStrategy = core.CopyMode

// Copy strategies.
const (
	// CoPA is Copy-on-Pointer-Access, the paper's headline strategy.
	CoPA = core.CopyOnPointerAccess
	// CoA is Copy-on-Access, for hardware without a capability-load
	// fault bit.
	CoA = core.CopyOnAccess
	// FullCopy synchronously copies the whole parent image at fork.
	FullCopy = core.CopyFull
)

// IsolationLevel selects how much of the POSIX trust model is enforced
// (§3.6, R4).
type IsolationLevel = kernel.IsolationLevel

// Isolation levels.
const (
	// IsolationNone trusts everything (e.g. Redis snapshotting).
	IsolationNone = kernel.IsolationNone
	// IsolationFault provides non-adversarial fault isolation (e.g.
	// Nginx workers).
	IsolationFault = kernel.IsolationFault
	// IsolationFull is the adversarial POSIX model with TOCTTOU copies
	// (e.g. privilege separation).
	IsolationFull = kernel.IsolationFull
)

// Baseline selects which system a System models.
type Baseline int

// Baselines.
const (
	// BaselineUFork is μFork itself (default).
	BaselineUFork Baseline = iota
	// BaselinePosix is the monolithic multi-address-space CoW fork
	// (CheriBSD-like).
	BaselinePosix
	// BaselineVMClone is hypervisor whole-VM cloning (Nephele-like).
	BaselineVMClone
)

// Options configures a System. The zero value is μFork with CoPA, full
// isolation, one core and a default physical memory size.
type Options struct {
	// Baseline selects the system under test.
	Baseline Baseline
	// Strategy selects the μFork copy strategy (ignored by baselines).
	Strategy CopyStrategy
	// Isolation selects the enforced trust model.
	Isolation IsolationLevel
	// Cores is the simulated CPU count (default 1).
	Cores int
	// Frames is physical memory in 4 KiB frames (default 2 GiB).
	Frames int
	// Spec overrides the root program image (default HelloWorldSpec).
	Spec *ProgramSpec
	// Planes arms the observability planes on the kernel (default: all
	// off).
	Planes Planes
}

// System is a booted simulated machine plus its kernel.
type System struct {
	// K is the kernel; all syscalls hang off it.
	K *Kernel

	spec ProgramSpec
}

// NewSystem boots a system according to opts.
func NewSystem(opts Options) *System {
	cores := opts.Cores
	if cores < 1 {
		cores = 1
	}
	iso := opts.Isolation
	if iso == 0 && opts.Baseline == BaselineUFork {
		iso = IsolationFull
	}
	var (
		m   *model.Machine
		eng kernel.ForkEngine
	)
	switch opts.Baseline {
	case BaselinePosix:
		m, eng = model.Posix(cores), posix.New()
	case BaselineVMClone:
		m, eng = model.VMClone(cores), vmclone.New()
	default:
		m, eng = model.UFork(cores), core.New(opts.Strategy)
	}
	k := kernel.New(kernel.Config{
		Machine:   m,
		Engine:    eng,
		Isolation: iso,
		Frames:    opts.Frames,
		Planes:    opts.Planes,
	})
	spec := kernel.HelloWorldSpec()
	if opts.Spec != nil {
		spec = *opts.Spec
	}
	return &System{K: k, spec: spec}
}

// Main registers the root μprocess's entry function. Call Run afterwards
// to execute the simulation.
func (s *System) Main(entry func(*Proc)) (*Proc, error) {
	return s.K.Spawn(s.spec, 0, entry)
}

// Spawn loads an additional program image as a fresh μprocess.
func (s *System) Spawn(spec ProgramSpec, entry func(*Proc)) (*Proc, error) {
	return s.K.Spawn(spec, 0, entry)
}

// Run drives the simulation until every μprocess has exited.
func (s *System) Run() { s.K.Run() }

// HelloWorldSpec returns the minimal program image used by the
// microbenchmarks.
func HelloWorldSpec() ProgramSpec { return kernel.HelloWorldSpec() }
