package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"ufork/internal/cap"
	"ufork/internal/chaos/invariant"
	"ufork/internal/core"
	"ufork/internal/kernel"
	"ufork/internal/model"
	"ufork/internal/obs/causal"
	"ufork/internal/obs/flight"
	"ufork/internal/obs/memmap"
	"ufork/internal/obs/profile"
	"ufork/internal/tmem"
	"ufork/internal/vm"
)

// Config describes one chaos run: a copy mode × isolation level, a seed,
// and an injection plan. The same Config + program replays the same run.
type Config struct {
	Mode core.CopyMode
	Iso  kernel.IsolationLevel
	// Seed drives the fault-injection schedule and, when no explicit
	// program is given, the program generator.
	Seed int64
	Plan Plan
	// Frames sizes physical memory; 0 selects 1<<14 (64 MiB).
	Frames int
	// MaxOps is the global op budget across all μprocesses; 0 selects 4096.
	MaxOps int
	// CheckEvery runs the kernel-wide invariant audit every N executed ops;
	// 0 selects 97. Negative disables periodic audits (the final audit
	// always runs).
	CheckEvery int
	// ProgBytes sizes the generated program when Run receives a nil
	// program; 0 selects 2048.
	ProgBytes int
	// SMP runs the program on the split-lock machine (model.UForkSMP)
	// instead of the BKL machine: same costs, fine-grained lock hierarchy,
	// per-CPU frame caches. The shadow model is lock-agnostic, so the same
	// programs verify both configurations.
	SMP bool
	// TraceGroup names the causal plane's exemplar reservoir for this run
	// (the stress soak labels each cell window); "" derives
	// "chaos/<mode>/<iso>" from the configuration.
	TraceGroup string
	// Planes supplies observability planes to arm on the run's kernel
	// (the live telemetry server's). The flight recorder is always
	// private; memmap, causal and profile get private planes when nil.
	Planes kernel.Planes
	// mutate, when set (tests only), sabotages the kernel after arming so
	// the harness can prove it catches deliberately broken kernels.
	mutate func(k *kernel.Kernel)
}

// Repro returns the one-line reproduction string every failure carries.
func (cfg Config) Repro() string {
	return fmt.Sprintf("mode=%s iso=%s seed=%d smp=%v plan=%+v", cfg.Mode, cfg.Iso, cfg.Seed, cfg.SMP, cfg.Plan)
}

// Result summarises one chaos run.
type Result struct {
	Ops      int // ops executed across all μprocesses
	Forks    int // successful forks
	MaxLive  int // peak simultaneous μprocesses
	Checks   int // invariant audits that ran (all passed if error is nil)
	Injected map[string]int
	// ProcStats is the per-μprocess accounting of every process the run
	// created, captured at each process's end of life (PID order).
	ProcStats []kernel.ProcStat
	// Flight is the run's private flight recorder. Every failure error
	// already embeds its tail; tests and the stress soak can inspect the
	// full event history.
	Flight *flight.Recorder
}

// Opcodes of the syscall-sequence interpreter. Programs are raw bytes —
// fuzzer-friendly: every byte string is a valid program.
const (
	opHeapWrite = iota
	opHeapVerify
	opCapStore
	opCapVerify
	opDerefWrite
	opDerefVerify
	opFork
	opWait
	opPipeNew
	opPipeWrite
	opPipeRead
	opSbrk
	opSignal
	opYield
	opGetpid
	opAudit
	numOps
)

// Interpreter limits: bound depth, width, and I/O so no schedule can
// deadlock the deterministic engine or exhaust the host.
const (
	maxForkDepth  = 3
	maxLiveProcs  = 10
	maxTotalForks = 48
	maxPipes      = 8
	pipeHighWater = 32 << 10 // stay below the 64 KiB pipe capacity: writes never block
)

// Run executes a chaos program against a freshly booted μFork kernel and
// verifies it against a shadow model. A nil prog generates cfg.ProgBytes
// of seeded random program. The returned error carries cfg.Repro() — the
// one line needed to replay the failure.
func Run(cfg Config, prog []byte) (Result, error) {
	if cfg.Frames == 0 {
		cfg.Frames = 1 << 14
	}
	if cfg.MaxOps == 0 {
		cfg.MaxOps = 4096
	}
	if cfg.CheckEvery == 0 {
		cfg.CheckEvery = 97
	}
	if cfg.ProgBytes == 0 {
		cfg.ProgBytes = 2048
	}
	if prog == nil {
		rng := rand.New(rand.NewSource(cfg.Seed))
		prog = make([]byte, cfg.ProgBytes)
		for i := range prog {
			prog[i] = byte(rng.Intn(256))
		}
	}

	// A private flight recorder per run makes a failure's dump a pure
	// function of the repro line. Memmap (which the invariant audit
	// cross-checks from frame zero), causal and profile keep the caller's
	// planes, else get private ones, so a failure dump always carries
	// trace trees and stacks.
	fr := flight.New(flight.DefaultEvents)
	pl := cfg.Planes
	pl.Flight = fr
	if pl.Memmap == nil {
		pl.Memmap = memmap.New()
	}
	if pl.Causal == nil {
		pl.Causal = causal.New(0)
	}
	if pl.Profile == nil {
		pl.Profile = profile.New(0)
	}

	eng := core.New(cfg.Mode)
	machine := model.UFork(2)
	if cfg.SMP {
		machine = model.UForkSMP(2)
	}
	k := kernel.New(kernel.Config{
		Machine:   machine,
		Engine:    eng,
		Isolation: cfg.Iso,
		Frames:    cfg.Frames,
		Planes:    pl,
	})
	traceGroup := cfg.TraceGroup
	if traceGroup == "" {
		traceGroup = fmt.Sprintf("chaos/%s/%s", cfg.Mode, cfg.Iso)
	}
	h := &harness{cfg: cfg, k: k, opsLeft: cfg.MaxOps, live: 1, maxLive: 1}
	in := NewInjector(cfg.Seed, cfg.Plan)
	h.in = in

	// fail appends the top classified slow-op trace trees, the profiler's
	// top virtual-time stacks, and the flight-recorder tail below the
	// formatted failure (which always ends with the one-line repro), so
	// every failure ships with where the time went — by trace and by
	// stack — and the kernel event history that led up to it.
	fail := func(format string, args ...any) error {
		msg := fmt.Sprintf(format, args...)
		if trees := k.Causal.RenderTop(3); trees != "" {
			msg += "\n" + trees
		}
		if k.Profile.Samples() > 0 {
			msg += "\n" + k.Profile.RenderTop(5)
		}
		return fmt.Errorf("%s\n%s", msg, fr.TextDump(flight.DumpTail))
	}

	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		// The root program is one traced op: forked children join with
		// fork edges, so the run's exemplar is its whole process tree.
		k.TraceBegin(p, traceGroup, "chaos-program")
		ps := &procState{h: h, p: p, prog: prog, sh: newShadow(p)}
		ps.run()
		k.TraceEnd(p)
	})
	if err != nil {
		return Result{}, fail("chaos: root spawn: %v [repro: %s]", err, cfg.Repro())
	}
	// Arm after the root image is loaded: the initial load always
	// succeeds, everything after runs under fire.
	in.Arm(k)
	if cfg.mutate != nil {
		cfg.mutate(k)
	}

	runErr := runGuarded(k)

	res := Result{
		Ops:       cfg.MaxOps - h.opsLeft,
		Forks:     h.forks,
		MaxLive:   h.maxLive,
		Checks:    h.checks,
		Injected:  in.Counts(),
		ProcStats: h.procStats,
		Flight:    fr,
	}
	sort.Slice(res.ProcStats, func(i, j int) bool { return res.ProcStats[i].PID < res.ProcStats[j].PID })
	if runErr != nil {
		return res, fail("chaos: %v [repro: %s]", runErr, cfg.Repro())
	}
	// Final audits: the invariant sweep over the quiesced kernel, and
	// whole-system frame reclamation — every μprocess has terminated, so
	// every frame must be back on the free list.
	h.checks++
	if err := invariant.Check(k); err != nil {
		return res, fail("chaos: post-run %v [repro: %s]", err, cfg.Repro())
	}
	if n := k.Mem.Allocated(); n != 0 {
		return res, fail("chaos: post-run frame leak: %d frames still allocated [repro: %s]", n, cfg.Repro())
	}
	if len(h.failures) > 0 {
		sort.Strings(h.failures)
		return res, fail("chaos: %d divergence(s):\n  %s\n[repro: %s]",
			len(h.failures), h.failures[0], cfg.Repro())
	}
	return res, nil
}

// runGuarded drives the simulation, converting an engine panic (deadlock,
// kernel bug tripped by injection) into an error instead of killing the
// whole test binary without a repro line.
func runGuarded(k *kernel.Kernel) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	k.Run()
	return nil
}

// harness is the per-run global state shared by all μprocesses.
type harness struct {
	cfg       Config
	k         *kernel.Kernel
	in        *Injector
	opsLeft   int
	live      int
	maxLive   int
	forks     int
	checks    int
	pipes     []*pipeState
	failures  []string
	procStats []kernel.ProcStat
}

func (h *harness) failf(format string, args ...any) {
	h.failures = append(h.failures, fmt.Sprintf(format, args...))
}

// tolerable reports whether err is an expected consequence of the armed
// fault plan (or of genuine resource exhaustion the plan provoked), as
// opposed to a divergence.
func tolerable(err error) bool {
	return errors.Is(err, tmem.ErrOutOfMemory) ||
		errors.Is(err, vm.ErrInjected) ||
		errors.Is(err, kernel.ErrInterrupted)
}

// pipeState tracks one pipe. Only the creating μprocess reads (within one
// sequential task, tracked outstanding bytes are always really buffered,
// so guarded reads never block); any μprocess holding the write end may
// write, guarded below the capacity so writes never block either.
type pipeState struct {
	rfd, wfd    int
	reader      kernel.PID
	outstanding int
	dead        bool
}

// shadow is the per-μprocess reference model: heap bytes, abstract
// capabilities as region-relative (offset, length) pairs, the brk
// watermark, pipe-end bookkeeping, and signal counters. Fork deep-copies
// it, exactly as fork copies the real image — except that the abstract
// capabilities are region-relative, so relocation correctness is verified
// by comparing the real (relocated) capability against the child's own
// region base.
type shadow struct {
	heap    []byte
	caps    map[uint64]capTarget
	brk     int
	known   map[int]bool // pipe indices whose fds this μprocess inherited
	closedR map[int]bool
	closedW map[int]bool
	sigSent int
	sigGot  int
	sigArm  bool
}

// capTarget is the abstract value of a stored capability: heap-relative
// target offset and length. Region-independent, hence fork-portable.
type capTarget struct {
	off uint64
	len uint64
}

func newShadow(p *kernel.Proc) *shadow {
	return &shadow{
		heap:    make([]byte, uint64(p.Layout.Pages[kernel.SegHeap])*vm.PageSize),
		caps:    make(map[uint64]capTarget),
		brk:     p.BrkPages,
		known:   make(map[int]bool),
		closedR: make(map[int]bool),
		closedW: make(map[int]bool),
	}
}

func (sh *shadow) clone() *shadow {
	c := &shadow{
		heap:    append([]byte(nil), sh.heap...),
		caps:    make(map[uint64]capTarget, len(sh.caps)),
		brk:     sh.brk,
		known:   make(map[int]bool, len(sh.known)),
		closedR: make(map[int]bool, len(sh.closedR)),
		closedW: make(map[int]bool, len(sh.closedW)),
	}
	for k, v := range sh.caps {
		c.caps[k] = v
	}
	for k, v := range sh.known {
		c.known[k] = v
	}
	for k, v := range sh.closedR {
		c.closedR[k] = v
	}
	for k, v := range sh.closedW {
		c.closedW[k] = v
	}
	return c
}

// clearCaps drops shadow capabilities overlapping [off, off+n): byte
// writes destroy capability validity (the tag-clearing rule).
func (sh *shadow) clearCaps(off, n uint64) {
	first := off &^ 15
	for g := first; g < off+n; g += cap.GranuleSize {
		delete(sh.caps, g)
	}
}

// sortedCapOffsets returns the shadow capability offsets in ascending
// order: map iteration order must never influence op decisions.
func (sh *shadow) sortedCapOffsets() []uint64 {
	offs := make([]uint64, 0, len(sh.caps))
	for off := range sh.caps {
		offs = append(offs, off)
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	return offs
}

// procState is one μprocess executing its slice of the program.
type procState struct {
	h     *harness
	p     *kernel.Proc
	prog  []byte
	pos   int
	depth int
	sh    *shadow
}

// Byte-stream readers. Exhaustion returns zero, which ends the run loop.
func (ps *procState) rd8() uint64 {
	if ps.pos >= len(ps.prog) {
		return 0
	}
	b := ps.prog[ps.pos]
	ps.pos++
	return uint64(b)
}

func (ps *procState) rd16() uint64 { return ps.rd8()<<8 | ps.rd8() }

func (ps *procState) heapLen() uint64 {
	return uint64(ps.p.Layout.Pages[kernel.SegHeap]) * vm.PageSize
}

func (ps *procState) heapBase() uint64 {
	return ps.p.Layout.SegBase(ps.p.Region.Base, kernel.SegHeap)
}

// run interprets the μprocess's program slice, then performs the
// end-of-life differential audit.
func (ps *procState) run() {
	h := ps.h
	for ps.pos < len(ps.prog) && h.opsLeft > 0 {
		h.opsLeft--
		op := int(ps.rd8()) % numOps
		ps.step(op)
		if h.cfg.CheckEvery > 0 && (h.cfg.MaxOps-h.opsLeft)%h.cfg.CheckEvery == 0 {
			h.checks++
			if err := invariant.Check(h.k); err != nil {
				h.failf("mid-run (op %d, pid %d) %v", h.cfg.MaxOps-h.opsLeft, ps.p.PID, err)
			}
		}
	}
	ps.finish()
	h.procStats = append(h.procStats, ps.p.Stat())
	h.live--
}

func (ps *procState) step(op int) {
	switch op {
	case opHeapWrite:
		ps.heapWrite()
	case opHeapVerify:
		ps.heapVerify()
	case opCapStore:
		ps.capStore()
	case opCapVerify:
		ps.capVerify()
	case opDerefWrite:
		ps.deref(true)
	case opDerefVerify:
		ps.deref(false)
	case opFork:
		ps.fork()
	case opWait:
		ps.wait()
	case opPipeNew:
		ps.pipeNew()
	case opPipeWrite:
		ps.pipeWrite()
	case opPipeRead:
		ps.pipeRead()
	case opSbrk:
		ps.sbrk()
	case opSignal:
		ps.signal()
	case opYield:
		ps.h.k.Yield(ps.p)
	case opGetpid:
		if got := ps.h.k.Getpid(ps.p); got != ps.p.PID {
			ps.h.failf("pid %d: getpid returned %d", ps.p.PID, got)
		}
	case opAudit:
		ps.h.checks++
		if err := invariant.Check(ps.h.k); err != nil {
			ps.h.failf("audit op (pid %d) %v", ps.p.PID, err)
		}
	}
}

// span picks a granule-aligned (off, n) window inside the heap that stays
// within one page, so each access is atomic with respect to injected
// faults (no partially applied multi-page write to model).
func (ps *procState) span() (off, n uint64) {
	off = ps.rd16() % ps.heapLen() &^ 15
	n = 16 * (1 + ps.rd8()%16)
	if rem := vm.PageSize - off%vm.PageSize; n > rem {
		n = rem
	}
	if rem := ps.heapLen() - off; n > rem {
		n = rem
	}
	return off, n
}

func (ps *procState) heapWrite() {
	off, n := ps.span()
	fill := byte(ps.rd8())
	buf := bytes.Repeat([]byte{fill}, int(n))
	if err := ps.p.Store(ps.p.HeapCap, off, buf); err != nil {
		if !tolerable(err) {
			ps.h.failf("pid %d: heap write [%#x,+%d): %v", ps.p.PID, off, n, err)
		}
		return
	}
	copy(ps.sh.heap[off:], buf)
	ps.sh.clearCaps(off, n)
}

func (ps *procState) heapVerify() {
	off, n := ps.span()
	buf := make([]byte, n)
	if err := ps.p.Load(ps.p.HeapCap, off, buf); err != nil {
		if !tolerable(err) {
			ps.h.failf("pid %d: heap read [%#x,+%d): %v", ps.p.PID, off, n, err)
		}
		return
	}
	ps.compareHeap(off, buf)
}

// compareHeap checks buf (read from [off, off+len)) against the shadow,
// skipping granules that hold capabilities: under CoPA a plain data read
// of an unrelocated pointer legitimately observes the parent's address
// bytes (the paper's documented CoPA caveat — only capability loads
// trap), so pointer bytes are compared through capVerify instead.
func (ps *procState) compareHeap(off uint64, buf []byte) {
	for g := off &^ 15; g < off+uint64(len(buf)); g += cap.GranuleSize {
		if _, isCap := ps.sh.caps[g]; isCap {
			continue
		}
		lo, hi := g, g+cap.GranuleSize
		if lo < off {
			lo = off
		}
		if end := off + uint64(len(buf)); hi > end {
			hi = end
		}
		if !bytes.Equal(buf[lo-off:hi-off], ps.sh.heap[lo:hi]) {
			ps.h.failf("pid %d: heap divergence at [%#x,%#x): got %x want %x",
				ps.p.PID, lo, hi, buf[lo-off:hi-off], ps.sh.heap[lo:hi])
			return
		}
	}
}

func (ps *procState) capStore() {
	hl := ps.heapLen()
	a := ps.rd16() % hl &^ 15
	b := ps.rd16() % hl &^ 15
	l := 16 * (1 + ps.rd8()%255)
	if b+l > hl {
		l = hl - b
	}
	c, err := ps.p.HeapCap.SetAddr(ps.heapBase() + b).SetBounds(l)
	if err != nil {
		ps.h.failf("pid %d: derive heap cap off=%#x len=%d: %v", ps.p.PID, b, l, err)
		return
	}
	if err := ps.p.StoreCap(ps.p.HeapCap, a, c); err != nil {
		if !tolerable(err) {
			ps.h.failf("pid %d: cap store at %#x: %v", ps.p.PID, a, err)
		}
		return
	}
	ps.sh.caps[a] = capTarget{off: b, len: l}
}

func (ps *procState) capVerify() {
	a := ps.rd16() % ps.heapLen() &^ 15
	c, err := ps.p.LoadCap(ps.p.HeapCap, a)
	if err != nil {
		if !tolerable(err) {
			ps.h.failf("pid %d: cap load at %#x: %v", ps.p.PID, a, err)
		}
		return
	}
	want, ok := ps.sh.caps[a]
	if !ok {
		if c.Tag() {
			ps.h.failf("pid %d: cap load at %#x: tagged capability where shadow has none", ps.p.PID, a)
		}
		return
	}
	// The capability must have followed the μprocess across every fork:
	// cursor, base, and length all region-relative intact (§3.5 step 2 /
	// §4.2 relocation transparency).
	if !c.Tag() {
		ps.h.failf("pid %d: cap load at %#x: tag lost (shadow expects target %#x+%d)", ps.p.PID, a, want.off, want.len)
		return
	}
	wantAddr := ps.heapBase() + want.off
	if c.Addr() != wantAddr || c.Base() != wantAddr || c.Len() != want.len {
		ps.h.failf("pid %d: cap load at %#x: got addr=%#x base=%#x len=%d, want addr=base=%#x len=%d",
			ps.p.PID, a, c.Addr(), c.Base(), c.Len(), wantAddr, want.len)
	}
}

// deref loads a stored capability and accesses memory THROUGH it: the
// end-to-end proof that relocated pointers reference the child's own copy.
func (ps *procState) deref(write bool) {
	offs := ps.sh.sortedCapOffsets()
	if len(offs) == 0 {
		return
	}
	a := offs[ps.rd8()%uint64(len(offs))]
	want := ps.sh.caps[a]
	c, err := ps.p.LoadCap(ps.p.HeapCap, a)
	if err != nil || !c.Tag() {
		if err != nil && !tolerable(err) {
			ps.h.failf("pid %d: deref cap load at %#x: %v", ps.p.PID, a, err)
		}
		return
	}
	d := (ps.rd16() % want.len) &^ 15
	n := 16 * (1 + ps.rd8()%8)
	tgt := want.off + d
	if rem := want.len - d; n > rem {
		n = rem &^ 15
	}
	if rem := vm.PageSize - tgt%vm.PageSize; n > rem {
		n = rem
	}
	if n == 0 {
		return
	}
	if write {
		fill := byte(ps.rd8())
		buf := bytes.Repeat([]byte{fill}, int(n))
		if err := ps.p.Store(c, d, buf); err != nil {
			if !tolerable(err) {
				ps.h.failf("pid %d: deref write via %#x to %#x: %v", ps.p.PID, a, tgt, err)
			}
			return
		}
		copy(ps.sh.heap[tgt:], buf)
		ps.sh.clearCaps(tgt, n)
		return
	}
	buf := make([]byte, n)
	if err := ps.p.Load(c, d, buf); err != nil {
		if !tolerable(err) {
			ps.h.failf("pid %d: deref read via %#x from %#x: %v", ps.p.PID, a, tgt, err)
		}
		return
	}
	ps.compareHeap(tgt, buf)
}

func (ps *procState) fork() {
	h := ps.h
	if ps.depth >= maxForkDepth || h.live >= maxLiveProcs || h.forks >= maxTotalForks {
		return
	}
	// Carve the child's program slice out of the parent's remainder.
	childLen := int(ps.rd16() % 1024)
	if rem := len(ps.prog) - ps.pos; childLen > rem {
		childLen = rem
	}
	childProg := ps.prog[ps.pos : ps.pos+childLen]
	ps.pos += childLen
	// Snapshot the shadow before the call: fork itself must not change the
	// parent-visible image, and the child model is the parent model frozen
	// at the fork instant.
	snap := ps.sh.clone()
	depth := ps.depth + 1
	_, err := h.k.Fork(ps.p, func(cp *kernel.Proc) {
		cs := &procState{h: h, p: cp, prog: childProg, depth: depth, sh: snap}
		cs.run()
	})
	if err != nil {
		if !tolerable(err) {
			h.failf("pid %d: fork: %v", ps.p.PID, err)
		}
		return
	}
	h.forks++
	h.live++
	if h.live > h.maxLive {
		h.maxLive = h.live
	}
}

func (ps *procState) wait() {
	if len(ps.p.Children()) == 0 {
		if _, _, err := ps.h.k.Wait(ps.p); !errors.Is(err, kernel.ErrNoChildren) && !tolerable(err) {
			ps.h.failf("pid %d: wait with no children: %v", ps.p.PID, err)
		}
		return
	}
	// Children always terminate (finite programs, no unbounded blocking),
	// so this wait cannot deadlock.
	if _, _, err := ps.h.k.Wait(ps.p); err != nil && !tolerable(err) {
		ps.h.failf("pid %d: wait: %v", ps.p.PID, err)
	}
}

func (ps *procState) pipeNew() {
	h := ps.h
	if len(h.pipes) >= maxPipes {
		return
	}
	r, w, err := h.k.Pipe(ps.p)
	if err != nil {
		if !tolerable(err) {
			h.failf("pid %d: pipe: %v", ps.p.PID, err)
		}
		return
	}
	idx := len(h.pipes)
	h.pipes = append(h.pipes, &pipeState{rfd: r, wfd: w, reader: ps.p.PID})
	ps.sh.known[idx] = true
}

// pickPipe returns a pipe index this μprocess inherited fds for, or -1.
func (ps *procState) pickPipe() int {
	var idxs []int
	for i := range ps.h.pipes {
		if ps.sh.known[i] {
			idxs = append(idxs, i)
		}
	}
	if len(idxs) == 0 {
		return -1
	}
	return idxs[ps.rd8()%uint64(len(idxs))]
}

func (ps *procState) pipeWrite() {
	i := ps.pickPipe()
	if i < 0 {
		return
	}
	st := ps.h.pipes[i]
	n := int(1 + ps.rd8()%255)
	if st.dead || ps.sh.closedW[i] || st.outstanding+n > pipeHighWater {
		return
	}
	buf := bytes.Repeat([]byte{byte(i)}, n)
	got, err := ps.h.k.Write(ps.p, st.wfd, buf)
	if err != nil {
		if errors.Is(err, kernel.ErrPipeClosed) {
			st.dead = true
			return
		}
		if !tolerable(err) {
			ps.h.failf("pid %d: pipe %d write: %v", ps.p.PID, i, err)
		}
		return
	}
	if got != n {
		ps.h.failf("pid %d: pipe %d short write: %d of %d", ps.p.PID, i, got, n)
		return
	}
	st.outstanding += n
}

func (ps *procState) pipeRead() {
	i := ps.pickPipe()
	if i < 0 {
		return
	}
	st := ps.h.pipes[i]
	// Only the creator reads: within its sequential task, tracked
	// outstanding bytes are guaranteed buffered, so the read never blocks.
	if st.reader != ps.p.PID || ps.sh.closedR[i] || st.outstanding == 0 {
		return
	}
	n := st.outstanding
	if n > 2048 {
		n = 2048
	}
	buf := make([]byte, n)
	got, err := ps.h.k.Read(ps.p, st.rfd, buf)
	if err != nil {
		if !tolerable(err) {
			ps.h.failf("pid %d: pipe %d read: %v", ps.p.PID, i, err)
		}
		return
	}
	if got != n {
		ps.h.failf("pid %d: pipe %d short read: %d of %d buffered", ps.p.PID, i, got, n)
		return
	}
	st.outstanding -= got
}

func (ps *procState) sbrk() {
	pages := int(ps.rd8()%8) - 3
	pred := ps.sh.brk+pages > ps.p.Layout.Pages[kernel.SegHeap]
	err := ps.h.k.Sbrk(ps.p, pages)
	if errors.Is(err, kernel.ErrInterrupted) {
		return // no work done on either side
	}
	if pred != (err != nil) {
		ps.h.failf("pid %d: sbrk(%d) at brk=%d: got err=%v, shadow predicted failure=%v",
			ps.p.PID, pages, ps.sh.brk, err, pred)
		return
	}
	if err == nil {
		ps.sh.brk += pages
		if ps.p.BrkPages != ps.sh.brk {
			ps.h.failf("pid %d: brk divergence: kernel %d shadow %d", ps.p.PID, ps.p.BrkPages, ps.sh.brk)
		}
	}
}

func (ps *procState) signal() {
	h := ps.h
	if !ps.sh.sigArm {
		// Handlers are per-process state and do not survive fork here, so
		// every μprocess arms its own.
		err := h.k.Sigaction(ps.p, kernel.SIGUSR1, func(*kernel.Proc, kernel.Signal) {
			ps.sh.sigGot++
		})
		if err != nil {
			h.failf("pid %d: sigaction: %v", ps.p.PID, err)
			return
		}
		ps.sh.sigArm = true
		return
	}
	if err := h.k.SignalPID(ps.p, ps.p.PID, kernel.SIGUSR1); err != nil {
		h.failf("pid %d: self-signal: %v", ps.p.PID, err)
		return
	}
	ps.sh.sigSent++
}

// finish performs the end-of-life differential audit: a final kernel entry
// flushes pending signals, then the entire heap and every stored
// capability are verified against the shadow.
func (ps *procState) finish() {
	ps.h.k.Getpid(ps.p) // flush pending signal deliveries
	// Refresh the smaps gauges so the end-of-life ProcStat snapshot carries
	// this μprocess's final footprint, and sanity-check the decomposition.
	if r, err := ps.h.k.Smaps(ps.p, 0); err != nil {
		if !tolerable(err) {
			ps.h.failf("pid %d: smaps: %v", ps.p.PID, err)
		}
	} else if r.Total.USSBytes > r.Total.PSSBytes || r.Total.PSSBytes > r.Total.RSSBytes {
		ps.h.failf("pid %d: smaps ordering violated: uss=%d pss=%d rss=%d",
			ps.p.PID, r.Total.USSBytes, r.Total.PSSBytes, r.Total.RSSBytes)
	}
	if ps.sh.sigGot != ps.sh.sigSent {
		ps.h.failf("pid %d: signal divergence: delivered %d of %d sent", ps.p.PID, ps.sh.sigGot, ps.sh.sigSent)
	}
	hl := ps.heapLen()
	buf := make([]byte, vm.PageSize)
	for off := uint64(0); off < hl; off += vm.PageSize {
		if err := ps.p.Load(ps.p.HeapCap, off, buf); err != nil {
			if !tolerable(err) {
				ps.h.failf("pid %d: final heap read at %#x: %v", ps.p.PID, off, err)
			}
			continue
		}
		ps.compareHeap(off, buf)
	}
	for _, a := range ps.sh.sortedCapOffsets() {
		want := ps.sh.caps[a]
		c, err := ps.p.LoadCap(ps.p.HeapCap, a)
		if err != nil {
			if !tolerable(err) {
				ps.h.failf("pid %d: final cap load at %#x: %v", ps.p.PID, a, err)
			}
			continue
		}
		wantAddr := ps.heapBase() + want.off
		if !c.Tag() || c.Addr() != wantAddr || c.Len() != want.len {
			ps.h.failf("pid %d: final cap at %#x: got tag=%v addr=%#x len=%d, want addr=%#x len=%d",
				ps.p.PID, a, c.Tag(), c.Addr(), c.Len(), wantAddr, want.len)
		}
	}
}
