package kernel

import (
	"sort"

	"ufork/internal/obs"
	"ufork/internal/obs/flight"
	"ufork/internal/sim"
)

// Accounting is the per-μprocess cumulative counter block: where this
// process's time and memory went, attributable live. Every field is an
// atomic obs.Counter/obs.Gauge — mutation happens only on the owning
// kernel's simulation goroutine, but the telemetry server snapshots these
// from an HTTP goroutine mid-run, so plain ints would race.
type Accounting struct {
	// Syscalls counts completed kernel entries by syscall number.
	Syscalls [NumSysNos]obs.Counter

	// Faults counts page faults taken, and the outcome counters classify
	// how each resolution ended (the §3.8 copy-mode taxonomy):
	// CoW — a private physical copy, no capability relocation;
	// CoA — the last-referenced frame adopted in place, no copy;
	// CoPA — the resolution relocated capabilities (copy-and-relocate);
	// Mapped — neither copy, adopt nor relocation (demand map, spurious).
	Faults      obs.Counter
	FaultCoW    obs.Counter
	FaultCoA    obs.Counter
	FaultCoPA   obs.Counter
	FaultMapped obs.Counter

	// FramesOwned is the attribution gauge of physical frames charged to
	// this μprocess: image pages at load, eager copies at fork (charged to
	// the child), and private copies made by its faults. Shared CoW frames
	// stay charged to the process that first mapped them — attribution, not
	// a page-table walk, so it is safe to read live. FramesPeak is its
	// high-water mark.
	FramesOwned obs.Gauge
	FramesPeak  obs.Gauge

	// Fork cost attribution, charged to the forking parent: bytes
	// physically copied during fork calls (eager + proactive pages) and
	// capabilities relocated (tag-scan rewrites + register file). Forks
	// counts fork calls (the atomic twin of Proc.Forked).
	ForkBytesCopied   obs.Counter
	ForkCapsRelocated obs.Counter
	Forks             obs.Counter

	// FaultCapsRelocated counts capabilities rewritten by this process's
	// fault resolutions (the lazy half of CoPA relocation).
	FaultCapsRelocated obs.Counter

	// PeakBrkPages is the high-water heap watermark Sbrk ever reached.
	PeakBrkPages obs.Gauge

	// Memory-footprint gauges (the smaps plane): RSS is every mapped page,
	// PSS divides shared pages by their mapping count, USS is exclusively
	// mapped pages, and the shared split separates never-writable image
	// pages (clean) from fork-inherited writable pages (dirty).
	// PendingPages counts pages still awaiting capability relocation.
	// Refreshed by SYS_SMAPS walks, after forks while the provenance plane
	// is armed, and frozen at exit just before the image is unmapped.
	RSSBytes         obs.Gauge
	PSSBytes         obs.Gauge
	USSBytes         obs.Gauge
	SharedCleanBytes obs.Gauge
	SharedDirtyBytes obs.Gauge
	PendingPages     obs.Gauge

	// Kernel-side delay attribution, refining the sim task's taxonomy:
	// BKLWaitNS is the slice of lock-wait spent on the kernel's global
	// serializing lock — the big kernel lock, or the narrow residual lock
	// on machines with the split hierarchy (the counter keeps its name and
	// JSON field so pre/post-split sweeps compare directly); FaultServiceNS
	// is clock time inside the page-fault path (trap cost plus resolution);
	// the Block*NS counters split parked time by what the process slept on.
	BKLWaitNS      obs.Counter
	FaultServiceNS obs.Counter
	BlockPipeNS    obs.Counter
	BlockNetNS     obs.Counter
	BlockChildNS   obs.Counter
}

// chargeFrames adjusts the owned-frame attribution by d frames and tracks
// the peak. Single-writer (the sim goroutine), so the read-then-store peak
// update cannot lose races with itself.
func (a *Accounting) chargeFrames(d int64) {
	a.FramesOwned.Add(d)
	if v := a.FramesOwned.Value(); v > a.FramesPeak.Value() {
		a.FramesPeak.Set(v)
	}
}

// noteBrk records a new heap watermark candidate.
func (a *Accounting) noteBrk(pages int) {
	if int64(pages) > a.PeakBrkPages.Value() {
		a.PeakBrkPages.Set(int64(pages))
	}
}

// ProcStat is one μprocess's accounting snapshot: the procfs-style record
// returned by the ProcStats kernel API, the SYS_PROCSTAT syscall, and the
// telemetry server's /procs endpoint.
type ProcStat struct {
	PID           int               `json:"pid"`
	PPID          int               `json:"ppid"`
	Name          string            `json:"name"`
	SyscallsTotal uint64            `json:"syscalls_total"`
	Syscalls      map[string]uint64 `json:"syscalls,omitempty"`

	Faults      uint64 `json:"faults"`
	FaultCoW    uint64 `json:"fault_cow"`
	FaultCoA    uint64 `json:"fault_coa"`
	FaultCoPA   uint64 `json:"fault_copa"`
	FaultMapped uint64 `json:"fault_mapped"`

	FramesOwned int64 `json:"frames_owned"`
	FramesPeak  int64 `json:"frames_peak"`

	Forks             uint64 `json:"forks"`
	ForkBytesCopied   uint64 `json:"fork_bytes_copied"`
	ForkCapsRelocated uint64 `json:"fork_caps_relocated"`

	FaultCapsRelocated uint64 `json:"fault_caps_relocated"`

	PeakBrkPages int64 `json:"peak_brk_pages"`

	// smaps aggregates, as of the last SYS_SMAPS walk (or exit, for a
	// reaped snapshot — the footprint the process died with).
	RSSBytes         int64 `json:"rss_bytes"`
	PSSBytes         int64 `json:"pss_bytes"`
	USSBytes         int64 `json:"uss_bytes"`
	SharedCleanBytes int64 `json:"shared_clean_bytes"`
	SharedDirtyBytes int64 `json:"shared_dirty_bytes"`
	PendingPages     int64 `json:"pending_pages"`

	// Delay accounting: where this process's virtual lifetime went. The
	// sim engine attributes every clock advance to exactly one bucket, so
	// run + runnable-wait + blocked + latency + lock-wait == lifetime (the
	// identity TestDelayTaxonomySums pins). The remaining fields refine
	// those buckets with kernel-side causes.
	LifetimeNS     uint64 `json:"lifetime_ns"`
	RunNS          uint64 `json:"run_ns"`
	RunnableWaitNS uint64 `json:"runnable_wait_ns"`
	BlockedNS      uint64 `json:"blocked_ns"`
	LatencyNS      uint64 `json:"latency_ns"`
	LockWaitNS     uint64 `json:"lock_wait_ns"`
	BKLWaitNS      uint64 `json:"bkl_wait_ns"`
	FaultServiceNS uint64 `json:"fault_service_ns"`
	BlockPipeNS    uint64 `json:"block_pipe_ns"`
	BlockNetNS     uint64 `json:"block_net_ns"`
	BlockChildNS   uint64 `json:"block_child_ns"`

	// Exited marks a snapshot taken at reap time: the process is gone
	// from the live table and the stats are final.
	Exited bool `json:"exited,omitempty"`
}

// Stat snapshots the process's accounting. Safe to call from any
// goroutine: it reads only atomic counters and fields immutable after the
// process is published in the process table.
func (p *Proc) Stat() ProcStat {
	a := &p.Acct
	st := ProcStat{
		PID:  int(p.PID),
		Name: p.Spec.Name,

		Faults:      a.Faults.Value(),
		FaultCoW:    a.FaultCoW.Value(),
		FaultCoA:    a.FaultCoA.Value(),
		FaultCoPA:   a.FaultCoPA.Value(),
		FaultMapped: a.FaultMapped.Value(),

		FramesOwned: a.FramesOwned.Value(),
		FramesPeak:  a.FramesPeak.Value(),

		Forks:             a.Forks.Value(),
		ForkBytesCopied:   a.ForkBytesCopied.Value(),
		ForkCapsRelocated: a.ForkCapsRelocated.Value(),

		FaultCapsRelocated: a.FaultCapsRelocated.Value(),

		PeakBrkPages: a.PeakBrkPages.Value(),

		RSSBytes:         a.RSSBytes.Value(),
		PSSBytes:         a.PSSBytes.Value(),
		USSBytes:         a.USSBytes.Value(),
		SharedCleanBytes: a.SharedCleanBytes.Value(),
		SharedDirtyBytes: a.SharedDirtyBytes.Value(),
		PendingPages:     a.PendingPages.Value(),

		BKLWaitNS:      a.BKLWaitNS.Value(),
		FaultServiceNS: a.FaultServiceNS.Value(),
		BlockPipeNS:    a.BlockPipeNS.Value(),
		BlockNetNS:     a.BlockNetNS.Value(),
		BlockChildNS:   a.BlockChildNS.Value(),
	}
	if t := p.Task; t != nil {
		d := t.Delays()
		st.RunNS = uint64(d[sim.DelayRun])
		st.RunnableWaitNS = uint64(d[sim.DelayRunnable])
		st.BlockedNS = uint64(d[sim.DelayBlocked])
		st.LatencyNS = uint64(d[sim.DelayLatency])
		st.LockWaitNS = uint64(d[sim.DelayLockWait])
		st.LifetimeNS = st.RunNS + st.RunnableWaitNS + st.BlockedNS +
			st.LatencyNS + st.LockWaitNS
	}
	if p.Parent != nil {
		st.PPID = int(p.Parent.PID)
	}
	for no := SysNo(0); no < NumSysNos; no++ {
		v := a.Syscalls[no].Value()
		if v == 0 {
			continue
		}
		if st.Syscalls == nil {
			st.Syscalls = make(map[string]uint64)
		}
		st.Syscalls[no.String()] = v
		st.SyscallsTotal += v
	}
	return st
}

// blockAccounted runs wait (which parks the task) and records the sleep as
// one KindBlock event carrying its cause (blockPipe, blockNet, blockChild)
// and the parked virtual time it accrued, from which emit derives the
// Acct.Block*NS counters. The event lands before the lock re-acquisition
// below, whose own waits belong to their lock sites. On fine-grained
// machines a sleeping task first releases every strict
// kernel lock it holds — a parked holder would wedge the FIFO handoff
// queues exactly the way a sleeping lock holder wedges a real kernel —
// and re-acquires the same footprint in hierarchy order on wake. The
// legacy BKL is not on the held stack; its virtual-exclusion semantics
// tolerate a parked holder, so BKL-machine behavior is unchanged.
func blockAccounted(p *Proc, cause uint64, wait func()) {
	t := p.Task
	held := t.HeldLocks()
	for i := len(held) - 1; i >= 0; i-- {
		held[i].Unlock(t)
	}
	b0 := t.Delay(sim.DelayBlocked)
	wait()
	p.emit(flight.KindBlock, cause, uint64(t.Delay(sim.DelayBlocked)-b0), 0)
	for _, l := range held {
		p.k.lockWait(p, l)
	}
}

// deadStatsCap bounds the reaped-process history: enough for a whole
// quick bench run, small enough that a fork-bomb soak cannot grow the
// kernel without bound.
const deadStatsCap = 128

// reap removes p from the live table and retires its final accounting
// snapshot into the bounded dead ring. PIDs are never reused, so a
// retired snapshot can never collide with a live row in ProcStats. The
// reaping process `by` (the waiting parent, or p itself on self-reap)
// supplies the running task that brackets the proc-table shard lock on
// fine-grained machines; BKL machines keep the shadow-meter credit.
func (k *Kernel) reap(p *Proc, by *Proc) {
	st := p.Stat()
	st.Exited = true
	if k.Machine.FineGrainedLocks {
		sh := k.shardFor(p.PID)
		k.lockWait(by, sh)
		defer sh.Unlock(by.Task)
	} else {
		k.lkProc.Acquire(p.Task.Now())
	}
	k.procMu.Lock()
	delete(k.procs, p.PID)
	k.dead = append(k.dead, st)
	if len(k.dead) > deadStatsCap {
		k.dead = k.dead[len(k.dead)-deadStatsCap:]
	}
	k.procMu.Unlock()
}

// ProcStats snapshots every live process's accounting plus the final
// snapshots of recently reaped processes, sorted by PID. Safe to call
// from the telemetry goroutine while the simulation runs.
func (k *Kernel) ProcStats() []ProcStat {
	k.procMu.RLock()
	stats := make([]ProcStat, 0, len(k.procs)+len(k.dead))
	stats = append(stats, k.dead...)
	for _, p := range k.procs {
		stats = append(stats, p.Stat())
	}
	k.procMu.RUnlock()
	sort.Slice(stats, func(i, j int) bool { return stats[i].PID < stats[j].PID })
	return stats
}

// procStatBytes approximates the user-visible size of a ProcStat record
// for TOCTTOU copy-out accounting.
const procStatBytes = 256

// Procstat is the SYS_PROCSTAT syscall: a procfs read without a procfs.
// pid 0 queries the calling process; querying another live PID is
// permitted (the trust model's introspection surface is read-only
// accounting, never capabilities).
func (k *Kernel) Procstat(p *Proc, pid PID) (ProcStat, error) {
	k.enter(p, SysProcstat, procStatBytes)
	defer k.leave(p)
	if err := k.chaosErr("procstat"); err != nil {
		return ProcStat{}, err
	}
	if pid == 0 || pid == p.PID {
		return p.Stat(), nil
	}
	k.procMu.RLock()
	q, ok := k.procs[pid]
	k.procMu.RUnlock()
	if !ok {
		return ProcStat{}, ErrNoProc
	}
	return q.Stat(), nil
}
