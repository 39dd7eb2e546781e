package bench

import (
	"fmt"

	"ufork/internal/apps/kvstore"
	"ufork/internal/kernel"
	"ufork/internal/sim"
)

// Contention experiment parameters (§4.5 "SMP support"): the paper pins
// μFork's Nginx to one core because every syscall serializes on the big
// kernel lock; this sweep quantifies the ceiling that restriction encodes
// by running the same worker fleets at growing core counts and splitting
// each server's wait time into core starvation (runnable-wait) vs. BKL
// queueing (bkl-wait). More cores convert the former into the latter —
// throughput plateaus while the BKL share of wait climbs.
const (
	contentionWorkers    = 4
	contentionDrivers    = 8
	contentionKeys       = 64
	contentionValueBytes = 2048
)

// contentionThink is the kvstore workers' closed-loop client think time:
// the virtual gap between operations (request parse, client turnaround).
// It bounds each worker's op count per window — without it the split-lock
// configuration, whose per-op kernel time is tiny once nothing serializes,
// runs millions of simulated ops per cell and the sweep's host cost
// explodes. Identical in both lock configurations, so it cancels out of
// the pre/post comparison.
const contentionThink = 10 * sim.Microsecond

// ContentionCoresDefault is the paper-style sweep axis.
var ContentionCoresDefault = []int{1, 2, 4, 8}

// Contention sweep windows (quick vs. -full).
const (
	ContentionWindowQuick = 20 * sim.Millisecond
	ContentionWindowFull  = 200 * sim.Millisecond
)

// Lock-configuration labels for the pre/post-split comparison.
const (
	LocksBKL = "bkl" // everything serializes on the big kernel lock
	LocksSMP = "smp" // split hierarchy, narrow residual lock
)

// contentionSystem maps a lock configuration to the benchmarked system.
func contentionSystem(locks string) SystemID {
	if locks == LocksSMP {
		return SysUForkSMP
	}
	return SysUForkCoPA
}

// globalLockName is the lockstat row of the global serializing lock under
// each configuration.
func globalLockName(locks string) string {
	if locks == LocksSMP {
		return "residual"
	}
	return "bkl"
}

// ContentionRow is one (workload, locks, cores) cell of the scaling table.
// The Global* fields describe the global serializing lock — the BKL on the
// pre-split configuration, the residual lock on the split one — so the same
// columns read as the before/after of breaking the big lock.
type ContentionRow struct {
	Workload         string
	Locks            string // LocksBKL or LocksSMP
	Cores            int
	Ops              int
	ThroughputPerSec float64
	// Wait decomposition, summed over the server-side μprocesses (load
	// drivers are off-core client machines and excluded): global-lock wait,
	// wait on all kernel locks (== global wait when everything is the BKL),
	// and runnable-wait (had work, no core free).
	BKLWaitNS  uint64
	LockWaitNS uint64
	CoreWaitNS uint64
	BKLShare   float64 // global-lock wait / (all lock wait + core wait)
	// Global-lock lockstat for the run: total acquisitions and the deepest
	// convoy the waiters-high-water window saw.
	BKLAcquisitions uint64
	BKLWaitersHigh  int64
}

// ContentionSweep runs both workloads under both lock configurations at
// each core count: the BKL rows reproduce the §4.5 single-core ceiling, the
// SMP rows show what breaking the lock buys at the same core counts.
func ContentionSweep(env Env, window sim.Time, cores []int) ([]ContentionRow, error) {
	var rows []ContentionRow
	for _, locks := range []string{LocksBKL, LocksSMP} {
		for _, c := range cores {
			row, err := env.httpdContention(locks, c, window)
			if err != nil {
				return nil, fmt.Errorf("bench: contention httpd/%s/%dc: %w", locks, c, err)
			}
			rows = append(rows, row)
		}
	}
	for _, locks := range []string{LocksBKL, LocksSMP} {
		for _, c := range cores {
			row, err := env.kvContention(locks, c, window)
			if err != nil {
				return nil, fmt.Errorf("bench: contention kvstore/%s/%dc: %w", locks, c, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// contentionWaits folds the wait decomposition and global-lock lockstat of
// a finished run into row. Off-core driver pseudo-processes never compete
// for server cores or the server locks in a way the paper's ceiling is
// about, so they are excluded by image name.
func contentionWaits(k *kernel.Kernel, row *ContentionRow, exclude string) {
	for _, st := range k.ProcStats() {
		if st.Name == exclude {
			continue
		}
		row.BKLWaitNS += st.BKLWaitNS
		row.LockWaitNS += st.LockWaitNS
		row.CoreWaitNS += st.RunnableWaitNS
	}
	if total := row.LockWaitNS + row.CoreWaitNS; total > 0 {
		row.BKLShare = float64(row.BKLWaitNS) / float64(total)
	}
	global := globalLockName(row.Locks)
	for _, st := range k.Lockstat() {
		if st.Name == global {
			row.BKLAcquisitions = st.Acquisitions
			row.BKLWaitersHigh = st.WaitersHighWater
		}
	}
}

// withLocks adds a private lock table to env when none is armed: the
// contention rows read their global-lock stats from it.
func (env Env) withLocks() Env {
	if env.Planes.Locks == nil {
		env.Planes.Locks = sim.NewLockTable()
	}
	return env
}

// httpdContention is the Nginx-shaped cell: a fixed four-worker fleet
// (forked, sharing the listener) hammered by eight closed-loop drivers,
// at the given core count.
func (env Env) httpdContention(locks string, cores int, window sim.Time) (ContentionRow, error) {
	k, ops, err := env.withLocks().wrkRun(contentionSystem(locks), cores, contentionWorkers, contentionDrivers, window)
	row := ContentionRow{Workload: "httpd", Locks: locks, Cores: cores, Ops: ops,
		ThroughputPerSec: float64(ops) / (float64(window) / float64(sim.Second))}
	contentionWaits(k, &row, "wrk")
	return row, err
}

// kvContentionSpec is the kvstore server image: a modest static heap
// holding the shared store plus per-worker CoW copies.
func kvContentionSpec() kernel.ProgramSpec {
	return kernel.ProgramSpec{
		Name:      "kvsrv",
		TextPages: 256, RodataPages: 64, GOTPages: 4, DataPages: 256,
		AllocMetaPages: 32, HeapPages: 4096, StackPages: 64, TLSPages: 1,
		GOTEntries: 256,
	}
}

// kvContention is the Redis-shaped cell: four forked workers rewrite keys
// and append AOF records in a closed loop while the parent cycles BGSAVE
// snapshots — every Set, Write, fork and reap crossing the BKL.
func (env Env) kvContention(locks string, cores int, window sim.Time) (ContentionRow, error) {
	k := env.withLocks().build(contentionSystem(locks), cores, 1<<16)
	row := ContentionRow{Workload: "kvstore", Locks: locks, Cores: cores}

	err := runRoot(k, kvContentionSpec(), func(p *kernel.Proc) error {
		store, val, err := preloadKV(p, contentionKeys, contentionValueBytes)
		if err != nil {
			return err
		}

		deadline := p.Now() + window
		ops := make([]int, contentionWorkers)
		var workerErr error
		for w := 0; w < contentionWorkers; w++ {
			w := w
			if _, err := k.Fork(p, func(c *kernel.Proc) {
				ws, err := kvstore.Attach(c)
				if err != nil {
					workerErr = err
					k.Exit(c, 1)
					return
				}
				fd, err := k.Open(c, fmt.Sprintf("/aof-%d", w), true)
				if err != nil {
					workerErr = err
					k.Exit(c, 1)
					return
				}
				rec := make([]byte, 128)
				for i := 0; c.Now() < deadline; i++ {
					c.Task.Advance(contentionThink)
					if err := ws.Set(kvKey((w*17+i)%contentionKeys), val); err != nil {
						workerErr = err
						k.Exit(c, 1)
						return
					}
					if _, err := k.Write(c, fd, rec); err != nil {
						workerErr = err
						k.Exit(c, 1)
						return
					}
					ops[w]++
				}
				k.Exit(c, 0)
			}); err != nil {
				return err
			}
		}

		// The parent is the snapshotter: BGSAVE, wait out one child (the
		// snapshot — or a worker whose window closed; the books balance
		// either way), repeat until the window ends.
		snaps := 0
		for p.Now() < deadline {
			if _, err := store.BGSave("/dump.rdb"); err != nil {
				return err
			}
			if _, status, err := k.Wait(p); err != nil {
				return err
			} else if status != 0 {
				return fmt.Errorf("child failed with status %d", status)
			}
			snaps++
		}
		for i := 0; i < contentionWorkers; i++ {
			if _, status, err := k.Wait(p); err != nil {
				return err
			} else if status != 0 {
				return fmt.Errorf("worker failed with status %d", status)
			}
		}
		if workerErr != nil {
			return workerErr
		}
		for _, n := range ops {
			row.Ops += n
		}
		row.Ops += snaps
		row.ThroughputPerSec = float64(row.Ops) / (float64(window) / float64(sim.Second))
		return nil
	})
	contentionWaits(k, &row, "")
	return row, err
}

// RenderContention formats the sweep: throughput next to the wait split,
// so the one-core ceiling reads directly off the bkl rows — added cores
// stop buying throughput once glock-share owns the wait — and the smp rows
// show the split hierarchy converting that share into scaling.
func RenderContention(rows []ContentionRow) string {
	var out [][]string
	for _, r := range rows {
		unit := "req/s"
		if r.Workload == "kvstore" {
			unit = "op/s"
		}
		out = append(out, []string{
			r.Workload, r.Locks, fmt.Sprintf("%d", r.Cores),
			fmt.Sprintf("%.0f %s", r.ThroughputPerSec, unit),
			Ms(sim.Time(r.BKLWaitNS)), Ms(sim.Time(r.LockWaitNS)), Ms(sim.Time(r.CoreWaitNS)),
			fmt.Sprintf("%.1f%%", 100*r.BKLShare),
			fmt.Sprintf("%d", r.BKLAcquisitions),
			fmt.Sprintf("%d", r.BKLWaitersHigh),
		})
	}
	return "Contention sweep — throughput vs. global-lock wait share (§4.5 ceiling, pre/post lock split)\n" +
		Table([]string{"workload", "locks", "cores", "throughput", "glock-wait", "lock-wait", "core-wait", "glock-share", "glock-acq", "waiters-hw"}, out)
}

// CheckContentionScaling asserts the headline gates of the lock split on a
// finished sweep: the split-lock httpd fleet at 4 cores must clear twice
// its 1-core throughput, and no split-lock row at 4+ cores may spend more
// than 40% of its wait on the residual lock (the BKL rows sit near 100%).
// ufork-bench -check-scaling exits non-zero when it fails.
func CheckContentionScaling(rows []ContentionRow) error {
	var base1, base4 float64
	for _, r := range rows {
		if r.Workload == "httpd" && r.Locks == LocksSMP {
			switch r.Cores {
			case 1:
				base1 = r.ThroughputPerSec
			case 4:
				base4 = r.ThroughputPerSec
			}
		}
		if r.Locks == LocksSMP && r.Cores >= 4 && r.BKLShare >= 0.4 {
			return fmt.Errorf("bench: %s/%dc residual-lock share %.1f%% >= 40%%",
				r.Workload, r.Cores, 100*r.BKLShare)
		}
	}
	if base1 == 0 || base4 == 0 {
		return fmt.Errorf("bench: scaling check needs smp httpd rows at 1 and 4 cores")
	}
	if base4 < 2*base1 {
		return fmt.Errorf("bench: smp httpd 4-core throughput %.0f < 2x 1-core %.0f",
			base4, base1)
	}
	return nil
}
