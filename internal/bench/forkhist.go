package bench

import (
	"fmt"

	"ufork/internal/alloc"
	"ufork/internal/kernel"
	"ufork/internal/obs"
	"ufork/internal/sim"
)

// Fork-latency distribution iteration counts.
const (
	ForkHistItersQuick = 60
	ForkHistItersFull  = 300
)

// ForkHistRow summarises the fork-latency distribution of one system: the
// percentile summary plus the mean per-phase breakdown (§6-style "where
// does fork time go" accounting).
type ForkHistRow struct {
	System SystemID
	Hist   obs.HistSummary

	// Mean per-fork phase times over all iterations.
	Reserve, PTECopy, EagerCopy, Scan, Reg, Fixup sim.Time
}

// forkHistSystems are the copy-strategy series: the three μFork modes the
// §3.8 ablation compares, plus the monolithic baseline for context.
var forkHistSystems = []SystemID{SysUForkCoPA, SysUForkCoA, SysUForkFull, SysPosix}

// forkHistBuckets are 1 µs linear bounds up to 2 ms: fork latencies of a
// hello-world image cluster within one decade, so the default 1-2-5
// buckets would collapse p50/p90/p99 into a single bucket bound.
var forkHistBuckets = func() []uint64 {
	var b []uint64
	for us := uint64(1); us <= 2000; us++ {
		b = append(b, us*uint64(sim.Microsecond))
	}
	return b
}()

// ForkHist measures the fork-latency distribution per copy mode: iters
// forks of a warmed hello-world-sized image, each latency observed into a
// fixed-bucket histogram private to the row. When a metrics registry is
// armed (env.Planes.Metrics) each row's histogram is also added to it as
// bench.forkhist.<system>, so `-metrics` snapshots carry them.
func ForkHist(env Env, iters int) ([]ForkHistRow, error) {
	var rows []ForkHistRow
	for _, id := range forkHistSystems {
		row, err := env.forkHistOnce(id, iters)
		if err != nil {
			return nil, fmt.Errorf("bench: forkhist %s: %w", id, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func (env Env) forkHistOnce(id SystemID, iters int) (ForkHistRow, error) {
	k := env.build(id, 2, 1<<16)
	row := ForkHistRow{System: id}
	hist := obs.NewHistogram(forkHistBuckets)
	var phases [6]sim.Time
	spec := kernel.HelloWorldSpec()
	spec.HeapPages = iters/2 + 64 // room for the growing live set below
	spec.AllocMetaPages = 16      // descriptor table for iters live blocks
	err := runRoot(k, spec, func(p *kernel.Proc) error {
		// Warm the parent like a started C program: data, stack, heap.
		if err := touchPages(p, kernel.SegData, 8); err != nil {
			return err
		}
		if err := touchPages(p, kernel.SegStack, 4); err != nil {
			return err
		}
		if err := touchPages(p, kernel.SegHeap, 8); err != nil {
			return err
		}
		a := alloc.Attach(p)
		if err := a.Init(); err != nil {
			return err
		}
		one := []byte{0x42}
		for i := 0; i < iters; i++ {
			// The parent ages like a long-lived server between forks: one
			// more live allocation (a tagged capability in the allocator
			// metadata μFork must relocate at every fork) and one more open
			// descriptor (linear FD-dup cost), so successive forks get
			// progressively more expensive and the latency distribution has
			// a real spread.
			c, err := a.Alloc(1024)
			if err != nil {
				return err
			}
			if err := p.Store(c, 0, one); err != nil {
				return err
			}
			if _, err := k.Open(p, fmt.Sprintf("/conn-%04d", i), true); err != nil {
				return err
			}
			if _, err := k.Fork(p, func(c *kernel.Proc) {
				if err := touchPages(c, kernel.SegStack, 1); err != nil {
					k.Exit(c, 1)
				}
				k.Exit(c, 0)
			}); err != nil {
				return err
			}
			fs := p.LastFork
			hist.Observe(uint64(fs.Latency))
			for j, d := range []sim.Time{fs.ReserveTime, fs.PTECopyTime,
				fs.EagerCopyTime, fs.ScanTime, fs.RegTime, fs.FixupTime} {
				phases[j] += d
			}
			if _, status, err := k.Wait(p); err != nil {
				return err
			} else if status != 0 {
				return fmt.Errorf("forkhist child failed: %d", status)
			}
		}
		return nil
	})
	if err != nil {
		return row, err
	}
	row.Hist = hist.Summary()
	if k.Metrics != nil {
		k.Metrics.HistogramWith("bench.forkhist."+string(id), forkHistBuckets).Merge(hist)
	}
	n := sim.Time(iters)
	row.Reserve, row.PTECopy, row.EagerCopy = phases[0]/n, phases[1]/n, phases[2]/n
	row.Scan, row.Reg, row.Fixup = phases[3]/n, phases[4]/n, phases[5]/n
	foldRun("forkhist."+string(id), k)
	return row, nil
}

// RenderForkHist formats the fork-latency distributions and mean phase
// breakdowns.
func RenderForkHist(rows []ForkHistRow) string {
	var dist, phase [][]string
	for _, r := range rows {
		dist = append(dist, []string{
			string(r.System),
			fmt.Sprintf("%d", r.Hist.Count),
			Us(sim.Time(r.Hist.P50)),
			Us(sim.Time(r.Hist.P90)),
			Us(sim.Time(r.Hist.P99)),
			Us(sim.Time(r.Hist.P999)),
			Us(sim.Time(r.Hist.Max)),
		})
		phase = append(phase, []string{
			string(r.System),
			Us(r.Reserve), Us(r.PTECopy), Us(r.EagerCopy), Us(r.Scan), Us(r.Reg), Us(r.Fixup),
		})
	}
	return "Fork latency distribution per copy mode (hello-world image)\n" +
		Table([]string{"system", "forks", "p50", "p90", "p99", "p99.9", "max"}, dist) +
		"\nMean fork phase breakdown (reserve / pte-copy / eager-copy / reloc-scan / reg-reloc / fd+fixed)\n" +
		Table([]string{"system", "reserve", "pte-copy", "eager-copy", "reloc-scan", "reg-reloc", "fd+fixed"}, phase)
}
