package bench

import (
	"fmt"

	"ufork/internal/kernel"
)

// FootprintDepth is the fork-chain depth the footprint sweep drives: a
// root plus FootprintDepth generations, every ancestor kept alive in
// Wait while its descendants run, so the whole chain shares one image
// modulo the pages each generation dirties.
const FootprintDepth = 5

// footprintDirtyPages is how many heap pages each generation writes
// before sampling — the working set that must go private under any copy
// strategy. Small against the image so sharing has room to show.
const footprintDirtyPages = 8

// FootprintSample is the system-wide memory decomposition at one fork
// depth, summed over all live μprocesses from their smaps walks.
type FootprintSample struct {
	Depth  int    // generations forked so far (0 = root only)
	Live   int    // live μprocesses at the sample
	RSS    uint64 // Σ resident bytes (counts shared frames once per mapper)
	PSS    uint64 // Σ proportional bytes (ΣPSS ≈ distinct live frames)
	USS    uint64 // Σ bytes mapped by exactly one μprocess
	Shared uint64 // RSS − USS: bytes still shared with an ancestor
}

// FootprintRow is one system's sweep: a sample after each generation.
type FootprintRow struct {
	System  SystemID
	Samples []FootprintSample
}

// footprintSystems compares the three μFork copy strategies: the sweep
// exists to show CoPA/CoA retaining shared bytes that eager copy forfeits
// at the first fork.
var footprintSystems = []SystemID{SysUForkCoPA, SysUForkCoA, SysUForkFull}

// Footprint sweeps fork depth × copy mode and reports bytes shared over
// time: after each generation dirties its working set, every live
// μprocess is smaps-walked and the RSS/PSS/USS totals recorded. Lazy
// strategies keep ancestors' pages shared down the whole chain; eager
// copy privatizes everything at each fork.
func Footprint(env Env) ([]FootprintRow, error) {
	var rows []FootprintRow
	for _, id := range footprintSystems {
		row, err := env.footprintOnce(id)
		if err != nil {
			return nil, fmt.Errorf("bench: footprint %s: %w", id, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// footprintTotals smaps-walks every live μprocess and sums the
// decomposition.
func footprintTotals(k *kernel.Kernel, depth int) FootprintSample {
	s := FootprintSample{Depth: depth}
	for _, st := range k.ProcStats() {
		if st.Exited {
			continue
		}
		r, ok := k.SmapsOf(kernel.PID(st.PID))
		if !ok {
			continue
		}
		s.Live++
		s.RSS += r.Total.RSSBytes
		s.PSS += r.Total.PSSBytes
		s.USS += r.Total.USSBytes
	}
	s.Shared = s.RSS - s.USS
	return s
}

func (env Env) footprintOnce(id SystemID) (FootprintRow, error) {
	k := env.build(id, 2, 1<<16)
	row := FootprintRow{System: id}
	var chainErr error
	spec := kernel.HelloWorldSpec()
	err := runRoot(k, spec, func(p *kernel.Proc) error {
		// Warm the root like a started program and plant heap capabilities
		// so CoPA's pointer-access path has relocation work down the chain.
		if err := touchPages(p, kernel.SegHeap, footprintDirtyPages); err != nil {
			return err
		}
		for i := 0; i < 8; i++ {
			if err := p.StoreCap(p.HeapCap, uint64(i*64), p.HeapCap); err != nil {
				return err
			}
		}
		row.Samples = append(row.Samples, footprintTotals(k, 0))

		var chain func(c *kernel.Proc, depth int)
		chain = func(c *kernel.Proc, depth int) {
			defer k.Exit(c, 0)
			if err := touchPages(c, kernel.SegHeap, footprintDirtyPages); err != nil {
				chainErr = fmt.Errorf("depth %d touch: %w", depth, err)
				return
			}
			// Sample with every ancestor alive: they are parked in Wait,
			// their mappings intact, so sharing with them is visible.
			row.Samples = append(row.Samples, footprintTotals(k, depth))
			if depth == FootprintDepth {
				return
			}
			if _, err := k.Fork(c, func(gc *kernel.Proc) { chain(gc, depth+1) }); err != nil {
				chainErr = fmt.Errorf("depth %d fork: %w", depth, err)
				return
			}
			if _, status, err := k.Wait(c); err != nil {
				chainErr = fmt.Errorf("depth %d wait: %w", depth, err)
			} else if status != 0 && chainErr == nil {
				chainErr = fmt.Errorf("depth %d child exited %d", depth, status)
			}
		}
		if _, err := k.Fork(p, func(c *kernel.Proc) { chain(c, 1) }); err != nil {
			return err
		}
		if _, status, err := k.Wait(p); err != nil {
			return err
		} else if status != 0 && chainErr == nil {
			return fmt.Errorf("chain exited %d", status)
		}
		return chainErr
	})
	if err != nil {
		return row, err
	}
	foldRun("footprint."+string(id), k)
	return row, nil
}

// RenderFootprint formats the sweep: one block per system plus the
// comparative shared-bytes-by-depth table the experiment exists for.
func RenderFootprint(rows []FootprintRow) string {
	out := "Footprint sweep — memory decomposition vs fork depth (ancestors kept alive)\n"
	for _, r := range rows {
		var t [][]string
		for _, s := range r.Samples {
			t = append(t, []string{
				fmt.Sprintf("%d", s.Depth), fmt.Sprintf("%d", s.Live),
				MB(s.RSS), MB(s.PSS), MB(s.USS), MB(s.Shared),
			})
		}
		out += fmt.Sprintf("\n%s\n", r.System) +
			Table([]string{"depth", "live", "rss", "pss", "uss", "shared"}, t)
	}
	var cmp [][]string
	for d := 0; d <= FootprintDepth; d++ {
		cells := []string{fmt.Sprintf("%d", d)}
		for _, r := range rows {
			if d < len(r.Samples) {
				cells = append(cells, MB(r.Samples[d].Shared))
			} else {
				cells = append(cells, "-")
			}
		}
		cmp = append(cmp, cells)
	}
	hdr := []string{"depth"}
	for _, r := range rows {
		hdr = append(hdr, string(r.System))
	}
	return out + "\nBytes still shared with ancestors, by fork depth\n" + Table(hdr, cmp)
}
