package bench

import (
	"fmt"

	"ufork/internal/apps/unixbench"
	"ufork/internal/kernel"
	"ufork/internal/sim"
)

// HelloRow is one bar pair of Figure 8: hello-world fork latency and
// per-process memory.
type HelloRow struct {
	System      SystemID
	ForkLatency sim.Time
	ChildMem    uint64
}

// helloSystems are the Fig. 8 series.
var helloSystems = []SystemID{SysUForkCoPA, SysPosix, SysVMClone}

// HelloWorld measures forking a minimal process on each system (Fig. 8).
func HelloWorld(env Env) ([]HelloRow, error) {
	var rows []HelloRow
	for _, id := range helloSystems {
		row, err := env.helloOnce(id)
		if err != nil {
			return nil, fmt.Errorf("bench: hello %s: %w", id, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func (env Env) helloOnce(id SystemID) (HelloRow, error) {
	k := env.build(id, 2, 1<<15)
	row := HelloRow{System: id}
	err := runRoot(k, kernel.HelloWorldSpec(), func(p *kernel.Proc) error {
		// Warm the parent the way a started C program is warm: libc init
		// touches data, some stack, a bit of heap.
		if err := touchPages(p, kernel.SegData, 8); err != nil {
			return err
		}
		if err := touchPages(p, kernel.SegStack, 4); err != nil {
			return err
		}
		if err := touchPages(p, kernel.SegHeap, 8); err != nil {
			return err
		}
		var childMem uint64
		_, err := k.Fork(p, func(c *kernel.Proc) {
			// The child is "hello world": it dirties the same working set
			// and prints.
			if err := touchPages(c, kernel.SegData, 8); err != nil {
				k.Exit(c, 1)
			}
			if err := touchPages(c, kernel.SegStack, 4); err != nil {
				k.Exit(c, 1)
			}
			if err := touchPages(c, kernel.SegHeap, 8); err != nil {
				k.Exit(c, 1)
			}
			if _, err := k.Write(c, 1, []byte("hello world\n")); err != nil {
				k.Exit(c, 1)
			}
			childMem = memMetric(c)
			k.Exit(c, 0)
		})
		if err != nil {
			return err
		}
		row.ForkLatency = p.LastFork.Latency
		if _, status, err := k.Wait(p); err != nil {
			return err
		} else if status != 0 {
			return fmt.Errorf("hello child failed: %d", status)
		}
		row.ChildMem = childMem
		return nil
	})
	foldRun("hello."+string(id), k)
	return row, err
}

// touchPages writes one byte to each of the first n pages of a segment.
func touchPages(p *kernel.Proc, seg kernel.Segment, n int) error {
	c := p.SegCap(seg)
	one := []byte{0x42}
	for i := 0; i < n; i++ {
		if err := p.Store(c, uint64(i)*kernel.PageSize, one); err != nil {
			return err
		}
	}
	return nil
}

// RenderHello formats Figure 8.
func RenderHello(rows []HelloRow) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{string(r.System), Us(r.ForkLatency), MB(r.ChildMem)})
	}
	return "Figure 8 — hello-world fork latency and per-process memory\n" +
		Table([]string{"system", "fork latency", "memory/process"}, out)
}

// UnixbenchRow is one bar pair of Figure 9.
type UnixbenchRow struct {
	System   SystemID
	Spawn    sim.Time // time for SpawnIters fork+exit cycles
	Context1 sim.Time // time for Context1Target pipe exchanges
}

// The Fig. 9 workload sizes (paper: 1000 spawns, 100k exchanges).
const (
	SpawnItersFull             = 1000
	SpawnItersQuick            = 200
	Context1TargetFull  uint64 = 100_000
	Context1TargetQuick uint64 = 10_000
)

// unixbenchSystems are the Fig. 9 series.
var unixbenchSystems = []SystemID{SysUForkCoPA, SysPosix}

// Unixbench runs Spawn and Context1 on each system (Fig. 9). Results for
// smaller iteration counts scale linearly; the renderer normalises to the
// paper's counts.
func Unixbench(env Env, spawnIters int, context1Target uint64) ([]UnixbenchRow, error) {
	var rows []UnixbenchRow
	for _, id := range unixbenchSystems {
		row := UnixbenchRow{System: id}
		k := env.build(id, 2, 1<<15)
		err := runRoot(k, kernel.HelloWorldSpec(), func(p *kernel.Proc) error {
			s, err := unixbench.Spawn(p, spawnIters)
			if err != nil {
				return err
			}
			row.Spawn = s.Elapsed * sim.Time(SpawnItersFull) / sim.Time(spawnIters)
			c, err := unixbench.Context1(p, context1Target)
			if err != nil {
				return err
			}
			row.Context1 = c.Elapsed * sim.Time(Context1TargetFull) / sim.Time(context1Target)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("bench: unixbench %s: %w", id, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderUnixbench formats Figure 9.
func RenderUnixbench(rows []UnixbenchRow) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			string(r.System),
			Ms(r.Spawn) + fmt.Sprintf(" (per 1000 forks)"),
			Ms(r.Context1) + fmt.Sprintf(" (per 100k exchanges)"),
		})
	}
	return "Figure 9 — Unixbench Spawn and Context1\n" +
		Table([]string{"system", "spawn", "context1"}, out)
}
