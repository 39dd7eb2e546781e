package bench

import (
	"fmt"

	"ufork/internal/apps/faas"
	"ufork/internal/kernel"
	"ufork/internal/sim"
)

// FaaSRow is one bar of Figure 6: FaaS function throughput for a system at
// a worker-core count.
type FaaSRow struct {
	System           SystemID
	WorkerCores      int
	Completed        int
	ThroughputPerSec float64
	ForkLatency      sim.Time
}

// faasSystems are the Fig. 6 series. TOCTTOU is included to show its cost
// is negligible for a syscall-free workload (§5.1).
var faasSystems = []SystemID{SysUForkCoPA, SysUForkTocttou, SysPosix}

// The Fig. 6 throughput window at quick and at the paper's scale.
const (
	FaaSWindowQuick = 200 * sim.Millisecond
	FaaSWindowFull  = sim.Second
)

// FaaSSweep measures function throughput for 1–3 worker cores per system,
// with the coordinator (Zygote) on its own core — the Fig. 6 setup on the
// 4-core Morello.
func FaaSSweep(env Env, window sim.Time) ([]FaaSRow, error) {
	var rows []FaaSRow
	for _, id := range faasSystems {
		for workers := 1; workers <= 3; workers++ {
			row, err := env.faasOnce(id, workers, window)
			if err != nil {
				return nil, fmt.Errorf("bench: faas %s/%d: %w", id, workers, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func (env Env) faasOnce(id SystemID, workers int, window sim.Time) (FaaSRow, error) {
	k := env.build(id, workers+1, 1<<17)
	row := FaaSRow{System: id, WorkerCores: workers}
	err := runRoot(k, faas.ZygoteSpec(k.Machine.StaticHeapPages/16), func(p *kernel.Proc) error {
		pr, _, err := faas.Warm(p)
		if err != nil {
			return err
		}
		res, err := faas.RunThroughput(p, pr, workers, faas.DefaultN, window)
		if err != nil {
			return err
		}
		row.Completed = res.Completed
		row.ThroughputPerSec = res.ThroughputPerSec
		row.ForkLatency = res.ForkLatency
		return nil
	})
	return row, err
}

// RenderFaaS formats Figure 6.
func RenderFaaS(rows []FaaSRow) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			string(r.System), fmt.Sprintf("%d", r.WorkerCores),
			fmt.Sprintf("%.0f func/s", r.ThroughputPerSec), Us(r.ForkLatency),
		})
	}
	return "Figure 6 — FaaS function throughput (Zygote fork-per-request)\n" +
		Table([]string{"system", "worker cores", "throughput", "fork latency"}, out)
}
