package bench

import (
	"fmt"

	"ufork/internal/apps/httpd"
	"ufork/internal/kernel"
	"ufork/internal/sim"
)

// Nginx experiment parameters (§5.1 "Nginx multi-worker deployments"):
// drivers stand in for wrk's concurrent connections.
const (
	nginxDrivers  = 8
	nginxDocBytes = 16 * 1024
)

// The Fig. 7 throughput window at quick and at the paper's scale.
const (
	NginxWindowQuick = 50 * sim.Millisecond
	NginxWindowFull  = 250 * sim.Millisecond
)

// NginxRow is one bar of Figure 7.
type NginxRow struct {
	System           SystemID
	Workers          int
	Cores            int
	Served           int
	ThroughputPerSec float64
}

// NginxSweep reproduces Figure 7's series:
//
//   - μFork pinned to one core (the big-kernel-lock SMP restriction, §4.5)
//     with 1–3 workers;
//   - μFork with TOCTTOU protections, same setup (the 6.5% cost);
//   - CheriBSD allowed to scale across cores (workers == cores);
//   - CheriBSD restricted to a single core.
func NginxSweep(window sim.Time) ([]NginxRow, error) {
	var rows []NginxRow
	type cfg struct {
		id      SystemID
		workers int
		cores   int
	}
	var cfgs []cfg
	for w := 1; w <= 3; w++ {
		cfgs = append(cfgs, cfg{SysUForkCoPA, w, 1})
	}
	cfgs = append(cfgs, cfg{SysUForkTocttou, 3, 1})
	for w := 1; w <= 3; w++ {
		cfgs = append(cfgs, cfg{SysPosix, w, w})
	}
	for w := 1; w <= 3; w++ {
		cfgs = append(cfgs, cfg{SysPosix, w, 1})
	}
	for _, c := range cfgs {
		row, err := nginxOnce(c.id, c.workers, c.cores, window)
		if err != nil {
			return nil, fmt.Errorf("bench: nginx %s/%dw/%dc: %w", c.id, c.workers, c.cores, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// nginxSpec is the server image.
func nginxSpec() kernel.ProgramSpec {
	return kernel.ProgramSpec{
		Name:      "nginx",
		TextPages: 128, RodataPages: 32, GOTPages: 4, DataPages: 64,
		AllocMetaPages: 16, HeapPages: 512, StackPages: 32, TLSPages: 1,
		GOTEntries: 192,
	}
}

// driverSpec is the minimal image of a load-driver pseudo-process.
func driverSpec() kernel.ProgramSpec {
	return kernel.ProgramSpec{
		Name:      "wrk",
		TextPages: 4, RodataPages: 1, GOTPages: 1, DataPages: 1,
		AllocMetaPages: 1, HeapPages: 8, StackPages: 4, TLSPages: 1,
		GOTEntries: 8,
	}
}

func nginxOnce(id SystemID, workers, cores int, window sim.Time) (NginxRow, error) {
	k := build(id, cores, 1<<16, Planes)
	k.VFS().WriteFile("/index.html", make([]byte, nginxDocBytes))
	row := NginxRow{System: id, Workers: workers, Cores: cores}

	err := runRoot(k, nginxSpec(), func(p *kernel.Proc) error {
		srv, err := httpd.Start(p, workers)
		if err != nil {
			return err
		}
		// Launch the wrk-like drivers: closed-loop clients hammering the
		// listener until the window closes. They signal completion over a
		// pipe the master reads.
		rfd, wfd, err := k.Pipe(p)
		if err != nil {
			return err
		}
		doneEnd, err := p.FDs.Get(wfd)
		if err != nil {
			return err
		}
		deadline := p.Now() + window
		for d := 0; d < nginxDrivers; d++ {
			if _, err := k.Spawn(driverSpec(), p.Now(), func(dp *kernel.Proc) {
				// The driver models wrk on a separate client machine: its
				// work never occupies the server's cores.
				dp.Task.Offcore = true
				// The driver receives the done-pipe's open file description
				// (SCM_RIGHTS-style descriptor passing).
				dwfd := dp.FDs.Install(doneEnd)
				for dp.Now() < deadline {
					if _, err := httpd.DoRequest(dp, srv.Listener, "/index.html"); err != nil {
						break
					}
				}
				_, _ = k.Write(dp, dwfd, []byte{1})
			}); err != nil {
				return err
			}
		}
		// Wait for all drivers.
		buf := make([]byte, 1)
		for d := 0; d < nginxDrivers; d++ {
			if _, err := k.Read(p, rfd, buf); err != nil {
				return err
			}
		}
		if err := srv.Shutdown(p); err != nil {
			return err
		}
		row.Served = srv.TotalServed()
		row.ThroughputPerSec = float64(row.Served) / (float64(window) / float64(sim.Second))
		return nil
	})
	return row, err
}

// RenderNginx formats Figure 7.
func RenderNginx(rows []NginxRow) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			string(r.System), fmt.Sprintf("%d", r.Workers), fmt.Sprintf("%d", r.Cores),
			fmt.Sprintf("%.0f req/s", r.ThroughputPerSec),
		})
	}
	return "Figure 7 — Nginx throughput (wrk-style closed-loop drivers)\n" +
		Table([]string{"system", "workers", "cores", "throughput"}, out)
}
