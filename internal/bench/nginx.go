package bench

import (
	"errors"
	"fmt"

	"ufork/internal/apps/httpd"
	"ufork/internal/chaos"
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
func NginxSweep(env Env, window sim.Time) ([]NginxRow, error) {
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
		row, err := env.nginxOnce(c.id, c.workers, c.cores, window)
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

func (env Env) nginxOnce(id SystemID, workers, cores int, window sim.Time) (NginxRow, error) {
	_, served, err := env.wrkRun(id, cores, workers, nginxDrivers, window)
	return NginxRow{System: id, Workers: workers, Cores: cores, Served: served,
		ThroughputPerSec: float64(served) / (float64(window) / float64(sim.Second))}, err
}

// wrkRun boots system id on cores and serves /index.html from a
// workers-strong httpd fleet to drivers wrk-like closed-loop clients
// until window closes. It returns the kernel and the requests served.
func (env Env) wrkRun(id SystemID, cores, workers, drivers int, window sim.Time) (*kernel.Kernel, int, error) {
	k := env.build(id, cores, 1<<16)
	k.VFS().WriteFile("/index.html", make([]byte, nginxDocBytes))
	served := 0
	err := runRoot(k, nginxSpec(), func(p *kernel.Proc) error {
		srv, _, err := httpdFleet(p, workers, drivers, nil, func(dp *kernel.Proc, _ int, srv *httpd.Server, start sim.Time) {
			for dp.Now() < start+window {
				if _, err := httpd.DoRequest(dp, srv.Listener, "/index.html"); err != nil {
					break
				}
			}
		})
		if err == nil {
			served = srv.TotalServed()
		}
		return err
	})
	return k, served, err
}

// httpdFleet runs an httpd load test on the master p: it starts a
// workers-strong server, arms inj on it when inj is non-nil, and launches
// drivers off-core driver processes. Driver d runs drive(dp, d, srv,
// start), start being the launch time, and then writes a done byte on a
// pipe whose write end it received from the master (SCM_RIGHTS-style
// descriptor passing). Making the pipe, writing a done byte and reading
// one all retry injected EINTR; the master reads every done byte and
// shuts the server down. httpdFleet returns the server, for its served
// counts, and the virtual time from the launch to the last done byte.
func httpdFleet(p *kernel.Proc, workers, drivers int, inj *chaos.Injector,
	drive func(dp *kernel.Proc, d int, srv *httpd.Server, start sim.Time)) (*httpd.Server, sim.Time, error) {
	k := p.Kernel()
	srv, err := httpd.Start(p, workers)
	if err != nil {
		return nil, 0, err
	}
	if inj != nil {
		inj.Arm(k)
	}
	rfd, wfd, err := k.Pipe(p)
	for errors.Is(err, kernel.ErrInterrupted) {
		rfd, wfd, err = k.Pipe(p)
	}
	if err != nil {
		return nil, 0, err
	}
	doneEnd, err := p.FDs.Get(wfd)
	if err != nil {
		return nil, 0, err
	}
	start := p.Now()
	for d := 0; d < drivers; d++ {
		if _, err := k.Spawn(driverSpec(), p.Now(), func(dp *kernel.Proc) {
			// The driver models wrk on a separate client machine: its
			// work never occupies the server's cores.
			dp.Task.Offcore = true
			dwfd := dp.FDs.Install(doneEnd)
			drive(dp, d, srv, start)
			// A lost done byte would leave the master waiting forever.
			_, err := k.Write(dp, dwfd, []byte{1})
			for errors.Is(err, kernel.ErrInterrupted) {
				_, err = k.Write(dp, dwfd, []byte{1})
			}
		}); err != nil {
			return nil, 0, err
		}
	}
	buf := make([]byte, 1)
	for d := 0; d < drivers; d++ {
		for {
			if _, err := k.Read(p, rfd, buf); err == nil {
				break
			} else if !errors.Is(err, kernel.ErrInterrupted) {
				return nil, 0, err
			}
		}
	}
	elapsed := p.Now() - start
	if err := srv.Shutdown(p); err != nil {
		return nil, 0, err
	}
	return srv, elapsed, nil
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
