package bench

import (
	"errors"
	"fmt"
	"strings"

	"ufork/internal/apps/httpd"
	"ufork/internal/apps/kvstore"
	"ufork/internal/bench/ycsb"
	"ufork/internal/chaos"
	"ufork/internal/kernel"
	"ufork/internal/obs"
	"ufork/internal/obs/causal"
	"ufork/internal/obs/flight"
	"ufork/internal/sim"
)

// YCSB load-harness parameters. The fleet shapes mirror the contention
// sweep (four servers, eight off-core drivers) so the two experiments
// read against each other; the full-mode record/op counts mirror
// SNIPPETS.md Snippet 3's YCSB run against Redis (recordcount=100000,
// operationcount in the millions).
const (
	ycsbWorkers    = 4   // kvstore worker fleet and httpd worker fleet
	ycsbDrivers    = 8   // httpd closed-loop client drivers
	ycsbValueBytes = 128 // value blob / document body size
	// ycsbThink is the kvstore workers' closed-loop client think time
	// between operations; it is virtual-time overhead only (excluded from
	// per-op latency) and lets the worker fleet interleave with the
	// BGSAVE snapshotter the way a real Redis box does.
	ycsbThink = 2 * sim.Microsecond
	// ycsbAOFBytes is the append-only-file record written per update.
	ycsbAOFBytes = 64
)

// Quick/full workload scales. Quick keeps the whole golden sweep in CI
// seconds; full is the paper-scale soak (10^5 keys, 10^6+ ops per cell).
const (
	YCSBKeysQuick = 4096
	YCSBOpsQuick  = 6000
	YCSBKeysFull  = 100_000
	YCSBOpsFull   = 1_000_000
)

// YCSBWorkloads are the driven applications.
var YCSBWorkloads = []string{"kvstore", "httpd"}

// YCSBOpts configures a sweep. Zero-valued fields take the quick-mode
// defaults.
type YCSBOpts struct {
	Mixes []ycsb.Mix
	Keys  int
	Ops   int // total ops per cell, split across the worker/driver fleet
	Cores []int
	Locks []string // LocksBKL / LocksSMP
	Seed  int64
	// Chaos arms seeded fault injection (EINTR storms + spurious write
	// faults) on every cell instead of appending the single dedicated
	// chaos cell per workload the default sweep carries.
	Chaos bool
	// SLO, when non-nil, replaces the built-in per-workload SLOs on every
	// cell.
	SLO *ycsb.SLO
}

func (o YCSBOpts) withDefaults() YCSBOpts {
	if len(o.Mixes) == 0 {
		o.Mixes = ycsb.Mixes
	}
	if o.Keys == 0 {
		o.Keys = YCSBKeysQuick
	}
	if o.Ops == 0 {
		o.Ops = YCSBOpsQuick
	}
	if len(o.Cores) == 0 {
		o.Cores = []int{1, 4}
	}
	if len(o.Locks) == 0 {
		o.Locks = []string{LocksBKL, LocksSMP}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// ycsbChaosPlan is the fault plan of a chaos-armed cell: an EINTR storm
// over the syscall surface plus spurious write-protect faults. Alloc
// failures stay off — a load harness measures latency under recoverable
// faults, not OOM-kill behavior (the stress soak owns that).
func ycsbChaosPlan() chaos.Plan {
	return chaos.Plan{SyscallErrEvery: 97, SpuriousFaultEvery: 131}
}

// YCSBRow is one finished cell of the sweep.
type YCSBRow struct {
	Workload string
	Mix      ycsb.Mix
	Chooser  string
	Locks    string
	Cores    int
	Keys     int
	Chaos    bool

	Ops      int // completed ops (reads + updates, including errored ops)
	Reads    int
	Updates  int
	Errs     int
	BGSaves  int // background-save forks completed mid-run (kvstore)
	Injected int // chaos faults fired (chaos cells)

	WindowNS uint64 // virtual ns from fleet launch to last op retired
	Lat      obs.HistSummary

	SLO      ycsb.SLO
	Breaches []ycsb.Breach
	// flightDump is the flight-recorder tail captured when the cell
	// breached its SLO; YCSBFailures embeds it in the returned error.
	flightDump string
	// traceDump is the causal plane's top slow-op trace trees captured on
	// breach: each exemplar names its dominant critical-path segment, so
	// the failure report says where the tail went, not just that it blew.
	traceDump string
}

// Result folds the row into the summary shape the SLO evaluates.
func (r YCSBRow) Result() ycsb.Result {
	return ycsb.Result{Ops: r.Ops, Errs: r.Errs, WindowNS: r.WindowNS, Lat: r.Lat}
}

// Throughput is the cell's ops/s in virtual time.
func (r YCSBRow) Throughput() float64 { return r.Result().Throughput() }

// DefaultYCSBSLO is the per-workload latency contract the sweep asserts
// when no explicit SLO is given. Clean cells allow no errors; chaos
// cells trade an error budget (the EINTR storm surfaces as failed ops)
// for looser tails. Ceilings are set ~2-4x above the measured quick-mode
// envelope at 1 core under the BKL — the slowest clean configuration —
// so they catch collapse, not noise.
func DefaultYCSBSLO(workload string, chaosArmed bool) ycsb.SLO {
	switch workload {
	case "kvstore":
		if chaosArmed {
			return ycsb.SLO{MaxP99: 4_000_000, MaxP999: 20_000_000, MaxErrorRate: 0.05}
		}
		return ycsb.SLO{MinThroughput: 20_000, MaxP50: 400_000, MaxP99: 2_000_000, MaxP999: 10_000_000, MaxErrorRate: 0}
	case "httpd":
		if chaosArmed {
			return ycsb.SLO{MaxP99: 20_000_000, MaxP999: 50_000_000, MaxErrorRate: 0.05}
		}
		return ycsb.SLO{MinThroughput: 8_000, MaxP50: 2_000_000, MaxP99: 10_000_000, MaxP999: 25_000_000, MaxErrorRate: 0}
	}
	return ycsb.SLO{MaxErrorRate: -1}
}

// ycsbCell is one sweep coordinate.
type ycsbCell struct {
	workload string
	mix      ycsb.Mix
	locks    string
	cores    int
	keys     int
	ops      int
	seed     int64
	chaos    bool
	slo      ycsb.SLO
}

// cellSeed derives a per-cell seed: every (workload, mix, locks, cores)
// coordinate draws a distinct deterministic stream, and every client in
// the cell offsets further from this.
func (o YCSBOpts) cellSeed(workload string, mix ycsb.Mix, locks string, cores int) int64 {
	h := uint64(o.Seed)
	for _, s := range []string{workload, mix.Name, locks} {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 0x100000001b3
		}
	}
	h = (h ^ uint64(cores)) * 0x100000001b3
	return int64(h & 0x7fffffffffffffff)
}

// YCSBSweep runs the workload × mix × locks × cores matrix, then (unless
// Chaos already armed everything) one dedicated chaos cell per workload
// on the most parallel split-lock configuration — the run that proves
// the SLO plane stays honest under fault injection.
func YCSBSweep(env Env, opts YCSBOpts) ([]YCSBRow, error) {
	o := opts.withDefaults()
	var cells []ycsbCell
	for _, workload := range YCSBWorkloads {
		for _, locks := range o.Locks {
			for _, cores := range o.Cores {
				for _, mix := range o.Mixes {
					cells = append(cells, ycsbCell{
						workload: workload, mix: mix, locks: locks, cores: cores,
						keys: o.Keys, ops: o.Ops,
						seed:  o.cellSeed(workload, mix, locks, cores),
						chaos: o.Chaos,
					})
				}
			}
		}
	}
	if !o.Chaos {
		maxCores := o.Cores[len(o.Cores)-1]
		chaosLocks := o.Locks[len(o.Locks)-1]
		for _, workload := range YCSBWorkloads {
			cells = append(cells, ycsbCell{
				workload: workload, mix: ycsb.MixA, locks: chaosLocks, cores: maxCores,
				keys: o.Keys, ops: o.Ops,
				seed:  o.cellSeed(workload, ycsb.MixA, chaosLocks, maxCores) + 1,
				chaos: true,
			})
		}
	}
	rows := make([]YCSBRow, 0, len(cells))
	for _, c := range cells {
		if o.SLO != nil {
			c.slo = *o.SLO
		} else {
			c.slo = DefaultYCSBSLO(c.workload, c.chaos)
		}
		var (
			row YCSBRow
			err error
		)
		switch c.workload {
		case "kvstore":
			row, err = env.ycsbKV(c)
		case "httpd":
			row, err = env.ycsbHTTPD(c)
		}
		if err != nil {
			return nil, fmt.Errorf("bench: ycsb %s/%s/%s/%dc: %w", c.workload, c.mix.Name, c.locks, c.cores, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// withExemplars adds, where env has none, a private flight ring and
// causal plane for one cell, so a breach report always has a flight dump
// and exemplar trace trees. A served sweep keeps the live planes and so
// accumulates every cell's exemplars on /traces.
func (env Env) withExemplars() Env {
	if env.Planes.Flight == nil {
		env.Planes.Flight = flight.New(flight.DefaultEvents)
	}
	if env.Planes.Causal == nil {
		env.Planes.Causal = causal.New(0)
	}
	return env
}

// ycsbGroup names a cell's exemplar reservoir.
func ycsbGroup(c ycsbCell) string {
	return fmt.Sprintf("ycsb/%s/%s/%s/%dc", c.workload, c.mix.Name, c.locks, c.cores)
}

// ycsbTraceTop bounds the trace trees a breach report embeds.
const ycsbTraceTop = 3

// ycsbFinish computes the row's latency summary, evaluates the SLO, and
// captures the breach dumps. Called at window close, while the cell's
// kernel is still up: the recorder tail then shows the workload's last
// syscalls and faults instead of the teardown's frame frees, and the
// causal plane still holds the cell's slow-op exemplars. When a metrics
// registry is armed, the cell's latencies are added to the family the
// telemetry plane exposes (ufork_ycsb_<workload>_mix<x>_latency_ns).
func ycsbFinish(k *kernel.Kernel, row *YCSBRow, hist *obs.Histogram) {
	row.Lat = hist.Summary()
	row.Breaches = row.SLO.Evaluate(row.Result())
	if len(row.Breaches) > 0 {
		row.flightDump = k.Flight.TextDump(flight.DumpTail)
		row.traceDump = k.Causal.RenderTop(ycsbTraceTop)
	}
	if k.Metrics != nil {
		k.Metrics.Histogram("ycsb." + row.Workload + ".mix" + strings.ToLower(row.Mix.Name) + ".latency").Merge(hist)
	}
}

// ycsbKVSpec is the kvstore server image: the machine's build-time
// static heap, as the Redis experiments use, so full-mode keyspaces fit,
// and a block-descriptor table scaled to the keyspace (each live key
// holds a handful of allocator blocks — entry, key string, value blob).
func ycsbKVSpec(k *kernel.Kernel, keys int) kernel.ProgramSpec {
	metaBytes := (8*keys + 4096) * 32 // 8 descriptors/key of 32 B, plus slack
	spec := kernel.ProgramSpec{
		Name:      "kvsrv",
		TextPages: 256, RodataPages: 64, GOTPages: 4, DataPages: 256,
		AllocMetaPages: metaBytes/int(kernel.PageSize) + 1,
		HeapPages:      8192, StackPages: 64, TLSPages: 1,
		GOTEntries: 256,
	}
	if k.Machine.StaticHeapPages > spec.HeapPages {
		spec.HeapPages = k.Machine.StaticHeapPages
	}
	return spec
}

// forkRetry forks a child running entry, retrying injected EINTR. Each
// retry counts one error against errs. Fork fails before it changes any
// state, so a retry forks exactly one child.
func forkRetry(k *kernel.Kernel, p *kernel.Proc, errs *int, entry func(*kernel.Proc)) (kernel.PID, error) {
	for {
		pid, err := k.Fork(p, entry)
		if errors.Is(err, kernel.ErrInterrupted) {
			*errs++
			continue
		}
		return pid, err
	}
}

// reapRetry waits out one child, retrying injected EINTR. Each retry
// counts one error against errs.
func reapRetry(k *kernel.Kernel, p *kernel.Proc, errs *int) (kernel.PID, int, error) {
	for {
		pid, status, err := k.Wait(p)
		if errors.Is(err, kernel.ErrInterrupted) {
			*errs++
			continue
		}
		return pid, status, err
	}
}

// ycsbKV drives the Redis-shaped cell: a fleet of forked workers runs
// the generated mix against the inherited store (updates also append an
// AOF record) while the parent cycles BGSAVE snapshot forks — so every
// latency sample competes with fork pauses, CoW faults, and (per lock
// mode) the big kernel lock or the split hierarchy.
func (env Env) ycsbKV(c ycsbCell) (YCSBRow, error) {
	dataPages := c.keys * (ycsbValueBytes + 256) / int(kernel.PageSize)
	k := env.withExemplars().build(contentionSystem(c.locks), c.cores, 2*dataPages+1<<16)
	group := ycsbGroup(c)
	row := YCSBRow{
		Workload: "kvstore", Mix: c.mix, Chooser: "zipfian", Locks: c.locks,
		Cores: c.cores, Keys: c.keys, Chaos: c.chaos, SLO: c.slo,
	}
	hist := obs.NewHistogram(nil)
	var inj *chaos.Injector
	if c.chaos {
		inj = chaos.NewInjector(c.seed, ycsbChaosPlan())
	}

	err := runRoot(k, ycsbKVSpec(k, c.keys), func(p *kernel.Proc) error {
		store, val, err := preloadKV(p, c.keys, ycsbValueBytes)
		if err != nil {
			return err
		}
		// Arm fault injection only after the loader: the measured window
		// soaks under faults, the fixture load always succeeds.
		if inj != nil {
			inj.Arm(k)
		}

		opsPerWorker := c.ops / ycsbWorkers
		reads := make([]int, ycsbWorkers)
		updates := make([]int, ycsbWorkers)
		errs := make([]int, ycsbWorkers)
		finish := make([]sim.Time, ycsbWorkers)
		start := p.Now()
		workerPIDs := make(map[kernel.PID]bool, ycsbWorkers)
		parentErrs := 0
		for w := 0; w < ycsbWorkers; w++ {
			w := w
			pid, err := forkRetry(k, p, &parentErrs, func(cp *kernel.Proc) {
				ws, err := kvstore.Attach(cp)
				if err != nil {
					k.Exit(cp, 1)
					return
				}
				var aofFD int
				for {
					if aofFD, err = k.Open(cp, fmt.Sprintf("/aof-%d", w), true); err == nil {
						break
					}
					errs[w]++
				}
				gen := ycsb.NewGenerator(c.mix, ycsb.NewZipfian(c.keys, c.seed+int64(w)*7919, true), c.seed^int64(w+1))
				rec := make([]byte, ycsbAOFBytes)
				for i := 0; i < opsPerWorker; i++ {
					cp.Task.Advance(ycsbThink)
					op, key := gen.Next()
					opName := "read"
					if op != ycsb.OpRead {
						opName = "update"
					}
					// Trace brackets exactly the latency measurement: the
					// root span's segments sum to the recorded latency.
					opStart := cp.Now()
					k.TraceBegin(cp, group, opName)
					var opErr error
					if op == ycsb.OpRead {
						_, opErr = ws.Get(kvKey(key))
						reads[w]++
					} else {
						opErr = ws.Set(kvKey(key), val)
						if opErr == nil {
							_, opErr = k.Write(cp, aofFD, rec)
						}
						updates[w]++
					}
					lat := cp.Now() - opStart
					k.TraceEnd(cp)
					hist.Observe(uint64(lat))
					if opErr != nil {
						errs[w]++
					}
				}
				finish[w] = cp.Now()
				k.Exit(cp, 0)
			})
			if err != nil {
				return err
			}
			workerPIDs[pid] = true
		}

		// The parent is the snapshotter: BGSAVE, reap one child (a
		// finished snapshot or a worker whose ops ran out), repeat until
		// the whole fleet has retired, then drain outstanding snapshots.
		workersLeft := ycsbWorkers
		outstanding := ycsbWorkers
		for workersLeft > 0 {
			// Each snapshot cycle is its own traced op: the BGSAVE fork
			// joins the child with a fork edge, so the exemplar shows the
			// snapshot's deferred-copy cost on the child row and the
			// parent's reap wait as block:child.
			k.TraceBegin(p, group, "bgsave")
			if _, err := store.BGSave("/dump.rdb"); err != nil {
				parentErrs++ // injected fork failure
			} else {
				outstanding++
				row.BGSaves++
			}
			pid, status, err := reapRetry(k, p, &parentErrs)
			k.TraceEnd(p)
			if err != nil {
				return err
			}
			outstanding--
			if workerPIDs[pid] {
				workersLeft--
				if status != 0 {
					return fmt.Errorf("worker %d failed with status %d", pid, status)
				}
			} else if status != 0 {
				parentErrs++ // snapshot child lost to an injected fault
			}
		}
		for outstanding > 0 {
			_, status, err := reapRetry(k, p, &parentErrs)
			if err != nil {
				return err
			}
			if status != 0 {
				parentErrs++
			}
			outstanding--
		}

		var end sim.Time
		for w := 0; w < ycsbWorkers; w++ {
			row.Reads += reads[w]
			row.Updates += updates[w]
			row.Errs += errs[w]
			if finish[w] > end {
				end = finish[w]
			}
		}
		row.Ops = row.Reads + row.Updates
		row.Errs += parentErrs
		row.WindowNS = uint64(end - start)
		ycsbFinish(k, &row, hist)
		return nil
	})
	if inj != nil {
		row.Injected = inj.Fired()
	}
	return row, err
}

func ycsbPath(i int) string { return fmt.Sprintf("/y/k%06d", i) }

// ycsbHTTPD drives the Nginx-shaped cell: the forked worker fleet serves
// the keyspace as files while off-core closed-loop drivers run the mix —
// GETs read a key's document, updates PUT a replacement body through the
// same workers.
func (env Env) ycsbHTTPD(c ycsbCell) (YCSBRow, error) {
	k := env.withExemplars().build(contentionSystem(c.locks), c.cores, 1<<16)
	group := ycsbGroup(c)
	row := YCSBRow{
		Workload: "httpd", Mix: c.mix, Chooser: "zipfian", Locks: c.locks,
		Cores: c.cores, Keys: c.keys, Chaos: c.chaos, SLO: c.slo,
	}
	hist := obs.NewHistogram(nil)
	var inj *chaos.Injector
	if c.chaos {
		inj = chaos.NewInjector(c.seed, ycsbChaosPlan())
	}

	body := make([]byte, ycsbValueBytes)
	for i := range body {
		body[i] = byte(i * 67)
	}
	for i := 0; i < c.keys; i++ {
		k.VFS().WriteFile(ycsbPath(i), body)
	}

	opsPerDriver := c.ops / ycsbDrivers
	reads := make([]int, ycsbDrivers)
	updates := make([]int, ycsbDrivers)
	errs := make([]int, ycsbDrivers)
	drive := func(dp *kernel.Proc, d int, srv *httpd.Server, _ sim.Time) {
		gen := ycsb.NewGenerator(c.mix, ycsb.NewZipfian(c.keys, c.seed+int64(d)*7919, true), c.seed^int64(d+1))
		for i := 0; i < opsPerDriver; i++ {
			op, key := gen.Next()
			opName := "GET"
			if op != ycsb.OpRead {
				opName = "PUT"
			}
			// The driver's request bytes carry the trace into the
			// serving worker through the connection pipes: the
			// exemplar shows a pipe edge driver→worker.
			opStart := dp.Now()
			k.TraceBegin(dp, group, opName)
			var (
				res   httpd.ClientResult
				opErr error
				want  string
			)
			if op == ycsb.OpRead {
				res, opErr = httpd.DoRequest(dp, srv.Listener, ycsbPath(key))
				want = "200"
				reads[d]++
			} else {
				res, opErr = httpd.DoPut(dp, srv.Listener, ycsbPath(key), body)
				want = "201"
				updates[d]++
			}
			lat := dp.Now() - opStart
			k.TraceEnd(dp)
			hist.Observe(uint64(lat))
			if opErr != nil || !strings.Contains(res.Status, want) {
				errs[d]++
			}
		}
	}

	err := runRoot(k, nginxSpec(), func(p *kernel.Proc) error {
		// All drivers have retired their last op once every done byte is
		// in; the fleet's elapsed time is the measured window.
		_, window, err := httpdFleet(p, ycsbWorkers, ycsbDrivers, inj, drive)
		if err != nil {
			return err
		}
		row.WindowNS = uint64(window)
		for d := 0; d < ycsbDrivers; d++ {
			row.Reads += reads[d]
			row.Updates += updates[d]
			row.Errs += errs[d]
		}
		row.Ops = row.Reads + row.Updates
		ycsbFinish(k, &row, hist)
		return nil
	})
	if inj != nil {
		row.Injected = inj.Fired()
	}
	return row, err
}

// RenderYCSB formats the sweep summary: mix composition next to the
// virtual-time latency envelope and each cell's SLO verdict.
func RenderYCSB(rows []YCSBRow) string {
	var out [][]string
	for _, r := range rows {
		plan := "clean"
		if r.Chaos {
			plan = "faults"
		}
		verdict := "pass"
		if len(r.Breaches) > 0 {
			var gates []string
			for _, b := range r.Breaches {
				gates = append(gates, b.Gate)
			}
			verdict = "FAIL:" + strings.Join(gates, ",")
		}
		out = append(out, []string{
			r.Workload, r.Mix.Name, r.Chooser, r.Locks, fmt.Sprintf("%d", r.Cores), plan,
			fmt.Sprintf("%d", r.Ops),
			fmt.Sprintf("%d/%d", r.Reads, r.Updates),
			fmt.Sprintf("%d", r.Errs),
			fmt.Sprintf("%d", r.BGSaves),
			fmt.Sprintf("%.0f op/s", r.Throughput()),
			ycsb.NS(r.Lat.P50), ycsb.NS(r.Lat.P99), ycsb.NS(r.Lat.P999),
			verdict,
		})
	}
	return "YCSB load harness — mixes A/B/C over zipfian keys, virtual-time latency vs. SLO\n" +
		Table([]string{"workload", "mix", "chooser", "locks", "cores", "plan", "ops", "r/u", "errs", "bgsaves", "throughput", "p50", "p99", "p99.9", "slo"}, out)
}

// YCSBFailures returns an error describing every breached cell — repro
// line, want-vs-got gates, the top-k classified slow-op trace trees, and
// the flight-recorder tail of the first breach — or nil when every cell
// held its SLO.
func YCSBFailures(rows []YCSBRow) error {
	var msgs []string
	dump, traces := "", ""
	for _, r := range rows {
		if len(r.Breaches) == 0 {
			continue
		}
		var gates []string
		for _, b := range r.Breaches {
			gates = append(gates, b.String())
		}
		msgs = append(msgs, fmt.Sprintf("%s/%s/%s/%dc (chaos=%v slo=%s): %s",
			r.Workload, r.Mix.Name, r.Locks, r.Cores, r.Chaos, r.SLO, strings.Join(gates, "; ")))
		if dump == "" {
			dump = r.flightDump
		}
		if traces == "" {
			traces = r.traceDump
		}
	}
	if len(msgs) == 0 {
		return nil
	}
	return fmt.Errorf("bench: ycsb SLO breached:\n  %s\n%s%s", strings.Join(msgs, "\n  "), traces, dump)
}
