// Command ufork-bench regenerates the paper's evaluation tables and
// figures on the simulated systems.
//
// Usage:
//
//	ufork-bench [-exp <experiment>] [-full] [-trace out.json] [-metrics out.json]
//	            [-profile out.folded] [-parallel N] [-seed N] [-cores 1,2,4,8]
//	            [-serve addr] [-check-scaling] [-mix A,B,C] [-ops N] [-keys N]
//	            [-locks bkl,smp] [-chaos] [-slo spec]
//
// The experiment set is defined by a single registry (see experiments
// below); `-exp all` runs every non-explicit entry, and the synopsis of
// each experiment is printed by `-exp list`.
//
// Quick mode (default) uses reduced database sizes, windows and iteration
// counts; -full runs the paper's parameters (100 MB databases, 1000
// spawns, 100k pipe exchanges, second-long throughput windows).
//
// -trace, -metrics, -profile and -serve fill the planes of one bench.Env,
// and -parallel its eager-copy pool width; every experiment runs in it.
// -trace records flight events and writes them as Chrome trace_event
// JSON (open in chrome://tracing or Perfetto); -metrics writes a JSON
// snapshot of the aggregated counters and latency histograms; -profile
// writes the aggregate virtual-time folded-stack profile (flamegraph.pl
// input). All three are written at exit. -exp profdiff profiles each
// lock regime into a plane of its own and rejects -profile.
//
// -serve starts the live telemetry plane (Prometheus /metrics, JSON
// /procs of the currently booted kernel, /flight dumps, /profile, pprof)
// and keeps serving after the experiments finish so the final state can
// be scraped; interrupt to exit. Its planes are the ones -trace, -metrics
// and -profile then dump, so a file and an endpoint read the same plane.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"ufork/internal/bench"
	"ufork/internal/bench/ycsb"
	"ufork/internal/telemetry"
)

// runCfg carries the parsed flag state every experiment runs against.
type runCfg struct {
	env          bench.Env
	profile      string // the -profile path
	full         bool
	seed         int64
	coresFlag    string
	checkScaling bool
	mixFlag      string
	opsFlag      int
	keysFlag     int
	locksFlag    string
	chaosFlag    bool
	sloFlag      string
}

// experiment is one -exp entry. Everything the command knows about an
// experiment — its name, its aliases, whether "all" includes it, and how
// to run it — lives in this registry, and the usage text is generated
// from it, so the dispatched set and the documented set cannot drift.
type experiment struct {
	name     string
	aliases  []string
	synopsis string
	// explicit experiments never run under -exp all: they are robustness
	// harnesses or cross-run studies, not paper tables.
	explicit bool
	run      func(c *runCfg) error
}

// experiments is the registry. Order is the -exp all execution order.
var experiments = []experiment{
	{
		name:     "table1",
		synopsis: "design-space taxonomy of SASOS fork systems (paper Table 1)",
		run: func(c *runCfg) error {
			fmt.Println(bench.RenderTable1(bench.Table1(c.env)))
			return nil
		},
	},
	{
		name:     "fig3",
		aliases:  []string{"fig4", "fig5", "ablation", "tocttou"},
		synopsis: "Redis BGSAVE sweep: fork latency, tail impact, copy-mode ablation",
		run: func(c *runCfg) error {
			rows, err := bench.RedisSweep(c.env, at(c, bench.RedisSizesQuick, bench.RedisSizesFull))
			if err != nil {
				return err
			}
			fmt.Println(bench.RenderRedis(rows))
			fmt.Println(bench.RenderAblation(rows))
			return nil
		},
	},
	{
		name:     "fig6",
		synopsis: "FaaS cold-start throughput window",
		run: func(c *runCfg) error {
			rows, err := bench.FaaSSweep(c.env, at(c, bench.FaaSWindowQuick, bench.FaaSWindowFull))
			if err != nil {
				return err
			}
			fmt.Println(bench.RenderFaaS(rows))
			return nil
		},
	},
	{
		name:     "fig7",
		synopsis: "Nginx worker-fleet throughput window",
		run: func(c *runCfg) error {
			rows, err := bench.NginxSweep(c.env, at(c, bench.NginxWindowQuick, bench.NginxWindowFull))
			if err != nil {
				return err
			}
			fmt.Println(bench.RenderNginx(rows))
			return nil
		},
	},
	{
		name:     "fig8",
		synopsis: "hello-world fork+exit end-to-end latency",
		run: func(c *runCfg) error {
			rows, err := bench.HelloWorld(c.env)
			if err != nil {
				return err
			}
			fmt.Println(bench.RenderHello(rows))
			return nil
		},
	},
	{
		name:     "fig9",
		synopsis: "Unixbench spawn and context-switch microbenchmarks",
		run: func(c *runCfg) error {
			rows, err := bench.Unixbench(c.env, at(c, bench.SpawnItersQuick, bench.SpawnItersFull),
				at(c, bench.Context1TargetQuick, bench.Context1TargetFull))
			if err != nil {
				return err
			}
			fmt.Println(bench.RenderUnixbench(rows))
			return nil
		},
	},
	{
		name:     "forkserver",
		synopsis: "pre-fork server pool latency sweep",
		run: func(c *runCfg) error {
			rows, err := bench.ForkServerSweep(c.env, at(c, bench.ForkServerInputsQuick, bench.ForkServerInputsFull))
			if err != nil {
				return err
			}
			fmt.Println(bench.RenderForkServer(rows))
			return nil
		},
	},
	{
		name:     "forkhist",
		synopsis: "fork-latency distribution across copy modes",
		run: func(c *runCfg) error {
			rows, err := bench.ForkHist(c.env, at(c, bench.ForkHistItersQuick, bench.ForkHistItersFull))
			if err != nil {
				return err
			}
			fmt.Println(bench.RenderForkHist(rows))
			return nil
		},
	},
	{
		name:     "contention",
		synopsis: "BKL vs split-lock multicore scaling sweep (-cores, -check-scaling)",
		run: func(c *runCfg) error {
			cores, err := parseCores(c.coresFlag)
			if err != nil {
				return err
			}
			rows, err := bench.ContentionSweep(c.env, at(c, bench.ContentionWindowQuick, bench.ContentionWindowFull), cores)
			if err != nil {
				return err
			}
			fmt.Println(bench.RenderContention(rows))
			if c.checkScaling {
				if err := bench.CheckContentionScaling(rows); err != nil {
					return err
				}
				fmt.Println("scaling gates passed: smp httpd >= 2x at 4 cores, residual share < 40%")
			}
			return nil
		},
	},
	{
		name:     "footprint",
		synopsis: "fork-chain RSS/PSS/USS decomposition across copy modes",
		run: func(c *runCfg) error {
			rows, err := bench.Footprint(c.env)
			if err != nil {
				return err
			}
			fmt.Println(bench.RenderFootprint(rows))
			return nil
		},
	},
	{
		name:     "stress",
		explicit: true,
		synopsis: "chaos soak: seeded random syscall programs under fault injection, with invariant audits and a syscall-latency SLO",
		run: func(c *runCfg) error {
			slo := bench.DefaultStressSLO()
			if c.sloFlag != "" {
				var err error
				slo, err = ycsb.ParseSLO(c.sloFlag)
				if err != nil {
					return err
				}
			}
			rows := bench.Stress(c.env, c.seed, at(c, bench.StressRoundsQuick, bench.StressRoundsFull),
				at(c, bench.StressOpsQuick, bench.StressOpsFull))
			fmt.Println(bench.RenderStress(rows))
			if err := bench.StressFailures(rows); err != nil {
				return err
			}
			return bench.CheckStressSLO(rows, slo)
		},
	},
	{
		name:     "ycsb",
		explicit: true,
		synopsis: "YCSB load harness: A/B/C zipfian mixes vs kvstore+BGSAVE and httpd, per-cell latency SLOs (-mix, -ops, -keys, -locks, -chaos, -slo)",
		run: func(c *runCfg) error {
			opts, err := c.ycsbOpts()
			if err != nil {
				return err
			}
			rows, err := bench.YCSBSweep(c.env, opts)
			if err != nil {
				return err
			}
			fmt.Println(bench.RenderYCSB(rows))
			return bench.YCSBFailures(rows)
		},
	},
	{
		name:     "profdiff",
		explicit: true,
		synopsis: "cross-run profile diff: the same seeded YCSB coordinate profiled under bkl and smp, top signed per-stack virtual-time deltas",
		run: func(c *runCfg) error {
			if c.profile != "" {
				return errors.New("-profile does not apply to -exp profdiff: each lock regime is profiled into a plane of its own, so there is no one profile to write")
			}
			keys, ops := c.keysFlag, c.opsFlag
			if c.full {
				if keys == 0 {
					keys = bench.YCSBKeysFull
				}
				if ops == 0 {
					ops = bench.YCSBOpsFull
				}
			}
			out, err := bench.ProfDiff(c.env, keys, ops)
			if err != nil {
				return err
			}
			fmt.Println(out)
			return nil
		},
	},
}

// at picks an experiment parameter at the run's scale.
func at[T any](c *runCfg, quick, full T) T {
	if c.full {
		return full
	}
	return quick
}

// ycsbOpts assembles the YCSB sweep options from the flag state.
func (c *runCfg) ycsbOpts() (bench.YCSBOpts, error) {
	mixes, err := parseMixes(c.mixFlag)
	if err != nil {
		return bench.YCSBOpts{}, err
	}
	cores, err := parseCores(c.coresFlag)
	if err != nil {
		return bench.YCSBOpts{}, err
	}
	opts := bench.YCSBOpts{
		Mixes: mixes, Keys: c.keysFlag, Ops: c.opsFlag,
		Cores: cores, Seed: c.seed, Chaos: c.chaosFlag,
	}
	if c.locksFlag != "" {
		opts.Locks = strings.Split(c.locksFlag, ",")
	}
	if c.full {
		if opts.Keys == 0 {
			opts.Keys = bench.YCSBKeysFull
		}
		if opts.Ops == 0 {
			opts.Ops = bench.YCSBOpsFull
		}
	}
	if c.sloFlag != "" {
		slo, err := ycsb.ParseSLO(c.sloFlag)
		if err != nil {
			return bench.YCSBOpts{}, err
		}
		opts.SLO = &slo
	}
	return opts, nil
}

// expUsage generates the -exp flag help from the registry.
func expUsage() string {
	var names []string
	for _, e := range experiments {
		n := e.name
		if len(e.aliases) > 0 {
			n += "/" + strings.Join(e.aliases, "/")
		}
		if e.explicit {
			n += " (explicit-only)"
		}
		names = append(names, n)
	}
	return "experiment to run: all, list, " + strings.Join(names, ", ")
}

// expList renders the -exp list table: every registry entry with its
// synopsis and whether -exp all includes it.
func expList() string {
	var b strings.Builder
	b.WriteString("experiments (-exp <name>; 'all' runs every non-explicit entry):\n")
	for _, e := range experiments {
		name := e.name
		if len(e.aliases) > 0 {
			name += " (" + strings.Join(e.aliases, ", ") + ")"
		}
		mark := " "
		if e.explicit {
			mark = "*"
		}
		fmt.Fprintf(&b, "  %s %-28s %s\n", mark, name, e.synopsis)
	}
	b.WriteString("  * explicit-only: never part of -exp all\n")
	return b.String()
}

// findExperiment resolves an -exp value against the registry.
func findExperiment(name string) (experiment, bool) {
	for _, e := range experiments {
		if e.name == name {
			return e, true
		}
		for _, a := range e.aliases {
			if a == name {
				return e, true
			}
		}
	}
	return experiment{}, false
}

func main() {
	exp := flag.String("exp", "all", expUsage())
	full := flag.Bool("full", false, "run the paper's full parameters (slower)")
	tracePath := flag.String("trace", "", "write Chrome trace_event JSON of the kernels' flight events to this file")
	metricsPath := flag.String("metrics", "", "write a metrics JSON snapshot to this file (enables metrics)")
	profilePath := flag.String("profile", "", "arm the virtual-time profiler on every kernel and write the aggregate folded-stack profile to this file")
	parallel := flag.Int("parallel", 0, "host worker-pool width for eager fork copies (0 = one per CPU, 1 = serial); virtual-time results are identical at any setting")
	seed := flag.Int64("seed", 1, "base seed for -exp stress; a failure's printed repro line names the exact seed to replay")
	serveAddr := flag.String("serve", "", "serve live telemetry (/metrics, /procs, /flight, /profile, pprof) on this address; keeps serving after the run until interrupted")
	coresFlag := flag.String("cores", "1,2,4,8", "comma-separated core counts for -exp contention and -exp ycsb")
	checkScaling := flag.Bool("check-scaling", false, "with -exp contention: exit non-zero unless the split-lock rows clear the scaling gates (httpd 4-core >= 2x 1-core, residual share < 40%)")
	mixFlag := flag.String("mix", "A,B,C", "comma-separated YCSB mixes for -exp ycsb (A=50/50, B=95/5 read-mostly, C=read-only)")
	opsFlag := flag.Int("ops", 0, "ops per cell for -exp ycsb (0 = quick default, or the paper scale with -full)")
	keysFlag := flag.Int("keys", 0, "keyspace size for -exp ycsb (0 = quick default, or the paper scale with -full)")
	locksFlag := flag.String("locks", "bkl,smp", "comma-separated lock configurations for -exp ycsb")
	chaosFlag := flag.Bool("chaos", false, "with -exp ycsb: arm seeded fault injection on every cell instead of the two dedicated chaos cells")
	sloFlag := flag.String("slo", "", "SLO spec overriding the built-in gates for -exp ycsb and -exp stress, e.g. tput=50000,p50=200us,p99=2ms,p999=10ms,err=1%")
	flag.Parse()

	// -serve, -trace, -metrics and -profile fill one Planes value that
	// every kernel the experiments boot is armed with.
	out := telemetry.Outputs{Trace: *tracePath, Metrics: *metricsPath, Profile: *profilePath}
	pl, tsrv, err := out.Arm(*serveAddr)
	if err != nil {
		log.Fatal(err)
	}
	if tsrv != nil {
		fmt.Fprintf(os.Stderr, "telemetry: serving on http://%s/\n", tsrv.Addr)
	}

	if *exp == "list" {
		fmt.Print(expList())
		return
	}

	cfg := &runCfg{
		env: bench.Env{Planes: pl, Parallelism: *parallel}, profile: *profilePath,
		full: *full, seed: *seed, coresFlag: *coresFlag,
		checkScaling: *checkScaling, mixFlag: *mixFlag,
		opsFlag: *opsFlag, keysFlag: *keysFlag, locksFlag: *locksFlag,
		chaosFlag: *chaosFlag, sloFlag: *sloFlag,
	}
	if *exp == "all" {
		for _, e := range experiments {
			if e.explicit {
				continue
			}
			die(e.run(cfg))
		}
	} else {
		e, ok := findExperiment(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n%s", *exp, expList())
			os.Exit(2)
		}
		die(e.run(cfg))
	}

	die(out.Write(pl))
	if *profilePath != "" {
		fmt.Fprintf(os.Stderr, "profile: %d samples folded to %s\n", pl.Profile.Samples(), *profilePath)
	}
	if tsrv != nil {
		fmt.Fprintf(os.Stderr, "telemetry: run complete; still serving on http://%s/ (interrupt to exit)\n", tsrv.Addr)
		select {}
	}
}

// parseMixes parses the -mix flag's comma-separated YCSB mix names.
func parseMixes(s string) ([]ycsb.Mix, error) {
	var mixes []ycsb.Mix
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		m, ok := ycsb.MixByName(f)
		if !ok {
			return nil, fmt.Errorf("unknown YCSB mix %q (have A, B, C)", f)
		}
		mixes = append(mixes, m)
	}
	if len(mixes) == 0 {
		return nil, fmt.Errorf("-mix is empty")
	}
	return mixes, nil
}

// parseCores parses the -cores flag's comma-separated core counts.
func parseCores(s string) ([]int, error) {
	var cores []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -cores entry %q", f)
		}
		cores = append(cores, n)
	}
	if len(cores) == 0 {
		return nil, fmt.Errorf("-cores is empty")
	}
	return cores, nil
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ufork-bench:", err)
		os.Exit(1)
	}
}
