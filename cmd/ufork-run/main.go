// Command ufork-run executes a minipy (Python-subset) script inside a
// μFork μprocess: the script is compiled, installed into simulated tagged
// memory, and run on the interpreter whose every variable cell lives
// behind CHERI capabilities. Script print() calls travel through the
// kernel's write path to your terminal.
//
// Usage:
//
//	ufork-run script.py          # run a file
//	echo 'print(2**10)' | ufork-run   # run stdin
//	ufork-run -forks 3 script.py # also fork N children re-running main
//
// The -forks flag demonstrates the Zygote pattern: each child attaches to
// the inherited (relocated) runtime and calls main() again.
//
// -trace writes a Chrome trace_event JSON of the run, converted from the
// kernel's flight events (syscalls, fork phases, faults — open in
// chrome://tracing or Perfetto); -metrics writes a JSON snapshot of the
// kernel's counters and latency histograms.
//
// -serve starts the live telemetry plane (Prometheus /metrics, JSON
// /procs, /flight dumps, pprof) and keeps serving after the run finishes
// so the final state can be scraped. The three flags fill the one
// kernel.Planes value the kernel is armed with; under -serve, -trace and
// -metrics dump the served planes.
//
// -smaps prints the script μprocess's memory map after the run: per-
// segment mapped/shared/private pages with the RSS/PSS/USS and shared
// clean/dirty decomposition, captured just before the process exits.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"ufork"
	"ufork/internal/alloc"
	"ufork/internal/kernel"
	"ufork/internal/minipy"
	"ufork/internal/telemetry"
)

func main() {
	forks := flag.Int("forks", 0, "fork N children that re-run main() on the warm runtime")
	stats := flag.Bool("stats", false, "print kernel statistics after the run")
	smaps := flag.Bool("smaps", false, "print the script μprocess's memory map (per-segment RSS/PSS/USS, shared clean/dirty) after the run")
	tracePath := flag.String("trace", "", "write Chrome trace_event JSON of the kernel's flight events to this file")
	metricsPath := flag.String("metrics", "", "write a metrics JSON snapshot to this file (enables metrics)")
	serveAddr := flag.String("serve", "", "serve live telemetry (/metrics, /procs, /flight, pprof) on this address; keeps serving after the run until interrupted")
	flag.Parse()

	// -serve, -trace and -metrics fill the one Planes value the kernel is
	// armed with.
	out := telemetry.Outputs{Trace: *tracePath, Metrics: *metricsPath}
	pl, tsrv, err := out.Arm(*serveAddr)
	if err != nil {
		log.Fatal(err)
	}
	if tsrv != nil {
		fmt.Fprintf(os.Stderr, "telemetry: serving on http://%s/\n", tsrv.Addr)
	}

	var src []byte
	if flag.NArg() >= 1 {
		src, err = os.ReadFile(flag.Arg(0))
	} else {
		src, err = io.ReadAll(os.Stdin)
	}
	if err != nil {
		log.Fatal(err)
	}

	program, err := minipy.Compile(string(src))
	if err != nil {
		log.Fatal(err)
	}

	spec := ufork.HelloWorldSpec()
	spec.Name = "script"
	spec.HeapPages = 2048
	spec.AllocMetaPages = 32
	sys := ufork.NewSystem(ufork.Options{
		Strategy:  ufork.CoPA,
		Isolation: ufork.IsolationFull,
		Cores:     4,
		Spec:      &spec,
		Planes:    pl,
	})

	var stdout *kernel.Console
	var smapsText string
	if _, err := sys.Main(func(p *ufork.Proc) {
		k := p.Kernel()
		if of, err := p.FDs.Get(1); err == nil {
			stdout, _ = of.File.(*kernel.Console)
		}
		a := alloc.Attach(p)
		if err := a.Init(); err != nil {
			log.Fatal(err)
		}
		rt, err := minipy.Install(p, a, program)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := rt.RunMain(); err != nil {
			fmt.Fprintln(os.Stderr, "ufork-run:", err)
			k.Exit(p, 1)
		}
		if mainIdx, ok := program.FuncIndex("main"); ok && *forks == 0 {
			if _, err := rt.CallIndex(mainIdx); err != nil {
				fmt.Fprintln(os.Stderr, "ufork-run:", err)
				k.Exit(p, 1)
			}
		}
		for i := 0; i < *forks; i++ {
			_, err := k.Fork(p, func(c *ufork.Proc) {
				ck := c.Kernel()
				crt, err := minipy.Attach(c)
				if err != nil {
					ck.Exit(c, 1)
				}
				if idx, ok := program.FuncIndex("main"); ok {
					if _, err := crt.CallIndex(idx); err != nil {
						ck.Exit(c, 1)
					}
				}
				ck.Exit(c, 0)
			})
			if err != nil {
				log.Fatal(err)
			}
			if _, _, err := k.Wait(p); err != nil {
				log.Fatal(err)
			}
		}
		if *smaps {
			// Capture inside the μprocess: its mappings are torn down the
			// moment it exits, so the walk must happen before then.
			if r, err := k.Smaps(p, 0); err != nil {
				fmt.Fprintln(os.Stderr, "ufork-run: smaps:", err)
			} else {
				smapsText = kernel.RenderSmaps(r)
			}
		}
		if *stats {
			fmt.Fprintf(os.Stderr, "[virtual time %v, %d syscalls, %d forks, %d page faults]\n",
				p.Now(), k.Stats.Syscalls.Value(), k.Stats.Forks.Value(), k.Stats.PageFaults.Value())
		}
	}); err != nil {
		log.Fatal(err)
	}
	sys.Run()

	if stdout != nil {
		os.Stdout.Write(stdout.Out)
	}
	if smapsText != "" {
		fmt.Fprint(os.Stderr, smapsText)
	}
	if err := out.Write(pl); err != nil {
		log.Fatal(err)
	}
	if tsrv != nil {
		fmt.Fprintf(os.Stderr, "telemetry: run complete; still serving on http://%s/ (interrupt to exit)\n", tsrv.Addr)
		select {}
	}
}
