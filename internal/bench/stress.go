package bench

import (
	"fmt"
	"sort"
	"strings"

	"ufork/internal/bench/ycsb"
	"ufork/internal/chaos"
	"ufork/internal/core"
	"ufork/internal/kernel"
	"ufork/internal/obs"
	"ufork/internal/obs/flight"
)

// StressRow is one soak cell: a copy mode × isolation level × seed run of
// the chaos harness under the aggressive fault plan.
type StressRow struct {
	Mode  core.CopyMode
	Iso   kernel.IsolationLevel
	Seed  int64
	Res   chaos.Result
	Err   error
	Clean bool // true when this cell ran without fault injection
	SMP   bool // true when this cell ran on the split-lock machine
}

// Soak rounds and per-program op caps at quick and at full scale.
const (
	StressRoundsQuick, StressOpsQuick = 2, 2500
	StressRoundsFull, StressOpsFull   = 10, 8000
)

// Stress soaks the kernel: for each round it runs every copy mode ×
// isolation level twice — once clean (pure differential fuzzing) and once
// under the aggressive fault plan — with a per-round seed derived from
// the base seed. The μFork copy mode additionally runs each cell on the
// split-lock SMP machine, so the fine-grained lock plane soaks under the
// same seeded schedules and fault plans as the big kernel lock. Every
// row's failure, if any, carries its own one-line repro, so a soak that
// dies overnight replays from the log.
func Stress(env Env, seed int64, rounds, maxOps int) []StressRow {
	modes := []core.CopyMode{core.CopyOnPointerAccess, core.CopyOnAccess, core.CopyFull}
	isos := []kernel.IsolationLevel{kernel.IsolationNone, kernel.IsolationFault, kernel.IsolationFull}
	var rows []StressRow
	for round := 0; round < rounds; round++ {
		// Distinct, reproducible per-round seeds: the round index stretched
		// by a prime so adjacent rounds share no low-bit structure.
		rseed := seed + int64(round)*7919
		for _, mode := range modes {
			for _, iso := range isos {
				for _, clean := range []bool{true, false} {
					for _, smp := range []bool{false, true} {
						// The SMP soak covers the lock plane, not the copy
						// engine; one copy mode keeps the matrix bounded.
						if smp && mode != core.CopyOnPointerAccess {
							continue
						}
						cfg := chaos.Config{Mode: mode, Iso: iso, Seed: rseed, SMP: smp, MaxOps: maxOps, ProgBytes: 4 * maxOps, Planes: env.Planes}
						// Label this cell's trace-exemplar reservoir so a
						// failure dump's trace trees name the soak window.
						cfg.TraceGroup = fmt.Sprintf("stress/r%d/%s/%s/smp=%v/clean=%v", round, mode, iso, smp, clean)
						if !clean {
							cfg.Plan = chaos.Aggressive()
						}
						res, err := chaos.Run(cfg, nil)
						rows = append(rows, StressRow{Mode: mode, Iso: iso, Seed: rseed, Res: res, Err: err, Clean: clean, SMP: smp})
					}
				}
			}
		}
	}
	return rows
}

// StressFailures returns the first failing row's error, or nil if the
// whole soak was clean.
func StressFailures(rows []StressRow) error {
	for _, r := range rows {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// DefaultStressSLO is the syscall-latency contract every soak cell must
// clear: a latency-only gate (throughput and error rate are the chaos
// harness's own business) with ceilings well above the measured envelope
// of the slowest cells — p50 ≤ 500ns and p99 ≤ 500µs across every mode ×
// isolation × plan at the default scale — so it trips on a latency
// collapse, not on seed-to-seed noise.
func DefaultStressSLO() ycsb.SLO {
	return ycsb.SLO{MaxP50: 100_000, MaxP99: 10_000_000, MaxP999: 50_000_000, MaxErrorRate: -1}
}

// StressLatency folds the row's flight-recorded per-syscall latencies
// (KindSysRet, Args[1]) into a histogram summary — the same virtual-time
// percentile plane the YCSB harness gates on, derived here from the
// recorder every chaos run already carries.
func StressLatency(r StressRow) obs.HistSummary {
	h := obs.NewHistogram(nil)
	if r.Res.Flight != nil {
		for _, e := range r.Res.Flight.Snapshot() {
			if e.Kind == flight.KindSysRet {
				h.Observe(e.Args[1])
			}
		}
	}
	return h.Summary()
}

// CheckStressSLO evaluates every soak cell's syscall-latency summary
// against the gate, returning an error naming each breaching cell or nil
// when the whole soak held. Cells that recorded no syscall returns (a
// seed whose program died instantly) are skipped — StressFailures owns
// hard failures.
func CheckStressSLO(rows []StressRow, slo ycsb.SLO) error {
	var msgs []string
	for _, r := range rows {
		sum := StressLatency(r)
		if sum.Count == 0 {
			continue
		}
		breaches := slo.Evaluate(ycsb.Result{Ops: int(sum.Count), Lat: sum})
		if len(breaches) == 0 {
			continue
		}
		var gates []string
		for _, b := range breaches {
			gates = append(gates, b.String())
		}
		plan := "clean"
		if !r.Clean {
			plan = "aggressive"
		}
		if r.SMP {
			plan += "+smp"
		}
		msgs = append(msgs, fmt.Sprintf("%s/%s/%s seed=%d: %s",
			r.Mode, r.Iso, plan, r.Seed, strings.Join(gates, "; ")))
	}
	if len(msgs) == 0 {
		return nil
	}
	return fmt.Errorf("bench: stress SLO (%s) breached:\n  %s", slo, strings.Join(msgs, "\n  "))
}

// RenderStress renders the soak summary table, including the per-cell
// peak μprocess frame footprint taken from the kernel's ProcStat
// accounting.
func RenderStress(rows []StressRow) string {
	header := []string{"mode", "isolation", "seed", "plan", "ops", "forks", "audits", "injected", "peak-frames", "sys-p50", "sys-p99", "status"}
	var out [][]string
	totalOps, totalInj, failed := 0, 0, 0
	for _, r := range rows {
		plan, inj := "clean", 0
		if !r.Clean {
			plan = "aggressive"
			for _, v := range r.Res.Injected {
				inj += v
			}
		}
		if r.SMP {
			plan += "+smp"
		}
		status := "ok"
		if r.Err != nil {
			status = "FAIL"
			failed++
		}
		var peak int64
		for _, ps := range r.Res.ProcStats {
			if ps.FramesPeak > peak {
				peak = ps.FramesPeak
			}
		}
		totalOps += r.Res.Ops
		totalInj += inj
		lat := StressLatency(r)
		out = append(out, []string{
			r.Mode.String(), r.Iso.String(), fmt.Sprint(r.Seed), plan,
			fmt.Sprint(r.Res.Ops), fmt.Sprint(r.Res.Forks), fmt.Sprint(r.Res.Checks),
			fmt.Sprint(inj), fmt.Sprint(peak),
			ycsb.NS(lat.P50), ycsb.NS(lat.P99), status,
		})
	}
	s := "Stress soak — seeded chaos runs (differential fuzzing + fault injection + invariant audits)\n" +
		Table(header, out) +
		fmt.Sprintf("total: %d cells, %d ops, %d injected faults, %d failures\n", len(rows), totalOps, totalInj, failed) +
		"\n" + renderStressProcs(rows)
	for _, r := range rows {
		if r.Err != nil {
			s += fmt.Sprintf("FAIL: %v\n", r.Err)
		}
	}
	return s
}

// stressProcCell pairs a μprocess accounting snapshot with the soak cell
// it came from, so the breakdown table can name its origin.
type stressProcCell struct {
	row  StressRow
	stat kernel.ProcStat
}

// renderStressProcs renders the frame-ownership breakdown: the soak's
// hungriest μprocesses by peak frames owned, with their fault-outcome
// mix. This is the ProcStat plane exercised at scale — a leak in frame
// attribution shows up here as owned≠0 for exited procs or peaks far
// beyond the working-set bound.
func renderStressProcs(rows []StressRow) string {
	var cells []stressProcCell
	for _, r := range rows {
		for _, ps := range r.Res.ProcStats {
			cells = append(cells, stressProcCell{r, ps})
		}
	}
	if len(cells) == 0 {
		return ""
	}
	// Deterministic order: peak frames desc, then cell identity, then pid.
	sort.SliceStable(cells, func(i, j int) bool {
		return cells[i].stat.FramesPeak > cells[j].stat.FramesPeak
	})
	const top = 10
	shown := cells
	if len(shown) > top {
		shown = shown[:top]
	}
	var out [][]string
	for _, c := range shown {
		plan := "clean"
		if !c.row.Clean {
			plan = "aggressive"
		}
		if c.row.SMP {
			plan += "+smp"
		}
		st := c.stat
		out = append(out, []string{
			fmt.Sprintf("%s/%s/%s", c.row.Mode, c.row.Iso, plan),
			fmt.Sprint(st.PID), st.Name,
			fmt.Sprint(st.SyscallsTotal), fmt.Sprint(st.Forks),
			fmt.Sprintf("%d/%d/%d/%d", st.FaultCoW, st.FaultCoA, st.FaultCoPA, st.FaultMapped),
			fmt.Sprint(st.FramesOwned), fmt.Sprint(st.FramesPeak),
			fmt.Sprint(st.ForkBytesCopied),
			// The smaps decomposition frozen at each μprocess's end of life:
			// how much of its final footprint was still shared with the tree.
			fmt.Sprintf("%d/%d/%d", st.RSSBytes>>10, st.PSSBytes>>10, st.USSBytes>>10),
		})
	}
	return fmt.Sprintf("Per-μprocess frame ownership — top %d of %d procs by peak frames\n", len(shown), len(cells)) +
		Table([]string{"cell", "pid", "proc", "syscalls", "forks", "cow/coa/copa/map", "owned", "peak", "fork-bytes", "rss/pss/uss-kb"}, out)
}
