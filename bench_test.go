// Top-level benchmarks: one per table and figure of the paper's evaluation
// (§5). Each benchmark regenerates its experiment through the harness in
// internal/bench and reports the headline simulated metrics via b.ReportMetric
// (virtual-time results are deterministic; the Go benchmark numbers measure
// the simulator's host-side cost). Run with:
//
//	go test -bench=. -benchmem
//
// For the paper's full parameters (100 MB databases, 1000 spawns, 100k pipe
// exchanges) use: go test -bench=. -benchmem -paperscale
package ufork_test

import (
	"flag"
	"sync"
	"testing"

	"ufork/internal/bench"
)

var paperScale = flag.Bool("paperscale", false, "run experiments at the paper's full parameters")

// env is the environment every benchmark's sweep runs in: no plane armed,
// and one eager-copy worker per CPU.
var env bench.Env

// at picks an experiment parameter at the run's scale: the quick one
// ufork-bench uses by default, or the paper's under -paperscale.
func at[T any](quick, full T) T {
	if *paperScale {
		return full
	}
	return quick
}

// BenchmarkTable1 regenerates the design-space comparison (Table 1).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Table1(env)
		if len(rows) < 10 {
			b.Fatalf("table 1 has %d rows", len(rows))
		}
	}
}

// sweep runs an experiment b.N times and returns the last run's rows.
func sweep[R any](b *testing.B, run func() ([]R, error)) []R {
	b.Helper()
	var rows []R
	for i := 0; i < b.N; i++ {
		var err error
		if rows, err = run(); err != nil {
			b.Fatal(err)
		}
	}
	return rows
}

func redisSweep() ([]bench.RedisRow, error) {
	return bench.RedisSweep(env, at(bench.RedisSizesQuick, bench.RedisSizesFull))
}

// redisRows runs the Redis sweep once per process: Fig. 3 times the sweep,
// and the Fig. 4/5 and ablation benchmarks read these rows.
var redisRows = sync.OnceValues(redisSweep)

// largest returns id's row at the largest database size.
func largest(b *testing.B, rows []bench.RedisRow, id bench.SystemID) bench.RedisRow {
	b.Helper()
	var cell *bench.RedisRow
	for i, r := range rows {
		if r.System == id && (cell == nil || r.DBBytes > cell.DBBytes) {
			cell = &rows[i]
		}
	}
	if cell == nil {
		b.Fatalf("no %s rows", id)
	}
	return *cell
}

// BenchmarkFig3RedisSave regenerates Figure 3 (overall save times).
func BenchmarkFig3RedisSave(b *testing.B) {
	rows := sweep(b, redisSweep)
	b.ReportMetric(float64(largest(b, rows, bench.SysUForkCoPA).SaveTime)/1e6, "uFork-save-ms")
	b.ReportMetric(float64(largest(b, rows, bench.SysPosix).SaveTime)/1e6, "CheriBSD-save-ms")
}

// BenchmarkFig4RedisForkLatency regenerates Figure 4 (fork latency).
func BenchmarkFig4RedisForkLatency(b *testing.B) {
	rows := sweep(b, redisRows)
	b.ReportMetric(float64(largest(b, rows, bench.SysUForkCoPA).ForkLatency)/1e3, "uFork-fork-us")
	b.ReportMetric(float64(largest(b, rows, bench.SysPosix).ForkLatency)/1e3, "CheriBSD-fork-us")
	b.ReportMetric(float64(largest(b, rows, bench.SysUForkFull).ForkLatency)/1e3, "fullcopy-fork-us")
}

// BenchmarkFig5RedisMemory regenerates Figure 5 (forked-process memory).
func BenchmarkFig5RedisMemory(b *testing.B) {
	rows := sweep(b, redisRows)
	b.ReportMetric(float64(largest(b, rows, bench.SysUForkCoPA).ChildMem)/(1<<20), "uFork-child-MB")
	b.ReportMetric(float64(largest(b, rows, bench.SysUForkCoA).ChildMem)/(1<<20), "CoA-child-MB")
	b.ReportMetric(float64(largest(b, rows, bench.SysPosix).ChildMem)/(1<<20), "CheriBSD-child-MB")
}

// BenchmarkFig6FaaSThroughput regenerates Figure 6 (function throughput).
func BenchmarkFig6FaaSThroughput(b *testing.B) {
	window := at(bench.FaaSWindowQuick, bench.FaaSWindowFull)
	for _, r := range sweep(b, func() ([]bench.FaaSRow, error) { return bench.FaaSSweep(env, window) }) {
		if r.WorkerCores == 3 && r.System != bench.SysUForkTocttou {
			b.ReportMetric(r.ThroughputPerSec, string(r.System)+"-3core-func/s")
		}
	}
}

// BenchmarkFig7NginxThroughput regenerates Figure 7 (HTTP throughput).
func BenchmarkFig7NginxThroughput(b *testing.B) {
	window := at(bench.NginxWindowQuick, bench.NginxWindowFull)
	for _, r := range sweep(b, func() ([]bench.NginxRow, error) { return bench.NginxSweep(env, window) }) {
		if r.Workers == 3 && r.Cores == 1 && r.System != bench.SysUForkTocttou {
			b.ReportMetric(r.ThroughputPerSec, string(r.System)+"-3w-1core-req/s")
		}
	}
}

// BenchmarkFig8HelloWorld regenerates Figure 8 (hello-world fork latency
// and per-process memory).
func BenchmarkFig8HelloWorld(b *testing.B) {
	for _, r := range sweep(b, func() ([]bench.HelloRow, error) { return bench.HelloWorld(env) }) {
		b.ReportMetric(float64(r.ForkLatency)/1e3, string(r.System)+"-fork-us")
	}
}

// BenchmarkFig9Unixbench regenerates Figure 9 (Spawn and Context1).
func BenchmarkFig9Unixbench(b *testing.B) {
	spawns := at(bench.SpawnItersQuick, bench.SpawnItersFull)
	ctx1 := at(bench.Context1TargetQuick, bench.Context1TargetFull)
	for _, r := range sweep(b, func() ([]bench.UnixbenchRow, error) { return bench.Unixbench(env, spawns, ctx1) }) {
		b.ReportMetric(float64(r.Spawn)/1e6, string(r.System)+"-spawn-ms")
		b.ReportMetric(float64(r.Context1)/1e6, string(r.System)+"-ctx1-ms")
	}
}

// BenchmarkAblationCopyStrategy regenerates the §5.2 CoPA/CoA/full-copy
// comparison at the largest database size.
func BenchmarkAblationCopyStrategy(b *testing.B) {
	rows := sweep(b, redisRows)
	copa, coa := largest(b, rows, bench.SysUForkCoPA), largest(b, rows, bench.SysUForkCoA)
	full := largest(b, rows, bench.SysUForkFull)
	b.ReportMetric(float64(full.ForkLatency)/float64(copa.ForkLatency), "full/CoPA-latency-x")
	b.ReportMetric(float64(coa.ForkLatency)/float64(copa.ForkLatency), "CoA/CoPA-latency-x")
	b.ReportMetric(float64(coa.ChildMem)/float64(copa.ChildMem), "CoA/CoPA-memory-x")
}

// BenchmarkAblationTocttou regenerates the §4.4 TOCTTOU cost analysis.
func BenchmarkAblationTocttou(b *testing.B) {
	rows := sweep(b, redisRows)
	over := 100 * (float64(largest(b, rows, bench.SysUForkTocttou).SaveTime)/float64(largest(b, rows, bench.SysUForkCoPA).SaveTime) - 1)
	b.ReportMetric(over, "tocttou-save-%")
}
