// Package obs is the kernel-wide metrics layer: a low-overhead,
// concurrency-safe registry of counters, gauges and fixed-bucket latency
// histograms with percentile summaries, plus the one Chrome trace_event
// writer every timeline export (the kernel's flight-event trace and the
// causal plane's exemplars) serializes through.
//
// Design constraints, in order:
//
//  1. Off by default. A kernel records into a registry only when one is
//     armed (kernel.Planes.Metrics); with none, each probe is one nil
//     check and branch, far below benchmark noise (see obs_bench_test.go).
//  2. Zero virtual-time cost. Instrumentation never calls Advance/Work on
//     the simulation clock, so enabling metrics cannot perturb measured
//     results.
//  3. Race-safe. Counters and histograms are plain atomics. `go test
//     -race` covers the whole package.
//
// Typical hot-path shape:
//
//	if k.Metrics != nil {
//		k.Metrics.Histogram("fork.latency").Observe(lat)
//	}
package obs
