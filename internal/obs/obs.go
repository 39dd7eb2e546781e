// Package obs is the kernel-wide metrics layer: a low-overhead,
// concurrency-safe registry of counters, gauges and fixed-bucket latency
// histograms with percentile summaries, plus the one Chrome trace_event
// writer every timeline export (the kernel's flight-event trace and the
// causal plane's exemplars) serializes through.
//
// Design constraints, in order:
//
//  1. Off by default. Registry traffic on kernel hot paths sits behind one
//     global switch; a disabled probe is a single atomic load and branch,
//     far below benchmark noise (see obs_bench_test.go).
//  2. Zero virtual-time cost. Instrumentation never calls Advance/Work on
//     the simulation clock, so enabling metrics cannot perturb measured
//     results.
//  3. Race-safe. Counters and histograms are plain atomics. `go test
//     -race` covers the whole package.
//
// Typical hot-path shape:
//
//	if obs.On() {
//		k.Metrics.Histogram("fork.latency").Observe(lat)
//	}
package obs

import (
	"fmt"
	"os"
	"sync/atomic"
)

// enabled is the single global switch. All registry instrumentation sites
// on kernel hot paths check it before touching any obs state.
var enabled atomic.Bool

// Enable turns the metrics layer on globally.
func Enable() { enabled.Store(true) }

// Disable turns the metrics layer off globally (the default).
func Disable() { enabled.Store(false) }

// On reports whether the metrics layer is enabled. This is the hot-path
// probe: one atomic load.
func On() bool { return enabled.Load() }

// Default is the process-wide registry. Every kernel records into it,
// which is what lets `ufork-bench -metrics` aggregate counts across every
// kernel an experiment sweep boots.
var Default = NewRegistry()

// WriteMetricsFile writes a JSON snapshot of the registry to path.
func (r *Registry) WriteMetricsFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Snapshot().WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("obs: write metrics %s: %w", path, err)
	}
	return f.Close()
}
