package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"ufork/internal/kernel"
	"ufork/internal/obs"
	"ufork/internal/obs/causal"
	"ufork/internal/obs/memmap"
	"ufork/internal/sim"
)

// Exposition bundles the data sources /metrics renders: an obs registry
// snapshot, bucket-level histogram detail, per-μprocess accounting from
// the live kernel, and flight-recorder meta counters. Rendering is pure
// and fully sorted, so a fixed Exposition produces byte-identical output
// (the golden test pins it).
type Exposition struct {
	Snap  obs.Snapshot
	Hists map[string]*obs.Histogram
	Procs []kernel.ProcStat

	// Memmap, when non-nil, adds the ufork_memmap_* families from a
	// memory-provenance plane snapshot. Nil renders nothing, keeping
	// expositions from plane-less runs byte-identical to before.
	Memmap *memmap.Snapshot

	// Locks, when non-empty, adds the ufork_lock_* families from an armed
	// lockstat table. Sched, when non-nil, adds the ufork_sched_*
	// scheduler-telemetry families. Both render in seconds (Prometheus
	// convention) rather than the registry histograms' virtual-ns suffix,
	// since dashboards compare them against wall-clock SLOs. Nil/empty
	// renders nothing.
	Locks []*sim.LockMeter
	Sched *sim.SchedStats

	// Traces, when non-nil, adds the ufork_trace_* families from the
	// causal trace-context plane. Nil renders nothing.
	Traces *causal.Snapshot

	FlightSeq     uint64
	FlightDropped uint64
}

// WriteMetrics renders the exposition in Prometheus text format
// (version 0.0.4): HELP/TYPE headers per family, `_total`-suffixed
// counters, and cumulative `_bucket{le=...}`/`_sum`/`_count` histogram
// series. All durations are virtual nanoseconds (the sim clock), flagged
// with an `_ns` suffix rather than Prometheus's wall-clock seconds
// convention.
func WriteMetrics(w io.Writer, e Exposition) error {
	bw := bufio.NewWriter(w)

	names := make([]string, 0, len(e.Snap.Counters))
	for n := range e.Snap.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := "ufork_" + sanitize(n) + "_total"
		fmt.Fprintf(bw, "# HELP %s kernel counter %s\n# TYPE %s counter\n%s %d\n",
			m, n, m, m, e.Snap.Counters[n])
	}

	names = names[:0]
	for n := range e.Snap.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := "ufork_" + sanitize(n)
		fmt.Fprintf(bw, "# HELP %s kernel gauge %s\n# TYPE %s gauge\n%s %d\n",
			m, n, m, m, e.Snap.Gauges[n])
	}

	names = names[:0]
	for n := range e.Hists {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := e.Hists[n]
		m := "ufork_" + sanitize(n) + "_ns"
		fmt.Fprintf(bw, "# HELP %s virtual-time histogram %s (ns)\n# TYPE %s histogram\n", m, n, m)
		bounds, cum := h.Buckets()
		for i, b := range bounds {
			fmt.Fprintf(bw, "%s_bucket{le=\"%d\"} %d\n", m, b, cum[i])
		}
		fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", m, cum[len(cum)-1])
		fmt.Fprintf(bw, "%s_sum %d\n", m, h.Sum())
		fmt.Fprintf(bw, "%s_count %d\n", m, cum[len(cum)-1]) // one read: a live scrape stays self-consistent
	}

	writeProcMetrics(bw, e.Procs)
	writeMemmapMetrics(bw, e.Memmap)
	writeLockMetrics(bw, e.Locks)
	writeSchedMetrics(bw, e.Sched)
	writeTraceMetrics(bw, e.Traces)

	fmt.Fprintf(bw, "# HELP ufork_flight_events_total flight-recorder events emitted\n"+
		"# TYPE ufork_flight_events_total counter\nufork_flight_events_total %d\n", e.FlightSeq)
	fmt.Fprintf(bw, "# HELP ufork_flight_dropped_total flight-recorder events evicted by ring wrap\n"+
		"# TYPE ufork_flight_dropped_total counter\nufork_flight_dropped_total %d\n", e.FlightDropped)
	return bw.Flush()
}

// writeProcMetrics renders the per-μprocess accounting families. Each
// family carries pid/proc labels; fault counters add the copy-mode
// outcome so a CoPA storm is one PromQL selector away.
func writeProcMetrics(bw *bufio.Writer, procs []kernel.ProcStat) {
	if len(procs) == 0 {
		return
	}
	family := func(name, typ, help string, emit func(kernel.ProcStat)) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, p := range procs {
			emit(p)
		}
	}
	family("ufork_proc_syscalls_total", "counter", "syscalls completed per process", func(p kernel.ProcStat) {
		fmt.Fprintf(bw, "ufork_proc_syscalls_total{pid=\"%d\",proc=%q} %d\n", p.PID, p.Name, p.SyscallsTotal)
	})
	family("ufork_proc_faults_total", "counter", "page faults per process by copy-mode outcome", func(p kernel.ProcStat) {
		for _, o := range [...]struct {
			outcome string
			v       uint64
		}{{"cow", p.FaultCoW}, {"coa", p.FaultCoA}, {"copa", p.FaultCoPA}, {"mapped", p.FaultMapped}} {
			fmt.Fprintf(bw, "ufork_proc_faults_total{pid=\"%d\",proc=%q,outcome=%q} %d\n",
				p.PID, p.Name, o.outcome, o.v)
		}
	})
	family("ufork_proc_frames_owned", "gauge", "physical frames charged to the process", func(p kernel.ProcStat) {
		fmt.Fprintf(bw, "ufork_proc_frames_owned{pid=\"%d\",proc=%q} %d\n", p.PID, p.Name, p.FramesOwned)
	})
	family("ufork_proc_frames_peak", "gauge", "peak physical frames charged to the process", func(p kernel.ProcStat) {
		fmt.Fprintf(bw, "ufork_proc_frames_peak{pid=\"%d\",proc=%q} %d\n", p.PID, p.Name, p.FramesPeak)
	})
	family("ufork_proc_forks_total", "counter", "fork calls performed by the process", func(p kernel.ProcStat) {
		fmt.Fprintf(bw, "ufork_proc_forks_total{pid=\"%d\",proc=%q} %d\n", p.PID, p.Name, p.Forks)
	})
	family("ufork_proc_fork_bytes_copied_total", "counter", "bytes physically copied by the process's forks", func(p kernel.ProcStat) {
		fmt.Fprintf(bw, "ufork_proc_fork_bytes_copied_total{pid=\"%d\",proc=%q} %d\n", p.PID, p.Name, p.ForkBytesCopied)
	})
	family("ufork_proc_caps_relocated_total", "counter", "capabilities relocated for the process (fork eager + fault lazy)", func(p kernel.ProcStat) {
		fmt.Fprintf(bw, "ufork_proc_caps_relocated_total{pid=\"%d\",proc=%q} %d\n",
			p.PID, p.Name, p.ForkCapsRelocated+p.FaultCapsRelocated)
	})
	family("ufork_proc_peak_brk_pages", "gauge", "peak heap watermark in pages", func(p kernel.ProcStat) {
		fmt.Fprintf(bw, "ufork_proc_peak_brk_pages{pid=\"%d\",proc=%q} %d\n", p.PID, p.Name, p.PeakBrkPages)
	})
}

// writeMemmapMetrics renders the memory-provenance families: live-frame
// population by materialization origin, exclusive-ownership transfers,
// and the per-μprocess RSS/PSS/USS decomposition of the fork tree.
func writeMemmapMetrics(bw *bufio.Writer, m *memmap.Snapshot) {
	if m == nil {
		return
	}
	fmt.Fprintf(bw, "# HELP ufork_memmap_frames_live physical frames currently tracked by the provenance plane\n"+
		"# TYPE ufork_memmap_frames_live gauge\nufork_memmap_frames_live %d\n", m.LiveFrames)
	origins := make([]string, 0, len(m.LiveByOrigin))
	for o := range m.LiveByOrigin {
		origins = append(origins, o)
	}
	sort.Strings(origins)
	fmt.Fprintf(bw, "# HELP ufork_memmap_frames_by_origin live frames by the copy path that materialized them\n"+
		"# TYPE ufork_memmap_frames_by_origin gauge\n")
	for _, o := range origins {
		fmt.Fprintf(bw, "ufork_memmap_frames_by_origin{origin=%q} %d\n", o, m.LiveByOrigin[o])
	}
	origins = origins[:0]
	for o := range m.AllocsByOrigin {
		origins = append(origins, o)
	}
	sort.Strings(origins)
	fmt.Fprintf(bw, "# HELP ufork_memmap_allocs_by_origin_total frame allocations by materializing copy path\n"+
		"# TYPE ufork_memmap_allocs_by_origin_total counter\n")
	for _, o := range origins {
		fmt.Fprintf(bw, "ufork_memmap_allocs_by_origin_total{origin=%q} %d\n", o, m.AllocsByOrigin[o])
	}
	fmt.Fprintf(bw, "# HELP ufork_memmap_owner_changes_total CoW/CoA/CoPA breaks that transferred exclusive frame ownership\n"+
		"# TYPE ufork_memmap_owner_changes_total counter\nufork_memmap_owner_changes_total %d\n", m.OwnerChanges)
	if len(m.Procs) == 0 {
		return
	}
	family := func(name, help string, value func(memmap.ProcNode) uint64) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		for _, p := range m.Procs {
			fmt.Fprintf(bw, "%s{pid=\"%d\",proc=%q} %d\n", name, p.PID, p.Name, value(p))
		}
	}
	family("ufork_memmap_proc_rss_bytes", "resident set: bytes of mapped frames",
		func(p memmap.ProcNode) uint64 { return p.RSSBytes })
	family("ufork_memmap_proc_pss_bytes", "proportional set: resident bytes with shared frames split across mappers",
		func(p memmap.ProcNode) uint64 { return p.PSSBytes })
	family("ufork_memmap_proc_uss_bytes", "unique set: bytes only this process maps",
		func(p memmap.ProcNode) uint64 { return p.USSBytes })
	family("ufork_memmap_proc_shared_pages", "pages shared with at least one other mapper",
		func(p memmap.ProcNode) uint64 { return uint64(p.SharedPages) })
}

// secs renders a virtual-ns quantity as Prometheus seconds. FormatFloat
// with 'g' keeps the 1-2-5 bucket ladder exact and strictly increasing
// ("1e-09", "2e-09", ..., "1000"), which the lint's emission-order check
// relies on.
func secs(ns uint64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64)
}

// writeHist renders one histogram's bucket/sum/count series under name.
// labels is the rendered label set without braces ("" for none); val maps
// a raw bound or sum onto its exposition string (seconds or plain count).
func writeHist(bw *bufio.Writer, name, labels string, h *obs.Histogram, val func(uint64) string) {
	brace := func(extra string) string {
		switch {
		case labels == "" && extra == "":
			return ""
		case labels == "":
			return "{" + extra + "}"
		case extra == "":
			return "{" + labels + "}"
		default:
			return "{" + labels + "," + extra + "}"
		}
	}
	bounds, cum := h.Buckets()
	for i, b := range bounds {
		fmt.Fprintf(bw, "%s_bucket%s %d\n", name, brace(`le="`+val(b)+`"`), cum[i])
	}
	fmt.Fprintf(bw, "%s_bucket%s %d\n", name, brace(`le="+Inf"`), cum[len(cum)-1])
	fmt.Fprintf(bw, "%s_sum%s %s\n", name, brace(""), val(h.Sum()))
	fmt.Fprintf(bw, "%s_count%s %d\n", name, brace(""), cum[len(cum)-1])
}

// writeLockMetrics renders the lockstat families: per-lock acquisition
// and contention counters, the waiters high-water mark, and wait/hold
// histograms in seconds.
func writeLockMetrics(bw *bufio.Writer, locks []*sim.LockMeter) {
	if len(locks) == 0 {
		return
	}
	family := func(name, typ, help string, emit func(m *sim.LockMeter)) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, m := range locks {
			emit(m)
		}
	}
	label := func(m *sim.LockMeter) string { return fmt.Sprintf("lock=%q", m.Name()) }
	family("ufork_lock_acquisitions_total", "counter", "lock acquisitions by named lock", func(m *sim.LockMeter) {
		fmt.Fprintf(bw, "ufork_lock_acquisitions_total{%s} %d\n", label(m), m.Acquisitions())
	})
	family("ufork_lock_contended_total", "counter", "lock acquisitions that had to wait", func(m *sim.LockMeter) {
		fmt.Fprintf(bw, "ufork_lock_contended_total{%s} %d\n", label(m), m.ContendedCount())
	})
	family("ufork_lock_waiters_high_water", "gauge", "most waiters ever queued on the lock at once", func(m *sim.LockMeter) {
		fmt.Fprintf(bw, "ufork_lock_waiters_high_water{%s} %d\n", label(m), m.WaitersHighWater())
	})
	family("ufork_lock_wait_seconds", "histogram", "virtual time lost waiting for the lock", func(m *sim.LockMeter) {
		writeHist(bw, "ufork_lock_wait_seconds", label(m), m.WaitHist(), secs)
	})
	family("ufork_lock_hold_seconds", "histogram", "virtual time the lock was held per critical section", func(m *sim.LockMeter) {
		writeHist(bw, "ufork_lock_hold_seconds", label(m), m.HoldHist(), secs)
	})
}

// writeSchedMetrics renders the scheduler-telemetry families: run-queue
// depth, dispatch latency, and per-core busy time/utilization.
func writeSchedMetrics(bw *bufio.Writer, s *sim.SchedStats) {
	if s == nil {
		return
	}
	snap := s.Snapshot()
	fmt.Fprintf(bw, "# HELP ufork_sched_runq_depth runnable tasks left in the queue at each dispatch\n"+
		"# TYPE ufork_sched_runq_depth histogram\n")
	writeHist(bw, "ufork_sched_runq_depth", "", s.RunqDepth, func(v uint64) string {
		return strconv.FormatUint(v, 10)
	})
	fmt.Fprintf(bw, "# HELP ufork_sched_dispatch_wait_seconds virtual time runnable tasks queued for a core\n"+
		"# TYPE ufork_sched_dispatch_wait_seconds histogram\n")
	writeHist(bw, "ufork_sched_dispatch_wait_seconds", "", s.DispatchWait, secs)
	fmt.Fprintf(bw, "# HELP ufork_sched_core_busy_seconds_total virtual time each core spent executing\n"+
		"# TYPE ufork_sched_core_busy_seconds_total counter\n")
	for _, c := range snap.PerCore {
		fmt.Fprintf(bw, "ufork_sched_core_busy_seconds_total{core=\"%d\"} %s\n", c.Core, secs(c.BusyNS))
	}
	fmt.Fprintf(bw, "# HELP ufork_sched_core_utilization busy fraction of each core over the simulated horizon\n"+
		"# TYPE ufork_sched_core_utilization gauge\n")
	for _, c := range snap.PerCore {
		fmt.Fprintf(bw, "ufork_sched_core_utilization{core=\"%d\"} %s\n",
			c.Core, strconv.FormatFloat(c.Utilization, 'g', -1, 64))
	}
	fmt.Fprintf(bw, "# HELP ufork_sched_horizon_seconds latest core-slot end observed (utilization denominator)\n"+
		"# TYPE ufork_sched_horizon_seconds gauge\nufork_sched_horizon_seconds %s\n", secs(snap.HorizonNS))
}

// writeTraceMetrics renders the causal-tracing families: trace lifecycle
// counters, causal edges by kind, and the exemplar reservoir population.
func writeTraceMetrics(bw *bufio.Writer, t *causal.Snapshot) {
	if t == nil {
		return
	}
	fmt.Fprintf(bw, "# HELP ufork_trace_started_total causal traces begun at request/op origins\n"+
		"# TYPE ufork_trace_started_total counter\nufork_trace_started_total %d\n", t.Started)
	fmt.Fprintf(bw, "# HELP ufork_trace_finished_total causal traces whose root span closed\n"+
		"# TYPE ufork_trace_finished_total counter\nufork_trace_finished_total %d\n", t.Finished)
	kinds := make([]string, 0, len(t.Edges))
	for k := range t.Edges {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprintf(bw, "# HELP ufork_trace_edges_total causal handoffs recorded, by edge kind\n"+
		"# TYPE ufork_trace_edges_total counter\n")
	for _, k := range kinds {
		fmt.Fprintf(bw, "ufork_trace_edges_total{kind=%q} %d\n", k, t.Edges[k])
	}
	fmt.Fprintf(bw, "# HELP ufork_trace_exemplars slow-trace exemplars retained across group reservoirs\n"+
		"# TYPE ufork_trace_exemplars gauge\nufork_trace_exemplars %d\n", t.Exemplars)
}

// sanitize maps an obs metric name (dot/dash separated) onto the
// Prometheus name charset [a-zA-Z0-9_].
func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
}
