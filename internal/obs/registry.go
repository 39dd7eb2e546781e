package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use, which is what lets kernel.Stats embed counters directly in
// place of the old bare uint64 fields.
type Counter struct{ n atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds d.
func (c *Counter) Add(d uint64) { c.n.Add(d) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n.Store(0) }

// Gauge is an atomic instantaneous value (e.g. live μprocess count).
type Gauge struct{ n atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.n.Store(v) }

// Add adjusts the gauge by d (may be negative).
func (g *Gauge) Add(d int64) { g.n.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.n.Load() }

// Reset zeroes the gauge.
func (g *Gauge) Reset() { g.n.Store(0) }

// Registry is a named collection of counters, gauges and histograms.
// Lookups take a mutex; the returned instruments are lock-free, so hot
// paths should hold on to them (or guard lookups behind a nil registry
// check).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram with the default latency buckets,
// creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	return r.HistogramWith(name, nil)
}

// HistogramWith returns the named histogram, creating it with the given
// bucket bounds on first use (nil means DefaultBuckets). Bounds are fixed
// at creation; later calls ignore the argument.
func (r *Registry) HistogramWith(name string, bounds []uint64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Reset zeroes every registered instrument (the instruments stay
// registered, so held references remain valid). Benchmark harnesses call
// this between iterations so counts cannot leak across runs.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.Reset()
	}
	for _, g := range r.gauges {
		g.Reset()
	}
	for _, h := range r.hists {
		h.Reset()
	}
}

// Snapshot is a point-in-time copy of every instrument, suitable for JSON
// emission alongside benchmark results.
type Snapshot struct {
	Counters   map[string]uint64      `json:"counters,omitempty"`
	Gauges     map[string]int64       `json:"gauges,omitempty"`
	Histograms map[string]HistSummary `json:"histograms,omitempty"`
}

// Snapshot captures the current value of every instrument.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistSummary, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Summary()
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON (map keys are emitted in
// sorted order by encoding/json, so output is deterministic).
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Text renders the snapshot as a human-readable sorted listing.
func (s Snapshot) Text() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "counter    %-44s %d\n", n, s.Counters[n])
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "gauge      %-44s %d\n", n, s.Gauges[n])
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		fmt.Fprintf(&b, "histogram  %-44s n=%d sum=%d min=%d p50=%d p90=%d p99=%d p99.9=%d max=%d\n",
			n, h.Count, h.Sum, h.Min, h.P50, h.P90, h.P99, h.P999, h.Max)
	}
	return b.String()
}

// Histograms returns the registered histograms by name: a copied map over
// the shared (lock-free) instruments, for exporters that need bucket-level
// detail a Snapshot flattens away.
func (r *Registry) Histograms() map[string]*Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]*Histogram, len(r.hists))
	for name, h := range r.hists {
		out[name] = h
	}
	return out
}
