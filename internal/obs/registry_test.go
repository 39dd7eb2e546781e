package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("forks")
	c1.Inc()
	if c2 := r.Counter("forks"); c2 != c1 {
		t.Error("Counter returned a different instance for the same name")
	}
	if r.Counter("forks").Value() != 1 {
		t.Error("count lost across lookups")
	}
	g := r.Gauge("live")
	g.Add(3)
	g.Add(-1)
	if r.Gauge("live").Value() != 2 {
		t.Error("gauge lost across lookups")
	}
	h1 := r.Histogram("lat")
	if h2 := r.HistogramWith("lat", []uint64{1, 2}); h2 != h1 {
		t.Error("HistogramWith created a second histogram under an existing name")
	}
}

func TestRegistrySnapshotAndReset(t *testing.T) {
	r := NewRegistry()
	r.Counter("syscalls").Add(40)
	r.Gauge("live").Set(-7)
	r.Histogram("fork.latency").Observe(200)

	s := r.Snapshot()
	if s.Counters["syscalls"] != 40 {
		t.Errorf("snapshot counter = %d, want 40", s.Counters["syscalls"])
	}
	if s.Gauges["live"] != -7 {
		t.Errorf("snapshot gauge = %d, want -7", s.Gauges["live"])
	}
	if hs := s.Histograms["fork.latency"]; hs.Count != 1 || hs.Min != 200 {
		t.Errorf("snapshot histogram = %+v", hs)
	}

	// Snapshot is a copy: later increments must not appear in it.
	r.Counter("syscalls").Inc()
	if s.Counters["syscalls"] != 40 {
		t.Error("snapshot aliases live counter")
	}

	held := r.Counter("syscalls")
	r.Reset()
	if held.Value() != 0 {
		t.Error("Reset did not zero a held counter reference")
	}
	s2 := r.Snapshot()
	if s2.Counters["syscalls"] != 0 || s2.Gauges["live"] != 0 || s2.Histograms["fork.latency"].Count != 0 {
		t.Errorf("post-Reset snapshot = %+v", s2)
	}
}

func TestSnapshotWriteJSONDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	r.Histogram("lat").Observe(5)
	var one, two bytes.Buffer
	if err := r.Snapshot().WriteJSON(&one); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot().WriteJSON(&two); err != nil {
		t.Fatal(err)
	}
	if one.String() != two.String() {
		t.Error("WriteJSON not deterministic across calls")
	}
	var round Snapshot
	if err := json.Unmarshal(one.Bytes(), &round); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if round.Counters["a"] != 1 || round.Counters["b"] != 2 {
		t.Errorf("round-tripped counters = %v", round.Counters)
	}
}

func TestSnapshotText(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.last").Inc()
	r.Counter("a.first").Inc()
	r.Gauge("live").Set(4)
	r.Histogram("lat").Observe(10)
	text := r.Snapshot().Text()
	if !strings.Contains(text, "a.first") || !strings.Contains(text, "z.last") ||
		!strings.Contains(text, "live") || !strings.Contains(text, "p99") {
		t.Errorf("Text() missing entries:\n%s", text)
	}
	if strings.Index(text, "a.first") > strings.Index(text, "z.last") {
		t.Error("Text() counters not sorted")
	}
}

// TestRegistryConcurrent hammers one registry from many goroutines; its
// real assertions are the -race run in CI plus the exact final counts.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("shared").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h").Observe(uint64(i%7) + 1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("g").Value(); got != workers*perWorker {
		t.Errorf("gauge = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("h").Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
}
