package bench

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ufork/internal/kernel"
	"ufork/internal/obs"
)

// The virtual-time outputs are the simulator's ground truth: host-side
// optimisation of the fork path (bitset tag scans, frame pooling, the
// parallel eager-copy pool) must never change a single byte of them. These
// tests pin the quick-mode forkhist and table1 renderings against goldens
// captured before the optimisation work; `ufork-bench` prints each
// rendering with Println, hence the trailing newline.

func goldenCompare(t *testing.T, got, file string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if got+"\n" == string(want) {
		return
	}
	end := "(end of output)"
	g := append(strings.Split(got, "\n"), end)
	w := append(strings.Split(strings.TrimSuffix(string(want), "\n"), "\n"), end)
	i := 0
	for i < len(g)-1 && i < len(w)-1 && g[i] == w[i] {
		i++
	}
	// A rendering's title is the first line of its blank-line-separated block.
	title := i
	for title > 0 && w[title-1] != "" {
		title--
	}
	t.Fatalf("output differs from %s at line %d, under %q\n got: %s\nwant: %s\nfull output:\n%s",
		path, i+1, w[title], g[i], w[i], got)
}

func TestGoldenForkHist(t *testing.T) {
	rows, err := ForkHist(ForkHistItersQuick)
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, RenderForkHist(rows), "golden_forkhist.txt")
}

// TestGoldenForkHistConcurrent runs two forkhist sweeps at once, both
// recording into one armed registry. Each row's summary comes from its
// own histogram, so neither sweep may disturb the other's golden rows,
// and the registry ends up holding both sweeps' forks (run under -race).
func TestGoldenForkHistConcurrent(t *testing.T) {
	reg := obs.NewRegistry()
	armEverywhere(t, kernel.Planes{Metrics: reg})
	var wg sync.WaitGroup
	outs := make([]string, 2)
	errs := make([]error, 2)
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows, err := ForkHist(ForkHistItersQuick)
			if err == nil {
				outs[i] = RenderForkHist(rows)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i := range outs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		goldenCompare(t, outs[i], "golden_forkhist.txt")
	}
	for _, id := range forkHistSystems {
		h := reg.Snapshot().Histograms["bench.forkhist."+string(id)]
		if h.Count != 2*ForkHistItersQuick {
			t.Errorf("registry bench.forkhist.%s holds %d forks, want %d", id, h.Count, 2*ForkHistItersQuick)
		}
	}
}

func TestGoldenTable1(t *testing.T) {
	goldenCompare(t, RenderTable1(Table1()), "golden_table1.txt")
}

// TestGoldenParallelInvariance re-runs forkhist at several worker-pool
// widths: the virtual-time distribution must be byte-identical whatever
// the host parallelism.
func TestGoldenParallelInvariance(t *testing.T) {
	defer func(old int) { Parallelism = old }(Parallelism)
	for _, par := range []int{1, 4} {
		Parallelism = par
		rows, err := ForkHist(ForkHistItersQuick)
		if err != nil {
			t.Fatal(err)
		}
		goldenCompare(t, RenderForkHist(rows), "golden_forkhist.txt")
	}
}
