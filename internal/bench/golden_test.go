package bench

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ufork/internal/kernel"
	"ufork/internal/obs"
	"ufork/internal/obs/profile"
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
	t.Parallel()
	rows, err := ForkHist(Env{}, ForkHistItersQuick)
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, RenderForkHist(rows), "golden_forkhist.txt")
}

// TestGoldenForkHistConcurrent runs two sweeps at once, each with an Env
// of its own: forkhist recording into registry A, and the contention
// sweep recording into registry B and a profile plane. Neither may
// disturb the other's golden rows or reach the other's planes: A holds
// exactly its own sweep's forks and no contention metric, B no forkhist
// histogram, and the profile passes its exact-sum audit (run under
// -race).
func TestGoldenForkHistConcurrent(t *testing.T) {
	t.Parallel()
	regA, regB, prof := obs.NewRegistry(), obs.NewRegistry(), profile.New(0)
	var wg sync.WaitGroup
	var fh, ct string
	var fhErr, ctErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		var rows []ForkHistRow
		if rows, fhErr = ForkHist(Env{Planes: kernel.Planes{Metrics: regA}}, ForkHistItersQuick); fhErr == nil {
			fh = RenderForkHist(rows)
		}
	}()
	go func() {
		defer wg.Done()
		var rows []ContentionRow
		env := Env{Planes: kernel.Planes{Metrics: regB, Profile: prof}}
		if rows, ctErr = ContentionSweep(env, ContentionWindowQuick, ContentionCoresDefault); ctErr == nil {
			ct = RenderContention(rows)
		}
	}()
	wg.Wait()
	if fhErr != nil || ctErr != nil {
		t.Fatal(fhErr, ctErr)
	}
	goldenCompare(t, fh, "golden_forkhist.txt")
	goldenCompare(t, ct, "golden_contention.txt")
	a, b := regA.Snapshot(), regB.Snapshot()
	var forks uint64
	for _, id := range forkHistSystems {
		if h := a.Histograms["bench.forkhist."+string(id)]; h.Count != ForkHistItersQuick {
			t.Errorf("registry A bench.forkhist.%s holds %d forks, want %d", id, h.Count, ForkHistItersQuick)
		}
	}
	for name, h := range a.Histograms {
		if strings.HasPrefix(name, "fork.latency.") {
			forks += h.Count
		}
	}
	if want := uint64(len(forkHistSystems) * ForkHistItersQuick); forks != want {
		t.Errorf("registry A fork.latency.* holds %d forks, want %d", forks, want)
	}
	// The contention cells listen, pipe and fsync; forkhist never does.
	for _, name := range []string{"syscall.listen", "syscall.pipe", "syscall.fsync"} {
		if _, ok := b.Counters[name]; !ok {
			t.Errorf("registry B has no %s", name)
		}
		if _, ok := a.Counters[name]; ok {
			t.Errorf("registry A holds the contention metric %s", name)
		}
	}
	for name := range b.Histograms {
		if strings.HasPrefix(name, "bench.forkhist.") {
			t.Errorf("registry B holds %s", name)
		}
	}
	if err := prof.CheckExact(); err != nil {
		t.Fatal(err)
	}
}

func TestGoldenTable1(t *testing.T) {
	t.Parallel()
	goldenCompare(t, RenderTable1(Table1(Env{})), "golden_table1.txt")
}

// TestGoldenParallelInvariance re-runs forkhist at several worker-pool
// widths: the virtual-time distribution must be byte-identical whatever
// the host parallelism.
func TestGoldenParallelInvariance(t *testing.T) {
	t.Parallel()
	for _, par := range []int{1, 4} {
		rows, err := ForkHist(Env{Parallelism: par}, ForkHistItersQuick)
		if err != nil {
			t.Fatal(err)
		}
		goldenCompare(t, RenderForkHist(rows), "golden_forkhist.txt")
	}
}
