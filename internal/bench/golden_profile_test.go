package bench

import (
	"sync/atomic"
	"testing"

	"ufork/internal/kernel"
	"ufork/internal/obs"
	"ufork/internal/obs/causal"
	"ufork/internal/obs/flight"
	"ufork/internal/obs/memmap"
	"ufork/internal/obs/profile"
	"ufork/internal/sim"
)

// TestGoldenForkHistProfilerArmed is the observer-effect gate: the
// virtual-time goldens must stay byte-identical with the profiler armed
// on every kernel boot, while the plane itself fills with samples that
// pass the exact-sum audit. A profiler that nudged the timeline — an
// extra Advance, a reordered lock wait — fails the byte comparison.
func TestGoldenForkHistProfilerArmed(t *testing.T) {
	t.Parallel()
	pl := profile.New(0)
	rows, err := ForkHist(Env{Planes: kernel.Planes{Profile: pl}}, ForkHistItersQuick)
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, RenderForkHist(rows), "golden_forkhist.txt")
	if pl.Samples() == 0 {
		t.Fatal("armed sweep produced no samples")
	}
	if err := pl.CheckExact(); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenContentionProfilerArmed pins the contention-sweep golden —
// the one whose cells exercise both lock regimes, so the profiler's
// lock-wait sampling runs hot on the exact workload the golden freezes.
func TestGoldenContentionProfilerArmed(t *testing.T) {
	t.Parallel()
	pl := profile.New(0)
	rows, err := ContentionSweep(Env{Planes: kernel.Planes{Profile: pl}}, ContentionWindowQuick, ContentionCoresDefault)
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, RenderContention(rows), "golden_contention.txt")
	if pl.Samples() == 0 {
		t.Fatal("armed contention sweep produced no samples")
	}
	if err := pl.CheckExact(); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenForkHistTraceArmed and TestGoldenContentionTraceArmed are
// the same observer-effect gate for the -trace recorder: a 2^18-event
// flight recorder armed on every kernel through the sweep's Env,
// exactly as the CLIs arm it, must leave both virtual-time goldens
// byte-identical.
func TestGoldenForkHistTraceArmed(t *testing.T) {
	t.Parallel()
	rec := flight.New(1 << 18)
	rows, err := ForkHist(Env{Planes: kernel.Planes{Flight: rec}}, ForkHistItersQuick)
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, RenderForkHist(rows), "golden_forkhist.txt")
	if rec.Seq() == 0 {
		t.Fatal("armed sweep recorded no flight events")
	}
}

func TestGoldenContentionTraceArmed(t *testing.T) {
	t.Parallel()
	rec := flight.New(1 << 18)
	rows, err := ContentionSweep(Env{Planes: kernel.Planes{Flight: rec}}, ContentionWindowQuick, ContentionCoresDefault)
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, RenderContention(rows), "golden_contention.txt")
	if rec.Seq() == 0 {
		t.Fatal("armed contention sweep recorded no flight events")
	}
}

// TestGoldenContentionAllPlanesArmed arms every plane at once — the
// metrics registry, a flight recorder, memmap, causal, the profiler, a
// lock table and a live-kernel slot, as -serve plus -trace, -metrics and
// -profile do — and the contention golden must stay byte-identical while
// each plane fills.
func TestGoldenContentionAllPlanesArmed(t *testing.T) {
	t.Parallel()
	pl := kernel.Planes{
		Metrics: obs.NewRegistry(),
		Flight:  flight.New(flight.DefaultEvents),
		Memmap:  memmap.New(),
		Causal:  causal.New(0),
		Profile: profile.New(0),
		Locks:   sim.NewLockTable(),
		Live:    new(atomic.Pointer[kernel.Kernel]),
	}
	rows, err := ContentionSweep(Env{Planes: pl}, ContentionWindowQuick, ContentionCoresDefault)
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, RenderContention(rows), "golden_contention.txt")
	if len(pl.Metrics.Snapshot().Counters) == 0 || pl.Flight.Seq() == 0 || pl.Profile.Samples() == 0 ||
		len(pl.Memmap.Snapshot(0).AllocsByOrigin) == 0 || len(pl.Locks.Snapshot()) == 0 || pl.Live.Load() == nil {
		t.Fatal("an armed plane recorded nothing over the sweep")
	}
	if err := pl.Profile.CheckExact(); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenProfDiff pins the cross-lock-regime profile diff: the
// quick-mode YCSB coordinate profiled under bkl and smp must subtract
// to the identical signed delta table every run.
func TestGoldenProfDiff(t *testing.T) {
	if testing.Short() {
		t.Skip("profdiff sweep is quick-mode, not short-mode")
	}
	t.Parallel()
	out, err := ProfDiff(Env{}, YCSBKeysQuick, YCSBOpsQuick)
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, out, "golden_profdiff.txt")
}

// TestProfDiffFoldedDeterministic is the byte-determinism acceptance:
// two identical seeded profiled sweeps fold to identical bytes.
func TestProfDiffFoldedDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("profiled sweep is quick-mode, not short-mode")
	}
	t.Parallel()
	fold := func() string {
		pl := profile.New(0)
		if err := profDiffSweep(Env{Planes: kernel.Planes{Profile: pl}}, LocksBKL, YCSBKeysQuick, YCSBOpsQuick); err != nil {
			t.Fatal(err)
		}
		return pl.Folded()
	}
	a, b := fold(), fold()
	if a != b {
		t.Fatalf("identical seeded runs folded differently:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
	if a == "" {
		t.Fatal("profiled sweep folded to nothing")
	}
}
