package bench

import (
	"testing"

	"ufork/internal/kernel"
	"ufork/internal/obs/flight"
	"ufork/internal/obs/profile"
)

// armProfileEverywhere chains kernel.TrackNew so every kernel the bench
// layer boots arms pl, restoring the previous hook at test end. This is
// the same wiring path the telemetry server and the -profile bench flag
// use, so the invariance tests exercise the real arming route.
func armProfileEverywhere(t *testing.T, pl *profile.Plane) {
	t.Helper()
	old := kernel.TrackNew
	kernel.TrackNew = func(k *kernel.Kernel) {
		if old != nil {
			old(k)
		}
		k.ArmProfile(pl)
	}
	t.Cleanup(func() { kernel.TrackNew = old })
}

// TestGoldenForkHistProfilerArmed is the observer-effect gate: the
// virtual-time goldens must stay byte-identical with the profiler armed
// on every kernel boot, while the plane itself fills with samples that
// pass the exact-sum audit. A profiler that nudged the timeline — an
// extra Advance, a reordered lock wait — fails the byte comparison.
func TestGoldenForkHistProfilerArmed(t *testing.T) {
	pl := profile.New(0)
	pl.Enable()
	armProfileEverywhere(t, pl)
	rows, err := ForkHist(ForkHistItersQuick)
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
	pl := profile.New(0)
	pl.Enable()
	armProfileEverywhere(t, pl)
	rows, err := ContentionSweep(ContentionWindowQuick, ContentionCoresDefault)
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
// flight recorder armed on every kernel through TrackNew, exactly as the
// CLIs arm it, must leave both virtual-time goldens byte-identical.
func TestGoldenForkHistTraceArmed(t *testing.T) {
	rec := armTraceEverywhere(t)
	rows, err := ForkHist(ForkHistItersQuick)
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, RenderForkHist(rows), "golden_forkhist.txt")
	if rec.Seq() == 0 {
		t.Fatal("armed sweep recorded no flight events")
	}
}

func TestGoldenContentionTraceArmed(t *testing.T) {
	rec := armTraceEverywhere(t)
	rows, err := ContentionSweep(ContentionWindowQuick, ContentionCoresDefault)
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, RenderContention(rows), "golden_contention.txt")
	if rec.Seq() == 0 {
		t.Fatal("armed contention sweep recorded no flight events")
	}
}

// armTraceEverywhere arms the -trace recorder through kernel.ArmTrace,
// restoring the previous TrackNew hook at test end.
func armTraceEverywhere(t *testing.T) *flight.Recorder {
	t.Helper()
	old := kernel.TrackNew
	t.Cleanup(func() { kernel.TrackNew = old })
	return kernel.ArmTrace()
}

// TestGoldenProfDiff pins the cross-lock-regime profile diff: the
// quick-mode YCSB coordinate profiled under bkl and smp must subtract
// to the identical signed delta table every run.
func TestGoldenProfDiff(t *testing.T) {
	if testing.Short() {
		t.Skip("profdiff sweep is quick-mode, not short-mode")
	}
	out, err := ProfDiff(YCSBKeysQuick, YCSBOpsQuick)
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
	fold := func() string {
		pl := profile.New(0)
		pl.Enable()
		if err := profDiffSweep(LocksBKL, YCSBKeysQuick, YCSBOpsQuick, pl); err != nil {
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
