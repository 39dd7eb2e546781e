package profile

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ufork/internal/sim"
)

func testStack(cpu int32, pid int32, sys, phase string) Stack {
	return Stack{CPU: cpu, PID: pid, Proc: "kvsrv", Sys: sys, Phase: phase}
}

// TestQuantization: sub-quantum charges accumulate in the residual and
// emit one tick per boundary crossed; the stack on the CPU at the
// crossing owns the whole tick.
func TestQuantization(t *testing.T) {
	pl := New(100)
	a := testStack(0, 1, "fork", "fork:ptecopy")
	b := testStack(0, 1, "", "")
	pl.Add(a, KindRun, 0, 70)  // residual 70
	pl.Add(b, KindRun, 0, 70)  // crosses 100: b owns the tick, residual 40
	pl.Add(a, KindRun, 0, 260) // crosses 200 and 300: a owns 3 ticks, residual 0
	snap := pl.Snapshot()
	got := map[string]uint64{}
	for _, sc := range snap.Stacks {
		got[sc.Stack.Key()] = sc.Samples
	}
	if got[a.Key()] != 3 || got[b.Key()] != 1 {
		t.Fatalf("tick ownership = %v, want a=3 b=1", got)
	}
	if pl.Samples() != 4 {
		t.Fatalf("Samples() = %d, want 4", pl.Samples())
	}
	if err := pl.CheckExact(); err != nil {
		t.Fatal(err)
	}
	if pl.ChargedNS(0, KindRun) != 400 || pl.SampledNS(0, KindRun) != 400 {
		t.Fatalf("charged/sampled = %d/%d, want 400/400",
			pl.ChargedNS(0, KindRun), pl.SampledNS(0, KindRun))
	}
}

// TestExactSumPerKind: kinds keep independent accumulators and the
// identity charged == sampled + residual holds per (cpu, kind).
func TestExactSumPerKind(t *testing.T) {
	pl := New(1000)
	st := testStack(1, 2, "read", "")
	pl.Add(st, KindRun, 1, 2500)
	pl.Add(st, KindLatency, 1, 999)
	pl.Add(st, KindLockWait, 1, 1001)
	if err := pl.CheckExact(); err != nil {
		t.Fatal(err)
	}
	if pl.SampledNS(1, KindRun) != 2000 || pl.SampledNS(1, KindLatency) != 0 || pl.SampledNS(1, KindLockWait) != 1000 {
		t.Fatalf("sampled per kind = %d/%d/%d", pl.SampledNS(1, KindRun),
			pl.SampledNS(1, KindLatency), pl.SampledNS(1, KindLockWait))
	}
	if pl.ChargedNS(1, KindLatency) != 999 {
		t.Fatalf("latency charged = %d, want 999", pl.ChargedNS(1, KindLatency))
	}
}

// TestCheckExactSabotage proves the checker actually fires: corrupting
// any leg of the accounting identity must produce an error.
func TestCheckExactSabotage(t *testing.T) {
	mk := func() *Plane {
		pl := New(100)
		pl.Add(testStack(0, 1, "", ""), KindRun, 0, 250)
		return pl
	}
	if err := mk().CheckExact(); err != nil {
		t.Fatalf("healthy plane fails CheckExact: %v", err)
	}
	sabotages := []struct {
		name string
		f    func(*Plane)
	}{
		{"lost charged time", func(pl *Plane) { pl.cpus[0].charged[KindRun] -= 30 }},
		{"invented sampled time", func(pl *Plane) { pl.cpus[0].sampled[KindRun] += 100 }},
		{"overflowing residual", func(pl *Plane) {
			pl.cpus[0].residual[KindRun] += 200
			pl.cpus[0].charged[KindRun] += 200
		}},
		{"dropped sample bucket", func(pl *Plane) {
			for st := range pl.buckets {
				delete(pl.buckets, st)
			}
		}},
		{"skewed sample counter", func(pl *Plane) { pl.samples.Add(1) }},
	}
	for _, s := range sabotages {
		pl := mk()
		s.f(pl)
		if err := pl.CheckExact(); err == nil {
			t.Errorf("%s: CheckExact did not fire", s.name)
		}
	}
}

// TestFoldedDeterministic: insertion order must not leak into the
// folded output — two differently-ordered but identical charge
// sequences render byte-identically.
func TestFoldedDeterministic(t *testing.T) {
	stacks := []Stack{
		testStack(0, 1, "fork", "fork:scan"),
		testStack(1, 2, "write", "lock:tmem"),
		testStack(0, 3, "", "fault:cow"),
		testStack(2, 1, "", ""),
	}
	build := func(order []int) *Plane {
		pl := New(10)
		for _, i := range order {
			pl.Add(stacks[i], KindRun, int(stacks[i].CPU), 100)
		}
		return pl
	}
	a := build([]int{0, 1, 2, 3}).Folded()
	b := build([]int{3, 2, 1, 0}).Folded()
	if a != b {
		t.Fatalf("folded output depends on insertion order:\n%s\nvs\n%s", a, b)
	}
	want := "cpu0;proc:kvsrv[1];syscall:fork;phase:fork:scan 100\n" +
		"cpu0;proc:kvsrv[3];phase:fault:cow 100\n" +
		"cpu1;proc:kvsrv[2];syscall:write;phase:lock:tmem 100\n" +
		"cpu2;proc:kvsrv[1] 100\n"
	if a != want {
		t.Fatalf("folded output:\n%s\nwant:\n%s", a, want)
	}
}

// TestTopRender: hottest stack first, shares sum to 100%.
func TestTopRender(t *testing.T) {
	pl := New(10)
	pl.Add(testStack(0, 1, "fork", ""), KindRun, 0, 30)
	pl.Add(testStack(0, 2, "", ""), KindRun, 0, 10)
	out := pl.RenderTop(1)
	if !strings.Contains(out, "4 samples") {
		t.Fatalf("missing sample count header:\n%s", out)
	}
	if !strings.Contains(out, "75.00%") || strings.Contains(out, "25.00%") {
		t.Fatalf("top-1 should keep only the 75%% stack:\n%s", out)
	}
	if empty := New(10).RenderTop(5); !strings.Contains(empty, "no samples") {
		t.Fatalf("empty render = %q", empty)
	}
}

// TestDiff: signed deltas, sorted by |delta| descending, stacks unique
// to either side included.
func TestDiff(t *testing.T) {
	before := New(10)
	after := New(10)
	shrink := testStack(0, 1, "fork", "fork:eagercopy")
	grow := testStack(0, 1, "fork", "fork:ptecopy")
	gone := testStack(0, 2, "read", "")
	born := testStack(0, 3, "write", "")
	before.Add(shrink, KindRun, 0, 500)
	before.Add(grow, KindRun, 0, 100)
	before.Add(gone, KindRun, 0, 50)
	after.Add(shrink, KindRun, 0, 100)
	after.Add(grow, KindRun, 0, 300)
	after.Add(born, KindRun, 0, 40)
	ds := Diff(before.Snapshot(), after.Snapshot())
	if len(ds) != 4 {
		t.Fatalf("diff has %d stacks, want 4", len(ds))
	}
	if ds[0].Stack != shrink || ds[0].DeltaNS != -400 {
		t.Fatalf("largest delta = %+v, want shrink -400", ds[0])
	}
	if ds[1].Stack != grow || ds[1].DeltaNS != +200 {
		t.Fatalf("second delta = %+v, want grow +200", ds[1])
	}
	out := RenderDiff(ds, 2, "bkl", "smp")
	if !strings.Contains(out, "-400") || !strings.Contains(out, "+200") {
		t.Fatalf("rendered diff missing signed deltas:\n%s", out)
	}
	if strings.Contains(out, "read") {
		t.Fatalf("top-2 diff should drop the small stacks:\n%s", out)
	}
}

// TestPprofDeterministic: the gzip blob is byte-identical across
// identical snapshots.
func TestPprofDeterministic(t *testing.T) {
	mk := func() []byte {
		pl := New(10)
		pl.Add(testStack(0, 1, "fork", "fork:reserve"), KindRun, 0, 100)
		pl.Add(testStack(1, 2, "", ""), KindLatency, 1, 40)
		var b bytes.Buffer
		if err := pl.WritePprof(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	if !bytes.Equal(mk(), mk()) {
		t.Fatal("pprof output differs across identical runs")
	}
}

// TestPprofParses feeds the blob to the real `go tool pprof -top` and
// checks the synthetic frames survive the round trip. Skipped when the
// go tool is unavailable.
func TestPprofParses(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	pl := New(10)
	pl.Add(testStack(0, 1, "fork", "fork:ptecopy"), KindRun, 0, 300)
	pl.Add(testStack(0, 1, "", ""), KindRun, 0, 100)
	dir := t.TempDir()
	path := filepath.Join(dir, "profile.pb.gz")
	var b bytes.Buffer
	if err := pl.WritePprof(&b); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(goBin, "tool", "pprof", "-top", "-nodecount=10", path)
	cmd.Env = append(os.Environ(), "PPROF_NO_BROWSER=1", "HOME="+dir)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Skipf("go tool pprof unavailable: %v\n%s", err, out)
	}
	for _, frag := range []string{"phase:fork:ptecopy", "syscall:fork", "proc:kvsrv[1]"} {
		if !strings.Contains(string(out), frag) {
			t.Errorf("pprof -top output missing %q:\n%s", frag, out)
		}
	}
}

// offPlane is the profiler of a kernel without one. It is a package
// variable so the compiler cannot prove it nil and drop the probe.
var offPlane *Plane

// TestDisabledPath pins the nil-plane cost: ≤5ns, zero allocations —
// same budget as the flight and causal planes. The kernel's probe is a
// nil check before Add; Add itself must also accept the nil plane.
func TestDisabledPath(t *testing.T) {
	if testing.Short() {
		t.Skip("timing bound, skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing bound meaningless under the race detector")
	}
	st := testStack(0, 1, "fork", "")
	cases := []struct {
		name string
		f    func(b *testing.B)
	}{
		{"nil-plane probe", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if offPlane != nil {
					offPlane.Add(st, KindRun, 0, 100)
				}
			}
		}},
		{"nil-plane Add", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				offPlane.Add(st, KindRun, 0, 100)
			}
		}},
	}
	for _, c := range cases {
		r := testing.Benchmark(c.f)
		if ns := r.NsPerOp(); ns > 5 {
			t.Errorf("%s: %d ns/op, budget is 5", c.name, ns)
		}
		if a := r.AllocsPerOp(); a != 0 {
			t.Errorf("%s: %d allocs/op, budget is 0", c.name, a)
		}
	}
	if offPlane.Samples() != 0 {
		t.Fatal("nil plane reported samples")
	}
}

func BenchmarkDisabledAdd(b *testing.B) {
	st := testStack(0, 1, "", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		offPlane.Add(st, KindRun, 0, 100)
	}
}

func BenchmarkArmedAdd(b *testing.B) {
	pl := New(sim.Time(100))
	st := testStack(0, 1, "read", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pl.Add(st, KindRun, 0, 70)
	}
}
