package bench

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"ufork/internal/sim"
)

// The paper's figures (§5) are pinned twice from one run of each sweep:
// the goldens pin their exact rendering, and the ledger below checks each
// of the paper's claims against a band. Figs. 3–5, 7, 8 and 9 run at the
// quick scale `ufork-bench` uses by default. Fig. 6 runs a 40 ms window,
// not quick mode's FaaSWindowQuick: that takes 26 s of host time.
var (
	redisQuick = sync.OnceValues(func() ([]RedisRow, error) { return RedisSweep(Env{}, RedisSizesQuick) })
	faas40ms   = sync.OnceValues(func() ([]FaaSRow, error) { return FaaSSweep(Env{}, 40*sim.Millisecond) })
	nginxQuick = sync.OnceValues(func() ([]NginxRow, error) { return NginxSweep(Env{}, NginxWindowQuick) })
	helloQuick = sync.OnceValues(func() ([]HelloRow, error) { return HelloWorld(Env{}) })
	unixQuick  = sync.OnceValues(func() ([]UnixbenchRow, error) { return Unixbench(Env{}, SpawnItersQuick, Context1TargetQuick) })
)

func must[T any](t *testing.T, sweep func() (T, error)) T {
	t.Helper()
	rows, err := sweep()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestGoldenFigures pins the stdout of `ufork-bench -exp fig3`, `fig7`,
// `fig8`, `fig9`, `forkserver` and `footprint`, concatenated; CI diffs
// the command's own output against the same file.
func TestGoldenFigures(t *testing.T) {
	t.Parallel()
	redis := must(t, redisQuick)
	forkServer := must(t, func() ([]ForkServerRow, error) { return ForkServerSweep(Env{}, ForkServerInputsQuick) })
	footprint := must(t, func() ([]FootprintRow, error) { return Footprint(Env{}) })
	goldenCompare(t, strings.Join([]string{RenderRedis(redis), RenderAblation(redis), RenderNginx(must(t, nginxQuick)),
		RenderHello(must(t, helloQuick)), RenderUnixbench(must(t, unixQuick)),
		RenderForkServer(forkServer), RenderFootprint(footprint)}, "\n"), "golden_figures.txt")
}

// TestGoldenFig6 pins Fig. 6 at the ledger's 40 ms window.
func TestGoldenFig6(t *testing.T) {
	t.Parallel()
	goldenCompare(t, RenderFaaS(must(t, faas40ms)), "golden_fig6.txt")
}

// sweeps hands a claim's measure the cells of the sweeps above; a sweep
// runs the first time a claim or a golden reads it.
type sweeps struct {
	t    *testing.T
	size uint64 // the database size an eachSize claim is evaluated at
}

func cell[R any](t *testing.T, sweep func() ([]R, error), match func(R) bool) R {
	t.Helper()
	for _, r := range must(t, sweep) {
		if match(r) {
			return r
		}
	}
	var zero R
	t.Fatalf("no such %T", zero)
	return zero
}

func (s sweeps) redis(id SystemID, size uint64) RedisRow {
	return cell(s.t, redisQuick, func(r RedisRow) bool { return r.System == id && r.DBBytes == size })
}

func (s sweeps) redisAt(id SystemID) RedisRow { return s.redis(id, s.size) }

func (s sweeps) faas(id SystemID, cores int) FaaSRow {
	return cell(s.t, faas40ms, func(r FaaSRow) bool { return r.System == id && r.WorkerCores == cores })
}

func (s sweeps) nginx(id SystemID, workers, cores int) float64 {
	return cell(s.t, nginxQuick, func(r NginxRow) bool {
		return r.System == id && r.Workers == workers && r.Cores == cores
	}).ThroughputPerSec
}

func (s sweeps) hello(id SystemID) HelloRow {
	return cell(s.t, helloQuick, func(r HelloRow) bool { return r.System == id })
}

func (s sweeps) unix(id SystemID) UnixbenchRow {
	return cell(s.t, unixQuick, func(r UnixbenchRow) bool { return r.System == id })
}

func ratio[N sim.Time | uint64 | int | float64](a, b N) float64 { return float64(a) / float64(b) }

func us(d sim.Time) float64 { return ratio(d, sim.Microsecond) }

// gain is a's advantage over b in percent.
func gain(a, b float64) float64 { return 100 * (a/b - 1) }

// band is an interval of accepted measured values; an open end excludes
// its bound.
type band struct {
	lo, hi         float64
	loOpen, hiOpen bool
}

var inf = math.Inf(1)

func closed(lo, hi float64) band { return band{lo: lo, hi: hi} }
func atLeast(lo float64) band    { return band{lo: lo, hi: inf, hiOpen: true} }
func above(lo float64) band      { return band{lo: lo, hi: inf, loOpen: true, hiOpen: true} }
func atMost(hi float64) band     { return band{lo: -inf, hi: hi, loOpen: true} }

func (b band) holds(v float64) bool {
	return (v > b.lo || !b.loOpen && v == b.lo) && (v < b.hi || !b.hiOpen && v == b.hi)
}

func (b band) String() string {
	l, r := "[", "]"
	if b.loOpen {
		l = "("
	}
	if b.hiOpen {
		r = ")"
	}
	return strings.NewReplacer("+Inf", "∞", "-Inf", "-∞").Replace(fmt.Sprintf("%s%g, %g%s", l, b.lo, b.hi, r))
}

// A claim is one row of the ledger: what the paper says about one of its
// figures, the paper's value, this repo's band, and the measured value.
type claim struct {
	fig         int
	what, paper string
	unit        string
	band        band
	// eachSize claims hold at every quick database size; measure reads
	// the size from sweeps.size.
	eachSize bool
	measure  func(s sweeps) float64
}

const eachSize, once = true, false

// check evaluates c and names the figure, the claim, the paper's value,
// the measured value and the band of every miss.
func (c claim) check(s sweeps) error {
	sizes := []uint64{0}
	if c.eachSize {
		sizes = RedisSizesQuick
	}
	var errs []error
	for _, size := range sizes {
		s.size = size
		if v := c.measure(s); !c.band.holds(v) {
			what := c.what
			if c.eachSize {
				what += " at " + MB(size)
			}
			errs = append(errs, fmt.Errorf("Fig. %d — %s: paper %s, measured %.2f%s, outside %s",
				c.fig, what, c.paper, v, c.unit, c.band))
		}
	}
	return errors.Join(errs...)
}

// redisVs is how many times a's field is b's at the size being checked.
func redisVs(a, b SystemID, field func(RedisRow) float64) func(sweeps) float64 {
	return func(s sweeps) float64 { return field(s.redisAt(a)) / field(s.redisAt(b)) }
}

func saveTime(r RedisRow) float64    { return float64(r.SaveTime) }
func forkLatency(r RedisRow) float64 { return float64(r.ForkLatency) }
func childMem(r RedisRow) float64    { return float64(r.ChildMem) }

func faasGain(cores int) func(sweeps) float64 {
	return func(s sweeps) float64 {
		return gain(s.faas(SysUForkCoPA, cores).ThroughputPerSec, s.faas(SysPosix, cores).ThroughputPerSec)
	}
}

// helloSteps is the smaller of the two steps CheriBSD / μFork and
// Nephele / CheriBSD: above 1 when the three are in order.
func helloSteps(field func(HelloRow) float64) func(sweeps) float64 {
	return func(s sweeps) float64 {
		u, p, v := field(s.hello(SysUForkCoPA)), field(s.hello(SysPosix)), field(s.hello(SysVMClone))
		return min(p/u, v/p)
	}
}

// ledger holds the paper's claims in figure order. Bands come from the
// hand-written band tests this table replaced and are no looser.
var ledger = []claim{
	{3, "CheriBSD / μFork save time", "1.9× at 100 KB, 1.4× at 100 MB", "×", above(1), eachSize,
		redisVs(SysPosix, SysUForkCoPA, saveTime)},
	{4, "CheriBSD / μFork fork latency", "5–10×", "×", closed(2, 12), eachSize,
		redisVs(SysPosix, SysUForkCoPA, forkLatency)},
	{4, "full copy / CoPA fork latency", "up to 89×", "×", atLeast(10), eachSize,
		redisVs(SysUForkFull, SysUForkCoPA, forkLatency)},
	{4, "CoA / CoPA fork latency", "up to 1.18×", "×", atLeast(1), eachSize,
		redisVs(SysUForkCoA, SysUForkCoPA, forkLatency)},
	{4, "CoPA fork latency, largest / smallest database", "flat (260 µs at 100 MB)", "×", atMost(1.5), once,
		func(s sweeps) float64 {
			sizes := RedisSizesQuick
			return ratio(s.redis(SysUForkCoPA, sizes[len(sizes)-1]).ForkLatency, s.redis(SysUForkCoPA, sizes[0]).ForkLatency)
		}},
	{5, "CoA / CoPA child memory", "17× (101 vs 6 MB at 100 MB)", "×", atLeast(2), eachSize,
		redisVs(SysUForkCoA, SysUForkCoPA, childMem)},
	{5, "CheriBSD / CoPA child memory", "9.3× (56 vs 6 MB at 100 MB)", "×", atLeast(4), eachSize,
		redisVs(SysPosix, SysUForkCoPA, childMem)},

	{6, "μFork over CheriBSD, 1 worker core", "+24%", "%", band{lo: 5, hi: 60, loOpen: true}, once, faasGain(1)},
	{6, "μFork over CheriBSD, 2 worker cores", "+24%", "%", band{lo: 5, hi: 60, loOpen: true}, once, faasGain(2)},
	{6, "μFork over CheriBSD, 3 worker cores", "+24%", "%", band{lo: 5, hi: 60, loOpen: true}, once, faasGain(3)},
	{6, "μFork completions, 3 / 1 worker cores", "≈linear", "×", above(1), once,
		func(s sweeps) float64 {
			return ratio(s.faas(SysUForkCoPA, 3).Completed, s.faas(SysUForkCoPA, 1).Completed)
		}},
	{6, "TOCTTOU cost, 3 worker cores", "negligible", "%", closed(-3, 3), once, func(s sweeps) float64 {
		return gain(s.faas(SysUForkCoPA, 3).ThroughputPerSec, s.faas(SysUForkTocttou, 3).ThroughputPerSec)
	}},

	{7, "μFork 1 → 3 workers on 1 core", "+15.6%", "%", closed(5, 45), once,
		func(s sweeps) float64 { return gain(s.nginx(SysUForkCoPA, 3, 1), s.nginx(SysUForkCoPA, 1, 1)) }},
	{7, "μFork on 1 core peaks at 2 workers: 2 workers / best of 1 and 3", "not reported (+15.6% from 1 to 3 workers)",
		"×", above(1), once, func(s sweeps) float64 {
			return s.nginx(SysUForkCoPA, 2, 1) / max(s.nginx(SysUForkCoPA, 1, 1), s.nginx(SysUForkCoPA, 3, 1))
		}},
	{7, "μFork over CheriBSD, 3 workers on 1 core", "+9%", "%", above(0), once,
		func(s sweeps) float64 { return gain(s.nginx(SysUForkCoPA, 3, 1), s.nginx(SysPosix, 3, 1)) }},
	{7, "CheriBSD 3 workers on 3 cores / μFork 3 workers on 1 core", "CheriBSD wins when it scales", "×", above(1), once,
		func(s sweeps) float64 { return s.nginx(SysPosix, 3, 3) / s.nginx(SysUForkCoPA, 3, 1) }},

	{8, "fork latency order μFork < CheriBSD < Nephele (smaller step)", "3.7× and 54×", "×", above(1), once,
		helloSteps(func(r HelloRow) float64 { return float64(r.ForkLatency) })},
	{8, "memory order μFork < CheriBSD < Nephele (smaller step)", "2.2× and 5.5×", "×", above(1), once,
		helloSteps(func(r HelloRow) float64 { return float64(r.ChildMem) })},
	{8, "μFork fork latency", "54 µs", " µs", closed(35, 80), once,
		func(s sweeps) float64 { return us(s.hello(SysUForkCoPA).ForkLatency) }},
	{8, "CheriBSD fork latency", "197 µs", " µs", closed(140, 260), once,
		func(s sweeps) float64 { return us(s.hello(SysPosix).ForkLatency) }},
	{8, "Nephele fork latency", "10700 µs", " µs", closed(8000, 13000), once,
		func(s sweeps) float64 { return us(s.hello(SysVMClone).ForkLatency) }},

	{9, "CheriBSD / μFork Spawn", "3.5× (198 vs 56 ms)", "×", closed(2, 6), once,
		func(s sweeps) float64 { return ratio(s.unix(SysPosix).Spawn, s.unix(SysUForkCoPA).Spawn) }},
	{9, "CheriBSD / μFork Context1", "1.7× (419 vs 245 ms)", "×", closed(1.3, 2.3), once,
		func(s sweeps) float64 { return ratio(s.unix(SysPosix).Context1, s.unix(SysUForkCoPA).Context1) }},
}

// TestPaperClaims evaluates the ledger, one subtest per figure
// (TestPaperClaims/Fig6 runs only the FaaS sweep).
func TestPaperClaims(t *testing.T) {
	t.Parallel()
	for fig := 3; fig <= 9; fig++ {
		t.Run(fmt.Sprintf("Fig%d", fig), func(t *testing.T) {
			for _, c := range ledger {
				if c.fig != fig {
					continue
				}
				if err := c.check(sweeps{t: t}); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestClaimCheckNamesTheMiss feeds the evaluator measured values outside
// and on a band's edges.
func TestClaimCheckNamesTheMiss(t *testing.T) {
	t.Parallel()
	v := 52.5
	c := claim{7, "μFork 1 → 3 workers", "+15.6%", "%", closed(5, 45), once, func(sweeps) float64 { return v }}
	err := c.check(sweeps{t: t})
	for _, want := range []string{"Fig. 7 — μFork 1 → 3 workers", "paper +15.6%", "measured 52.50%", "[5, 45]"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("message %v lacks %q", err, want)
		}
	}
	if v = 45; c.check(sweeps{t: t}) != nil {
		t.Error("a value on a closed edge failed")
	}
	if c.band = above(45); c.check(sweeps{t: t}) == nil {
		t.Error("a value on an open edge passed")
	}
}
