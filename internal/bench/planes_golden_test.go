package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ufork/internal/bench/ycsb"
	"ufork/internal/kernel"
	"ufork/internal/obs/causal"
	"ufork/internal/obs/profile"
)

// planesGoldenCells are the four small YCSB cells golden_planes.txt pins:
// a BGSAVE-forking kvstore and the httpd fleet, each under both lock
// regimes. Between them they cover every label the causal and profile
// planes attribute — block:child/pipe, fault:copa/cow, lock:bkl/uproc and
// the fork phases.
func planesGoldenCells() []ycsbCell {
	o := YCSBOpts{Seed: 11}
	var cells []ycsbCell
	for _, wm := range []struct {
		workload string
		mix      ycsb.Mix
	}{{"kvstore", ycsb.MixA}, {"httpd", ycsb.MixB}} {
		for _, locks := range []string{LocksBKL, LocksSMP} {
			cells = append(cells, ycsbCell{
				workload: wm.workload, mix: wm.mix, locks: locks, cores: 2,
				keys: 512, ops: 800,
				seed: o.cellSeed(wm.workload, wm.mix, locks, 2),
				slo:  DefaultYCSBSLO(wm.workload, false),
			})
		}
	}
	return cells
}

// renderPlanes runs each cell with a causal plane and a profiler of its
// own and renders what they recorded: the causal snapshot (two exemplars
// per group) as indented JSON, then the full folded profile.
func renderPlanes() (string, error) {
	var b strings.Builder
	for _, c := range planesGoldenCells() {
		env := Env{Planes: kernel.Planes{Causal: causal.New(0), Profile: profile.New(0)}}
		var err error
		if c.workload == "kvstore" {
			_, err = env.ycsbKV(c)
		} else {
			_, err = env.ycsbHTTPD(c)
		}
		if err != nil {
			return "", fmt.Errorf("%s: %w", ycsbGroup(c), err)
		}
		snap, err := json.MarshalIndent(env.Planes.Causal.Snapshot(2), "", " ")
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "== %s causal\n%s\n== %s profile\n%s", ycsbGroup(c), snap, ycsbGroup(c), env.Planes.Profile.Folded())
	}
	return strings.TrimSuffix(b.String(), "\n"), nil
}

// TestGoldenPlanes pins the labels the causal and profile planes give
// the same kernel events: a change to how the kernel records a lock
// wait, a block or a fault window must leave every segment and stack
// byte-identical. Regenerate with
// `go test ./internal/bench -run TestGoldenPlanes -update`.
func TestGoldenPlanes(t *testing.T) {
	t.Parallel()
	got, err := renderPlanes()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(filepath.Join("testdata", "golden_planes.txt"), []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	goldenCompare(t, got, "golden_planes.txt")
}
