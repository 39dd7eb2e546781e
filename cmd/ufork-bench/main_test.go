package main

import (
	"strings"
	"testing"

	"ufork/internal/bench"
	"ufork/internal/kernel"
	"ufork/internal/obs"
	"ufork/internal/obs/profile"
)

// TestRegistryIntegrity pins the single-source-of-truth property: every
// experiment has a unique name (and unique aliases), a runner, and a
// synopsis; the generated usage and list texts mention every one; and
// the explicit-only set is exactly the robustness harnesses.
func TestRegistryIntegrity(t *testing.T) {
	seen := map[string]bool{}
	usage, list := expUsage(), expList()
	var explicit []string
	for _, e := range experiments {
		if e.name == "" || e.name == "all" || e.name == "list" {
			t.Errorf("experiment name %q is empty or reserved", e.name)
		}
		for _, n := range append([]string{e.name}, e.aliases...) {
			if seen[n] {
				t.Errorf("duplicate experiment name/alias %q", n)
			}
			seen[n] = true
			if got, ok := findExperiment(n); !ok || got.name != e.name {
				t.Errorf("findExperiment(%q) does not resolve to %q", n, e.name)
			}
			if !strings.Contains(usage, n) {
				t.Errorf("generated usage omits %q:\n%s", n, usage)
			}
			if !strings.Contains(list, n) {
				t.Errorf("-exp list omits %q:\n%s", n, list)
			}
		}
		if e.run == nil {
			t.Errorf("experiment %q has no runner", e.name)
		}
		if e.synopsis == "" {
			t.Errorf("experiment %q has no synopsis", e.name)
		}
		if !strings.Contains(list, e.synopsis) {
			t.Errorf("-exp list omits synopsis of %q", e.name)
		}
		if e.explicit {
			explicit = append(explicit, e.name)
		}
	}
	if got, want := strings.Join(explicit, ","), "stress,ycsb,profdiff"; got != want {
		t.Errorf("explicit-only set = %s, want %s", got, want)
	}
	if _, ok := findExperiment("nonsense"); ok {
		t.Error("findExperiment accepted an unknown name")
	}
}

// TestRegistryRunsQuickExperiment smoke-runs one cheap registry entry
// through the same path main dispatches.
func TestRegistryRunsQuickExperiment(t *testing.T) {
	e, ok := findExperiment("table1")
	if !ok {
		t.Fatal("table1 missing from registry")
	}
	if err := e.run(&runCfg{coresFlag: "1", mixFlag: "A", locksFlag: "bkl,smp"}); err != nil {
		t.Fatal(err)
	}
}

// TestProfDiffRejectsProfile: profdiff profiles each lock regime into a
// plane of its own, so a -profile file would only ever be empty. The run
// must fail up front and say why.
func TestProfDiffRejectsProfile(t *testing.T) {
	e, _ := findExperiment("profdiff")
	err := e.run(&runCfg{profile: "out.folded"})
	if err == nil || !strings.Contains(err.Error(), "profiled into a plane of its own") {
		t.Fatalf("profdiff with -profile: err = %v, want a rejection naming the per-regime planes", err)
	}
}

// TestProfDiffKeepsServedPlanes runs profdiff in an env filled the way
// -serve fills it: the served registry keeps recording, and the served
// profile plane is left to the experiments that share it.
func TestProfDiffKeepsServedPlanes(t *testing.T) {
	reg, prof := obs.NewRegistry(), profile.New(0)
	e, _ := findExperiment("profdiff")
	c := &runCfg{env: bench.Env{Planes: kernel.Planes{Metrics: reg, Profile: prof}}, keysFlag: 512, opsFlag: 800}
	if err := e.run(c); err != nil {
		t.Fatal(err)
	}
	if len(reg.Snapshot().Counters) == 0 {
		t.Error("served registry recorded nothing")
	}
	if n := prof.Samples(); n != 0 {
		t.Errorf("served profile plane took %d samples; each regime profiles into its own", n)
	}
}
