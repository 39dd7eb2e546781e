package ufork_test

import (
	"strings"
	"testing"

	"ufork"
	"ufork/internal/obs/flight"
	"ufork/internal/obs/profile"
)

func TestQuickstartFlow(t *testing.T) {
	sys := ufork.NewSystem(ufork.Options{Strategy: ufork.CoPA, Cores: 2})
	var childSawSnapshot bool
	if _, err := sys.Main(func(p *ufork.Proc) {
		k := p.Kernel()
		if err := p.Store(p.HeapCap, 0, []byte("state")); err != nil {
			t.Errorf("store: %v", err)
			return
		}
		pid, err := k.Fork(p, func(c *ufork.Proc) {
			buf := make([]byte, 5)
			if err := c.Load(c.HeapCap, 0, buf); err != nil {
				t.Errorf("child load: %v", err)
				return
			}
			childSawSnapshot = string(buf) == "state"
		})
		if err != nil {
			t.Errorf("fork: %v", err)
			return
		}
		if pid == p.PID {
			t.Error("child PID must differ")
		}
		if _, _, err := k.Wait(p); err != nil {
			t.Errorf("wait: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if !childSawSnapshot {
		t.Fatal("child did not observe the parent's snapshot")
	}
}

func TestBaselinesBoot(t *testing.T) {
	for _, b := range []ufork.Baseline{ufork.BaselineUFork, ufork.BaselinePosix, ufork.BaselineVMClone} {
		sys := ufork.NewSystem(ufork.Options{Baseline: b, Isolation: ufork.IsolationFull})
		ran := false
		if _, err := sys.Main(func(p *ufork.Proc) {
			k := p.Kernel()
			if _, err := k.Fork(p, func(c *ufork.Proc) {}); err != nil {
				t.Errorf("baseline %d fork: %v", b, err)
				return
			}
			if _, _, err := k.Wait(p); err != nil {
				t.Errorf("baseline %d wait: %v", b, err)
				return
			}
			ran = true
		}); err != nil {
			t.Fatal(err)
		}
		sys.Run()
		if !ran {
			t.Fatalf("baseline %d did not run", b)
		}
	}
}

func TestCopyStrategies(t *testing.T) {
	for _, s := range []ufork.CopyStrategy{ufork.CoPA, ufork.CoA, ufork.FullCopy} {
		sys := ufork.NewSystem(ufork.Options{Strategy: s})
		if _, err := sys.Main(func(p *ufork.Proc) {
			k := p.Kernel()
			if err := p.Store(p.HeapCap, 0, []byte{1, 2, 3}); err != nil {
				t.Error(err)
				return
			}
			if _, err := k.Fork(p, func(c *ufork.Proc) {
				buf := make([]byte, 3)
				if err := c.Load(c.HeapCap, 0, buf); err != nil {
					t.Errorf("strategy %v child load: %v", s, err)
				}
			}); err != nil {
				t.Errorf("strategy %v fork: %v", s, err)
				return
			}
			if _, _, err := k.Wait(p); err != nil {
				t.Error(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
		sys.Run()
	}
}

// TestPlanesRecordWithoutArming: presence in Options.Planes is the only
// switch. A flight recorder and a profiler placed there record a fork run
// with no further call.
func TestPlanesRecordWithoutArming(t *testing.T) {
	fr := flight.New(1 << 12)
	prof := profile.New(0)
	sys := ufork.NewSystem(ufork.Options{Cores: 2, Planes: ufork.Planes{Flight: fr, Profile: prof}})
	if _, err := sys.Main(func(p *ufork.Proc) {
		k := p.Kernel()
		if _, err := k.Fork(p, func(*ufork.Proc) {}); err != nil {
			t.Errorf("fork: %v", err)
			return
		}
		if _, _, err := k.Wait(p); err != nil {
			t.Errorf("wait: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	forks := 0
	for _, e := range fr.Snapshot() {
		if e.Kind == flight.KindForkDone {
			forks++
		}
	}
	if forks != 1 {
		t.Errorf("flight recorder saw %d fork events, want 1", forks)
	}
	if prof.Samples() == 0 || !strings.Contains(prof.Folded(), "phase:fork:") {
		t.Errorf("profiler recorded %d samples and no fork-phase stack:\n%s", prof.Samples(), prof.Folded())
	}
}
