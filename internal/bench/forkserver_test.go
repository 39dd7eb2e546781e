package bench

import "testing"

// TestForkServerClaims: the U5 extension's qualitative results — the fork
// server amortizes setup (≫ re-exec), and μFork's cheaper fork makes its
// fork-server rounds faster than the monolithic baseline's.
func TestForkServerClaims(t *testing.T) {
	t.Parallel()
	rows, err := ForkServerSweep(Env{}, 30)
	if err != nil {
		t.Fatal(err)
	}
	get := func(id SystemID, mode string) ForkServerRow {
		for _, r := range rows {
			if r.System == id && r.Mode == mode {
				return r
			}
		}
		t.Fatalf("missing %s/%s", id, mode)
		return ForkServerRow{}
	}
	for _, id := range []SystemID{SysUForkCoPA, SysPosix} {
		fs := get(id, "fork-server")
		re := get(id, "re-exec")
		if fs.Executions != 30 || re.Executions != 30 {
			t.Fatalf("%s executions: %d/%d", id, fs.Executions, re.Executions)
		}
		if fs.Crashes != 3 || re.Crashes != 3 {
			t.Fatalf("%s crashes: %d/%d, want the planted 3", id, fs.Crashes, re.Crashes)
		}
		speedup := float64(re.PerExec) / float64(fs.PerExec)
		if speedup < 5 {
			t.Errorf("%s fork-server speedup %.1fx too small", id, speedup)
		}
	}
	u := get(SysUForkCoPA, "fork-server")
	p := get(SysPosix, "fork-server")
	if u.PerExec >= p.PerExec {
		t.Errorf("μFork fork-server per-exec %v not below CheriBSD %v", u.PerExec, p.PerExec)
	}
}
