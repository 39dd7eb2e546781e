package bench

import (
	"ufork/internal/bench/ycsb"
	"ufork/internal/obs/profile"
)

// The profdiff experiment answers "where does the virtual CPU time move
// when the big kernel lock is split?" by profiling the identical seeded
// YCSB workload under both lock regimes and subtracting the two
// stack-attributed profiles. The top signed deltas name the winners
// (lock:bkl wait stacks that vanish) and the costs (smp residual-lock
// waits, extra dispatch latency) — the flame-graph version of the
// contention sweep's summary table.

// ProfDiffTop bounds the rendered delta table.
const ProfDiffTop = 10

// profDiffSweep is the restricted sweep one side of the diff profiles:
// one mix, the most parallel core count, one lock regime. Keeping the
// coordinate small makes the experiment a quick-mode citizen; both
// sides are fully seeded, so each snapshot — and the rendered diff —
// is byte-deterministic run to run.
func profDiffSweep(locks string, keys, ops int, pl *profile.Plane) error {
	rows, err := YCSBSweep(YCSBOpts{
		Mixes:   []ycsb.Mix{ycsb.MixA},
		Keys:    keys,
		Ops:     ops,
		Cores:   []int{4},
		Locks:   []string{locks},
		Profile: pl,
	})
	if err != nil {
		return err
	}
	return YCSBFailures(rows)
}

// ProfDiffSnapshots runs the profiled sweep under each lock regime and
// returns the two aggregate profiles (bkl first).
func ProfDiffSnapshots(keys, ops int) (bkl, smp profile.Snapshot, err error) {
	for _, side := range []struct {
		locks string
		out   *profile.Snapshot
	}{{LocksBKL, &bkl}, {LocksSMP, &smp}} {
		pl := profile.New(0)
		if err = profDiffSweep(side.locks, keys, ops, pl); err != nil {
			return
		}
		*side.out = pl.Snapshot()
	}
	return
}

// ProfDiff runs the cross-lock-regime profile diff and renders the top
// signed per-stack deltas (negative = virtual time the split-lock
// kernel no longer spends there).
func ProfDiff(keys, ops int) (string, error) {
	bkl, smp, err := ProfDiffSnapshots(keys, ops)
	if err != nil {
		return "", err
	}
	return profile.RenderDiff(profile.Diff(bkl, smp), ProfDiffTop,
		"locks="+LocksBKL, "locks="+LocksSMP), nil
}
