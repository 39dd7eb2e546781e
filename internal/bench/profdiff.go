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
func profDiffSweep(env Env, locks string, keys, ops int) error {
	rows, err := YCSBSweep(env, YCSBOpts{
		Mixes: []ycsb.Mix{ycsb.MixA},
		Keys:  keys,
		Ops:   ops,
		Cores: []int{4},
		Locks: []string{locks},
	})
	if err != nil {
		return err
	}
	return YCSBFailures(rows)
}

// ProfDiff runs the profiled sweep under each lock regime, each side
// profiling into a plane of its own in place of env's, and renders the
// top signed per-stack deltas (negative = virtual time the split-lock
// kernel no longer spends there).
func ProfDiff(env Env, keys, ops int) (string, error) {
	var snaps [2]profile.Snapshot
	for i, locks := range []string{LocksBKL, LocksSMP} {
		env.Planes.Profile = profile.New(0)
		if err := profDiffSweep(env, locks, keys, ops); err != nil {
			return "", err
		}
		snaps[i] = env.Planes.Profile.Snapshot()
	}
	return profile.RenderDiff(profile.Diff(snaps[0], snaps[1]), ProfDiffTop,
		"locks="+LocksBKL, "locks="+LocksSMP), nil
}
