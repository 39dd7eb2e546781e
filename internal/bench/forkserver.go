package bench

import (
	"fmt"

	"ufork/internal/apps/forkserver"
	"ufork/internal/kernel"
	"ufork/internal/sim"
)

// ForkServerRow compares fork-server fuzzing against the re-exec baseline
// (§2.1 pattern U5 — the fuzzing motivation for fork). This experiment is
// an extension of this repository: the paper motivates it but does not
// evaluate it.
type ForkServerRow struct {
	System     SystemID
	Mode       string // "fork-server" | "re-exec"
	Executions int
	Crashes    int
	PerExec    sim.Time
}

// Fork-server inputs per run at quick and at full scale.
const (
	ForkServerInputsQuick = 40
	ForkServerInputsFull  = 200
)

// ForkServerSweep runs both modes on μFork and the monolithic baseline.
func ForkServerSweep(env Env, nInputs int) ([]ForkServerRow, error) {
	var rows []ForkServerRow
	inputs := make([][]byte, 0, nInputs)
	for i := 0; i < nInputs; i++ {
		if i%10 == 9 {
			inputs = append(inputs, []byte(fmt.Sprintf("BUG!%06d", i)))
		} else {
			inputs = append(inputs, []byte(fmt.Sprintf("input-%06d", i)))
		}
	}
	spec := kernel.HelloWorldSpec()
	spec.Name = "fuzz-target"
	spec.HeapPages = 128

	for _, id := range []SystemID{SysUForkCoPA, SysPosix} {
		for _, mode := range []string{"fork-server", "re-exec"} {
			k := env.build(id, 2, 1<<16)
			row := ForkServerRow{System: id, Mode: mode}
			err := runRoot(k, spec, func(p *kernel.Proc) error {
				var res forkserver.Result
				var err error
				if mode == "fork-server" {
					res, err = forkserver.RunForkServer(p, inputs)
				} else {
					res, err = forkserver.RunReExec(p, inputs)
				}
				if err != nil {
					return err
				}
				row.Executions = res.Executions
				row.Crashes = res.Crashes
				row.PerExec = res.PerExec
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("bench: forkserver %s/%s: %w", id, mode, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RenderForkServer formats the fuzzing ablation.
func RenderForkServer(rows []ForkServerRow) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			string(r.System), r.Mode,
			fmt.Sprintf("%d", r.Executions), fmt.Sprintf("%d", r.Crashes),
			Us(r.PerExec),
		})
	}
	return "Extension — fork-server fuzzing (pattern U5) vs re-exec baseline\n" +
		Table([]string{"system", "mode", "execs", "crashes", "per exec"}, out)
}
