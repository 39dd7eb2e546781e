package bench

import (
	"strings"
	"testing"
)

func TestTable1(t *testing.T) {
	t.Parallel()
	rows := Table1(Env{})
	var ufork, nephele *Table1Row
	for i := range rows {
		if strings.HasPrefix(rows[i].System, "uFork") {
			ufork = &rows[i]
		}
		if strings.HasPrefix(rows[i].System, "Nephele") {
			nephele = &rows[i]
		}
	}
	if ufork == nil || nephele == nil {
		t.Fatal("measured rows missing")
	}
	if ufork.SAS != "Yes" || ufork.Isolation != "Yes" || ufork.SelfCont != "Yes" ||
		ufork.IPCs != "Fast" || ufork.SegRel != "No" || ufork.ForkExec != "No" {
		t.Errorf("μFork row wrong: %+v", *ufork)
	}
	if nephele.SAS != "No" || nephele.SelfCont != "No" {
		t.Errorf("Nephele row wrong: %+v", *nephele)
	}
}
