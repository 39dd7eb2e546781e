package bench

import (
	"strings"
	"testing"
)

// TestFootprintSharingRetention is the experiment's acceptance criterion:
// the lazy strategies must retain measurably more shared bytes than eager
// copy at fork depth ≥ 3, and the decomposition must be internally
// consistent at every sample.
func TestFootprintSharingRetention(t *testing.T) {
	t.Parallel()
	rows, err := Footprint(Env{})
	if err != nil {
		t.Fatal(err)
	}
	byID := map[SystemID]FootprintRow{}
	for _, r := range rows {
		byID[r.System] = r
		if len(r.Samples) != FootprintDepth+1 {
			t.Fatalf("%s: %d samples, want %d", r.System, len(r.Samples), FootprintDepth+1)
		}
		for _, s := range r.Samples {
			if s.Live != s.Depth+1 {
				t.Errorf("%s depth %d: %d live procs, want %d (chain keeps ancestors alive)",
					r.System, s.Depth, s.Live, s.Depth+1)
			}
			if s.USS > s.PSS || s.PSS > s.RSS {
				t.Errorf("%s depth %d: ordering violated uss=%d pss=%d rss=%d",
					r.System, s.Depth, s.USS, s.PSS, s.RSS)
			}
			if s.Shared != s.RSS-s.USS {
				t.Errorf("%s depth %d: shared %d != rss-uss %d", r.System, s.Depth, s.Shared, s.RSS-s.USS)
			}
		}
	}
	for d := 3; d <= FootprintDepth; d++ {
		full := byID[SysUForkFull].Samples[d].Shared
		for _, lazy := range []SystemID{SysUForkCoPA, SysUForkCoA} {
			got := byID[lazy].Samples[d].Shared
			if got < 2*full+1<<20 {
				t.Errorf("depth %d: %s retains %d shared bytes vs eager %d — lazy copy shows no retention",
					d, lazy, got, full)
			}
		}
	}
	// Eager copy forfeits sharing: its PSS must track RSS closely, while
	// CoPA's PSS stays well below RSS at depth.
	last := byID[SysUForkCoPA].Samples[FootprintDepth]
	if last.PSS*2 > last.RSS {
		t.Errorf("CoPA at depth %d: PSS %d not well below RSS %d", FootprintDepth, last.PSS, last.RSS)
	}

	text := RenderFootprint(rows)
	for _, want := range []string{"Footprint sweep", "shared", string(SysUForkCoPA), "by fork depth"} {
		if !strings.Contains(text, want) {
			t.Fatalf("RenderFootprint missing %q:\n%s", want, text)
		}
	}
}
