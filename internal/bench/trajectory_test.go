package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The repo's BENCH_N.json trajectory is non-contiguous by design: each
// file is numbered by the PR that produced it, and not every PR ships a
// measurement document (the current set is BENCH_2, 6, 7, 8). The CI
// freshness checks used to assume whichever single file the last PR
// wrote; this test validates every checked-in document individually —
// gaps allowed, duplicates and malformed documents not — so a PR that
// renumbers, truncates, or clobbers an earlier result fails loudly.

// benchDoc is the shape every BENCH_N.json shares. Older documents carry
// their measurements under "benchmarks" (BENCH_2: a go-bench-style
// name-keyed object); the experiment documents carry a "rows" array.
// Either must be present and non-empty.
type benchDoc struct {
	Description string            `json:"description"`
	Rows        []json.RawMessage `json:"rows"`
	Benchmarks  json.RawMessage   `json:"benchmarks"`
}

// measurementCount counts entries in a raw measurements value that may
// be an array (rows-era) or a name-keyed object (benchmarks-era).
func measurementCount(raw json.RawMessage) int {
	var arr []json.RawMessage
	if json.Unmarshal(raw, &arr) == nil {
		return len(arr)
	}
	var obj map[string]json.RawMessage
	if json.Unmarshal(raw, &obj) == nil {
		return len(obj)
	}
	return 0
}

// benchTrajectory globs the checked-in BENCH_*.json files and returns
// them keyed by index, sorted ascending.
func benchTrajectory(t *testing.T) (indices []int, paths map[int]string) {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	paths = make(map[int]string)
	for _, p := range matches {
		name := filepath.Base(p)
		num := strings.TrimSuffix(strings.TrimPrefix(name, "BENCH_"), ".json")
		idx, err := strconv.Atoi(num)
		if err != nil {
			t.Errorf("%s: index %q is not a number", name, num)
			continue
		}
		if prev, dup := paths[idx]; dup {
			t.Errorf("duplicate trajectory index %d: %s and %s", idx, prev, p)
			continue
		}
		paths[idx] = p
		indices = append(indices, idx)
	}
	sort.Ints(indices)
	return indices, paths
}

// TestBenchTrajectory validates each BENCH_N.json in the gapped
// trajectory: parseable, described, and carrying a non-empty measurement
// array under whichever key its era used.
func TestBenchTrajectory(t *testing.T) {
	t.Parallel()
	indices, paths := benchTrajectory(t)
	if len(indices) == 0 {
		t.Fatal("no BENCH_*.json files found at the repo root")
	}
	for _, idx := range indices {
		p := paths[idx]
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		var doc benchDoc
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Errorf("%s: not valid JSON: %v", p, err)
			continue
		}
		if strings.TrimSpace(doc.Description) == "" {
			t.Errorf("%s: empty description", p)
		}
		nBench := measurementCount(doc.Benchmarks)
		if len(doc.Rows) == 0 && nBench == 0 {
			t.Errorf("%s: no measurements: both \"rows\" and \"benchmarks\" are empty", p)
		}
		if len(doc.Rows) > 0 && nBench > 0 {
			t.Errorf("%s: carries both \"rows\" and \"benchmarks\" — pick one shape", p)
		}
	}
	// The documents with live regeneration gates must be present: a gap is
	// an unwritten PR, but losing a file the golden tests freshness-check
	// means the gate silently stopped gating.
	for _, must := range []int{7, 8} {
		if _, ok := paths[must]; !ok {
			t.Errorf("BENCH_%d.json missing: its golden test freshness-checks this file", must)
		}
	}
}
