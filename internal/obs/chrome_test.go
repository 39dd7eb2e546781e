package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenTrace is a small deterministic trace exercising every serialized
// shape: process and thread metadata, nested complete spans with args, an
// instant, a flow pair across rows, and sub-microsecond timestamps.
func goldenTrace() []ChromeEvent {
	return []ChromeEvent{
		{Name: "process_name", Ph: 'M', PID: 1, TID: -1, Label: "redis (pid 1)"},
		{Name: "thread_name", Ph: 'M', PID: 1, TID: 2, Label: "bgsave[2]"},
		{Name: "fork:reserve", Cat: "fork", Ph: 'X', TS: 1000, Dur: 0, PID: 1, TID: 1, Args: []Arg{A("count", 1)}},
		{Name: "fork:ptecopy", Cat: "fork", Ph: 'X', TS: 1000, Dur: 220, PID: 1, TID: 1, Args: []Arg{A("count", 180)}},
		{Name: "fork:eagercopy", Cat: "fork", Ph: 'X', TS: 1220, Dur: 3300, PID: 1, TID: 1, Args: []Arg{A("count", 12)}},
		{Name: "fork", Cat: "syscall", Ph: 'X', TS: 900, Dur: 50914, PID: 1, TID: 1},
		{Name: "frame-alloc", Cat: "flight", Ph: 'i', TS: 52000, PID: 1, TID: 1,
			Args: []Arg{A("seq", 7), A("a0", 42), A("a1", 0), A("a2", 0)}},
		{Name: "fork", Cat: "causal", Ph: 's', TS: 51814, PID: 1, TID: 1, ID: "1.0"},
		{Name: "fork", Cat: "causal", Ph: 'f', TS: 51814, PID: 1, TID: 2, ID: "1.0"},
		{Name: "fault:cap-load", Cat: "fault", Ph: 'X', TS: 60000, Dur: 1500, PID: 2, TID: 2,
			Args: []Arg{A("va", 0x40011008), A("copied", 1), A("relocs", 3)}},
	}
}

func writeGolden(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, goldenTrace()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestWriteChromeTraceGolden(t *testing.T) {
	got := writeGolden(t)
	golden := filepath.Join("testdata", "chrome_trace.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -run Golden -update` to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trace output differs from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

func TestWriteChromeTraceWellFormed(t *testing.T) {
	var doc struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			TS   float64         `json:"ts"`
			Dur  *float64        `json:"dur"`
			TID  *int            `json:"tid"`
			ID   string          `json:"id"`
			BP   string          `json:"bp"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(writeGolden(t), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q, want ns", doc.DisplayTimeUnit)
	}
	counts := map[string]int{}
	for _, ev := range doc.TraceEvents {
		counts[ev.Ph]++
		switch ev.Ph {
		case "X":
			if ev.Dur == nil {
				t.Errorf("X event %q missing dur", ev.Name)
			}
		case "s", "f":
			if ev.ID != "1.0" {
				t.Errorf("flow event %q id = %q, want 1.0", ev.Ph, ev.ID)
			}
		case "M":
			if (ev.Name == "process_name") != (ev.TID == nil) {
				t.Errorf("metadata %q: tid present = %v", ev.Name, ev.TID != nil)
			}
		}
		if ev.Ph == "f" && ev.BP != "e" {
			t.Errorf("flow finish bp = %q, want e", ev.BP)
		}
	}
	if counts["M"] != 2 || counts["X"] != 5 || counts["i"] != 1 || counts["s"] != 1 || counts["f"] != 1 {
		t.Errorf("phase counts = %v, want M2 X5 i1 s1 f1", counts)
	}
	// 1000 virtual ns must serialize as 1.000 trace µs.
	if ev := doc.TraceEvents[2]; ev.TS != 1.0 {
		t.Errorf("%s ts = %v µs, want 1.000", ev.Name, ev.TS)
	}
}
