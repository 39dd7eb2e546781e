package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// Arg is one key/value annotation on a trace event. Args are a slice, not
// a map, so serialization is deterministic (golden-file testable).
type Arg struct {
	Key string
	Val uint64
}

// A is a convenience constructor for Arg.
func A(key string, val uint64) Arg { return Arg{Key: key, Val: val} }

// ChromeEvent is one Chrome trace_event record. Ph follows the
// trace_event vocabulary: 'X' complete (has Dur), 'i' instant, 's'/'f'
// flow start/finish (bound by ID), 'M' metadata (Name is process_name or
// thread_name, Label the name it assigns; a negative TID omits the tid).
type ChromeEvent struct {
	Name  string
	Cat   string
	Ph    byte
	TS    uint64 // virtual ns
	Dur   uint64 // virtual ns ('X' only)
	PID   uint64
	TID   int64
	ID    string // flow binding ('s'/'f' only)
	Label string // assigned name ('M' only)
	Args  []Arg
}

// WriteChromeTrace serializes evs, in order, in the Chrome trace_event
// JSON object format ({"traceEvents": [...]}), loadable in
// chrome://tracing and Perfetto. Virtual nanoseconds map to trace
// microseconds with three decimals, so 1 ns of sim time is 0.001 µs on
// the timeline.
func WriteChromeTrace(w io.Writer, evs []ChromeEvent) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"traceEvents\":[")
	for i, ev := range evs {
		if i > 0 {
			bw.WriteString(",\n")
		}
		if ev.Ph == 'M' {
			fmt.Fprintf(bw, "{\"name\":%s,\"ph\":\"M\",\"pid\":%d", strconv.Quote(ev.Name), ev.PID)
			if ev.TID >= 0 {
				fmt.Fprintf(bw, ",\"tid\":%d", ev.TID)
			}
			fmt.Fprintf(bw, ",\"args\":{\"name\":%s}}", strconv.Quote(ev.Label))
			continue
		}
		fmt.Fprintf(bw, "{\"name\":%s,\"cat\":%s,\"ph\":\"%c\",\"ts\":%s,\"pid\":%d,\"tid\":%d",
			strconv.Quote(ev.Name), strconv.Quote(ev.Cat), ev.Ph, usec(ev.TS), ev.PID, ev.TID)
		switch ev.Ph {
		case 'X':
			fmt.Fprintf(bw, ",\"dur\":%s", usec(ev.Dur))
		case 'i':
			bw.WriteString(",\"s\":\"t\"")
		case 's':
			fmt.Fprintf(bw, ",\"id\":%s", strconv.Quote(ev.ID))
		case 'f':
			fmt.Fprintf(bw, ",\"id\":%s,\"bp\":\"e\"", strconv.Quote(ev.ID))
		}
		if len(ev.Args) > 0 {
			bw.WriteString(",\"args\":{")
			for j, a := range ev.Args {
				if j > 0 {
					bw.WriteString(",")
				}
				fmt.Fprintf(bw, "%s:%d", strconv.Quote(a.Key), a.Val)
			}
			bw.WriteString("}")
		}
		bw.WriteString("}")
	}
	bw.WriteString("],\"displayTimeUnit\":\"ns\"}\n")
	return bw.Flush()
}

// usec formats virtual nanoseconds as microseconds with ns precision.
func usec(ns uint64) string {
	return strconv.FormatFloat(float64(ns)/1000.0, 'f', 3, 64)
}
