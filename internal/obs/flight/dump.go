package flight

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// DumpTail is the number of trailing events panic/failure paths print by
// default: enough history to see the syscalls, faults, and frame traffic
// leading into a crash without drowning the repro line.
const DumpTail = 64

// WriteText writes the last n events (n < 0 means all) as human-readable
// text, one event per line, oldest first, preceded by a header naming how
// much history was kept and dropped.
func (r *Recorder) WriteText(w io.Writer, n int) error {
	evs := r.Tail(n)
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "flight recorder: last %d of %d events (%d dropped by ring wrap)\n",
		len(evs), r.Seq(), r.Dropped())
	fmt.Fprintf(bw, "%12s  %s\n", "virtual-ns", "event")
	for _, e := range evs {
		bw.WriteString(e.Format())
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// TextDump returns WriteText output as a string (the form failure paths
// append below their repro line).
func (r *Recorder) TextDump(n int) string {
	var b strings.Builder
	_ = r.WriteText(&b, n)
	return b.String()
}
