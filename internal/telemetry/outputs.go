package telemetry

import (
	"fmt"
	"io"
	"os"

	"ufork/internal/kernel"
	"ufork/internal/obs"
	"ufork/internal/obs/flight"
	"ufork/internal/obs/profile"
)

// traceEvents is the capacity of the recorder -trace arms when no live
// server supplies one: 2^18 flight events of 48 bytes, 12 MiB of
// pointer-free memory.
const traceEvents = 1 << 18

// Outputs names the files a command-line run writes its planes to (the
// -trace, -metrics and -profile flags); an empty path asks for nothing.
type Outputs struct {
	Trace, Metrics, Profile string
}

// Arm builds the one kernel.Planes a command-line run boots every kernel
// with. A non-empty serve address starts the live server and its planes
// are the base; each requested output then adds its plane only where the
// server does not already supply one, so a file and the live endpoint
// read the same plane. The returned server is nil when serve is empty.
func (o Outputs) Arm(serve string) (kernel.Planes, *Server, error) {
	var pl kernel.Planes
	var srv *Server
	if serve != "" {
		var err error
		if srv, err = Start(serve); err != nil {
			return pl, nil, err
		}
		pl = srv.Planes
	}
	if o.Metrics != "" && pl.Metrics == nil {
		pl.Metrics = obs.NewRegistry()
	}
	if o.Trace != "" && pl.Flight == nil {
		pl.Flight = flight.New(traceEvents)
	}
	if o.Profile != "" && pl.Profile == nil {
		pl.Profile = profile.New(0)
	}
	return pl, srv, nil
}

// Write writes every requested output from pl: the flight events as
// Chrome trace_event JSON, the metrics snapshot as JSON, and the
// aggregate profile as folded stacks (flamegraph.pl input).
func (o Outputs) Write(pl kernel.Planes) error {
	for _, out := range []struct {
		path  string
		write func(io.Writer) error
	}{
		{o.Trace, func(w io.Writer) error { return kernel.WriteChromeTrace(w, pl.Flight.Snapshot()) }},
		{o.Metrics, func(w io.Writer) error { return pl.Metrics.Snapshot().WriteJSON(w) }},
		{o.Profile, func(w io.Writer) error { return pl.Profile.Snapshot().WriteFolded(w) }},
	} {
		if out.path == "" {
			continue
		}
		f, err := os.Create(out.path)
		if err != nil {
			return err
		}
		err = out.write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("telemetry: write %s: %w", out.path, err)
		}
	}
	return nil
}
