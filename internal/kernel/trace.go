package kernel

import (
	"io"

	"ufork/internal/obs"
	"ufork/internal/obs/flight"
	"ufork/internal/vm"
)

// WriteChromeTrace converts flight events, in sequence order, to Chrome
// trace_event JSON with one row per PID:
//   - a sysret becomes a complete span of its latency, ending at the
//     sysret and named by its SysNo (the entry event is folded into it);
//   - a fault becomes a span up to its fault-done, carrying the faulting
//     VA and the pages copied and capabilities relocated resolving it, or
//     up to its fault-error as a fault:error span;
//   - context switches and fork phases become spans; the phases tile the
//     fork and nest inside its fork syscall span;
//   - a lock wait becomes a lock:<site> span and a sleep a block:<cause>
//     span, each ending at its event — the planes' labels;
//   - every other kind, and a fault that never closed, is an instant.
func WriteChromeTrace(w io.Writer, evs []flight.Event) error {
	out := make([]obs.ChromeEvent, 0, len(evs))
	faults := map[int32]flight.Event{} // unresolved fault per PID
	for _, e := range evs {
		x := obs.ChromeEvent{Ph: 'X', TS: e.TS, PID: uint64(e.PID), TID: int64(e.PID)}
		switch e.Kind {
		case flight.KindSyscall:
			continue
		case flight.KindSysRet:
			x.Name, x.Cat, x.TS, x.Dur = SysNo(e.Args[0]).String(), "syscall", e.TS-e.Args[1], e.Args[1]
		case flight.KindCtxSwitch:
			x.Name, x.Cat, x.Dur = "ctx-switch", "sched", e.Args[0]
		case flight.KindForkPhase:
			x.Name, x.Cat, x.Dur = "fork:"+flight.ForkPhases[e.Args[0]], "fork", e.Args[1]
			x.Args = []obs.Arg{obs.A("count", e.Args[2])}
		case flight.KindLockWait:
			x.Name, x.Cat, x.TS, x.Dur = "lock:"+e.LockSite(), "lock", e.TS-e.Args[0], e.Args[0]
		case flight.KindBlock:
			x.Name, x.Cat, x.TS, x.Dur = "block:"+e.BlockCause(), "block", e.TS-e.Args[1], e.Args[1]
		case flight.KindFault:
			if prev, ok := faults[e.PID]; ok {
				out = append(out, instant(prev))
			}
			faults[e.PID] = e
			continue
		case flight.KindFaultDone, flight.KindFaultError:
			f, ok := faults[e.PID]
			if !ok {
				x = instant(e)
				break
			}
			delete(faults, e.PID)
			x.Name, x.Cat, x.TS, x.Dur = "fault:error", "fault", f.TS, e.TS-f.TS
			x.Args = []obs.Arg{obs.A("va", f.Args[1])}
			if e.Kind == flight.KindFaultDone {
				x.Name = "fault:" + vm.FaultKind(f.Args[0]).String()
				x.Args = append(x.Args, obs.A("copied", e.Args[1]), obs.A("relocs", e.Args[2]))
			}
		default:
			x = instant(e)
		}
		out = append(out, x)
	}
	for _, e := range evs {
		if f, ok := faults[e.PID]; ok && f.Seq == e.Seq {
			out = append(out, instant(e))
		}
	}
	return obs.WriteChromeTrace(w, out)
}

// instant renders e as an instant event carrying its raw arguments.
func instant(e flight.Event) obs.ChromeEvent {
	return obs.ChromeEvent{
		Name: e.Kind.String(), Cat: "flight", Ph: 'i', TS: e.TS,
		PID: uint64(e.PID), TID: int64(e.PID),
		Args: []obs.Arg{obs.A("seq", e.Seq), obs.A("a0", e.Args[0]), obs.A("a1", e.Args[1]), obs.A("a2", e.Args[2])},
	}
}
