package kernel

import (
	"fmt"
	"strings"

	"ufork/internal/sim"
	"ufork/internal/vm"
)

// SmapsRow aggregates the mapped pages of one segment (or the whole image,
// for the total row) the way Linux /proc/pid/smaps does:
//
//   - RSS counts every mapped page;
//   - PSS divides each shared page by its mapping count, so PSS summed
//     across live μprocesses equals the frames they collectively occupy;
//   - USS counts pages this process maps exclusively — the memory that
//     would be returned if the process exited right now;
//   - shared pages split clean/dirty by the segment's natural protection:
//     a segment that is never writable (text, rodata, GOT) can only share
//     pristine image pages, while sharing of naturally writable pages is
//     fork-inherited data neither side has privatised yet.
type SmapsRow struct {
	Segment      string `json:"segment"`
	MappedPages  int    `json:"mapped_pages"`
	SharedPages  int    `json:"shared_pages"`
	PrivatePages int    `json:"private_pages"`
	// PendingPages counts pages still awaiting capability relocation (the
	// μFork engine's deferred-relocation bitmap, §4.2).
	PendingPages     int    `json:"pending_pages"`
	RSSBytes         uint64 `json:"rss_bytes"`
	PSSBytes         uint64 `json:"pss_bytes"`
	USSBytes         uint64 `json:"uss_bytes"`
	SharedCleanBytes uint64 `json:"shared_clean_bytes"`
	SharedDirtyBytes uint64 `json:"shared_dirty_bytes"`

	// pssFP carries the PSS sum at fixed-point precision so per-row
	// rounding cannot drift the total row.
	pssFP uint64
}

// smapsPSSShift is the fixed-point precision of PSS accumulation.
const smapsPSSShift = 16

func (r *SmapsRow) addPage(refs int32, naturallyWritable, pending bool) {
	r.MappedPages++
	r.RSSBytes += PageSize
	r.pssFP += (PageSize << smapsPSSShift) / uint64(refs)
	if refs == 1 {
		r.PrivatePages++
		r.USSBytes += PageSize
	} else {
		r.SharedPages++
		if naturallyWritable {
			r.SharedDirtyBytes += PageSize
		} else {
			r.SharedCleanBytes += PageSize
		}
	}
	if pending {
		r.PendingPages++
	}
}

// SmapsReport is one μprocess's memory map: per-segment rows plus a total,
// the result of the SYS_SMAPS page-table walk.
type SmapsReport struct {
	PID   PID        `json:"pid"`
	Name  string     `json:"name"`
	Gen   int        `json:"gen"`
	Rows  []SmapsRow `json:"rows"`
	Total SmapsRow   `json:"total"`
}

// smapsWalk computes p's memory map by walking its region's page tables.
// Simulation-goroutine only (or quiescent kernels): it reads live PTE
// state.
func (k *Kernel) smapsWalk(p *Proc) SmapsReport {
	r := SmapsReport{PID: p.PID, Name: p.Spec.Name, Gen: p.Gen}
	r.Total.Segment = "total"
	for s := Segment(0); s < numSegments; s++ {
		if p.Layout.Pages[s] == 0 {
			continue
		}
		row := SmapsRow{Segment: s.String()}
		base := p.Layout.SegBase(p.Region.Base, s)
		start, end := vm.VPNOf(base), vm.VPNOf(base)+vm.VPN(p.Layout.Pages[s])
		writable := s.NaturalProt()&vm.ProtWrite != 0
		p.AS.RangeVPNs(start, end, func(vpn vm.VPN, pte *vm.PTE) {
			pending := p.Pending != nil && p.Pending.Contains(vpn)
			row.addPage(pte.Page.Refs, writable, pending)
		})
		if row.MappedPages == 0 {
			continue
		}
		row.PSSBytes = row.pssFP >> smapsPSSShift
		r.Total.MappedPages += row.MappedPages
		r.Total.SharedPages += row.SharedPages
		r.Total.PrivatePages += row.PrivatePages
		r.Total.PendingPages += row.PendingPages
		r.Total.RSSBytes += row.RSSBytes
		r.Total.USSBytes += row.USSBytes
		r.Total.SharedCleanBytes += row.SharedCleanBytes
		r.Total.SharedDirtyBytes += row.SharedDirtyBytes
		r.Total.pssFP += row.pssFP
		r.Rows = append(r.Rows, row)
	}
	r.Total.PSSBytes = r.Total.pssFP >> smapsPSSShift
	return r
}

// refreshMemStats walks p's page tables and publishes the totals into its
// accounting gauges, where ProcStat snapshots (and the stress-soak sharing
// table) read them.
func (k *Kernel) refreshMemStats(p *Proc) {
	t := k.smapsWalk(p).Total
	a := &p.Acct
	a.RSSBytes.Set(int64(t.RSSBytes))
	a.PSSBytes.Set(int64(t.PSSBytes))
	a.USSBytes.Set(int64(t.USSBytes))
	a.SharedCleanBytes.Set(int64(t.SharedCleanBytes))
	a.SharedDirtyBytes.Set(int64(t.SharedDirtyBytes))
	a.PendingPages.Set(int64(t.PendingPages))
}

// SmapsOf computes the memory map of the process with the given PID
// without syscall accounting: kernel-side introspection for harnesses and
// experiments. Must run on the simulation goroutine or against a
// quiescent kernel.
func (k *Kernel) SmapsOf(pid PID) (SmapsReport, bool) {
	p, ok := k.procs[pid]
	if !ok || p.exited {
		return SmapsReport{}, false
	}
	return k.smapsWalk(p), true
}

// smapsBytes approximates the user-visible size of an smaps report for
// TOCTTOU copy-out accounting: one row per segment plus the total.
const smapsBytes = 512

// Smaps is the SYS_SMAPS syscall: /proc/pid/smaps without a procfs. pid 0
// queries the calling process; any live PID may be queried (read-only
// accounting, like SYS_PROCSTAT). The walk also refreshes the target's
// memory gauges, so a ProcStat taken after an Smaps call carries current
// RSS/PSS/USS numbers.
func (k *Kernel) Smaps(p *Proc, pid PID) (SmapsReport, error) {
	k.enter(p, SysSmaps, smapsBytes)
	defer k.leave(p)
	if err := k.chaosErr("smaps"); err != nil {
		return SmapsReport{}, err
	}
	q := p
	if pid != 0 && pid != p.PID {
		k.procMu.RLock()
		q2, ok := k.procs[pid]
		k.procMu.RUnlock()
		if !ok {
			return SmapsReport{}, ErrNoProc
		}
		q = q2
	}
	// The walk itself costs one page-table probe per mapped page.
	r := k.smapsWalk(q)
	p.Task.Advance(sim.Time(r.Total.MappedPages) * k.Machine.PTECopy)
	k.refreshMemStats(q)
	return r, nil
}

// RenderSmaps formats a report as the `ufork-run -smaps` text table.
func RenderSmaps(r SmapsReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "smaps for %s[%d] (gen %d)\n", r.Name, r.PID, r.Gen)
	fmt.Fprintf(&b, "%-10s %7s %7s %7s %7s %9s %9s %9s %9s %9s\n",
		"segment", "mapped", "shared", "priv", "pend",
		"rss-kb", "pss-kb", "uss-kb", "shclean", "shdirty")
	rows := append(append([]SmapsRow{}, r.Rows...), r.Total)
	for _, row := range rows {
		fmt.Fprintf(&b, "%-10s %7d %7d %7d %7d %9d %9d %9d %9d %9d\n",
			row.Segment, row.MappedPages, row.SharedPages, row.PrivatePages,
			row.PendingPages, row.RSSBytes>>10, row.PSSBytes>>10,
			row.USSBytes>>10, row.SharedCleanBytes>>10, row.SharedDirtyBytes>>10)
	}
	return b.String()
}
