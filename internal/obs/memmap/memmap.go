// Package memmap implements the memory-provenance plane: a kernel-wide,
// always-snapshotable record of where every live physical frame came from
// and who maps it. Where the flight recorder answers "what happened", this
// plane answers the paper's central memory question — "who is sharing what,
// and which copy mode materialized each frame" — the data behind a Linux
// smaps/pagemap view of a fork tree.
//
// The plane mirrors three event streams the kernel feeds it:
//
//   - frame lifecycle (tmem alloc/free): each allocation is stamped with
//     the allocating μprocess, its fork generation, and the Origin — which
//     copy mode (image load, eager fork copy, CoW, CoA, CoPA, demand map,
//     shm) materialized the frame;
//   - frame lineage (tmem CopyFrame): a copied frame records its source
//     frame, so a CoW break's private copy points back at the shared
//     ancestor frame it split from;
//   - mapping structure (vm Map/Unmap/MakePrivate in the shared address
//     space): per-frame reference counts and per-μprocess mapping sets,
//     from which RSS (frames mapped), PSS (shared frames divided by
//     mapping count), and USS (exclusively mapped) derive.
//
// Everything is guarded by one mutex: most events arrive from the kernel's
// simulation goroutine, but CopyFrame fans out across host worker
// goroutines on the fork eager-copy path, and the telemetry server
// snapshots from an HTTP goroutine mid-run. A kernel without the plane
// holds a nil one, and every probe method returns at once on nil.
package memmap

import (
	"sort"
	"sync"

	"ufork/internal/tmem"
)

// Origin classifies which mechanism materialized a physical frame — the
// §3.8 copy-mode taxonomy extended with the non-fork allocation sites.
type Origin uint8

const (
	// OriginUnknown is an allocation outside any classified kernel phase.
	OriginUnknown Origin = iota
	// OriginImage is a program-image page mapped at load time.
	OriginImage
	// OriginEager is a frame physically copied during a fork call (eager
	// and proactive copies).
	OriginEager
	// OriginCoW is a private copy made by a write-fault resolution.
	OriginCoW
	// OriginCoA is a frame whose ownership a Copy-on-Access resolution
	// transferred by adopting the last reference (reclassified in place —
	// adoption allocates nothing).
	OriginCoA
	// OriginCoPA is a copy made by a capability-load fault resolution
	// (copy-and-relocate, §3.8).
	OriginCoPA
	// OriginDemand is a demand-mapped frame (fault-time mapping that
	// neither copied nor adopted, e.g. the monolithic baseline's heap).
	OriginDemand
	// OriginShm is a POSIX shared-memory object frame.
	OriginShm
	numOrigins
)

var originNames = [numOrigins]string{
	"unknown", "image", "eager", "cow", "coa", "copa", "demand", "shm",
}

func (o Origin) String() string {
	if int(o) < len(originNames) {
		return originNames[o]
	}
	return "origin?"
}

// frameRec is the provenance record of one live frame.
type frameRec struct {
	owner     int32 // allocating μprocess PID
	gen       uint16
	origin    Origin
	hasParent bool
	parent    tmem.PFN // source frame of the copy that produced this one
	refs      int32    // PTE references in the observed address space
}

// procRec tracks one μprocess's mapping set for RSS/PSS/USS derivation.
type procRec struct {
	pid    int32
	ppid   int32
	name   string
	gen    int
	frames map[tmem.PFN]int32 // pfn → this process's mapping count
}

// Plane is the provenance store. Construct with New; it records from the
// moment it exists. All methods are safe for concurrent use and no-ops on
// a nil plane.
type Plane struct {
	mu     sync.Mutex
	frames map[tmem.PFN]*frameRec
	procs  map[int32]*procRec

	liveByOrigin   [numOrigins]int
	allocsByOrigin [numOrigins]uint64
	ownerChanges   uint64
}

// New creates an empty plane.
func New() *Plane {
	return &Plane{
		frames: make(map[tmem.PFN]*frameRec),
		procs:  make(map[int32]*procRec),
	}
}

// Reset discards all state. The kernel calls it when the plane is
// re-armed onto a freshly booted kernel, whose frame numbers restart from
// zero.
func (pl *Plane) Reset() {
	if pl == nil {
		return
	}
	pl.mu.Lock()
	pl.frames = make(map[tmem.PFN]*frameRec)
	pl.procs = make(map[int32]*procRec)
	pl.liveByOrigin = [numOrigins]int{}
	pl.allocsByOrigin = [numOrigins]uint64{}
	pl.ownerChanges = 0
	pl.mu.Unlock()
}

// OnAlloc records a frame allocation attributed to pid at fork generation
// gen, materialized by origin.
func (pl *Plane) OnAlloc(pfn tmem.PFN, pid int32, gen int, origin Origin) {
	if pl == nil {
		return
	}
	pl.mu.Lock()
	pl.frames[pfn] = &frameRec{owner: pid, gen: uint16(gen), origin: origin}
	pl.liveByOrigin[origin]++
	pl.allocsByOrigin[origin]++
	pl.mu.Unlock()
}

// OnFree retires a frame's record.
func (pl *Plane) OnFree(pfn tmem.PFN) {
	if pl == nil {
		return
	}
	pl.mu.Lock()
	if fr, ok := pl.frames[pfn]; ok {
		pl.liveByOrigin[fr.origin]--
		delete(pl.frames, pfn)
	}
	pl.mu.Unlock()
}

// OnCopy records lineage: dst was materialized by physically copying src.
// Called from parallel fork workers, hence under the mutex.
func (pl *Plane) OnCopy(dst, src tmem.PFN) {
	if pl == nil {
		return
	}
	pl.mu.Lock()
	if fr, ok := pl.frames[dst]; ok {
		fr.hasParent, fr.parent = true, src
	}
	pl.mu.Unlock()
}

// OnMap records that pid gained a PTE reference to pfn.
func (pl *Plane) OnMap(pid int32, pfn tmem.PFN) {
	if pl == nil {
		return
	}
	pl.mu.Lock()
	if fr, ok := pl.frames[pfn]; ok {
		fr.refs++
	}
	pr := pl.procs[pid]
	if pr == nil {
		pr = &procRec{pid: pid, frames: make(map[tmem.PFN]int32)}
		pl.procs[pid] = pr
	}
	pr.frames[pfn]++
	pl.mu.Unlock()
}

// OnUnmap records that pid dropped a PTE reference to pfn.
func (pl *Plane) OnUnmap(pid int32, pfn tmem.PFN) {
	if pl == nil {
		return
	}
	pl.mu.Lock()
	if fr, ok := pl.frames[pfn]; ok && fr.refs > 0 {
		fr.refs--
	}
	if pr, ok := pl.procs[pid]; ok {
		if n := pr.frames[pfn]; n > 1 {
			pr.frames[pfn] = n - 1
		} else {
			delete(pr.frames, pfn)
		}
	}
	pl.mu.Unlock()
}

// Reclassify refines a frame's origin after the fault outcome is known:
// fault-time allocations are provisionally OriginDemand until the kernel
// classifies the resolution as CoW or CoPA.
func (pl *Plane) Reclassify(pfn tmem.PFN, origin Origin) {
	if pl == nil {
		return
	}
	pl.mu.Lock()
	if fr, ok := pl.frames[pfn]; ok && fr.origin != origin {
		pl.liveByOrigin[fr.origin]--
		pl.allocsByOrigin[fr.origin]--
		fr.origin = origin
		pl.liveByOrigin[origin]++
		pl.allocsByOrigin[origin]++
	}
	pl.mu.Unlock()
}

// OwnerChange records that a CoW/CoA/CoPA break transferred exclusive
// ownership of pfn to pid at generation gen.
func (pl *Plane) OwnerChange(pfn tmem.PFN, pid int32, gen int) {
	if pl == nil {
		return
	}
	pl.mu.Lock()
	if fr, ok := pl.frames[pfn]; ok {
		fr.owner, fr.gen = pid, uint16(gen)
	}
	pl.ownerChanges++
	pl.mu.Unlock()
}

// OnSpawn records a μprocess entering the fork tree.
func (pl *Plane) OnSpawn(pid, ppid int32, name string, gen int) {
	if pl == nil {
		return
	}
	pl.mu.Lock()
	pr := pl.procs[pid]
	if pr == nil {
		pr = &procRec{pid: pid, frames: make(map[tmem.PFN]int32)}
		pl.procs[pid] = pr
	}
	pr.ppid, pr.name, pr.gen = ppid, name, gen
	pl.mu.Unlock()
}

// OnExit drops a μprocess from the tree (its mappings are gone by the time
// the kernel's terminate path reports the exit).
func (pl *Plane) OnExit(pid int32) {
	if pl == nil {
		return
	}
	pl.mu.Lock()
	delete(pl.procs, pid)
	pl.mu.Unlock()
}

// LiveFrames returns the number of frames the plane currently tracks. The
// invariant checker cross-checks it against tmem's allocation count.
func (pl *Plane) LiveFrames() int {
	if pl == nil {
		return 0
	}
	pl.mu.Lock()
	n := len(pl.frames)
	pl.mu.Unlock()
	return n
}

// FrameRefs returns the PTE reference count the plane has observed for
// pfn, and whether the frame is tracked at all.
func (pl *Plane) FrameRefs(pfn tmem.PFN) (int, bool) {
	if pl == nil {
		return 0, false
	}
	pl.mu.Lock()
	fr, ok := pl.frames[pfn]
	refs := 0
	if ok {
		refs = int(fr.refs)
	}
	pl.mu.Unlock()
	return refs, ok
}

// OwnerChanges returns the cumulative count of sharing breaks that
// transferred frame ownership.
func (pl *Plane) OwnerChanges() uint64 {
	if pl == nil {
		return 0
	}
	pl.mu.Lock()
	n := pl.ownerChanges
	pl.mu.Unlock()
	return n
}

// ProcNode is one μprocess in a Snapshot's fork tree, with its derived
// smaps aggregates.
type ProcNode struct {
	PID         int32   `json:"pid"`
	PPID        int32   `json:"ppid"`
	Name        string  `json:"name"`
	Gen         int     `json:"gen"`
	RSSBytes    uint64  `json:"rss_bytes"`
	PSSBytes    uint64  `json:"pss_bytes"`
	USSBytes    uint64  `json:"uss_bytes"`
	SharedPages int     `json:"shared_pages"`
	Children    []int32 `json:"children,omitempty"`
}

// FrameLine is one frame's provenance in a Snapshot (bounded sample for
// the JSON view).
type FrameLine struct {
	PFN    uint64 `json:"pfn"`
	Owner  int32  `json:"owner"`
	Gen    int    `json:"gen"`
	Origin string `json:"origin"`
	Parent int64  `json:"parent_pfn"` // -1 when the frame was not copied
	Refs   int32  `json:"refs"`
}

// Snapshot is a consistent copy of the plane, safe to hold and serialize
// while the simulation continues.
type Snapshot struct {
	LiveFrames     int               `json:"live_frames"`
	LiveByOrigin   map[string]int    `json:"live_by_origin"`
	AllocsByOrigin map[string]uint64 `json:"allocs_by_origin_total"`
	OwnerChanges   uint64            `json:"owner_changes_total"`
	Procs          []ProcNode        `json:"procs"`
	Frames         []FrameLine       `json:"frames,omitempty"`
}

// pssShift is the fixed-point precision of PSS accumulation: integer
// arithmetic keeps snapshot sums deterministic regardless of map
// iteration order.
const pssShift = 20

// Snapshot derives the fork-tree view under the mutex. maxFrames bounds
// the per-frame lineage sample (0 omits it entirely; the per-proc
// aggregates always cover every frame).
func (pl *Plane) Snapshot(maxFrames int) Snapshot {
	snap := Snapshot{
		LiveByOrigin:   make(map[string]int),
		AllocsByOrigin: make(map[string]uint64),
	}
	if pl == nil {
		return snap
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	snap.LiveFrames = len(pl.frames)
	snap.OwnerChanges = pl.ownerChanges
	for o := Origin(0); o < numOrigins; o++ {
		if pl.liveByOrigin[o] != 0 {
			snap.LiveByOrigin[o.String()] = pl.liveByOrigin[o]
		}
		if pl.allocsByOrigin[o] != 0 {
			snap.AllocsByOrigin[o.String()] = pl.allocsByOrigin[o]
		}
	}
	for _, pr := range pl.procs {
		node := ProcNode{PID: pr.pid, PPID: pr.ppid, Name: pr.name, Gen: pr.gen}
		var pssFP uint64
		for pfn, count := range pr.frames {
			node.RSSBytes += uint64(count) * tmem.PageSize
			refs := count
			if fr, ok := pl.frames[pfn]; ok && fr.refs > refs {
				refs = fr.refs
			}
			pssFP += uint64(count) * ((tmem.PageSize << pssShift) / uint64(refs))
			if refs == count {
				node.USSBytes += uint64(count) * tmem.PageSize
			} else {
				node.SharedPages += int(count)
			}
		}
		node.PSSBytes = pssFP >> pssShift
		snap.Procs = append(snap.Procs, node)
	}
	sort.Slice(snap.Procs, func(i, j int) bool { return snap.Procs[i].PID < snap.Procs[j].PID })
	for i := range snap.Procs {
		for j := range snap.Procs {
			if snap.Procs[j].PPID == snap.Procs[i].PID && snap.Procs[j].PID != snap.Procs[i].PID {
				snap.Procs[i].Children = append(snap.Procs[i].Children, snap.Procs[j].PID)
			}
		}
	}
	if maxFrames > 0 {
		pfns := make([]tmem.PFN, 0, len(pl.frames))
		for pfn := range pl.frames {
			pfns = append(pfns, pfn)
		}
		sort.Slice(pfns, func(i, j int) bool { return pfns[i] < pfns[j] })
		if len(pfns) > maxFrames {
			pfns = pfns[:maxFrames]
		}
		for _, pfn := range pfns {
			fr := pl.frames[pfn]
			line := FrameLine{
				PFN: uint64(pfn), Owner: fr.owner, Gen: int(fr.gen),
				Origin: fr.origin.String(), Parent: -1, Refs: fr.refs,
			}
			if fr.hasParent {
				line.Parent = int64(fr.parent)
			}
			snap.Frames = append(snap.Frames, line)
		}
	}
	return snap
}
