package bench

import (
	"fmt"

	"ufork/internal/alloc"
	"ufork/internal/apps/kvstore"
	"ufork/internal/kernel"
	"ufork/internal/sim"
)

// Redis experiment parameters (§5.1 "Redis snapshots"): the database is
// populated with 100 KB entries and a background save is triggered.
const (
	redisValueBytes = 100 * 1024
	// posixArenaFloorPages is the allocator arena CheriBSD's Redis touches
	// regardless of database size. Calibration: Fig. 5's discussion — the
	// forked child's proportional set is ~56 MB at a 100 MB database and
	// the paper attributes the bulk to allocator memory consumption, i.e.
	// an arena of roughly 100 MB shared between the two processes plus a
	// floor that keeps small databases expensive to fork (Fig. 4 shows the
	// 5–10× fork-latency gap across the whole range, including 100 KB).
	posixArenaFloorPages = 12800 // 50 MB
)

// RedisSizesQuick are the database sizes exercised in quick runs.
var RedisSizesQuick = []uint64{100 * 1024, 1 << 20, 10 << 20}

// RedisSizesFull adds the paper's 100 MB end point.
var RedisSizesFull = []uint64{100 * 1024, 1 << 20, 10 << 20, 100 << 20}

// RedisRow is one (system, size) measurement feeding Figures 3, 4 and 5.
type RedisRow struct {
	System      SystemID
	DBBytes     uint64
	ForkLatency sim.Time // Fig. 4
	SaveTime    sim.Time // Fig. 3: BGSAVE trigger → parent reaps the child
	ChildMem    uint64   // Fig. 5: per-process memory of the snapshot child
	PagesCopied uint64   // snapshot child page copies (CoPA mechanics)
}

// redisSystems are the series of Figures 3–5.
var redisSystems = []SystemID{SysUForkCoPA, SysUForkTocttou, SysUForkCoA, SysUForkFull, SysPosix}

// redisSpec builds the μprocess image for a database of dbBytes.
func redisSpec(id SystemID, k *kernel.Kernel, dbBytes uint64) kernel.ProgramSpec {
	spec := kernel.ProgramSpec{
		Name:      "redis",
		TextPages: 256, RodataPages: 64, GOTPages: 4, DataPages: 256,
		AllocMetaPages: 32, StackPages: 64, TLSPages: 1,
		GOTEntries: 256,
	}
	dbPages := int(dbBytes/kernel.PageSize) + 1
	if k.Machine.StaticHeapPages > 0 {
		// μFork: the build-time static heap (136.7 MB, Fig. 4).
		spec.HeapPages = k.Machine.StaticHeapPages
	} else {
		// CheriBSD: demand-paged, sized to the data plus allocator slack.
		spec.HeapPages = dbPages + dbPages/4 + 2048 + posixArenaFloorPages
	}
	return spec
}

// RedisSweep runs the snapshot experiment for every system and size.
func RedisSweep(env Env, sizes []uint64) ([]RedisRow, error) {
	var rows []RedisRow
	for _, id := range redisSystems {
		for _, size := range sizes {
			row, err := env.redisOnce(id, size)
			if err != nil {
				return nil, fmt.Errorf("bench: redis %s/%d: %w", id, size, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// redisOnce runs one (system, size) cell.
func (env Env) redisOnce(id SystemID, dbBytes uint64) (RedisRow, error) {
	// Frames: database + static heap + full-copy child, with headroom.
	frames := 2*int(dbBytes/kernel.PageSize) + 90000
	k := env.build(id, 2, frames)
	row := RedisRow{System: id, DBBytes: dbBytes}
	spec := redisSpec(id, k, dbBytes)

	err := runRoot(k, spec, func(p *kernel.Proc) error {
		nkeys := max(int(dbBytes/redisValueBytes), 1)
		store, val, err := preloadKV(p, nkeys, int(dbBytes)/nkeys)
		if err != nil {
			return err
		}

		// Trigger BGSAVE, then keep "serving": the parent rewrites a few
		// values while the child snapshots, exercising parent-side CoW.
		t0 := p.Now()
		var childMem uint64
		var childCopied uint64
		_, err = k.Fork(p, func(c *kernel.Proc) {
			cs, err := kvstore.Attach(c)
			if err != nil {
				k.Exit(c, 1)
			}
			if err := cs.Save("/dump.rdb"); err != nil {
				k.Exit(c, 1)
			}
			childMem = memMetric(c)
			childCopied = c.AS.Stats.PagesCopied.Value()
			k.Exit(c, 0)
		})
		if err != nil {
			return err
		}
		row.ForkLatency = p.LastFork.Latency
		// The parent keeps serving during the snapshot: ~5% of keys are
		// rewritten, so the child retains their fork-time value pages —
		// the bulk of the CoPA child's 6 MB in Fig. 5.
		for i := 0; i < nkeys/20+1; i++ {
			if err := store.Set(kvKey(i), val); err != nil {
				return err
			}
		}
		if _, status, err := k.Wait(p); err != nil {
			return err
		} else if status != 0 {
			return fmt.Errorf("snapshot child failed: %d", status)
		}
		row.SaveTime = p.Now() - t0
		row.ChildMem = childMem
		row.PagesCopied = childCopied

		// Sanity: the dump must parse and carry every key.
		ino, ok := k.VFS().Lookup("/dump.rdb")
		if !ok {
			return fmt.Errorf("dump missing")
		}
		dump, err := kvstore.LoadDump(ino.Data)
		if err != nil {
			return err
		}
		if len(dump) != nkeys {
			return fmt.Errorf("dump has %d keys, want %d", len(dump), nkeys)
		}
		return nil
	})
	foldRun(fmt.Sprintf("redis.%s.%s", id, MB(dbBytes)), k)
	return row, err
}

// preloadKV initialises p's allocator and fills a fresh store with keys
// entries kvKey(i), each holding the same valBytes-byte value, which it
// returns for the caller's rewrites. On the monolithic baseline it
// pre-touches the jemalloc arena before building the store (see
// posixArenaFloorPages).
func preloadKV(p *kernel.Proc, keys, valBytes int) (*kvstore.Store, []byte, error) {
	a := alloc.Attach(p)
	if err := a.Init(); err != nil {
		return nil, nil, err
	}
	if !p.Kernel().Machine.SingleAddressSpace {
		if err := touchHeapPages(p, posixArenaFloorPages); err != nil {
			return nil, nil, err
		}
	}
	store, err := kvstore.Init(p, a, bucketCount(keys))
	if err != nil {
		return nil, nil, err
	}
	val := make([]byte, valBytes)
	for i := range val {
		val[i] = byte(i * 131)
	}
	for i := 0; i < keys; i++ {
		if err := store.Set(kvKey(i), val); err != nil {
			return nil, nil, err
		}
	}
	return store, val, nil
}

// kvKey names the i-th key of a preloaded store.
func kvKey(i int) string { return fmt.Sprintf("key:%06d", i) }

// touchHeapPages dirties the first n heap pages (allocator arena warm-up).
func touchHeapPages(p *kernel.Proc, n int) error {
	one := []byte{1}
	for i := 0; i < n; i++ {
		if err := p.Store(p.HeapCap, uint64(i)*kernel.PageSize, one); err != nil {
			return err
		}
	}
	return nil
}

func bucketCount(nkeys int) int {
	n := 1024
	for n < nkeys*2 {
		n *= 2
	}
	return n
}

// RenderAblation summarises the §5.2 copy-strategy ablation and the
// TOCTTOU overhead from a Redis sweep: CoPA vs CoA vs full-copy fork
// latency factors at the largest database, and the TOCTTOU save-time cost.
func RenderAblation(rows []RedisRow) string {
	byKey := map[string]RedisRow{}
	var maxSize uint64
	for _, r := range rows {
		byKey[fmt.Sprintf("%s/%d", r.System, r.DBBytes)] = r
		if r.DBBytes > maxSize {
			maxSize = r.DBBytes
		}
	}
	get := func(id SystemID) (RedisRow, bool) {
		r, ok := byKey[fmt.Sprintf("%s/%d", id, maxSize)]
		return r, ok
	}
	copa, okA := get(SysUForkCoPA)
	coa, okB := get(SysUForkCoA)
	full, okC := get(SysUForkFull)
	toct, okD := get(SysUForkTocttou)
	if !okA || !okB || !okC || !okD {
		return ""
	}
	var out [][]string
	out = append(out, []string{"full-copy / CoPA fork latency",
		fmt.Sprintf("%.1fx (paper: up to 89x)", float64(full.ForkLatency)/float64(copa.ForkLatency))})
	out = append(out, []string{"CoA / CoPA fork latency",
		fmt.Sprintf("%.2fx (paper: up to 1.18x)", float64(coa.ForkLatency)/float64(copa.ForkLatency))})
	out = append(out, []string{"CoA / CoPA child memory",
		fmt.Sprintf("%.1fx", float64(coa.ChildMem)/float64(copa.ChildMem))})
	out = append(out, []string{"TOCTTOU save-time overhead",
		fmt.Sprintf("%.1f%% (paper: 2.6%% at 100 MB)",
			100*(float64(toct.SaveTime)/float64(copa.SaveTime)-1))})
	return fmt.Sprintf("Ablation at %s database (copy strategies, §5.2 + TOCTTOU §4.4)\n", MB(maxSize)) +
		Table([]string{"metric", "value"}, out)
}

// RenderRedis formats the sweep as the three figure tables.
func RenderRedis(rows []RedisRow) string {
	var fig3, fig4, fig5 [][]string
	for _, r := range rows {
		size := MB(r.DBBytes)
		fig3 = append(fig3, []string{string(r.System), size, Ms(r.SaveTime)})
		fig4 = append(fig4, []string{string(r.System), size, Us(r.ForkLatency)})
		fig5 = append(fig5, []string{string(r.System), size, MB(r.ChildMem)})
	}
	return "Figure 3 — Redis DB overall save times\n" +
		Table([]string{"system", "db size", "save time"}, fig3) +
		"\nFigure 4 — Redis fork latency\n" +
		Table([]string{"system", "db size", "fork latency"}, fig4) +
		"\nFigure 5 — Redis forked-process memory consumption\n" +
		Table([]string{"system", "db size", "child memory"}, fig5)
}
