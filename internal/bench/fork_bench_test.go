package bench

import (
	"fmt"
	"testing"

	"ufork/internal/cap"
	"ufork/internal/kernel"
)

// Fork hot-path microbenchmarks: host wall-clock cost of the simulator's
// fork path (page copy + tag scan + relocation) at 1/10/100 MB images per
// copy strategy, plus the CoPA/CoA fault path. Virtual-time results are
// deterministic and identical across runs; these benchmarks measure the
// host-side cost of producing them. BENCH_2.json records the baseline.
//
// Run with: go test ./internal/bench -bench BenchmarkFork -benchmem

// benchForkSpec builds an image dominated by a heap of mb megabytes.
func benchForkSpec(mb int) kernel.ProgramSpec {
	return kernel.ProgramSpec{
		Name:      "bench-fork",
		TextPages: 64, RodataPages: 16, GOTPages: 2, DataPages: 32,
		AllocMetaPages: 8, StackPages: 16, TLSPages: 1,
		GOTEntries: 64,
		HeapPages:  mb * 256, // mb MB of 4 KiB pages
	}
}

// populateCaps stores one in-region capability every capStride pages of the
// heap, so eager copies and fault-path privatisations have real relocation
// work to do (sparse, like a real heap's pointer density per page).
func populateCaps(p *kernel.Proc, pages, capStride int) error {
	for i := 0; i < pages; i += capStride {
		off := uint64(i) * kernel.PageSize
		c := p.HeapCap.SetAddr(p.HeapCap.Base() + off)
		if err := p.StoreCap(p.HeapCap, off, c); err != nil {
			return err
		}
	}
	return nil
}

// benchFork measures b.N forks of a warmed image on system id.
func benchFork(b *testing.B, id SystemID, mb int) {
	pages := mb * 256
	frames := 3*pages + 1<<15
	k := Env{}.build(id, 2, frames)
	err := runRoot(k, benchForkSpec(mb), func(p *kernel.Proc) error {
		if err := populateCaps(p, pages, 8); err != nil {
			return err
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := k.Fork(p, func(c *kernel.Proc) { k.Exit(c, 0) }); err != nil {
				return err
			}
			if _, status, err := k.Wait(p); err != nil {
				return err
			} else if status != 0 {
				return fmt.Errorf("child failed: %d", status)
			}
		}
		b.StopTimer()
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkFork(b *testing.B) {
	modes := []struct {
		name string
		id   SystemID
	}{
		{"CoPA", SysUForkCoPA},
		{"CoA", SysUForkCoA},
		{"CopyFull", SysUForkFull},
	}
	for _, m := range modes {
		for _, mb := range []int{1, 10, 100} {
			b.Run(fmt.Sprintf("%s-%dMB", m.name, mb), func(b *testing.B) {
				benchFork(b, m.id, mb)
			})
		}
	}
}

// BenchmarkFaultPath measures the lazy copy+relocate path: each iteration
// forks and the child capability-loads one granule per page over
// faultPages pages — every load privatises and relocates one page (CoPA
// cap-load faults; CoA no-access faults).
const faultPages = 256

func BenchmarkFaultPath(b *testing.B) {
	for _, m := range []struct {
		name string
		id   SystemID
	}{
		{"CoPA", SysUForkCoPA},
		{"CoA", SysUForkCoA},
	} {
		b.Run(m.name, func(b *testing.B) {
			k := Env{}.build(m.id, 2, 1<<16)
			err := runRoot(k, benchForkSpec(1), func(p *kernel.Proc) error {
				if err := populateCaps(p, faultPages, 1); err != nil {
					return err
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := k.Fork(p, func(c *kernel.Proc) {
						for pg := 0; pg < faultPages; pg++ {
							if _, err := c.LoadCap(c.HeapCap, uint64(pg)*kernel.PageSize); err != nil {
								k.Exit(c, 1)
							}
						}
						k.Exit(c, 0)
					}); err != nil {
						return err
					}
					if _, status, err := k.Wait(p); err != nil {
						return err
					} else if status != 0 {
						return fmt.Errorf("fault child failed: %d", status)
					}
				}
				b.StopTimer()
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// sinkCap keeps capability loads from being optimised away.
var sinkCap cap.Capability
