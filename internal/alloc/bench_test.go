package alloc_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ufork/internal/alloc"
	"ufork/internal/cap"
	"ufork/internal/core"
	"ufork/internal/kernel"
	"ufork/internal/model"
)

// BenchmarkAllocFree times one Free of a uniformly drawn live block and
// the Alloc that replaces it, with 10², 10³ and 10⁴ blocks live. A Free
// that walks the used list grows with the live count; one that goes
// through the index does not.
func BenchmarkAllocFree(b *testing.B) {
	const blockBytes = 32
	for _, live := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("live=%d", live), func(b *testing.B) {
			spec := kernel.HelloWorldSpec()
			spec.AllocMetaPages = live*blockBytes/kernel.PageSize + 2
			spec.HeapPages = live*blockBytes/kernel.PageSize + 2
			k := kernel.New(kernel.Config{
				Machine:   model.UFork(2),
				Engine:    core.New(core.CopyOnPointerAccess),
				Isolation: kernel.IsolationFull,
				Frames:    1 << 16,
			})
			r := rand.New(rand.NewSource(1))
			var runErr error
			if _, err := k.Spawn(spec, 0, func(p *kernel.Proc) {
				runErr = func() error {
					a := alloc.Attach(p)
					if err := a.Init(); err != nil {
						return err
					}
					blocks := make([]cap.Capability, live)
					for i := range blocks {
						c, err := a.Alloc(blockBytes)
						if err != nil {
							return err
						}
						blocks[i] = c
					}
					pair := func() error {
						i := r.Intn(live)
						if err := a.Free(blocks[i]); err != nil {
							return err
						}
						c, err := a.Alloc(blockBytes)
						blocks[i] = c
						return err
					}
					// The first Free builds the index; keep that walk
					// out of the timed pairs.
					if err := pair(); err != nil {
						return err
					}
					b.ReportAllocs()
					b.ResetTimer()
					for n := 0; n < b.N; n++ {
						if err := pair(); err != nil {
							return err
						}
					}
					b.StopTimer()
					return nil
				}()
			}); err != nil {
				b.Fatal(err)
			}
			k.Run()
			if runErr != nil {
				b.Fatal(runErr)
			}
		})
	}
}
