package kernel_test

import (
	"testing"

	"ufork/internal/core"
	"ufork/internal/kernel"
	"ufork/internal/model"
)

// kvSnapshotSpec is the image of the kv-snapshot benchmark's store
// (4096 keys of 4 KiB): μFork's 35,000-page static heap dominates it.
func kvSnapshotSpec() kernel.ProgramSpec {
	return kernel.ProgramSpec{
		Name:      "kvsrv",
		TextPages: 256, RodataPages: 64, GOTPages: 4, DataPages: 256,
		AllocMetaPages: 97, HeapPages: model.UForkSMP(2).StaticHeapPages,
		StackPages: 64, TLSPages: 1, GOTEntries: 256,
	}
}

// loadKernel boots the kv-snapshot benchmark's machine: μFork with the
// split lock hierarchy, CoPA and fault isolation.
func loadKernel() *kernel.Kernel {
	return kernel.New(kernel.Config{
		Machine:   model.UForkSMP(2),
		Engine:    core.New(core.CopyOnPointerAccess),
		Isolation: kernel.IsolationFault,
		Frames:    1 << 17,
	})
}

// spawnAndExit boots a kernel and loads spec on it as a μprocess that
// exits at once.
func spawnAndExit(tb testing.TB, spec kernel.ProgramSpec) {
	k := loadKernel()
	if _, err := k.Spawn(spec, 0, func(*kernel.Proc) {}); err != nil {
		tb.Fatal(err)
	}
	k.Run()
}

// TestLoadAllocs bounds what booting a kernel and loading the kv-snapshot
// image allocates: the page table is filled a directory at a time with
// page descriptors from one slab per segment, and frames live by value in
// chunks of 512, so the ~35,700 pages cost a few hundred allocations, not
// one or more per page.
func TestLoadAllocs(t *testing.T) {
	spec := kvSnapshotSpec()
	allocs := testing.AllocsPerRun(5, func() { spawnAndExit(t, spec) })
	t.Logf("booting a kernel and spawning the %d-page kv-snapshot image allocates %.0f objects", spec.HeapPages, allocs)
	if allocs > 1000 {
		t.Fatalf("booting a kernel and spawning the kv-snapshot image allocates %.0f objects, want at most 1000", allocs)
	}
}

// BenchmarkLoad boots a kernel, spawns the kv-snapshot image and reaps it:
// the host cost of mapping μFork's static heap, which dominates the
// benchmark's set-up.
//
//	go test ./internal/kernel -run xxx -bench Load -benchmem
func BenchmarkLoad(b *testing.B) {
	spec := kvSnapshotSpec()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spawnAndExit(b, spec)
	}
}
