package kernel

import (
	"fmt"
	"sort"

	"ufork/internal/obs/memmap"
	"ufork/internal/vm"
)

// ShmObject is a named shared-memory object. Per §3.7, shm_open returns a
// descriptor representing an area of shared memory, and mapping it installs
// the same physical pages into the virtual address region of each
// participating μprocess.
type ShmObject struct {
	Name  string
	pages []*vm.Page
}

// shmRegistry lives on the kernel.
type shmRegistry struct {
	objects map[string]*ShmObject
}

// ShmOpen creates or opens a named shared-memory object of the given size
// (rounded up to whole pages on creation).
func (k *Kernel) ShmOpen(p *Proc, name string, pages int) (*ShmObject, error) {
	k.enter(p, SysShmOpen, len(name))
	defer k.leave(p)
	if k.shm.objects == nil {
		k.shm.objects = make(map[string]*ShmObject)
	}
	if obj, ok := k.shm.objects[name]; ok {
		return obj, nil
	}
	obj := &ShmObject{Name: name}
	phase0 := k.memPhase
	k.memPhase = memmap.OriginShm
	for i := 0; i < pages; i++ {
		pfn, err := k.Mem.AllocFrame()
		if err != nil {
			k.memPhase = phase0
			return nil, err
		}
		obj.pages = append(obj.pages, &vm.Page{PFN: pfn, Pinned: true})
	}
	k.memPhase = phase0
	k.shm.objects[name] = obj
	return obj, nil
}

// ShmMap maps the object's pages read-write at byte offset off within the
// caller's heap segment, returning a capability over the mapping. The same
// physical frames become visible to every mapper — shared memory across
// μprocesses inside the single address space.
func (k *Kernel) ShmMap(p *Proc, obj *ShmObject, off uint64) (mapped uint64, err error) {
	k.enter(p, SysShmMap, 0)
	defer k.leave(p)
	base := p.Layout.SegBase(p.Region.Base, SegHeap) + off
	if base%PageSize != 0 {
		return 0, fmt.Errorf("kernel: shm map offset %#x not page aligned", off)
	}
	for i, page := range obj.pages {
		va := base + uint64(i)*PageSize
		vpn := vm.VPNOf(va)
		// Replace the heap page with the shared frame.
		if p.AS.Lookup(vpn) != nil {
			if err := p.AS.Unmap(vpn); err != nil {
				return 0, err
			}
		}
		if err := p.AS.Map(vpn, page, vm.ProtRW); err != nil {
			return 0, err
		}
		// Shared mappings are exempt from copy-on-fork bookkeeping.
		p.Pending.Remove(vpn)
	}
	return base, nil
}

// Pages returns the object's backing page descriptors (invariant checking:
// unmapped shm pages hold allocated frames with zero references, and the
// checker must treat the registry as their owner rather than report leaks).
func (o *ShmObject) Pages() []*vm.Page { return o.pages }

// ShmObjects returns the live named shared-memory objects in name order.
func (k *Kernel) ShmObjects() []*ShmObject {
	names := make([]string, 0, len(k.shm.objects))
	for name := range k.shm.objects {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*ShmObject, len(names))
	for i, name := range names {
		out[i] = k.shm.objects[name]
	}
	return out
}

// ShmUnlink removes the name. The name pins the object's frames, so
// unmapped frames are freed now and mapped ones with their last mapping.
func (k *Kernel) ShmUnlink(p *Proc, name string) error {
	k.enter(p, SysShmUnlink, len(name))
	defer k.leave(p)
	obj, ok := k.shm.objects[name]
	if !ok {
		return fmt.Errorf("%w: shm %s", ErrNoEnt, name)
	}
	delete(k.shm.objects, name)
	for _, page := range obj.pages {
		page.Pinned = false
		if page.Refs == 0 {
			if err := k.Mem.FreeFrame(page.PFN); err != nil {
				return err
			}
		}
	}
	return nil
}
