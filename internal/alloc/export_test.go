package alloc

import "fmt"

// CheckIndex compares the process's used-list index with a walk of the
// in-memory used list. It reports whether the process has an index, and
// the first disagreement found.
func CheckIndex(a *Allocator) (built bool, err error) {
	ix := a.index()
	if ix == nil {
		return false, nil
	}
	cur, err := a.p.LoadU64(a.p.MetaCap, offUsedHead)
	if err != nil {
		return true, err
	}
	prev := uint64(0)
	seen := map[uint64]bool{}
	for cur != 0 {
		bc, _, next, err := a.loadBlock(cur - 1)
		if err != nil {
			return true, err
		}
		if !seen[bc.Addr()] {
			seen[bc.Addr()] = true
			if d := ix.desc[bc.Addr()]; d != cur {
				return true, fmt.Errorf("index maps %#x to descriptor %d, list has it in %d", bc.Addr(), d, cur)
			}
		}
		if p := ix.prev[cur]; p != prev {
			return true, fmt.Errorf("index has %d before descriptor %d, list has %d", p, cur, prev)
		}
		prev, cur = cur, next
	}
	if len(ix.desc) != len(seen) {
		return true, fmt.Errorf("index holds %d addresses, list %d", len(ix.desc), len(seen))
	}
	return true, nil
}
