package minipy

import (
	"fmt"

	"ufork/internal/cap"
)

// kDict extends the value kinds of value.go with a hash map.
const kDict uint64 = 4

// Dict object layout:
//
//	header: [count u64 | nbuckets u64 | buckets capability]
//	buckets: nbuckets slots of 64 bytes — a key value record followed by
//	a value record; an empty slot has key kind kNone.
//
// Open addressing with linear probing; the table doubles at 3/4 load.
// Like lists and strings, every byte lives in simulated memory behind
// capabilities, so forked children inherit relocated dictionaries.
const (
	dictCountOff    = 0
	dictNBucketsOff = 8
	dictBucketsOff  = 16
	dictSlotSize    = 2 * valueSize
	dictMinBuckets  = 8
)

// newDict allocates an empty dictionary.
func (rt *Runtime) newDict() (Value, error) {
	hdr, err := rt.a.Alloc(dictBucketsOff + cap.GranuleSize)
	if err != nil {
		return Value{}, err
	}
	buckets, err := rt.newDictBuckets(dictMinBuckets)
	if err != nil {
		return Value{}, err
	}
	if err := rt.p.StoreU64(hdr, dictCountOff, 0); err != nil {
		return Value{}, err
	}
	if err := rt.p.StoreU64(hdr, dictNBucketsOff, dictMinBuckets); err != nil {
		return Value{}, err
	}
	if err := rt.p.StoreCap(hdr, dictBucketsOff, buckets); err != nil {
		return Value{}, err
	}
	return Value{kind: kDict, obj: hdr}, nil
}

// newDictBuckets allocates an empty bucket array (all keys kNone).
func (rt *Runtime) newDictBuckets(n uint64) (cap.Capability, error) {
	buckets, err := rt.a.Alloc(n * dictSlotSize)
	if err != nil {
		return cap.Null(), err
	}
	for i := uint64(0); i < n; i++ {
		if err := rt.storeValueAt(buckets, i*dictSlotSize, None()); err != nil {
			return cap.Null(), err
		}
	}
	return buckets, nil
}

// hashValue hashes a key (number or string) for bucket selection.
func (rt *Runtime) hashValue(k Value) (uint64, error) {
	switch k.kind {
	case kNum:
		h := f64bits(k.num)
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		return h, nil
	case kStr:
		b, err := rt.strBytes(k)
		if err != nil {
			return 0, err
		}
		h := uint64(14695981039346656037)
		for _, c := range b {
			h ^= uint64(c)
			h *= 1099511628211
		}
		return h, nil
	default:
		return 0, fmt.Errorf("minipy: unhashable key type")
	}
}

// keysEqual compares two keys.
func (rt *Runtime) keysEqual(a, b Value) (bool, error) {
	if a.kind != b.kind {
		return false, nil
	}
	switch a.kind {
	case kNum:
		return a.num == b.num, nil
	case kStr:
		ab, err := rt.strBytes(a)
		if err != nil {
			return false, err
		}
		bb, err := rt.strBytes(b)
		if err != nil {
			return false, err
		}
		return string(ab) == string(bb), nil
	default:
		return false, nil
	}
}

// dictFindSlot probes for key, returning the byte offset of its slot (or
// of the first empty slot) in the bucket array.
func (rt *Runtime) dictFindSlot(buckets cap.Capability, nbuckets uint64, key Value) (off uint64, found bool, err error) {
	h, err := rt.hashValue(key)
	if err != nil {
		return 0, false, err
	}
	for i := uint64(0); i < nbuckets; i++ {
		idx := (h + i) % nbuckets
		slot := idx * dictSlotSize
		k, err := rt.loadValueAt(buckets, slot)
		if err != nil {
			return 0, false, err
		}
		if k.kind == kNone {
			return slot, false, nil
		}
		eq, err := rt.keysEqual(k, key)
		if err != nil {
			return 0, false, err
		}
		if eq {
			return slot, true, nil
		}
	}
	return 0, false, fmt.Errorf("minipy: dict table full")
}

// dictGet returns the value for key, or (None, false) when absent.
func (rt *Runtime) dictGet(d, key Value) (Value, bool, error) {
	nbuckets, err := rt.p.LoadU64(d.obj, dictNBucketsOff)
	if err != nil {
		return Value{}, false, err
	}
	buckets, err := rt.p.LoadCap(d.obj, dictBucketsOff)
	if err != nil {
		return Value{}, false, err
	}
	slot, found, err := rt.dictFindSlot(buckets, nbuckets, key)
	if err != nil || !found {
		return None(), false, err
	}
	v, err := rt.loadValueAt(buckets, slot+valueSize)
	return v, true, err
}

// dictSet inserts or replaces key.
func (rt *Runtime) dictSet(d, key, val Value) error {
	if key.kind != kNum && key.kind != kStr {
		return fmt.Errorf("minipy: unhashable key type")
	}
	count, err := rt.p.LoadU64(d.obj, dictCountOff)
	if err != nil {
		return err
	}
	nbuckets, err := rt.p.LoadU64(d.obj, dictNBucketsOff)
	if err != nil {
		return err
	}
	if 4*(count+1) > 3*nbuckets {
		if err := rt.dictGrow(d, nbuckets*2); err != nil {
			return err
		}
		nbuckets *= 2
	}
	buckets, err := rt.p.LoadCap(d.obj, dictBucketsOff)
	if err != nil {
		return err
	}
	slot, found, err := rt.dictFindSlot(buckets, nbuckets, key)
	if err != nil {
		return err
	}
	if err := rt.storeValueAt(buckets, slot, key); err != nil {
		return err
	}
	if err := rt.storeValueAt(buckets, slot+valueSize, val); err != nil {
		return err
	}
	if !found {
		return rt.p.StoreU64(d.obj, dictCountOff, count+1)
	}
	return nil
}

// dictGrow rehashes into a table of newN buckets.
func (rt *Runtime) dictGrow(d Value, newN uint64) error {
	oldN, err := rt.p.LoadU64(d.obj, dictNBucketsOff)
	if err != nil {
		return err
	}
	oldBuckets, err := rt.p.LoadCap(d.obj, dictBucketsOff)
	if err != nil {
		return err
	}
	newBuckets, err := rt.newDictBuckets(newN)
	if err != nil {
		return err
	}
	for i := uint64(0); i < oldN; i++ {
		k, err := rt.loadValueAt(oldBuckets, i*dictSlotSize)
		if err != nil {
			return err
		}
		if k.kind == kNone {
			continue
		}
		v, err := rt.loadValueAt(oldBuckets, i*dictSlotSize+valueSize)
		if err != nil {
			return err
		}
		slot, _, err := rt.dictFindSlot(newBuckets, newN, k)
		if err != nil {
			return err
		}
		if err := rt.storeValueAt(newBuckets, slot, k); err != nil {
			return err
		}
		if err := rt.storeValueAt(newBuckets, slot+valueSize, v); err != nil {
			return err
		}
	}
	if err := rt.a.Free(oldBuckets); err != nil {
		return err
	}
	if err := rt.p.StoreCap(d.obj, dictBucketsOff, newBuckets); err != nil {
		return err
	}
	return rt.p.StoreU64(d.obj, dictNBucketsOff, newN)
}

// dictKeys returns a list of the dictionary's keys.
func (rt *Runtime) dictKeys(d Value) (Value, error) {
	nbuckets, err := rt.p.LoadU64(d.obj, dictNBucketsOff)
	if err != nil {
		return Value{}, err
	}
	buckets, err := rt.p.LoadCap(d.obj, dictBucketsOff)
	if err != nil {
		return Value{}, err
	}
	var keys []Value
	for i := uint64(0); i < nbuckets; i++ {
		k, err := rt.loadValueAt(buckets, i*dictSlotSize)
		if err != nil {
			return Value{}, err
		}
		if k.kind != kNone {
			keys = append(keys, k)
		}
	}
	return rt.newList(keys)
}

// formatDict renders {'k': v, ...} for print/str.
func (rt *Runtime) formatDict(d Value) (string, error) {
	nbuckets, err := rt.p.LoadU64(d.obj, dictNBucketsOff)
	if err != nil {
		return "", err
	}
	buckets, err := rt.p.LoadCap(d.obj, dictBucketsOff)
	if err != nil {
		return "", err
	}
	s := "{"
	first := true
	for i := uint64(0); i < nbuckets; i++ {
		k, err := rt.loadValueAt(buckets, i*dictSlotSize)
		if err != nil {
			return "", err
		}
		if k.kind == kNone {
			continue
		}
		v, err := rt.loadValueAt(buckets, i*dictSlotSize+valueSize)
		if err != nil {
			return "", err
		}
		ks, err := rt.Format(k)
		if err != nil {
			return "", err
		}
		if k.kind == kStr {
			ks = "'" + ks + "'"
		}
		vs, err := rt.Format(v)
		if err != nil {
			return "", err
		}
		if v.kind == kStr {
			vs = "'" + vs + "'"
		}
		if !first {
			s += ", "
		}
		first = false
		s += ks + ": " + vs
	}
	return s + "}", nil
}
