package minipy

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"

	"ufork/internal/cap"
)

func f64bits(f float64) uint64     { return math.Float64bits(f) }
func f64frombits(b uint64) float64 { return math.Float64frombits(b) }

// Value kinds. Every minipy value is a 32-byte record: kind, float64
// payload, and (for heap kinds) a capability to the object body. Records
// live in simulated memory — variable cells, list elements — so forking a
// warm interpreter exercises relocation on the whole object graph.
const (
	kNum uint64 = iota
	kStr
	kList
	kNone
)

// valueSize is the in-memory footprint of one value record:
// [kind u64 | f64 bits u64 | object capability (16 B)].
const valueSize = 2 * cap.GranuleSize

// Record field offsets.
const (
	valKindOff = 0
	valNumOff  = 8
	valObjOff  = cap.GranuleSize
)

// Value is the host-side view of a minipy value. For heap kinds, obj
// points at the object body in simulated memory.
type Value struct {
	kind uint64
	num  float64
	obj  cap.Capability
}

// Num builds a numeric value.
func Num(f float64) Value { return Value{kind: kNum, num: f} }

// None is the null value.
func None() Value { return Value{kind: kNone} }

// Float returns the numeric payload (0 for non-numbers).
func (v Value) Float() float64 {
	if v.kind == kNum {
		return v.num
	}
	return 0
}

// Truthy implements Python truthiness: nonzero numbers, nonempty
// strings/lists.
func (rt *Runtime) truthy(v Value) (bool, error) {
	switch v.kind {
	case kNum:
		return v.num != 0, nil
	case kNone:
		return false, nil
	case kStr, kList:
		n, err := rt.objLen(v)
		return n > 0, err
	case kDict:
		n, err := rt.p.LoadU64(v.obj, dictCountOff)
		return n > 0, err
	default:
		return false, fmt.Errorf("minipy: bad value kind %d", v.kind)
	}
}

// String object layout: [len u64 | pad u64 | bytes...].
// List object layout:   [len u64 | cap u64 | elems capability], where the
// elems block is an array of 32-byte value records.
const (
	objLenOff    = 0
	objCapOff    = 8  // list capacity
	strBytesOff  = 16 // string payload start
	listElemsOff = 16 // capability to the elements block
)

// objLen reads a heap object's length field.
func (rt *Runtime) objLen(v Value) (uint64, error) {
	return rt.p.LoadU64(v.obj, objLenOff)
}

// NewString allocates a string value in the runtime's simulated memory —
// the way host-side callers (tests, embedders) build string arguments.
func (rt *Runtime) NewString(str string) (Value, error) { return rt.newStr([]byte(str)) }

// newStr allocates a string object holding b.
func (rt *Runtime) newStr(b []byte) (Value, error) {
	blk, err := rt.a.Alloc(uint64(strBytesOff + len(b)))
	if err != nil {
		return Value{}, err
	}
	if err := rt.p.StoreU64(blk, objLenOff, uint64(len(b))); err != nil {
		return Value{}, err
	}
	if len(b) > 0 {
		if err := rt.p.Store(blk, strBytesOff, b); err != nil {
			return Value{}, err
		}
	}
	return Value{kind: kStr, obj: blk}, nil
}

// strBytes reads a string object's payload.
func (rt *Runtime) strBytes(v Value) ([]byte, error) {
	n, err := rt.objLen(v)
	if err != nil {
		return nil, err
	}
	b := make([]byte, n)
	if n > 0 {
		if err := rt.p.Load(v.obj, strBytesOff, b); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// newList allocates a list with the given elements.
func (rt *Runtime) newList(elems []Value) (Value, error) {
	capacity := len(elems)
	if capacity < 4 {
		capacity = 4
	}
	hdr, err := rt.a.Alloc(uint64(listElemsOff + cap.GranuleSize))
	if err != nil {
		return Value{}, err
	}
	arr, err := rt.a.Alloc(uint64(capacity) * valueSize)
	if err != nil {
		return Value{}, err
	}
	if err := rt.p.StoreU64(hdr, objLenOff, uint64(len(elems))); err != nil {
		return Value{}, err
	}
	if err := rt.p.StoreU64(hdr, objCapOff, uint64(capacity)); err != nil {
		return Value{}, err
	}
	if err := rt.p.StoreCap(hdr, listElemsOff, arr); err != nil {
		return Value{}, err
	}
	for i, e := range elems {
		if err := rt.storeValueAt(arr, uint64(i)*valueSize, e); err != nil {
			return Value{}, err
		}
	}
	return Value{kind: kList, obj: hdr}, nil
}

// listElems loads the elements-array capability.
func (rt *Runtime) listElems(v Value) (cap.Capability, error) {
	return rt.p.LoadCap(v.obj, listElemsOff)
}

// listIndex reads element i with bounds and negative-index handling.
func (rt *Runtime) listIndex(v Value, idx float64) (Value, error) {
	n, err := rt.objLen(v)
	if err != nil {
		return Value{}, err
	}
	i, err := normIndex(idx, n)
	if err != nil {
		return Value{}, err
	}
	arr, err := rt.listElems(v)
	if err != nil {
		return Value{}, err
	}
	return rt.loadValueAt(arr, i*valueSize)
}

// listStore writes element i.
func (rt *Runtime) listStore(v Value, idx float64, e Value) error {
	n, err := rt.objLen(v)
	if err != nil {
		return err
	}
	i, err := normIndex(idx, n)
	if err != nil {
		return err
	}
	arr, err := rt.listElems(v)
	if err != nil {
		return err
	}
	return rt.storeValueAt(arr, i*valueSize, e)
}

// listAppend grows the list by one element, doubling the elements block
// when full (the allocator churn a real interpreter produces).
func (rt *Runtime) listAppend(v Value, e Value) error {
	n, err := rt.objLen(v)
	if err != nil {
		return err
	}
	capacity, err := rt.p.LoadU64(v.obj, objCapOff)
	if err != nil {
		return err
	}
	arr, err := rt.listElems(v)
	if err != nil {
		return err
	}
	if n == capacity {
		newCap := capacity * 2
		newArr, err := rt.a.Alloc(newCap * valueSize)
		if err != nil {
			return err
		}
		for i := uint64(0); i < n; i++ {
			ev, err := rt.loadValueAt(arr, i*valueSize)
			if err != nil {
				return err
			}
			if err := rt.storeValueAt(newArr, i*valueSize, ev); err != nil {
				return err
			}
		}
		if err := rt.a.Free(arr); err != nil {
			return err
		}
		if err := rt.p.StoreCap(v.obj, listElemsOff, newArr); err != nil {
			return err
		}
		if err := rt.p.StoreU64(v.obj, objCapOff, newCap); err != nil {
			return err
		}
		arr = newArr
	}
	if err := rt.storeValueAt(arr, n*valueSize, e); err != nil {
		return err
	}
	return rt.p.StoreU64(v.obj, objLenOff, n+1)
}

// strIndex returns the 1-character string at idx.
func (rt *Runtime) strIndex(v Value, idx float64) (Value, error) {
	n, err := rt.objLen(v)
	if err != nil {
		return Value{}, err
	}
	i, err := normIndex(idx, n)
	if err != nil {
		return Value{}, err
	}
	b := make([]byte, 1)
	if err := rt.p.Load(v.obj, strBytesOff+i, b); err != nil {
		return Value{}, err
	}
	return rt.newStr(b)
}

// normIndex applies Python index semantics (negatives from the end).
func normIndex(idx float64, n uint64) (uint64, error) {
	i := int64(idx)
	if i < 0 {
		i += int64(n)
	}
	if i < 0 || uint64(i) >= n {
		return 0, fmt.Errorf("minipy: index %d out of range (len %d)", int64(idx), n)
	}
	return uint64(i), nil
}

// loadValueAt reads one 32-byte value record from simulated memory. The
// capability load in the object slot is exactly the access CoPA's barrier
// intercepts in forked children.
func (rt *Runtime) loadValueAt(base cap.Capability, off uint64) (Value, error) {
	var rec [valObjOff]byte // kind and number: one access for the granule
	if err := rt.p.Load(base, off+valKindOff, rec[:]); err != nil {
		return Value{}, err
	}
	kind := binary.LittleEndian.Uint64(rec[:valNumOff])
	v := Value{kind: kind, num: f64frombits(binary.LittleEndian.Uint64(rec[valNumOff:]))}
	if kind == kStr || kind == kList || kind == kDict {
		obj, err := rt.p.LoadCap(base, off+valObjOff)
		if err != nil {
			return Value{}, err
		}
		if !obj.Tag() {
			return Value{}, fmt.Errorf("minipy: corrupt object reference")
		}
		v.obj = obj
	}
	return v, nil
}

// storeValueAt writes one 32-byte value record.
func (rt *Runtime) storeValueAt(base cap.Capability, off uint64, v Value) error {
	var rec [valObjOff]byte
	binary.LittleEndian.PutUint64(rec[:valNumOff], v.kind)
	binary.LittleEndian.PutUint64(rec[valNumOff:], f64bits(v.num))
	if err := rt.p.Store(base, off+valKindOff, rec[:]); err != nil {
		return err
	}
	return rt.p.StoreCap(base, off+valObjOff, v.obj)
}

// Format renders a value the way print does.
func (rt *Runtime) Format(v Value) (string, error) {
	switch v.kind {
	case kNum:
		return strconv.FormatFloat(v.num, 'g', -1, 64), nil
	case kNone:
		return "None", nil
	case kStr:
		b, err := rt.strBytes(v)
		return string(b), err
	case kList:
		n, err := rt.objLen(v)
		if err != nil {
			return "", err
		}
		s := "["
		for i := uint64(0); i < n; i++ {
			e, err := rt.listIndex(v, float64(i))
			if err != nil {
				return "", err
			}
			fs, err := rt.Format(e)
			if err != nil {
				return "", err
			}
			if e.kind == kStr {
				fs = "'" + fs + "'"
			}
			if i > 0 {
				s += ", "
			}
			s += fs
		}
		return s + "]", nil
	case kDict:
		return rt.formatDict(v)
	default:
		return "", fmt.Errorf("minipy: bad value kind %d", v.kind)
	}
}
