// Package kvstore is the Redis-stand-in workload: an in-memory key-value
// store whose entire data structure lives in simulated μprocess memory,
// with a background-save (BGSAVE) feature implemented exactly the way
// Redis does it — fork, then serialize the snapshot from the child while
// the parent keeps serving (§2.1 pattern U4, evaluated in §5.1).
//
// Memory layout is deliberately Redis-like and is what makes the CoPA
// result emerge: hash-table buckets and entry headers are pages dense with
// capabilities (copied when the snapshot child walks them), while the
// values are large capability-free blobs (shared read-only under CoPA, but
// copied wholesale under CoA).
package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ufork/internal/alloc"
	"ufork/internal/cap"
	"ufork/internal/kernel"
)

// tlsRootOff is the TLS slot holding the store root capability (slot 1;
// slot 0 belongs to the minipy runtime so both can coexist).
const tlsRootOff = cap.GranuleSize

// Root block layout (capability slots are granule aligned):
// buckets cap | nbuckets u64 | count u64 | entry-arena cap | arenaOff u64 |
// pad | free-entry-list cap.
const (
	rootBucketsOff  = 0
	rootNBucketsOff = cap.GranuleSize
	rootCountOff    = cap.GranuleSize + 8
	rootArenaOff    = 2 * cap.GranuleSize
	rootArenaPosOff = 3 * cap.GranuleSize
	rootFreeEntOff  = 4 * cap.GranuleSize
	rootSize        = 5 * cap.GranuleSize
)

// Entries are fixed-size blocks carved from dedicated arena pages —
// mirroring how Redis's dict entries come from one jemalloc size class.
// The clustering matters: entry pages are capability-dense and get copied
// by the snapshot child, while value pages stay capability-free and
// shared (the Fig. 5 mechanism).
//
// Entry layout: next cap | value cap | keylen u64 | pad | key bytes.
const (
	entNextOff   = 0
	entValOff    = cap.GranuleSize
	entKeyLenOff = 2 * cap.GranuleSize
	entKeyOff    = 2*cap.GranuleSize + 16
	entSize      = 96 // entKeyOff + MaxKeyLen, granule aligned
	arenaBytes   = kernel.PageSize
)

// MaxKeyLen is the longest key a store holds.
const MaxKeyLen = entSize - entKeyOff

// Errors returned by the store.
var (
	ErrNoStore  = errors.New("kvstore: no store installed in this process")
	ErrCorrupt  = errors.New("kvstore: corrupt dump")
	ErrNotFound = errors.New("kvstore: key not found")
)

// Store is a per-process view of the key-value store. Like the allocator,
// it keeps no host-side state beyond the process handle and the reply
// buffer Get loads values into. A forked child attaches to its inherited,
// relocated copy and starts with a reply buffer of its own.
type Store struct {
	p *kernel.Proc
	a *alloc.Allocator
	// reply holds the value the last Get served. It grows to the largest
	// value served and is kept, like a Redis client's output buffer.
	reply []byte
}

// Init creates an empty store with the given bucket count and plants its
// root in TLS.
func Init(p *kernel.Proc, a *alloc.Allocator, nbuckets int) (*Store, error) {
	if nbuckets <= 0 {
		nbuckets = 1024
	}
	table, err := a.Alloc(uint64(nbuckets) * cap.GranuleSize)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nbuckets; i++ {
		if err := p.StoreCap(table, uint64(i)*cap.GranuleSize, cap.Null()); err != nil {
			return nil, err
		}
	}
	root, err := a.Alloc(rootSize)
	if err != nil {
		return nil, err
	}
	if err := p.StoreCap(root, rootBucketsOff, table); err != nil {
		return nil, err
	}
	if err := p.StoreU64(root, rootNBucketsOff, uint64(nbuckets)); err != nil {
		return nil, err
	}
	if err := p.StoreU64(root, rootCountOff, 0); err != nil {
		return nil, err
	}
	if err := p.StoreCap(root, rootArenaOff, cap.Null()); err != nil {
		return nil, err
	}
	if err := p.StoreU64(root, rootArenaPosOff, arenaBytes); err != nil {
		return nil, err
	}
	if err := p.StoreCap(root, rootFreeEntOff, cap.Null()); err != nil {
		return nil, err
	}
	if err := p.StoreCap(p.TLSCap, tlsRootOff, root); err != nil {
		return nil, err
	}
	return &Store{p: p, a: a}, nil
}

// Attach binds to the store a process inherited (through fork) or
// installed earlier.
func Attach(p *kernel.Proc) (*Store, error) {
	root, err := p.LoadCap(p.TLSCap, tlsRootOff)
	if err != nil {
		return nil, err
	}
	if !root.Tag() {
		return nil, ErrNoStore
	}
	return &Store{p: p, a: alloc.Attach(p)}, nil
}

func (s *Store) root() (cap.Capability, error) {
	root, err := s.p.LoadCap(s.p.TLSCap, tlsRootOff)
	if err != nil {
		return cap.Null(), err
	}
	if !root.Tag() {
		return cap.Null(), ErrNoStore
	}
	return root, nil
}

// hashKey is 64-bit FNV-1a (hash/fnv's New64a), computed inline so that
// a lookup allocates nothing.
func hashKey(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// bucketOf returns (root, table, bucket byte offset).
func (s *Store) bucketOf(key string) (root, table cap.Capability, off uint64, err error) {
	if root, err = s.root(); err != nil {
		return
	}
	if table, err = s.p.LoadCap(root, rootBucketsOff); err != nil {
		return
	}
	n, err2 := s.p.LoadU64(root, rootNBucketsOff)
	if err2 != nil {
		err = err2
		return
	}
	off = (hashKey(key) % n) * cap.GranuleSize
	return
}

// findEntry walks the chain for key, returning the entry capability (or
// untagged) and the previous entry (untagged when the head matches).
func (s *Store) findEntry(table cap.Capability, bucketOff uint64, key string) (entry, prev cap.Capability, err error) {
	cur, err := s.p.LoadCap(table, bucketOff)
	if err != nil {
		return
	}
	prev = cap.Null()
	var buf [MaxKeyLen]byte
	for cur.Tag() {
		klen, err2 := s.p.LoadU64(cur, entKeyLenOff)
		if err2 != nil {
			err = err2
			return
		}
		if klen == uint64(len(key)) && klen <= MaxKeyLen {
			kb := buf[:klen]
			if err = s.p.Load(cur, entKeyOff, kb); err != nil {
				return
			}
			if string(kb) == key {
				entry = cur
				return
			}
		}
		next, err2 := s.p.LoadCap(cur, entNextOff)
		if err2 != nil {
			err = err2
			return
		}
		prev, cur = cur, next
	}
	return cap.Null(), prev, nil
}

// entryAlloc hands out one fixed-size entry block, reusing freed entries
// first and carving fresh ones from dedicated arena pages otherwise.
func (s *Store) entryAlloc(root cap.Capability) (cap.Capability, error) {
	free, err := s.p.LoadCap(root, rootFreeEntOff)
	if err != nil {
		return cap.Null(), err
	}
	if free.Tag() {
		next, err := s.p.LoadCap(free, entNextOff)
		if err != nil {
			return cap.Null(), err
		}
		if err := s.p.StoreCap(root, rootFreeEntOff, next); err != nil {
			return cap.Null(), err
		}
		return free, nil
	}
	arena, err := s.p.LoadCap(root, rootArenaOff)
	if err != nil {
		return cap.Null(), err
	}
	pos, err := s.p.LoadU64(root, rootArenaPosOff)
	if err != nil {
		return cap.Null(), err
	}
	if !arena.Tag() || pos+entSize > arenaBytes {
		if arena, err = s.a.Alloc(arenaBytes); err != nil {
			return cap.Null(), err
		}
		pos = 0
		if err := s.p.StoreCap(root, rootArenaOff, arena); err != nil {
			return cap.Null(), err
		}
	}
	ent, err := arena.SetAddr(arena.Base() + pos).SetBounds(entSize)
	if err != nil {
		return cap.Null(), err
	}
	if err := s.p.StoreU64(root, rootArenaPosOff, pos+entSize); err != nil {
		return cap.Null(), err
	}
	return ent, nil
}

// entryFree chains an unlinked entry onto the reuse list.
func (s *Store) entryFree(root, ent cap.Capability) error {
	free, err := s.p.LoadCap(root, rootFreeEntOff)
	if err != nil {
		return err
	}
	if err := s.p.StoreCap(ent, entNextOff, free); err != nil {
		return err
	}
	return s.p.StoreCap(root, rootFreeEntOff, ent)
}

// Set inserts or replaces key with value.
func (s *Store) Set(key string, value []byte) error {
	if len(key) > MaxKeyLen {
		return fmt.Errorf("kvstore: key longer than %d bytes", MaxKeyLen)
	}
	root, table, bucketOff, err := s.bucketOf(key)
	if err != nil {
		return err
	}
	entry, _, err := s.findEntry(table, bucketOff, key)
	if err != nil {
		return err
	}
	// Value blob: a dedicated capability-free block.
	valCap, err := s.a.Alloc(uint64(len(value)))
	if err != nil {
		return err
	}
	if err := s.p.Store(valCap, 0, value); err != nil {
		return err
	}
	bounded, err := valCap.SetBounds(uint64(len(value)))
	if err != nil {
		// Zero-length value: keep the granule-rounded block.
		bounded = valCap
	}
	if entry.Tag() {
		// Replace: free the old value blob.
		old, err := s.p.LoadCap(entry, entValOff)
		if err != nil {
			return err
		}
		if old.Tag() {
			// Free by block address: the allocator tracks the full block.
			if err := s.a.Free(old.SetAddr(old.Base())); err != nil {
				return err
			}
		}
		return s.p.StoreCap(entry, entValOff, bounded)
	}
	// Insert at chain head.
	ent, err := s.entryAlloc(root)
	if err != nil {
		return err
	}
	head, err := s.p.LoadCap(table, bucketOff)
	if err != nil {
		return err
	}
	if err := s.p.StoreCap(ent, entNextOff, head); err != nil {
		return err
	}
	if err := s.p.StoreCap(ent, entValOff, bounded); err != nil {
		return err
	}
	if err := s.p.StoreU64(ent, entKeyLenOff, uint64(len(key))); err != nil {
		return err
	}
	var kb [MaxKeyLen]byte
	if err := s.p.Store(ent, entKeyOff, kb[:copy(kb[:], key)]); err != nil {
		return err
	}
	if err := s.p.StoreCap(table, bucketOff, ent); err != nil {
		return err
	}
	count, err := s.p.LoadU64(root, rootCountOff)
	if err != nil {
		return err
	}
	return s.p.StoreU64(root, rootCountOff, count+1)
}

// Get returns the value for key. The value is loaded into the store's
// reply buffer: the slice is valid until the next Get on the same Store,
// and a caller that keeps it must copy it. Its capacity equals its
// length, so an append by the caller cannot write into the buffer.
func (s *Store) Get(key string) ([]byte, error) {
	_, table, bucketOff, err := s.bucketOf(key)
	if err != nil {
		return nil, err
	}
	entry, _, err := s.findEntry(table, bucketOff, key)
	if err != nil {
		return nil, err
	}
	if !entry.Tag() {
		return nil, ErrNotFound
	}
	val, err := s.p.LoadCap(entry, entValOff)
	if err != nil {
		return nil, err
	}
	n := val.Len() - (val.Addr() - val.Base())
	if uint64(len(s.reply)) < n {
		s.reply = make([]byte, n)
	}
	buf := s.reply[:n:n]
	if err := s.p.Load(val, 0, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Delete removes key.
func (s *Store) Delete(key string) error {
	root, table, bucketOff, err := s.bucketOf(key)
	if err != nil {
		return err
	}
	entry, prev, err := s.findEntry(table, bucketOff, key)
	if err != nil {
		return err
	}
	if !entry.Tag() {
		return ErrNotFound
	}
	next, err := s.p.LoadCap(entry, entNextOff)
	if err != nil {
		return err
	}
	if prev.Tag() {
		if err := s.p.StoreCap(prev, entNextOff, next); err != nil {
			return err
		}
	} else {
		if err := s.p.StoreCap(table, bucketOff, next); err != nil {
			return err
		}
	}
	val, err := s.p.LoadCap(entry, entValOff)
	if err != nil {
		return err
	}
	if val.Tag() {
		if err := s.a.Free(val.SetAddr(val.Base())); err != nil {
			return err
		}
	}
	if err := s.entryFree(root, entry); err != nil {
		return err
	}
	count, err := s.p.LoadU64(root, rootCountOff)
	if err != nil {
		return err
	}
	return s.p.StoreU64(root, rootCountOff, count-1)
}

// Count returns the number of keys.
func (s *Store) Count() (uint64, error) {
	root, err := s.root()
	if err != nil {
		return 0, err
	}
	return s.p.LoadU64(root, rootCountOff)
}

// ForEach visits every entry: the snapshot walk. Each visit performs the
// capability loads (bucket, entry, value pointer) that CoPA turns into
// page copies in a forked child. Each key is loaded into kbuf and fn's
// key aliases it: it is valid only during the call, and a caller that
// keeps it must copy it.
func (s *Store) ForEach(kbuf *[MaxKeyLen]byte, fn func(key []byte, val cap.Capability) error) error {
	root, err := s.root()
	if err != nil {
		return err
	}
	table, err := s.p.LoadCap(root, rootBucketsOff)
	if err != nil {
		return err
	}
	n, err := s.p.LoadU64(root, rootNBucketsOff)
	if err != nil {
		return err
	}
	for b := uint64(0); b < n; b++ {
		cur, err := s.p.LoadCap(table, b*cap.GranuleSize)
		if err != nil {
			return err
		}
		for cur.Tag() {
			klen, err := s.p.LoadU64(cur, entKeyLenOff)
			if err != nil {
				return err
			}
			if klen > MaxKeyLen {
				return fmt.Errorf("kvstore: entry key length %d exceeds %d", klen, MaxKeyLen)
			}
			key := kbuf[:klen]
			if err := s.p.Load(cur, entKeyOff, key); err != nil {
				return err
			}
			val, err := s.p.LoadCap(cur, entValOff)
			if err != nil {
				return err
			}
			if err := fn(key, val); err != nil {
				return err
			}
			if cur, err = s.p.LoadCap(cur, entNextOff); err != nil {
				return err
			}
		}
	}
	return nil
}

// saveChunk is the write(2) granularity of the serializer.
const saveChunk = 64 * 1024

// saveBufBytes is Save's staging capacity. A flush leaves less than one
// chunk staged and an entry's lengths and key add at most 16+MaxKeyLen
// bytes, so a value of up to one chunk always loads whole; a larger one
// loads in pieces with a flush between them. The buffer never grows.
const saveBufBytes = 2*saveChunk + 16 + MaxKeyLen

// Save serializes the store RDB-style to a ram-disk file:
// "KVD1" | count u64 | per entry: keylen u64, key, vallen u64, value.
func (s *Store) Save(path string) error {
	k := s.p.Kernel()
	fd, err := k.Open(s.p, path, true)
	if err != nil {
		return err
	}
	defer func() { _ = k.Close(s.p, fd) }()
	// One allocation holds the staged dump and the key ForEach loads.
	stage := new(struct {
		buf [saveBufBytes]byte
		key [MaxKeyLen]byte
	})
	buf := stage.buf[:0]
	flush := func(force bool) error {
		for len(buf) >= saveChunk || (force && len(buf) > 0) {
			n := len(buf)
			if n > saveChunk {
				n = saveChunk
			}
			if _, err := k.Write(s.p, fd, buf[:n]); err != nil {
				return err
			}
			buf = buf[:copy(buf, buf[n:])]
		}
		return nil
	}
	count, err := s.Count()
	if err != nil {
		return err
	}
	var hdr [12]byte
	copy(hdr[:4], "KVD1")
	binary.LittleEndian.PutUint64(hdr[4:], count)
	buf = append(buf, hdr[:]...)

	err = s.ForEach(&stage.key, func(key []byte, val cap.Capability) error {
		var lens [16]byte
		vlen := val.Len() - (val.Addr() - val.Base())
		binary.LittleEndian.PutUint64(lens[:8], uint64(len(key)))
		binary.LittleEndian.PutUint64(lens[8:], vlen)
		buf = append(buf, lens[:]...)
		buf = append(buf, key...)
		// Load the value straight into the write buffer: no per-entry copy.
		for off := uint64(0); off < vlen; {
			n := len(buf)
			m := min(vlen-off, uint64(saveBufBytes-n))
			buf = buf[:n+int(m)]
			if err := s.p.Load(val, off, buf[n:]); err != nil {
				return err
			}
			off += m
			if err := flush(false); err != nil {
				return err
			}
		}
		return flush(false)
	})
	if err != nil {
		return err
	}
	if err := flush(true); err != nil {
		return err
	}
	// Like Redis, finish with an fsync + rename of the temp dump.
	return k.Fsync(s.p, fd)
}

// BGSave forks a snapshot child that serializes the store to path and
// exits — the Redis background-save pattern. It returns the fork
// statistics (the latency Redis cares about: the pause of the main
// process) without waiting for the child; call Reap to collect it.
func (s *Store) BGSave(path string) (kernel.ForkStats, error) {
	k := s.p.Kernel()
	_, err := k.Fork(s.p, func(c *kernel.Proc) {
		cs, err := Attach(c)
		if err != nil {
			k.Exit(c, 1)
		}
		if err := cs.Save(path); err != nil {
			k.Exit(c, 1)
		}
		k.Exit(c, 0)
	})
	if err != nil {
		return kernel.ForkStats{}, err
	}
	return s.p.LastFork, nil
}

// Reap waits for the snapshot child and returns an error if it failed.
func (s *Store) Reap() error {
	_, status, err := s.p.Kernel().Wait(s.p)
	if err != nil {
		return err
	}
	if status != 0 {
		return fmt.Errorf("kvstore: background save failed with status %d", status)
	}
	return nil
}

// LoadDump parses a dump written by Save (a host-side check utility for
// tests, examples and benchmarks). It parses in place: each value is a
// capacity-clipped subslice of data, so appending to one cannot overwrite
// the next record, but every value aliases data. For a ram-disk file,
// data is Inode.Data, and the next truncating Save to that file rewrites
// that storage in place; a caller that keeps values past it must copy
// them. Lengths are checked without overflow, so a hostile dump returns
// ErrCorrupt rather than panicking.
func LoadDump(data []byte) (map[string][]byte, error) {
	if len(data) < 12 || string(data[:4]) != "KVD1" {
		return nil, ErrCorrupt
	}
	count := binary.LittleEndian.Uint64(data[4:12])
	// Every record holds 16 bytes of lengths, so a larger count is corrupt
	// and must not size the map.
	out := make(map[string][]byte, min(count, uint64(len(data))/16))
	rest := data[12:]
	for i := uint64(0); i < count; i++ {
		if len(rest) < 16 {
			return nil, ErrCorrupt
		}
		klen := binary.LittleEndian.Uint64(rest)
		vlen := binary.LittleEndian.Uint64(rest[8:])
		rest = rest[16:]
		if klen > uint64(len(rest)) || vlen > uint64(len(rest))-klen {
			return nil, ErrCorrupt
		}
		key := string(rest[:klen])
		rest = rest[klen:]
		out[key] = rest[:vlen:vlen]
		rest = rest[vlen:]
	}
	return out, nil
}
