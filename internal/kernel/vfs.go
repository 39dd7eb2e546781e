package kernel

import (
	"fmt"
	"slices"

	"ufork/internal/sim"
)

// Inode is one ram-disk file.
type Inode struct {
	Name string
	// Data is the file contents. It is complete whenever no appending
	// writer holds the file open: appends to a file longer than one extent
	// may sit in ext until a description of the file is closed or fsynced,
	// or until the kernel reads, sizes, truncates or overwrites the file.
	// Every LoadDump caller reads it after the writer has exited. Data is
	// live, not a snapshot: the next write or truncate may reuse or
	// reallocate its backing array, so a caller that keeps it must copy it.
	Data []byte
	// ext holds the bytes appended past cap(Data), in order, in extents of
	// extentSize bytes; all but the last are full.
	ext [][]byte
}

// extentSize is the ram-disk append unit. A file that fits in one extent
// grows in place, so its Data is always current; a larger one appends past
// cap(Data) into extents instead of moving its bytes on every growth.
const extentSize = 256 << 10

// size is the file's length, pending extents included.
func (ino *Inode) size() uint64 {
	n := len(ino.Data)
	if e := len(ino.ext); e > 0 {
		n += (e-1)*extentSize + len(ino.ext[e-1])
	}
	return uint64(n)
}

// appendsToExtents reports whether a write of n bytes at off appends into
// extents: it must start at the end of a file already longer than one
// extent and either follow earlier extents or outgrow cap(Data).
func (ino *Inode) appendsToExtents(off uint64, n int) bool {
	return off == ino.size() && (len(ino.ext) > 0 ||
		len(ino.Data) >= extentSize && off+uint64(n) > uint64(cap(ino.Data)))
}

// appendExtents appends buf to the file's extents.
func (ino *Inode) appendExtents(buf []byte) {
	for len(buf) > 0 {
		last := len(ino.ext) - 1
		if last < 0 || len(ino.ext[last]) == extentSize {
			ino.ext = append(ino.ext, make([]byte, 0, extentSize))
			last++
		}
		n := min(len(buf), extentSize-len(ino.ext[last]))
		ino.ext[last] = append(ino.ext[last], buf[:n]...)
		buf = buf[n:]
	}
}

// fold makes Data complete: one allocation of the file's size plus an
// eighth of headroom, so a same-size rewrite after a truncate stays in
// place, and one copy of the bytes.
func (ino *Inode) fold() {
	if len(ino.ext) == 0 {
		return
	}
	n := ino.size()
	data := make([]byte, n, n+n/8)
	off := copy(data, ino.Data)
	for _, e := range ino.ext {
		off += copy(data[off:], e)
	}
	ino.Data, ino.ext = data, nil
}

// truncate empties the file, keeping its storage for the rewrite.
func (ino *Inode) truncate() {
	ino.fold()
	ino.Data = ino.Data[:0]
}

// VFS is a flat ram-disk file system: the experiments store Redis dumps
// and Nginx documents on a ram-disk "minimizing I/O latency" (§5.1).
type VFS struct {
	files map[string]*Inode
	// free holds regular files' open file descriptions whose last
	// descriptor closed, for open(2) to reuse; it never outgrows the peak
	// number of open descriptions.
	free []*regularOpenFile
}

// NewVFS creates an empty file system.
func NewVFS() *VFS { return &VFS{files: make(map[string]*Inode)} }

// Create makes (or truncates) a file.
func (v *VFS) Create(name string) *Inode {
	ino := &Inode{Name: name}
	v.files[name] = ino
	return ino
}

// Lookup finds a file.
func (v *VFS) Lookup(name string) (*Inode, bool) {
	ino, ok := v.files[name]
	return ino, ok
}

// Remove deletes a file.
func (v *VFS) Remove(name string) error {
	if _, ok := v.files[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNoEnt, name)
	}
	delete(v.files, name)
	return nil
}

// WriteFile installs content directly (test/driver convenience).
func (v *VFS) WriteFile(name string, data []byte) {
	v.Create(name).Data = append([]byte(nil), data...)
}

// regularFile adapts an Inode + offset to the File interface.
type regularFile struct {
	ino *Inode
	of  *regularOpenFile // the description this file sits in
}

// regularOpenFile is a regular file's open file description with its
// regularFile inline, so an open(2) allocates at most once.
type regularOpenFile struct {
	OpenFile
	rf regularFile
}

// open returns a description of ino at offset 0, reusing one whose last
// descriptor closed.
func (v *VFS) open(ino *Inode) *OpenFile {
	var of *regularOpenFile
	if n := len(v.free); n > 0 {
		of = v.free[n-1]
		v.free[n-1] = nil
		v.free = v.free[:n-1]
	} else {
		of = &regularOpenFile{}
		of.File, of.rf.of = &of.rf, of
	}
	of.rf.ino = ino
	return &of.OpenFile
}

// Read copies from the inode at its description's offset and advances
// the offset. The per-byte ram-disk cost is charged to the caller.
func (f *regularFile) Read(k *Kernel, p *Proc, buf []byte) (int, error) {
	f.ino.fold()
	off := f.of.Offset
	if off >= uint64(len(f.ino.Data)) {
		return 0, nil
	}
	n := copy(buf, f.ino.Data[off:])
	f.of.Offset += uint64(n)
	p.Task.Book(sim.Time(n) * k.Machine.FSReadNsPerKB / 1024)
	return n, nil
}

// Write writes at its description's offset and advances the offset,
// leaving written bytes where they land. Once a file is longer
// than one extent, an append past cap(Data) goes into extents, which fold
// into Data once: the first 16.9 MB dump written to a path allocates its
// bytes about twice (extents, then Data with its headroom), where regrowing
// Data in slices.Grow's 1.25x steps would allocate them about six times.
// Any other write folds first and works on Data in place, growing it
// through slices.Grow.
// Truncation keeps the backing array, so any hole between the old end and
// the offset is zeroed: otherwise it would expose the bytes from before the
// truncate. The virtual-time charge depends on the length alone.
func (f *regularFile) Write(k *Kernel, p *Proc, buf []byte) (int, error) {
	ino, off := f.ino, f.of.Offset
	if ino.appendsToExtents(off, len(buf)) {
		ino.appendExtents(buf)
	} else {
		ino.fold()
		data := ino.Data
		if end := off + uint64(len(buf)); end > uint64(len(data)) {
			old := len(data)
			data = slices.Grow(data, int(end)-old)[:end]
			if off > uint64(old) {
				clear(data[old:off])
			}
			ino.Data = data
		}
		copy(data[off:], buf)
	}
	f.of.Offset += uint64(len(buf))
	p.Task.Book(sim.Time(len(buf)) * k.Machine.FSWriteNsPerKB / 1024)
	return len(buf), nil
}

// Close runs when an open file description's last descriptor is closed:
// it folds the file's pending appends into Data. No descriptor reaches
// the description any more, so it goes back to the kernel's VFS for the
// next open.
func (f *regularFile) Close(k *Kernel, _ *Proc) error {
	f.ino.fold()
	f.ino, f.of.Offset = nil, 0
	k.vfs.free = append(k.vfs.free, f.of)
	return nil
}
