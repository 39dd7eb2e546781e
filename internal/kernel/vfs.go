package kernel

import (
	"fmt"
	"slices"
	"sort"

	"ufork/internal/sim"
)

// Inode is one ram-disk file.
type Inode struct {
	Name string
	// Data is the live file contents, not a snapshot: it is valid only
	// until the next write or truncate of this file, which may reuse or
	// reallocate its backing array. A caller that keeps it must copy it.
	Data []byte
}

// VFS is a flat ram-disk file system: the experiments store Redis dumps
// and Nginx documents on a ram-disk "minimizing I/O latency" (§5.1).
type VFS struct {
	files map[string]*Inode
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

// Names lists all files in sorted order.
func (v *VFS) Names() []string {
	out := make([]string, 0, len(v.files))
	for name := range v.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// WriteFile installs content directly (test/driver convenience).
func (v *VFS) WriteFile(name string, data []byte) {
	v.Create(name).Data = append([]byte(nil), data...)
}

// regularFile adapts an Inode + offset to the File interface.
type regularFile struct {
	ino *Inode
}

// regularOpenFile is a regular file's open file description with its
// regularFile inline, so an open(2) allocates once.
type regularOpenFile struct {
	OpenFile
	rf regularFile
}

// Read copies from the inode at the description's offset. The per-byte
// ram-disk cost is charged to the caller.
func (f *regularFile) Read(k *Kernel, p *Proc, buf []byte) (int, error) {
	return 0, fmt.Errorf("kernel: regularFile.Read must go through OpenFile")
}

func (f *regularFile) Write(k *Kernel, p *Proc, buf []byte) (int, error) {
	return 0, fmt.Errorf("kernel: regularFile.Write must go through OpenFile")
}

func (f *regularFile) Close(*Kernel, *Proc) error { return nil }

// readAt / writeAt implement offset-aware I/O; the syscall layer resolves
// the OpenFile offset.
func (f *regularFile) readAt(k *Kernel, p *Proc, off uint64, buf []byte) int {
	if off >= uint64(len(f.ino.Data)) {
		return 0
	}
	n := copy(buf, f.ino.Data[off:])
	p.Task.Book(sim.Time(n) * k.Machine.FSReadNsPerKB / 1024)
	return n
}

// writeAt grows the file geometrically through slices.Grow, so a file
// written sequentially costs amortised host time in proportion to its
// length. The growth factor is append's: about 1.25x once the file is
// large, so the first 16.9 MB dump written to a path allocates about
// 95 MiB of backing arrays on its way up. Truncation
// keeps the backing array, so any hole between the old end and off is
// zeroed: otherwise it would expose the bytes from before the truncate.
func (f *regularFile) writeAt(k *Kernel, p *Proc, off uint64, buf []byte) int {
	data := f.ino.Data
	if end := off + uint64(len(buf)); end > uint64(len(data)) {
		old := len(data)
		data = slices.Grow(data, int(end)-old)[:end]
		if off > uint64(old) {
			clear(data[old:off])
		}
		f.ino.Data = data
	}
	copy(data[off:], buf)
	p.Task.Book(sim.Time(len(buf)) * k.Machine.FSWriteNsPerKB / 1024)
	return len(buf)
}
