package kernel

import "fmt"

// Whence values for Lseek.
const (
	// SeekSet positions relative to the file start.
	SeekSet = 0
	// SeekCur positions relative to the current offset.
	SeekCur = 1
	// SeekEnd positions relative to the file end.
	SeekEnd = 2
)

// Dup duplicates a descriptor onto the lowest free slot, sharing the open
// file description (offset included).
func (k *Kernel) Dup(p *Proc, fd int) (int, error) {
	k.enter(p, SysDup, 0)
	defer k.leave(p)
	of, err := k.fdGet(p, fd)
	if err != nil {
		return -1, err
	}
	return k.fdInstall(p, of), nil
}

// Dup2 duplicates oldfd onto newfd, closing whatever newfd held. Used by
// daemonizing servers to re-point stdio (§2.1 pattern U6).
func (k *Kernel) Dup2(p *Proc, oldfd, newfd int) (int, error) {
	k.enter(p, SysDup2, 0)
	defer k.leave(p)
	of, err := k.fdGet(p, oldfd)
	if err != nil {
		return -1, err
	}
	if oldfd == newfd {
		return newfd, nil
	}
	if newfd < 0 {
		return -1, fmt.Errorf("%w: %d", ErrBadFD, newfd)
	}
	// Close the target slot if occupied, then install at exactly newfd.
	if _, err := k.fdGet(p, newfd); err == nil {
		if err := k.fdClose(p, newfd); err != nil {
			return -1, err
		}
	}
	k.fdInstallAt(p, of, newfd)
	return newfd, nil
}

// Lseek repositions a regular file's offset.
func (k *Kernel) Lseek(p *Proc, fd int, offset int64, whence int) (uint64, error) {
	k.enter(p, SysLseek, 0)
	defer k.leave(p)
	of, err := k.fdGet(p, fd)
	if err != nil {
		return 0, err
	}
	rf, ok := of.File.(*regularFile)
	if !ok {
		return 0, fmt.Errorf("%w: lseek on non-seekable fd %d", ErrBadFD, fd)
	}
	var base int64
	switch whence {
	case SeekSet:
		base = 0
	case SeekCur:
		base = int64(of.Offset)
	case SeekEnd:
		rf.ino.fold()
		base = int64(len(rf.ino.Data))
	default:
		return 0, fmt.Errorf("kernel: bad whence %d", whence)
	}
	pos := base + offset
	if pos < 0 {
		return 0, fmt.Errorf("kernel: seek before start")
	}
	of.Offset = uint64(pos)
	return of.Offset, nil
}

// Unlink removes a file from the ram disk. Open descriptions keep their
// inode alive (POSIX unlink semantics) since they hold it directly.
func (k *Kernel) Unlink(p *Proc, name string) error {
	k.enter(p, SysUnlink, len(name))
	defer k.leave(p)
	return k.vfs.Remove(name)
}

// Stat reports a file's size.
func (k *Kernel) Stat(p *Proc, name string) (size uint64, err error) {
	k.enter(p, SysStat, len(name))
	defer k.leave(p)
	ino, ok := k.vfs.Lookup(name)
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoEnt, name)
	}
	ino.fold()
	return uint64(len(ino.Data)), nil
}
