package kernel_test

import (
	"errors"
	"testing"

	"ufork/internal/core"
	"ufork/internal/kernel"
	"ufork/internal/model"
	"ufork/internal/sim"
)

func TestDupSharesOffset(t *testing.T) {
	k := newKernel(1, kernel.IsolationFull)
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		fd, err := k.Open(p, "/f", true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.Write(p, fd, []byte("abcdef")); err != nil {
			t.Fatal(err)
		}
		dup, err := k.Dup(p, fd)
		if err != nil {
			t.Fatal(err)
		}
		// Writing through the dup continues at the shared offset.
		if _, err := k.Write(p, dup, []byte("XYZ")); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Write(p, fd, []byte("!")); err != nil {
			t.Fatal(err)
		}
		ino, _ := k.VFS().Lookup("/f")
		if string(ino.Data) != "abcdefXYZ!" {
			t.Fatalf("file = %q", ino.Data)
		}
		// Closing the original leaves the dup usable.
		if err := k.Close(p, fd); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Write(p, dup, []byte("?")); err != nil {
			t.Fatalf("write after closing twin: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
}

func TestDup2Daemonize(t *testing.T) {
	k := newKernel(1, kernel.IsolationFull)
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		// The U6 pattern: re-point stdout (fd 1) at a log file.
		logfd, err := k.Open(p, "/daemon.log", true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.Dup2(p, logfd, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Write(p, 1, []byte("daemon says hi\n")); err != nil {
			t.Fatal(err)
		}
		ino, ok := k.VFS().Lookup("/daemon.log")
		if !ok || string(ino.Data) != "daemon says hi\n" {
			t.Fatalf("log = %q", ino.Data)
		}
		// dup2 onto itself is a no-op.
		if fd, err := k.Dup2(p, logfd, logfd); err != nil || fd != logfd {
			t.Fatalf("self dup2: %d %v", fd, err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
}

func TestLseek(t *testing.T) {
	k := newKernel(1, kernel.IsolationFull)
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		fd, err := k.Open(p, "/s", true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.Write(p, fd, []byte("0123456789")); err != nil {
			t.Fatal(err)
		}
		if pos, err := k.Lseek(p, fd, 2, kernel.SeekSet); err != nil || pos != 2 {
			t.Fatalf("seek set: %d %v", pos, err)
		}
		buf := make([]byte, 3)
		if _, err := k.Read(p, fd, buf); err != nil || string(buf) != "234" {
			t.Fatalf("read after seek: %q %v", buf, err)
		}
		if pos, err := k.Lseek(p, fd, -2, kernel.SeekEnd); err != nil || pos != 8 {
			t.Fatalf("seek end: %d %v", pos, err)
		}
		if pos, err := k.Lseek(p, fd, 1, kernel.SeekCur); err != nil || pos != 9 {
			t.Fatalf("seek cur: %d %v", pos, err)
		}
		if _, err := k.Lseek(p, fd, -100, kernel.SeekSet); err == nil {
			t.Fatal("negative seek allowed")
		}
		// Pipes are not seekable.
		rfd, _, err := k.Pipe(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.Lseek(p, rfd, 0, kernel.SeekSet); err == nil {
			t.Fatal("seek on pipe allowed")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
}

func TestUnlinkAndStat(t *testing.T) {
	k := newKernel(1, kernel.IsolationFull)
	_, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		fd, err := k.Open(p, "/u", true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.Write(p, fd, []byte("payload")); err != nil {
			t.Fatal(err)
		}
		if size, err := k.Stat(p, "/u"); err != nil || size != 7 {
			t.Fatalf("stat: %d %v", size, err)
		}
		if err := k.Unlink(p, "/u"); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Stat(p, "/u"); !errors.Is(err, kernel.ErrNoEnt) {
			t.Fatalf("stat after unlink: %v", err)
		}
		// POSIX semantics: the open description still works post-unlink.
		if _, err := k.Write(p, fd, []byte("!")); err != nil {
			t.Fatalf("write after unlink: %v", err)
		}
		if err := k.Unlink(p, "/u"); !errors.Is(err, kernel.ErrNoEnt) {
			t.Fatalf("double unlink: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
}

// runFileOps runs ops in a fresh μprocess and reports the first syscall
// error after the run, so a failure cannot strand the engine mid-task.
func runFileOps(t *testing.T, ops func(k *kernel.Kernel, p *kernel.Proc) error) *kernel.Kernel {
	t.Helper()
	k := newKernel(1, kernel.IsolationFull)
	var opErr error
	if _, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) { opErr = ops(k, p) }); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if opErr != nil {
		t.Fatal(opErr)
	}
	return k
}

// writeFile recreates name (truncating it) and writes data at offset off.
func writeFile(k *kernel.Kernel, p *kernel.Proc, name string, off int64, data string) (int, error) {
	fd, err := k.Open(p, name, true)
	if err != nil {
		return -1, err
	}
	if _, err := k.Lseek(p, fd, off, kernel.SeekSet); err != nil {
		return -1, err
	}
	_, err = k.Write(p, fd, []byte(data))
	return fd, err
}

// TestTruncateHoleReadsZeros: truncation keeps the file's storage for the
// rewrite, so a write past EOF must zero the hole rather than expose the
// bytes written before the truncate.
func TestTruncateHoleReadsZeros(t *testing.T) {
	const want = "\x00\x00\x00\x00\x00\x00\x00\x00x"
	var read string
	k := runFileOps(t, func(k *kernel.Kernel, p *kernel.Proc) error {
		fd, err := writeFile(k, p, "/h", 0, "SECRETSECRET")
		if err != nil {
			return err
		}
		if err := k.Close(p, fd); err != nil {
			return err
		}
		if fd, err = writeFile(k, p, "/h", 8, "x"); err != nil {
			return err
		}
		if _, err := k.Lseek(p, fd, 0, kernel.SeekSet); err != nil {
			return err
		}
		buf := make([]byte, 16)
		n, err := k.Read(p, fd, buf)
		read = string(buf[:n])
		return err
	})
	ino, _ := k.VFS().Lookup("/h")
	if string(ino.Data) != want || read != want {
		t.Fatalf("file = %q, read back %q; want %q", ino.Data, read, want)
	}
}

// TestRewriteShorter: recreating a file and writing less than it held
// leaves exactly the new content, whichever way the length is asked for.
func TestRewriteShorter(t *testing.T) {
	var end, size uint64
	k := runFileOps(t, func(k *kernel.Kernel, p *kernel.Proc) error {
		fd, err := writeFile(k, p, "/r", 0, "0123456789")
		if err != nil {
			return err
		}
		if err := k.Close(p, fd); err != nil {
			return err
		}
		if fd, err = writeFile(k, p, "/r", 0, "abc"); err != nil {
			return err
		}
		if end, err = k.Lseek(p, fd, 0, kernel.SeekEnd); err != nil {
			return err
		}
		size, err = k.Stat(p, "/r")
		return err
	})
	ino, _ := k.VFS().Lookup("/r")
	if string(ino.Data) != "abc" || end != 3 || size != 3 {
		t.Fatalf("file = %q, seek end %d, stat %d; want %q, 3, 3", ino.Data, end, size, "abc")
	}
}

// TestWriteInsideFile: a write that ends before EOF overwrites in place
// and leaves the length alone.
func TestWriteInsideFile(t *testing.T) {
	var size uint64
	k := runFileOps(t, func(k *kernel.Kernel, p *kernel.Proc) error {
		fd, err := writeFile(k, p, "/w", 0, "0123456789")
		if err != nil {
			return err
		}
		if _, err := k.Lseek(p, fd, 3, kernel.SeekSet); err != nil {
			return err
		}
		if _, err := k.Write(p, fd, []byte("XY")); err != nil {
			return err
		}
		size, err = k.Stat(p, "/w")
		return err
	})
	ino, _ := k.VFS().Lookup("/w")
	if string(ino.Data) != "012XY56789" || size != 10 {
		t.Fatalf("file = %q, stat %d; want %q, 10", ino.Data, size, "012XY56789")
	}
}

// TestDupMetersFDTable: Dup, Dup2 and Lseek reach the descriptor table
// through the fdtable-lock brackets like every other syscall. On the
// split-lock machine each takes the lock (a Dup twice: lookup, install);
// on a BKL machine the fdtable shadow meter counts only fork fixups, so
// none of them moves it.
func TestDupMetersFDTable(t *testing.T) {
	for _, smp := range []bool{true, false} {
		m := model.UFork(1)
		if smp {
			m = model.UForkSMP(1)
		}
		k := kernel.New(kernel.Config{
			Machine:   m,
			Engine:    core.New(core.CopyOnPointerAccess),
			Isolation: kernel.IsolationFault,
			Frames:    1 << 12,
			Planes:    kernel.Planes{Locks: sim.NewLockTable()},
		})
		fdtable := func() uint64 {
			for _, s := range k.Lockstat() {
				if s.Name == "fdtable" {
					return s.Acquisitions
				}
			}
			return 0
		}
		got := map[string]uint64{}
		if _, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
			fd, err := k.Open(p, "/f", true)
			if err != nil {
				t.Error(err)
				return
			}
			for _, op := range []struct {
				name string
				call func() error
			}{
				{"dup", func() error { _, err := k.Dup(p, fd); return err }},
				{"dup2", func() error { _, err := k.Dup2(p, fd, fd+1); return err }},
				{"lseek", func() error { _, err := k.Lseek(p, fd, 0, kernel.SeekEnd); return err }},
			} {
				before := fdtable()
				if err := op.call(); err != nil {
					t.Errorf("%s: %v", op.name, err)
					return
				}
				got[op.name] = fdtable() - before
			}
		}); err != nil {
			t.Fatal(err)
		}
		k.Run()
		if smp && (got["dup"] != 2 || got["dup2"] == 0 || got["lseek"] != 1) {
			t.Errorf("split-lock fdtable acquisitions per call = %v, want dup 2, dup2 > 0, lseek 1", got)
		}
		if !smp && (got["dup"] != 0 || got["dup2"] != 0 || got["lseek"] != 0) {
			t.Errorf("BKL fdtable shadow meter moved: %v", got)
		}
	}
}
