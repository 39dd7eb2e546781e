package kernel_test

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"ufork/internal/kernel"
	"ufork/internal/sim"
)

// pattern returns n bytes that differ from their neighbours, so a byte
// delivered out of order or twice shows.
func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 7 / 3)
	}
	return b
}

// TestSocketBytesStayFIFO moves bytes through one direction of a socket
// in uneven pieces: partial reads leave unread bytes behind, a write then
// has to slide them to the front of the buffer, and a full drain is
// followed by a refill.
func TestSocketBytesStayFIFO(t *testing.T) {
	k := newKernel(1, kernel.IsolationFault)
	srv, cli := kernel.NewConn()
	want := pattern(20000)
	var got []byte
	if _, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		src := want
		send := func(n int) {
			if _, err := srv.Write(k, p, src[:n]); err != nil {
				t.Errorf("write %d: %v", n, err)
			}
			src = src[n:]
		}
		recv := func(n int) {
			buf := make([]byte, n)
			m, err := cli.Recv(k, p, buf)
			if err != nil || m == 0 {
				t.Errorf("recv %d: n=%d err=%v", n, m, err)
			}
			got = append(got, buf[:m]...)
		}
		send(4096)    // fill the window
		recv(1000)    // partial read
		send(1000)    // refill behind unread bytes
		recv(3)       // tiny partial read
		recv(4096)    // drain
		send(1)       // refill after a drain
		recv(4096)    // read less than asked
		for range 3 { // window-sized rounds
			send(4096)
			recv(2048)
			recv(4096)
		}
		send(len(src))
		recv(4096)
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("received %d bytes, want %d; first difference at byte %d", len(got), len(want), i)
	}
}

// TestSocketWindowBlocksWriter sends a 16 KiB response through the 4 KiB
// socket window. The writer must block until the reader drains, and both
// sides must reach the virtual times pinned below, which the socket had
// before its buffers were pooled into one allocation.
func TestSocketWindowBlocksWriter(t *testing.T) {
	k := newKernel(2, kernel.IsolationFault)
	srv, cli := kernel.NewConn()
	resp := pattern(16 * 1024)
	var (
		wroteAt sim.Time
		blocked uint64
		readAt  []sim.Time
		got     []byte
	)
	if _, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		if n, err := srv.Write(k, p, resp); err != nil || n != len(resp) {
			t.Errorf("write: n=%d err=%v", n, err)
		}
		wroteAt = p.Now()
		blocked = p.Acct.BlockPipeNS.Value()
		_ = srv.Close(k, p)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		buf := make([]byte, 4096)
		for {
			n, err := cli.Recv(k, p, buf)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			if n == 0 {
				break // EOF once the writer closed
			}
			got = append(got, buf[:n]...)
			readAt = append(readAt, p.Now())
		}
		_ = cli.CloseClient(k, p)
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if !bytes.Equal(got, resp) {
		t.Fatalf("received %d bytes, want the %d sent", len(got), len(resp))
	}
	if blocked == 0 {
		t.Errorf("writer never blocked on the %d-byte window", 4096)
	}
	wantReads := []sim.Time{4096, 16948, 29800, 42652}
	const wantWrote sim.Time = 36226 // after the third read drained room for the last 4 KiB
	if !slices.Equal(readAt, wantReads) || wroteAt != wantWrote {
		t.Errorf("reads at %v, write done at %d; want %v and %d", readAt, wroteAt, wantReads, wantWrote)
	}
}

// TestSocketCloseSemantics: a reader sees EOF once the peer's writer
// closes, even when it was blocked waiting, and a writer gets
// ErrPipeClosed once the peer's reader has closed.
func TestSocketCloseSemantics(t *testing.T) {
	k := newKernel(2, kernel.IsolationFault)
	srv, cli := kernel.NewConn()
	srv2, cli2 := kernel.NewConn()
	if _, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		// Blocks until the other process closes its end.
		buf := make([]byte, 16)
		if n, err := cli.Recv(k, p, buf); n != 0 || err != nil {
			t.Errorf("recv after the writer closed: n=%d err=%v, want EOF", n, err)
		}
		_ = cli.CloseClient(k, p)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		p.Compute(10 * sim.Microsecond)
		_ = srv.Close(k, p)

		_ = cli2.CloseClient(k, p)
		if _, err := srv2.Write(k, p, []byte("x")); !errors.Is(err, kernel.ErrPipeClosed) {
			t.Errorf("write after the reader closed: %v, want ErrPipeClosed", err)
		}
		if n, err := srv2.Read(k, p, make([]byte, 4)); n != 0 || err != nil {
			t.Errorf("read after the client closed: n=%d err=%v, want EOF", n, err)
		}
		_ = srv2.Close(k, p)
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
}
