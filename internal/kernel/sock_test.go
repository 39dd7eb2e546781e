package kernel_test

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"ufork/internal/kernel"
	"ufork/internal/obs/causal"
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

// windowRun is what one 16 KiB response through the 4 KiB socket window
// looked like from both ends.
type windowRun struct {
	start, wroteAt, closedAt, eofAt sim.Time
	blocked                         uint64
	readAt                          []sim.Time
	got, resp                       []byte
}

// sendThroughWindow spawns, at virtual time start, a writer that gets a
// connection from open, sends a 16 KiB response through its server half
// and closes it, and a reader that receives on the client half until EOF.
// The writer runs first (lower task ID at the same clock), so the client
// half is set before the reader looks at it.
func sendThroughWindow(t *testing.T, k *kernel.Kernel, start sim.Time, open func(*kernel.Proc) (*kernel.Conn, *kernel.ClientConn)) *windowRun {
	r := &windowRun{start: start, resp: pattern(16 * 1024)}
	var cli *kernel.ClientConn
	if _, err := k.Spawn(kernel.HelloWorldSpec(), start, func(p *kernel.Proc) {
		var srv *kernel.Conn
		srv, cli = open(p)
		if n, err := srv.Write(k, p, r.resp); err != nil || n != len(r.resp) {
			t.Errorf("write: n=%d err=%v", n, err)
		}
		r.wroteAt = p.Now()
		r.blocked = p.Acct.BlockPipeNS.Value()
		_ = srv.Close(k, p)
		r.closedAt = p.Now()
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Spawn(kernel.HelloWorldSpec(), start, func(p *kernel.Proc) {
		buf := make([]byte, 4096)
		for {
			n, err := cli.Recv(k, p, buf)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			if n == 0 {
				r.eofAt = p.Now() // EOF once the writer closed
				break
			}
			r.got = append(r.got, buf[:n]...)
			r.readAt = append(r.readAt, p.Now())
		}
		_ = cli.CloseClient(k, p)
	}); err != nil {
		t.Fatal(err)
	}
	return r
}

// check holds the run to the virtual times pinned below, measured from
// the processes' start, which the socket had before its buffers were
// pooled into one allocation.
func (r *windowRun) check(t *testing.T) {
	t.Helper()
	if !bytes.Equal(r.got, r.resp) {
		t.Fatalf("received %d bytes, want the %d sent", len(r.got), len(r.resp))
	}
	if r.blocked == 0 {
		t.Errorf("writer never blocked on the %d-byte window", 4096)
	}
	if r.eofAt < r.closedAt {
		t.Errorf("EOF at %d, before the writer closed at %d", r.eofAt, r.closedAt)
	}
	wantReads := []sim.Time{4096, 16948, 29800, 42652}
	const wantWrote sim.Time = 36226 // after the third read drained room for the last 4 KiB
	readAt := make([]sim.Time, len(r.readAt))
	for i, at := range r.readAt {
		readAt[i] = at - r.start
	}
	if wrote := r.wroteAt - r.start; !slices.Equal(readAt, wantReads) || wrote != wantWrote {
		t.Errorf("reads at %v, write done at %d; want %v and %d", readAt, wrote, wantReads, wantWrote)
	}
}

// TestSocketWindowBlocksWriter sends a 16 KiB response through the 4 KiB
// socket window. The writer must block until the reader drains, and both
// sides must reach the pinned virtual times.
func TestSocketWindowBlocksWriter(t *testing.T) {
	k := newKernel(2, kernel.IsolationFault)
	srv, cli := kernel.NewConn()
	r := sendThroughWindow(t, k, 0, func(*kernel.Proc) (*kernel.Conn, *kernel.ClientConn) { return srv, cli })
	k.Run()
	r.check(t)
}

// TestRecycledConnStartsClean: a connection closed with unread bytes in
// both directions and a traced writer's causal stamp hands its socket pair
// to the next connection. That connection must see only its own bytes,
// EOF only once its own writer closes, the fresh window's timings, and no
// stamp: its untraced reader must not join the first writer's trace,
// which is still open.
func TestRecycledConnStartsClean(t *testing.T) {
	pl := causal.New(0)
	k := newKernelWith(2, kernel.IsolationFault, kernel.Planes{Causal: pl})
	l := kernel.NewListener()
	const start = sim.Millisecond
	var first *kernel.ClientConn
	if _, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		k.TraceBegin(p, "sock-test", "stale")
		first = l.Connect(p)
		srv, err := l.Accept(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := first.Send(k, p, []byte("stale request")); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Write(k, p, []byte("stale response")); err != nil {
			t.Fatal(err)
		}
		_ = srv.Close(k, p)
		_ = first.CloseClient(k, p)
		// Keep the trace open until the second connection is done.
		p.Task.Advance(2*start - p.Now())
		p.Task.Sync()
		k.TraceEnd(p)
	}); err != nil {
		t.Fatal(err)
	}
	r := sendThroughWindow(t, k, start, func(p *kernel.Proc) (*kernel.Conn, *kernel.ClientConn) {
		cli := l.Connect(p)
		if cli != first {
			t.Errorf("the second connection got a new socket pair, want the first one's")
		}
		srv, err := l.Accept(p)
		if err != nil {
			t.Fatal(err)
		}
		return srv, cli
	})
	k.Run()
	r.check(t)
	tr := pl.Snapshot(0).Groups[0].Traces[0]
	if len(tr.Spans) != 1 || len(tr.Edges) != 0 {
		t.Errorf("the first writer's trace has %d spans and edges %+v, want its root alone", len(tr.Spans), tr.Edges)
	}
}

// TestHalfClosedConnNotRecycled: while the server still reads a
// connection whose client has closed, the pair stays with it; it goes back
// to the listener only once the server closes too.
func TestHalfClosedConnNotRecycled(t *testing.T) {
	k := newKernel(1, kernel.IsolationFault)
	l := kernel.NewListener()
	if _, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		cli := l.Connect(p)
		srv, err := l.Accept(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Send(k, p, []byte("req")); err != nil {
			t.Fatal(err)
		}
		_ = cli.CloseClient(k, p)
		if other := l.Connect(p); other == cli {
			t.Fatal("a connection reused the pair of a half-closed one")
		}
		buf := make([]byte, 8)
		if n, err := srv.Read(k, p, buf); err != nil || string(buf[:n]) != "req" {
			t.Errorf("server read %q, %v after the client closed; want \"req\"", buf[:n], err)
		}
		if n, err := srv.Read(k, p, buf); n != 0 || err != nil {
			t.Errorf("second read: n=%d err=%v, want EOF", n, err)
		}
		_ = srv.Close(k, p)
		if again := l.Connect(p); again != cli {
			t.Error("a fully closed pair was not reused")
		}
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
}

// TestDoubleClosedConnNotRecycled: closing the server half twice leaves
// its two counts at -1 and the client's at 1. They sum to zero, but the
// pair is still open at the client, so it must not be reused; nor once
// the client closes too, since the counts are then -1 and 0.
func TestDoubleClosedConnNotRecycled(t *testing.T) {
	k := newKernel(1, kernel.IsolationFault)
	l := kernel.NewListener()
	if _, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		cli := l.Connect(p)
		srv, err := l.Accept(p)
		if err != nil {
			t.Fatal(err)
		}
		_ = srv.Close(k, p)
		_ = srv.Close(k, p)
		if l.Connect(p) == cli {
			t.Fatal("a double-closed pair was reused while its client was open")
		}
		_ = cli.CloseClient(k, p)
		if l.Connect(p) == cli {
			t.Fatal("a double-closed pair was reused")
		}
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
}

var (
	cycleReq  = []byte("GET / HTTP/1.0\r\n\r\n")
	cycleResp = []byte("HTTP/1.0 200 OK\r\n\r\n")
)

// connCycle is one connection's life as httpd sees it: the client
// connects and sends a request, a worker accepts it through the
// descriptor table, reads it, answers and closes, and the client reads
// the answer and closes.
func connCycle(tb testing.TB, k *kernel.Kernel, p *kernel.Proc, l *kernel.Listener, lfd int, buf []byte) {
	cli := l.Connect(p)
	req, resp := cycleReq, cycleResp
	if _, err := cli.Send(k, p, req); err != nil {
		tb.Fatal(err)
	}
	cfd, err := k.Accept(p, lfd)
	if err != nil {
		tb.Fatal(err)
	}
	if n, err := k.Read(p, cfd, buf); err != nil || n != len(req) {
		tb.Fatalf("server read %d bytes, %v; want %d", n, err, len(req))
	}
	if _, err := k.Write(p, cfd, resp); err != nil {
		tb.Fatal(err)
	}
	if err := k.Close(p, cfd); err != nil {
		tb.Fatal(err)
	}
	if n, err := cli.Recv(k, p, buf); err != nil || n != len(resp) {
		tb.Fatalf("client received %d bytes, %v; want %d", n, err, len(resp))
	}
	_ = cli.CloseClient(k, p)
}

// TestConnCycleAllocs: once a listener has a closed pair to reuse, a
// connection's whole life allocates nothing on the host.
func TestConnCycleAllocs(t *testing.T) {
	k := newKernel(1, kernel.IsolationFault)
	var allocs float64
	if _, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		lfd, l := k.Listen(p)
		buf := make([]byte, 64)
		allocs = testing.AllocsPerRun(100, func() { connCycle(t, k, p, l, lfd, buf) })
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if allocs != 0 {
		t.Fatalf("a connection cycle allocates %v objects, want 0", allocs)
	}
}

// BenchmarkConnCycle times one connection's life through a listener that
// reuses closed pairs.
//
//	go test ./internal/kernel -run xxx -bench ConnCycle -benchmem
func BenchmarkConnCycle(b *testing.B) {
	k := newKernel(1, kernel.IsolationFault)
	if _, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		lfd, l := k.Listen(p)
		buf := make([]byte, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			connCycle(b, k, p, l, lfd, buf)
		}
		b.StopTimer()
	}); err != nil {
		b.Fatal(err)
	}
	k.Run()
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
