package kernel

import (
	"fmt"
	"slices"

	"ufork/internal/obs/causal"
	"ufork/internal/sim"
)

// File is the kernel-internal file interface. Read and Write may block the
// calling process in virtual time (pipes, sockets).
type File interface {
	Read(k *Kernel, p *Proc, buf []byte) (int, error)
	Write(k *Kernel, p *Proc, buf []byte) (int, error)
	Close(k *Kernel, p *Proc) error
}

// OpenFile is one open file description: shared by parent and child after
// fork, exactly as POSIX dictates (offset and flags are per-description,
// not per-descriptor).
type OpenFile struct {
	File   File
	Offset uint64
	refs   int
}

// FDTable maps descriptor numbers to open file descriptions.
type FDTable struct {
	slots []*OpenFile
}

// NewFDTable creates an empty descriptor table.
func NewFDTable() *FDTable { return &FDTable{} }

// Install places of in the lowest free slot and returns its descriptor.
func (t *FDTable) Install(of *OpenFile) int {
	of.refs++
	for i, s := range t.slots {
		if s == nil {
			t.slots[i] = of
			return i
		}
	}
	t.slots = append(t.slots, of)
	return len(t.slots) - 1
}

// installAt places of at exactly the given slot, growing the table as
// needed. The slot must be free.
func (t *FDTable) installAt(of *OpenFile, fd int) {
	for len(t.slots) <= fd {
		t.slots = append(t.slots, nil)
	}
	of.refs++
	t.slots[fd] = of
}

// Get returns the open file for fd.
func (t *FDTable) Get(fd int) (*OpenFile, error) {
	if fd < 0 || fd >= len(t.slots) || t.slots[fd] == nil {
		return nil, fmt.Errorf("%w: %d", ErrBadFD, fd)
	}
	return t.slots[fd], nil
}

// Close removes fd, closing the description when the last reference drops.
func (t *FDTable) Close(k *Kernel, p *Proc, fd int) error {
	of, err := t.Get(fd)
	if err != nil {
		return err
	}
	t.slots[fd] = nil
	of.refs--
	if of.refs == 0 {
		return of.File.Close(k, p)
	}
	return nil
}

// CloseAll closes every descriptor (process exit).
func (t *FDTable) CloseAll(k *Kernel, p *Proc) {
	for fd := range t.slots {
		if t.slots[fd] != nil {
			_ = t.Close(k, p, fd)
		}
	}
}

// Dup duplicates the table for a forked child: descriptions are shared,
// reference counts bumped (POSIX fork semantics, §3.5 step 1).
func (t *FDTable) Dup() *FDTable {
	nt := &FDTable{slots: make([]*OpenFile, len(t.slots))}
	for i, of := range t.slots {
		if of != nil {
			of.refs++
			nt.slots[i] = of
		}
	}
	return nt
}

// Len returns the number of open descriptors.
func (t *FDTable) Len() int {
	n := 0
	for _, of := range t.slots {
		if of != nil {
			n++
		}
	}
	return n
}

// Console is the sink behind descriptors 0/1/2.
type Console struct {
	// Captured output, retained for tests.
	Out []byte
}

// Read always reports EOF-like zero bytes.
func (c *Console) Read(*Kernel, *Proc, []byte) (int, error) { return 0, nil }

// Write appends to the captured output.
func (c *Console) Write(_ *Kernel, _ *Proc, buf []byte) (int, error) {
	c.Out = append(c.Out, buf...)
	return len(buf), nil
}

// Close is a no-op.
func (c *Console) Close(*Kernel, *Proc) error { return nil }

// pipeCapacity matches the traditional 64 KiB pipe buffer.
const pipeCapacity = 64 * 1024

// sockBufBytes is the in-flight window of a simulated TCP connection: a
// writer with more data than this blocks until the remote side drains,
// which is the I/O yield that lets extra Nginx workers help even on a
// single core (§5.1, Fig. 7).
const sockBufBytes = 4 * 1024

// pipeCore is the shared buffer between the two pipe ends. The unread
// bytes are buf[off:]. A read that drains the buffer rewinds it to the
// front of its backing array, so a pipe that is filled and drained in
// turn (every socket window) reuses one array instead of reallocating.
type pipeCore struct {
	buf     []byte
	off     int
	cap     int
	readers int
	writers int
	rq, wq  sim.WaitQueue
	// stampTrace/stampPID carry the causal context of the most recent
	// traced writer, so a reader without its own op in flight joins the
	// writer's trace (httpd requests flow driver→worker this way). Zero
	// when tracing is off or the writer was untraced.
	stampTrace causal.TraceID
	stampPID   int32
}

// PipeReader is the read end of a pipe.
type PipeReader struct{ c *pipeCore }

// PipeWriter is the write end of a pipe.
type PipeWriter struct{ c *pipeCore }

// NewPipe creates a connected pipe pair with the classic 64 KiB buffer.
func NewPipe() (*PipeReader, *PipeWriter) {
	c := &pipeCore{cap: pipeCapacity, readers: 1, writers: 1}
	return &PipeReader{c}, &PipeWriter{c}
}

// unread returns the number of buffered bytes.
func (c *pipeCore) unread() int { return len(c.buf) - c.off }

// push appends b. When the backing array has no room at its end but
// already-read bytes sit at its front, the unread bytes slide down first,
// so the array grows only when the unread bytes alone need more room.
func (c *pipeCore) push(b []byte) {
	if c.off > 0 && len(c.buf)+len(b) > cap(c.buf) {
		n := copy(c.buf, c.buf[c.off:])
		c.buf, c.off = c.buf[:n], 0
	}
	c.buf = append(c.buf, b...)
}

// pop copies up to len(b) unread bytes into b.
func (c *pipeCore) pop(b []byte) int {
	n := copy(b, c.buf[c.off:])
	c.off += n
	if c.off == len(c.buf) {
		c.buf, c.off = c.buf[:0], 0
	}
	return n
}

// Read blocks (in virtual time) until data is available or all writers
// have closed. A read that blocked pays the machine's context-switch cost
// when it resumes — on the multi-address-space baseline that includes the
// page-table switch and TLB flush, the cost Fig. 9's Context1 benchmark
// isolates.
func (r *PipeReader) Read(k *Kernel, p *Proc, buf []byte) (int, error) {
	c := r.c
	blocked := false
	for c.unread() == 0 {
		if c.writers == 0 {
			return 0, nil // EOF
		}
		blockAccounted(p, blockPipe, func() { c.rq.Wait(p.Task) })
		blocked = true
	}
	if blocked {
		k.chargeSwitch(p)
	}
	n := c.pop(buf)
	p.Task.Book(sim.Time(n) * k.Machine.PipeByte)
	c.wq.WakeAll(p.Task, p.Task.Now())
	if c.stampTrace != 0 {
		// Data carried a traced writer's context across the pipe: a reader
		// with no op of its own joins that trace (no-op otherwise).
		k.causalAdopt(p, causal.EdgePipe, c.stampTrace, c.stampPID)
	}
	return n, nil
}

// Write is not permitted on the read end.
func (r *PipeReader) Write(*Kernel, *Proc, []byte) (int, error) {
	return 0, fmt.Errorf("%w: write to pipe read end", ErrBadFD)
}

// Close drops the reader.
func (r *PipeReader) Close(_ *Kernel, p *Proc) error {
	r.c.readers--
	if r.c.readers == 0 && !r.c.wq.Empty() {
		r.c.wq.WakeAll(p.Task, p.Task.Now())
	}
	return nil
}

// Read is not permitted on the write end.
func (w *PipeWriter) Read(*Kernel, *Proc, []byte) (int, error) {
	return 0, fmt.Errorf("%w: read from pipe write end", ErrBadFD)
}

// Write blocks while the pipe is full and readers remain.
func (w *PipeWriter) Write(k *Kernel, p *Proc, buf []byte) (int, error) {
	c := w.c
	if s := k.causalSpan(p); s != nil {
		c.stampTrace, c.stampPID = s.Trace(), int32(p.PID)
	}
	total := 0
	for len(buf) > 0 {
		if c.readers == 0 {
			return total, ErrPipeClosed // EPIPE
		}
		space := c.cap - c.unread()
		if space == 0 {
			blockAccounted(p, blockPipe, func() { c.wq.Wait(p.Task) })
			k.chargeSwitch(p)
			continue
		}
		n := len(buf)
		if n > space {
			n = space
		}
		c.push(buf[:n])
		buf = buf[n:]
		total += n
		p.Task.Book(sim.Time(n) * k.Machine.PipeByte)
		c.rq.WakeAll(p.Task, p.Task.Now())
	}
	return total, nil
}

// Close drops the writer, waking blocked readers so they observe EOF.
func (w *PipeWriter) Close(_ *Kernel, p *Proc) error {
	w.c.writers--
	if w.c.writers == 0 && !w.c.rq.Empty() {
		w.c.rq.WakeAll(p.Task, p.Task.Now())
	}
	return nil
}

// Conn is one direction-pair simulated network connection (the accept side
// of the HTTP experiments). Internally it is two pipes.
type Conn struct {
	in  PipeReader // data from the client
	out PipeWriter // data to the client
	// of is the open file description Accept installs, allocated with
	// the connection and cleared when its pair is reused.
	of OpenFile
	sp *sockPair
}

// ClientConn is the client's half.
type ClientConn struct {
	out PipeWriter // data to the server
	in  PipeReader // data from the server
	sp  *sockPair
}

// sockPair is everything one connection owns, allocated at once: both
// direction buffers and the two halves that hold their ends. A pair made
// by Listener.Connect goes back to its listener's free list when its last
// end closes (see release).
type sockPair struct {
	up, down pipeCore // client to server, server to client
	srv      Conn
	cli      ClientConn
	l        *Listener // nil for a bare NewConn pair, which is never reused
}

// NewConn builds a connected (server, client) socket pair. Both directions
// carry a TCP-window-sized buffer, so bulk responses block the server until
// the client drains.
func NewConn() (*Conn, *ClientConn) {
	sp := newSockPair(nil)
	return &sp.srv, &sp.cli
}

// newSockPair allocates an open pair that goes back to l when closed, or
// to the GC when l is nil.
func newSockPair(l *Listener) *sockPair {
	sp := &sockPair{l: l}
	sp.srv = Conn{in: PipeReader{&sp.up}, out: PipeWriter{&sp.down}, sp: sp}
	sp.cli = ClientConn{out: PipeWriter{&sp.up}, in: PipeReader{&sp.down}, sp: sp}
	sp.reset()
	return sp
}

// reset makes the pair a fresh open connection: empty buffers that keep
// their backing arrays, every end open once, no causal stamp and no open
// file description.
func (sp *sockPair) reset() {
	for _, c := range [...]*pipeCore{&sp.up, &sp.down} {
		c.buf, c.off, c.cap = c.buf[:0], 0, sockBufBytes
		c.readers, c.writers = 1, 1
		c.stampTrace, c.stampPID = 0, 0
	}
	sp.srv.of = OpenFile{}
}

// release runs after one half closed. Once every end is closed exactly
// once and nobody waits on either direction, no descriptor, client handle
// or parked task can reach the pair any more, so it goes back to its
// listener. Each count is tested on its own: a double close drives one
// below zero while another is still open, and their sum can be zero.
func (sp *sockPair) release() {
	l, up, down := sp.l, &sp.up, &sp.down
	if l == nil || l.closed ||
		up.readers != 0 || up.writers != 0 || down.readers != 0 || down.writers != 0 ||
		!up.rq.Empty() || !up.wq.Empty() || !down.rq.Empty() || !down.wq.Empty() {
		return
	}
	sp.reset()
	l.free = append(l.free, sp)
}

// Read receives from the client.
func (c *Conn) Read(k *Kernel, p *Proc, buf []byte) (int, error) {
	return c.in.Read(k, p, buf)
}

// Write sends to the client.
func (c *Conn) Write(k *Kernel, p *Proc, buf []byte) (int, error) {
	return c.out.Write(k, p, buf)
}

// Close tears down both directions.
func (c *Conn) Close(k *Kernel, p *Proc) error {
	_ = c.in.Close(k, p)
	_ = c.out.Close(k, p)
	c.sp.release()
	return nil
}

// Send writes request bytes from the (driver-side) client.
func (c *ClientConn) Send(k *Kernel, p *Proc, buf []byte) (int, error) {
	return c.out.Write(k, p, buf)
}

// Recv reads response bytes on the client.
func (c *ClientConn) Recv(k *Kernel, p *Proc, buf []byte) (int, error) {
	return c.in.Read(k, p, buf)
}

// CloseClient tears down the client half.
func (c *ClientConn) CloseClient(k *Kernel, p *Proc) error {
	_ = c.out.Close(k, p)
	_ = c.in.Close(k, p)
	c.sp.release()
	return nil
}

// Listener is a simulated listening socket with an accept queue.
type Listener struct {
	backlog []*Conn
	aq      sim.WaitQueue
	closed  bool
	// free holds this listener's closed socket pairs for Connect to
	// reuse; it never outgrows the peak number of open connections.
	free []*sockPair
}

// NewListener creates a listening socket.
func NewListener() *Listener { return &Listener{} }

// Connect enqueues a new connection from the driver and returns the
// client half. Exactly one blocked acceptor is woken (no thundering
// herd), in FIFO order, so load rotates across workers.
func (l *Listener) Connect(p *Proc) *ClientConn {
	var sp *sockPair
	if n := len(l.free); n > 0 {
		sp = l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
	} else {
		sp = newSockPair(l)
	}
	l.backlog = append(l.backlog, &sp.srv)
	l.aq.WakeOne(p.Task, p.Task.Now())
	return &sp.cli
}

// Accept blocks until a connection arrives, then returns its server half.
func (l *Listener) Accept(p *Proc) (*Conn, error) {
	blocked := false
	for len(l.backlog) == 0 {
		if l.closed {
			return nil, ErrPipeClosed
		}
		blockAccounted(p, blockNet, func() { l.aq.Wait(p.Task) })
		blocked = true
	}
	if blocked {
		p.k.chargeSwitch(p)
	}
	c := l.backlog[0]
	l.backlog = slices.Delete(l.backlog, 0, 1)
	return c, nil
}

// Shutdown closes the listener, waking blocked accepts, and drops the
// pairs kept for reuse.
func (l *Listener) Shutdown(p *Proc) {
	l.closed, l.free = true, nil
	l.aq.WakeAll(p.Task, p.Task.Now())
}

// Read is not supported on listeners.
func (l *Listener) Read(*Kernel, *Proc, []byte) (int, error) { return 0, ErrNotSocket }

// Write is not supported on listeners.
func (l *Listener) Write(*Kernel, *Proc, []byte) (int, error) { return 0, ErrNotSocket }

// Close shuts the listener down.
func (l *Listener) Close(_ *Kernel, p *Proc) error {
	l.Shutdown(p)
	return nil
}
