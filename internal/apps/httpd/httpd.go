// Package httpd is the Nginx-stand-in workload: a master process forks
// long-lived worker processes that accept connections from a shared
// listening socket and serve static files from the ram-disk (§2.1 pattern
// U2, evaluated in §5.1 "Nginx multi-worker deployments").
//
// Workers block in accept and in socket reads, yielding the CPU — which is
// why even on a single core more workers raise throughput (the paper's
// 15.6% observation): one worker's I/O wait overlaps another's parsing.
// Every server-side operation goes through the kernel syscall layer, so
// the trap-vs-sealed-capability entry cost separates the systems (§4.4).
package httpd

import (
	"bytes"
	"errors"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf8"

	"ufork/internal/kernel"
	"ufork/internal/sim"
)

// parseCost is the CPU time a worker spends parsing a request and building
// response headers (calibrated so single-core request service is dominated
// by CPU with small I/O gaps, Fig. 7).
const parseCost = 18 * sim.Microsecond

// Server is the master process state.
type Server struct {
	Listener *kernel.Listener
	ListenFD int
	// Workers holds the PIDs of forked workers.
	Workers []kernel.PID
	// Served counts responses per worker index (written by workers; safe
	// because the simulation serializes task execution).
	Served []int
}

// Start forks n workers off the master process. Each worker loops
// accepting and serving until the listener shuts down. Workers inherit
// the listening descriptor through fork, as Nginx workers do.
func Start(p *kernel.Proc, n int) (*Server, error) {
	k := p.Kernel()
	lfd, l := k.Listen(p)
	s := &Server{Listener: l, ListenFD: lfd, Served: make([]int, n)}
	for i := 0; i < n; i++ {
		idx := i
		pid, err := k.Fork(p, func(w *kernel.Proc) {
			s.Served[idx] = workerLoop(w, lfd)
		})
		if err != nil {
			return nil, err
		}
		s.Workers = append(s.Workers, pid)
	}
	return s, nil
}

// Request-path byte counts. Each is one syscall's buffer length, and pipe
// and ram-disk reads charge per byte moved, so changing any of them moves
// virtual time.
const (
	reqBytes   = 1024      // the request read, and each later PUT body read
	chunkBytes = 16 * 1024 // each file read of a GET
	recvBytes  = 4096      // each client receive
)

// Status lines of the replies.
const (
	statusOK         = "HTTP/1.0 200 OK"
	statusCreated    = "HTTP/1.0 201 Created"
	statusBadRequest = "HTTP/1.0 400 Bad Request"
	statusNotFound   = "HTTP/1.0 404 Not Found"
	statusServerErr  = "HTTP/1.0 500 Internal Server Error"
)

// maxBodyPrealloc bounds the body roundTrip allocates from the length a
// head announces, before the bytes arrive. A longer body is gathered as
// it arrives, so a wrong Content-Length cannot make the client allocate
// what the server never sends.
const maxBodyPrealloc = 1 << 20

// Constant replies.
var (
	replyBadRequest = []byte(statusBadRequest + "\r\n\r\n")
	replyNotFound   = []byte(statusNotFound + "\r\n\r\n")
	replyServerErr  = []byte(statusServerErr + "\r\n\r\n")
	replyCreated    = []byte(statusCreated + "\r\nContent-Length: 0\r\n\r\n")
)

var (
	errEmptyRequest = errors.New("httpd: empty request")
	errTruncatedPut = errors.New("httpd: truncated PUT body")
)

// scratch is one worker's request buffers. A worker serves one request at
// a time and every syscall copies what it is handed, so nothing in them
// outlives the request that filled them.
type scratch struct {
	req  [reqBytes]byte
	body []byte // the GET response body or the PUT request body
	head []byte // the GET response header
}

// workerLoop accepts and serves connections until the listener closes.
// Returns the number of requests served. Injected EINTR on the accept
// path is retried — a worker dropping out of the fleet on a chaos-
// interrupted accept would silently shrink capacity for the rest of the
// run, which is not how a real pre-fork server treats EINTR.
func workerLoop(w *kernel.Proc, lfd int) int {
	k := w.Kernel()
	s := new(scratch)
	served := 0
	for {
		cfd, err := k.Accept(w, lfd)
		if err != nil {
			if errors.Is(err, kernel.ErrInterrupted) {
				continue
			}
			return served // listener shut down
		}
		if err := s.serveConn(w, cfd); err == nil {
			served++
		}
		_ = k.Close(w, cfd)
	}
}

// serveConn reads one request from the connection descriptor, resolves
// the path and writes the response. GET serves the file; PUT replaces
// it (the write-op half of the YCSB mixes the load harness drives). An
// interrupted read of the request has consumed nothing and is retried,
// as workerLoop retries an interrupted accept.
func (s *scratch) serveConn(w *kernel.Proc, cfd int) error {
	k := w.Kernel()
	n, err := k.Read(w, cfd, s.req[:])
	for errors.Is(err, kernel.ErrInterrupted) {
		n, err = k.Read(w, cfd, s.req[:])
	}
	if err != nil || n == 0 {
		return errEmptyRequest
	}
	w.Compute(parseCost)
	req := s.req[:n]
	method, path, ok := parseRequest(req)
	if !ok {
		_, err = k.Write(w, cfd, replyBadRequest)
		return err
	}
	if string(method) == "PUT" {
		return s.servePut(w, cfd, string(path), req)
	}
	ffd, err := k.Open(w, string(path), false)
	if err != nil {
		_, err = k.Write(w, cfd, replyNotFound)
		return err
	}
	defer func() { _ = k.Close(w, ffd) }()
	// Read the file through the ram-disk path, a chunk at a time straight
	// into the body buffer, then stream it out.
	body := s.body[:0]
	for {
		body = slices.Grow(body, chunkBytes)
		rn, err := k.Read(w, ffd, body[len(body):len(body)+chunkBytes])
		if err != nil {
			return err
		}
		if rn == 0 {
			break
		}
		body = body[:len(body)+rn]
	}
	s.body = body
	s.head = append(s.head[:0], statusOK+"\r\nContent-Length: "...)
	s.head = strconv.AppendInt(s.head, int64(len(body)), 10)
	s.head = append(s.head, "\r\n\r\n"...)
	if _, err := k.Write(w, cfd, s.head); err != nil {
		return err
	}
	_, err = k.Write(w, cfd, body)
	return err
}

// servePut stores the request body as the file at path. The already-read
// bytes carry the headers and (for the small bodies the load harness
// sends) the whole body; any remainder announced by Content-Length is
// drained from the connection first.
func (s *scratch) servePut(w *kernel.Proc, cfd int, path string, req []byte) error {
	k := w.Kernel()
	head, rest, ok := bytes.Cut(req, crlf2)
	if !ok {
		_, err := k.Write(w, cfd, replyBadRequest)
		return err
	}
	body := append(s.body[:0], rest...)
	want := contentLength(head)
	for len(body) < want {
		body = slices.Grow(body, reqBytes)
		rn, err := k.Read(w, cfd, body[len(body):len(body)+reqBytes])
		if err != nil || rn == 0 {
			return errTruncatedPut
		}
		body = body[:len(body)+rn]
	}
	s.body = body
	ffd, err := k.Open(w, path, true)
	if err != nil {
		_, err = k.Write(w, cfd, replyServerErr)
		return err
	}
	if _, err := k.Write(w, ffd, body); err != nil {
		_ = k.Close(w, ffd)
		return err
	}
	if err := k.Close(w, ffd); err != nil {
		return err
	}
	_, err = k.Write(w, cfd, replyCreated)
	return err
}

var (
	crlf  = []byte("\r\n")
	crlf2 = []byte("\r\n\r\n")
)

// parseRequest extracts the method and path from
// "GET|PUT /path HTTP/1.x". Both alias req.
func parseRequest(req []byte) (method, path []byte, ok bool) {
	line, _, _ := bytes.Cut(req, crlf)
	method, rest, ok1 := bytes.Cut(line, []byte(" "))
	path, proto, ok2 := bytes.Cut(rest, []byte(" "))
	if !ok1 || !ok2 || bytes.IndexByte(proto, ' ') >= 0 || !bytes.HasPrefix(proto, []byte("HTTP/")) {
		return nil, nil, false
	}
	if string(method) != "GET" && string(method) != "PUT" {
		return nil, nil, false
	}
	if !bytes.HasPrefix(path, []byte("/")) {
		return nil, nil, false
	}
	return method, path, true
}

// contentLength returns the value of the last "Content-Length: " line of
// head, or 0. A value is read the way fmt.Sscanf's %d reads it: leading
// white space skipped, one optional sign, then digits up to the first
// non-digit. A line whose value does not parse leaves the result as it
// was.
func contentLength(head []byte) int {
	want := 0
	for len(head) > 0 {
		var line []byte
		line, head, _ = bytes.Cut(head, crlf)
		if v, ok := bytes.CutPrefix(line, []byte("Content-Length: ")); ok {
			if n, ok := scanInt(v); ok {
				want = n
			}
		}
	}
	return want
}

// scanInt parses the integer at the front of b as fmt.Sscanf("%d") does.
func scanInt(b []byte) (int, bool) {
	for len(b) > 0 {
		r, size := utf8.DecodeRune(b)
		if r == '\n' || !unicode.IsSpace(r) {
			break
		}
		b = b[size:]
	}
	end := 0
	if end < len(b) && (b[end] == '+' || b[end] == '-') {
		end++
	}
	digits := end
	for end < len(b) && '0' <= b[end] && b[end] <= '9' {
		end++
	}
	if end == digits {
		return 0, false
	}
	n, err := strconv.ParseInt(string(b[:end]), 10, 0)
	return int(n), err == nil
}

// Shutdown closes the listener and reaps all workers. An interrupted
// wait reaps nothing, so it is retried: the master still reaps every
// worker.
func (s *Server) Shutdown(p *kernel.Proc) error {
	k := p.Kernel()
	s.Listener.Shutdown(p)
	for range s.Workers {
		_, _, err := k.Wait(p)
		for errors.Is(err, kernel.ErrInterrupted) {
			_, _, err = k.Wait(p)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// TotalServed sums per-worker counts.
func (s *Server) TotalServed() int {
	total := 0
	for _, n := range s.Served {
		total += n
	}
	return total
}

// ClientResult is what one driver request observed.
type ClientResult struct {
	Status string
	// Body is a fresh slice that the caller owns.
	Body []byte
}

// DoRequest runs one synchronous client request from the driver process
// against the listener. The driver stands in for the external wrk client:
// its socket operations bypass the server kernel's syscall layer and book
// no server CPU.
func DoRequest(p *kernel.Proc, l *kernel.Listener, path string) (ClientResult, error) {
	var buf [recvBytes]byte
	req := append(buf[:0], "GET "...)
	req = append(req, path...)
	req = append(req, " HTTP/1.0\r\n\r\n"...)
	return roundTrip(p, l, req, &buf)
}

// DoPut runs one synchronous client PUT from the driver process,
// replacing the file at path with body. Same cost model as DoRequest.
func DoPut(p *kernel.Proc, l *kernel.Listener, path string, body []byte) (ClientResult, error) {
	var buf [recvBytes]byte
	req := append(buf[:0], "PUT "...)
	req = append(req, path...)
	req = append(req, " HTTP/1.0\r\nContent-Length: "...)
	req = strconv.AppendInt(req, int64(len(body)), 10)
	req = append(req, "\r\n\r\n"...)
	req = append(req, body...)
	return roundTrip(p, l, req, &buf)
}

// roundTrip connects, sends req in one write and receives the response
// through buf, which req may occupy: it is sent before the first
// receive. When the first receive holds the whole head, Body is allocated
// once at the length the head announces and the rest is received straight
// into it; otherwise, or for a body longer than maxBodyPrealloc, the
// response is gathered in one growing heap slice.
func roundTrip(p *kernel.Proc, l *kernel.Listener, req []byte, buf *[recvBytes]byte) (ClientResult, error) {
	k := p.Kernel()
	conn := l.Connect(p)
	defer func() { _ = conn.CloseClient(k, p) }()
	// Network latency before the request bytes reach the server: an
	// accepted connection is briefly unreadable, the I/O gap that lets
	// extra workers help even on one core (Fig. 7).
	p.Task.Advance(k.Machine.NetRTT)
	if _, err := conn.Send(k, p, req); err != nil {
		return ClientResult{}, err
	}
	n, err := conn.Recv(k, p, buf[:])
	if err != nil {
		return ClientResult{}, err
	}
	first := buf[:n]
	headEnd, want, ok := responseHead(first)
	if !ok || want > maxBodyPrealloc {
		return gatherResponse(k, p, conn, first, buf)
	}
	// The server sends no more than the body it announces and the socket
	// window is recvBytes, so each receive into the body's unfilled tail
	// moves what a recvBytes receive would: virtual time is unchanged.
	body := make([]byte, max(want, n-headEnd))
	got := copy(body, first[headEnd:])
	for got < want {
		rn, err := conn.Recv(k, p, body[got:])
		if err != nil {
			return ClientResult{}, err
		}
		if rn == 0 {
			break
		}
		got += rn
	}
	return ClientResult{Status: statusOf(first), Body: body[:got:got]}, nil
}

// gatherResponse is roundTrip's path for a head that its first receive
// did not complete or a body longer than maxBodyPrealloc: it appends
// every receive, starting with first, to one heap slice until the head
// and the body it announces have arrived.
func gatherResponse(k *kernel.Kernel, p *kernel.Proc, conn *kernel.ClientConn, first []byte, buf *[recvBytes]byte) (ClientResult, error) {
	resp := append([]byte(nil), first...)
	for n := len(first); n > 0; {
		if headEnd, want, ok := responseHead(resp); ok && len(resp)-headEnd >= want {
			break
		}
		var err error
		if n, err = conn.Recv(k, p, buf[:]); err != nil {
			return ClientResult{}, err
		}
		resp = append(resp, buf[:n]...)
	}
	res := ClientResult{Status: statusOf(resp)}
	if headEnd, _, ok := responseHead(resp); ok {
		res.Body = resp[headEnd:]
	}
	return res, nil
}

// responseHead finds the end of resp's head (just past its blank line)
// and the body length it announces.
func responseHead(resp []byte) (headEnd, want int, ok bool) {
	i := bytes.Index(resp, crlf2)
	if i < 0 {
		return 0, 0, false
	}
	return i + len(crlf2), contentLength(resp[:i]), true
}

// statusOf returns resp's status line. The lines of the replies this
// server sends are constants, so only another line is copied.
func statusOf(resp []byte) string {
	line, _, _ := bytes.Cut(resp, crlf)
	switch string(line) {
	case statusOK:
		return statusOK
	case statusCreated:
		return statusCreated
	case statusBadRequest:
		return statusBadRequest
	case statusNotFound:
		return statusNotFound
	case statusServerErr:
		return statusServerErr
	}
	return string(line)
}
