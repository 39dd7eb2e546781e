package httpd_test

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"ufork/internal/apps/httpd"
	"ufork/internal/core"
	"ufork/internal/kernel"
	"ufork/internal/model"
)

func serverSpec() kernel.ProgramSpec {
	s := kernel.HelloWorldSpec()
	s.Name = "httpd"
	s.HeapPages = 512
	return s
}

func newKernel(cores int) *kernel.Kernel {
	return kernel.New(kernel.Config{
		Machine:   model.UFork(cores),
		Engine:    core.New(core.CopyOnPointerAccess),
		Isolation: kernel.IsolationFault, // the Nginx trust model (§3.6)
		Frames:    1 << 16,
	})
}

func TestServeStaticFile(t *testing.T) {
	k := newKernel(2)
	doc := bytes.Repeat([]byte("nginx-doc "), 100)
	k.VFS().WriteFile("/index.html", doc)
	if _, err := k.Spawn(serverSpec(), 0, func(p *kernel.Proc) {
		srv, err := httpd.Start(p, 2)
		if err != nil {
			t.Errorf("start: %v", err)
			return
		}
		res, err := httpd.DoRequest(p, srv.Listener, "/index.html")
		if err != nil {
			t.Errorf("request: %v", err)
			return
		}
		if !strings.Contains(res.Status, "200") {
			t.Errorf("status = %q", res.Status)
		}
		if !bytes.Equal(res.Body, doc) {
			t.Errorf("body mismatch: %d bytes vs %d", len(res.Body), len(doc))
		}
		// 404 for a missing file.
		res, err = httpd.DoRequest(p, srv.Listener, "/missing")
		if err != nil {
			t.Errorf("request: %v", err)
			return
		}
		if !strings.Contains(res.Status, "404") {
			t.Errorf("missing file status = %q", res.Status)
		}
		if err := srv.Shutdown(p); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if srv.TotalServed() < 1 {
			t.Errorf("served = %d", srv.TotalServed())
		}
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
}

func TestWorkersShareLoad(t *testing.T) {
	k := newKernel(4)
	k.VFS().WriteFile("/f", []byte("payload"))
	if _, err := k.Spawn(serverSpec(), 0, func(p *kernel.Proc) {
		srv, err := httpd.Start(p, 3)
		if err != nil {
			t.Errorf("start: %v", err)
			return
		}
		for i := 0; i < 30; i++ {
			if _, err := httpd.DoRequest(p, srv.Listener, "/f"); err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
		}
		if err := srv.Shutdown(p); err != nil {
			t.Errorf("shutdown: %v", err)
			return
		}
		if srv.TotalServed() != 30 {
			t.Errorf("served = %d, want 30", srv.TotalServed())
		}
		busy := 0
		for _, n := range srv.Served {
			if n > 0 {
				busy++
			}
		}
		if busy < 2 {
			t.Errorf("only %d workers served requests; want load spread", busy)
		}
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
}

// interruptWaits fails every other wait(2) with EINTR, the first one
// included, and counts the waits it saw.
type interruptWaits struct{ waits int }

func (f *interruptWaits) SyscallError(name string) error {
	if name != "wait" {
		return nil
	}
	f.waits++
	if f.waits%2 == 1 {
		return kernel.ErrInterrupted
	}
	return nil
}

// TestShutdownRetriesInterruptedWait: an interrupted wait reaps nothing,
// so Shutdown must retry it and still reap every worker.
func TestShutdownRetriesInterruptedWait(t *testing.T) {
	const workers = 3
	k := newKernel(2)
	k.VFS().WriteFile("/f", []byte("payload"))
	failer := &interruptWaits{}
	k.Chaos = failer
	if _, err := k.Spawn(serverSpec(), 0, func(p *kernel.Proc) {
		srv, err := httpd.Start(p, workers)
		if err != nil {
			t.Errorf("start: %v", err)
			return
		}
		if _, err := httpd.DoRequest(p, srv.Listener, "/f"); err != nil {
			t.Errorf("request: %v", err)
			return
		}
		if err := srv.Shutdown(p); err != nil {
			t.Errorf("shutdown: %v", err)
			return
		}
		if n := len(p.Children()); n != 0 {
			t.Errorf("%d workers left unreaped", n)
		}
		if failer.waits != 2*workers {
			t.Errorf("shutdown made %d waits, want %d: one interrupted and one reaping per worker", failer.waits, 2*workers)
		}
		if srv.TotalServed() != 1 {
			t.Errorf("served = %d, want 1", srv.TotalServed())
		}
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
}

// interruptFirstRead fails the first read(2) of the run with EINTR.
type interruptFirstRead struct{ fired bool }

func (f *interruptFirstRead) SyscallError(name string) error {
	if name != "read" || f.fired {
		return nil
	}
	f.fired = true
	return kernel.ErrInterrupted
}

// TestServeRetriesInterruptedRead: an interrupted read of the request
// has consumed nothing, so the worker must retry it and serve the
// request rather than drop the connection.
func TestServeRetriesInterruptedRead(t *testing.T) {
	k := newKernel(2)
	k.VFS().WriteFile("/f", []byte("payload"))
	failer := &interruptFirstRead{}
	k.Chaos = failer
	if _, err := k.Spawn(serverSpec(), 0, func(p *kernel.Proc) {
		srv, err := httpd.Start(p, 1)
		if err != nil {
			t.Errorf("start: %v", err)
			return
		}
		res, err := httpd.DoRequest(p, srv.Listener, "/f")
		if err != nil {
			t.Errorf("request: %v", err)
			return
		}
		if !failer.fired {
			t.Error("no read was interrupted")
		}
		if !strings.Contains(res.Status, "200") || string(res.Body) != "payload" {
			t.Errorf("interrupted request got %q %q, want 200 and the file", res.Status, res.Body)
		}
		if err := srv.Shutdown(p); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if srv.TotalServed() != 1 {
			t.Errorf("served = %d, want 1", srv.TotalServed())
		}
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
}

func TestPutReplacesFile(t *testing.T) {
	k := newKernel(2)
	k.VFS().WriteFile("/k1", []byte("old"))
	if _, err := k.Spawn(serverSpec(), 0, func(p *kernel.Proc) {
		srv, err := httpd.Start(p, 2)
		if err != nil {
			t.Errorf("start: %v", err)
			return
		}
		body := bytes.Repeat([]byte("v"), 128)
		res, err := httpd.DoPut(p, srv.Listener, "/k1", body)
		if err != nil {
			t.Errorf("put: %v", err)
			return
		}
		if !strings.Contains(res.Status, "201") {
			t.Errorf("put status = %q", res.Status)
		}
		// A PUT may also create a fresh key.
		if res, err = httpd.DoPut(p, srv.Listener, "/k-new", body); err != nil || !strings.Contains(res.Status, "201") {
			t.Errorf("create put: status %q, err %v", res.Status, err)
		}
		for _, path := range []string{"/k1", "/k-new"} {
			res, err = httpd.DoRequest(p, srv.Listener, path)
			if err != nil {
				t.Errorf("get %s: %v", path, err)
				return
			}
			if !bytes.Equal(res.Body, body) {
				t.Errorf("get %s after put: %d bytes, want %d", path, len(res.Body), len(body))
			}
		}
		if err := srv.Shutdown(p); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
}

// TestWorkerBuffersResetPerRequest drives one worker through requests of
// different sizes in a row, so every request runs on buffers the previous
// one grew: a 20 KiB GET spans two 16 KiB file reads, a 10-byte GET must
// not see its tail, and a PUT body arriving over several 1 KiB reads must
// store exactly what was sent.
func TestWorkerBuffersResetPerRequest(t *testing.T) {
	k := newKernel(1)
	big := bytes.Repeat([]byte("0123456789abcdef"), 20*1024/16)
	small := []byte("tiny-doc!!")
	k.VFS().WriteFile("/big", big)
	k.VFS().WriteFile("/small", small)
	put := bytes.Repeat([]byte("put-body "), 3000/9)
	if _, err := k.Spawn(serverSpec(), 0, func(p *kernel.Proc) {
		srv, err := httpd.Start(p, 1)
		if err != nil {
			t.Errorf("start: %v", err)
			return
		}
		get := func(path string, want []byte) {
			res, err := httpd.DoRequest(p, srv.Listener, path)
			if err != nil || res.Status != "HTTP/1.0 200 OK" || !bytes.Equal(res.Body, want) {
				t.Errorf("GET %s: status %q, %d-byte body, err %v; want 200 and %d bytes",
					path, res.Status, len(res.Body), err, len(want))
			}
		}
		get("/big", big)
		get("/small", small)
		res, err := httpd.DoPut(p, srv.Listener, "/small", put)
		if err != nil || res.Status != "HTTP/1.0 201 Created" {
			t.Errorf("PUT: status %q, err %v", res.Status, err)
		}
		get("/small", put)
		get("/big", big)
		if err := srv.Shutdown(p); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if srv.TotalServed() != 5 {
			t.Errorf("served %d, want 5", srv.TotalServed())
		}
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
}

// TestBadRequest sends request lines that miss the
// "GET|PUT /path HTTP/1.x" shape, most of them only just; each must get
// 400, and the worker must go on serving.
func TestBadRequest(t *testing.T) {
	k := newKernel(1)
	k.VFS().WriteFile("/f", []byte("payload"))
	if _, err := k.Spawn(serverSpec(), 0, func(p *kernel.Proc) {
		srv, err := httpd.Start(p, 1)
		if err != nil {
			t.Errorf("start: %v", err)
			return
		}
		for _, line := range []string{
			"BOGUS nonsense",
			"GET  /f HTTP/1.0",  // double space
			"GET /f  HTTP/1.0",  // double space before the protocol
			"GET /f HTTP/1.0 x", // a fourth field
			"get /f HTTP/1.0",   // lower-case method
			"POST /f HTTP/1.0",  // unsupported method
			"GET /f",            // no protocol
			"GET /f FTP/1.0",    // protocol without HTTP/
			"GET f HTTP/1.0",    // path without /
			"",                  // empty line
		} {
			conn := srv.Listener.Connect(p)
			if _, err := conn.Send(k, p, []byte(line+"\r\n\r\n")); err != nil {
				t.Errorf("%q: send: %v", line, err)
				return
			}
			buf := make([]byte, 256)
			n, err := conn.Recv(k, p, buf)
			if err != nil || string(buf[:n]) != "HTTP/1.0 400 Bad Request\r\n\r\n" {
				t.Errorf("%q: response %q, err %v; want 400", line, buf[:n], err)
			}
			_ = conn.CloseClient(k, p)
		}
		if res, err := httpd.DoRequest(p, srv.Listener, "/f"); err != nil || string(res.Body) != "payload" {
			t.Errorf("GET after bad requests: body %q, err %v", res.Body, err)
		}
		if err := srv.Shutdown(p); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
}

// TestRoundTripBodies fetches bodies larger than one client receive, each
// twice: every body arrives intact in a slice of exactly its announced
// length, and no two responses share storage.
func TestRoundTripBodies(t *testing.T) {
	k := newKernel(2)
	sizes := []int{20 * 1024, 64 * 1024}
	docs := make([][]byte, len(sizes))
	for i, n := range sizes {
		docs[i] = bytes.Repeat([]byte{byte('a' + i)}, n)
		copy(docs[i], fmt.Sprintf("doc-%d-", n))
		k.VFS().WriteFile(fmt.Sprintf("/doc%d", i), docs[i])
	}
	if _, err := k.Spawn(serverSpec(), 0, func(p *kernel.Proc) {
		srv, err := httpd.Start(p, 2)
		if err != nil {
			t.Errorf("start: %v", err)
			return
		}
		for i, doc := range docs {
			path := fmt.Sprintf("/doc%d", i)
			var bodies [2][]byte
			for j := range bodies {
				res, err := httpd.DoRequest(p, srv.Listener, path)
				if err != nil || res.Status != "HTTP/1.0 200 OK" {
					t.Errorf("GET %s: status %q, err %v", path, res.Status, err)
					return
				}
				if len(res.Body) != len(doc) || cap(res.Body) != len(doc) || !bytes.Equal(res.Body, doc) {
					t.Errorf("GET %s: body len %d cap %d, want %d bytes of the document", path, len(res.Body), cap(res.Body), len(doc))
				}
				bodies[j] = res.Body
			}
			bodies[0][0] ^= 0xff
			if bodies[1][0] != doc[0] {
				t.Errorf("GET %s: writing one response's body changed the other's", path)
			}
		}
		if err := srv.Shutdown(p); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
}

// TestRoundTripStatus checks the status line of each reply the server
// sends for a PUT, a missing file and a malformed path.
func TestRoundTripStatus(t *testing.T) {
	k := newKernel(1)
	if _, err := k.Spawn(serverSpec(), 0, func(p *kernel.Proc) {
		srv, err := httpd.Start(p, 1)
		if err != nil {
			t.Errorf("start: %v", err)
			return
		}
		check := func(what, want string, res httpd.ClientResult, err error) {
			if err != nil || res.Status != want || len(res.Body) != 0 {
				t.Errorf("%s: status %q, %d-byte body, err %v; want %q and no body", what, res.Status, len(res.Body), err, want)
			}
		}
		res, err := httpd.DoPut(p, srv.Listener, "/new", []byte("v"))
		check("PUT", "HTTP/1.0 201 Created", res, err)
		res, err = httpd.DoRequest(p, srv.Listener, "/missing")
		check("GET of a missing file", "HTTP/1.0 404 Not Found", res, err)
		res, err = httpd.DoRequest(p, srv.Listener, "no-slash")
		check("GET of a malformed path", "HTTP/1.0 400 Bad Request", res, err)
		if err := srv.Shutdown(p); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
}

// serveRaw answers one DoRequest with reply, written in one write by a
// forked one-shot server, and returns what the client made of it.
func serveRaw(t *testing.T, reply []byte) httpd.ClientResult {
	t.Helper()
	k := newKernel(1)
	var res httpd.ClientResult
	if _, err := k.Spawn(serverSpec(), 0, func(p *kernel.Proc) {
		lfd, l := k.Listen(p)
		if _, err := k.Fork(p, func(c *kernel.Proc) {
			cfd, err := k.Accept(c, lfd)
			if err != nil {
				return
			}
			var req [1024]byte
			_, _ = k.Read(c, cfd, req[:])
			_, _ = k.Write(c, cfd, reply)
			_ = k.Close(c, cfd)
		}); err != nil {
			t.Error(err)
			return
		}
		var err error
		if res, err = httpd.DoRequest(p, l, "/raw"); err != nil {
			t.Errorf("request: %v", err)
		}
		if _, _, err := k.Wait(p); err != nil {
			t.Errorf("wait: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
	return res
}

// TestRoundTripUnusualReplies drives the client against replies this
// server never sends: a head longer than one client receive, a reply
// without Content-Length, which ends at its head and keeps only the body
// bytes that arrived with it, a status line of its own, and a
// Content-Length far beyond the body the server sends before closing.
func TestRoundTripUnusualReplies(t *testing.T) {
	pad := strings.Repeat("p", 5000)
	for _, tc := range []struct {
		name, reply, status, body string
	}{
		{"long head", "HTTP/1.0 200 OK\r\nX-Pad: " + pad + "\r\nContent-Length: 5\r\n\r\nhello",
			"HTTP/1.0 200 OK", "hello"},
		{"long head, no Content-Length", "HTTP/1.0 200 OK\r\nX-Pad: " + pad + "\r\n\r\nhello",
			"HTTP/1.0 200 OK", "hello"},
		{"no Content-Length", "HTTP/1.0 200 OK\r\n\r\nhello", "HTTP/1.0 200 OK", "hello"},
		{"other status", "HTTP/1.0 418 I'm a teapot\r\nContent-Length: 3\r\n\r\ntea",
			"HTTP/1.0 418 I'm a teapot", "tea"},
		{"no head end", "HTTP/1.0 200 OK\r\nContent-Length: 3", "HTTP/1.0 200 OK", ""},
		{"Content-Length beyond the body", "HTTP/1.0 200 OK\r\nContent-Length: 99999999999999999\r\n\r\nhi",
			"HTTP/1.0 200 OK", "hi"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := serveRaw(t, []byte(tc.reply))
			if res.Status != tc.status || string(res.Body) != tc.body {
				t.Errorf("status %q, body %q; want %q, %q", res.Status, res.Body, tc.status, tc.body)
			}
		})
	}
}

// getFleet boots a two-worker fleet holding a 1 KiB document and runs
// drive in the master process with a get function that fetches the
// document and checks its length. It fails tb if the fleet fails.
func getFleet(tb testing.TB, drive func(get func() error)) {
	tb.Helper()
	k := newKernel(2)
	doc := bytes.Repeat([]byte("nginx-doc "), 100)
	k.VFS().WriteFile("/index.html", doc)
	var runErr error
	if _, err := k.Spawn(serverSpec(), 0, func(p *kernel.Proc) {
		srv, err := httpd.Start(p, 2)
		if err != nil {
			runErr = err
			return
		}
		drive(func() error {
			res, err := httpd.DoRequest(p, srv.Listener, "/index.html")
			if err == nil && len(res.Body) != len(doc) {
				err = fmt.Errorf("%d-byte body, want %d", len(res.Body), len(doc))
			}
			if err != nil && runErr == nil {
				runErr = err
			}
			return err
		})
		if err := srv.Shutdown(p); err != nil && runErr == nil {
			runErr = err
		}
	}); err != nil {
		tb.Fatal(err)
	}
	k.Run()
	if runErr != nil {
		tb.Fatal(runErr)
	}
}

// BenchmarkServeGet times one GET of a 1 KiB document through a two-worker
// fleet, client side included, and reports the host allocations per
// request.
func BenchmarkServeGet(b *testing.B) {
	getFleet(b, func(get func() error) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if get() != nil {
				break
			}
		}
		b.StopTimer()
	})
}

// maxMallocsPerGet bounds the host allocations of one GET, server and
// client together (1 measured, plus 1 of slack). The request path keeps
// its buffers per worker and parses in place, Open takes the parsed path
// without copying it, closed connections and open-file descriptions are
// reused, and the client receives the head on its stack and takes the
// status from a constant, so what remains is the body the caller keeps,
// allocated once at its announced length.
const maxMallocsPerGet = 2

// TestServeGetAllocs is the allocation gate on BenchmarkServeGet's fleet:
// a fresh buffer per request, or a parse that copies, shows up here.
func TestServeGetAllocs(t *testing.T) {
	const warm, n = 16, 400
	var perGet float64
	getFleet(t, func(get func() error) {
		for i := 0; i < warm; i++ {
			if get() != nil {
				return
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			if get() != nil {
				return
			}
		}
		runtime.ReadMemStats(&after)
		perGet = float64(after.Mallocs-before.Mallocs) / n
	})
	t.Logf("%.2f mallocs per GET", perGet)
	if perGet > maxMallocsPerGet {
		t.Errorf("%.2f mallocs per GET, want at most %d", perGet, maxMallocsPerGet)
	}
}
