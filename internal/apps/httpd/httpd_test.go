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
// client together (4 measured, plus 2 of slack). The request path keeps
// its buffers per worker and parses in place, and closed connections and
// open-file descriptions are reused, so what remains is the response
// slice the caller keeps and its one growth, the status string, and the
// path string handed to Open.
const maxMallocsPerGet = 6

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
