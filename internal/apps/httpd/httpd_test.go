package httpd_test

import (
	"bytes"
	"fmt"
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

func TestBadRequest(t *testing.T) {
	k := newKernel(2)
	if _, err := k.Spawn(serverSpec(), 0, func(p *kernel.Proc) {
		srv, err := httpd.Start(p, 1)
		if err != nil {
			t.Errorf("start: %v", err)
			return
		}
		conn := srv.Listener.Connect(p)
		if _, err := conn.Send(k, p, []byte("BOGUS nonsense\r\n\r\n")); err != nil {
			t.Errorf("send: %v", err)
			return
		}
		buf := make([]byte, 256)
		n, err := conn.Recv(k, p, buf)
		if err != nil {
			t.Errorf("recv: %v", err)
			return
		}
		if !strings.Contains(string(buf[:n]), "400") {
			t.Errorf("response = %q, want 400", buf[:n])
		}
		_ = conn.CloseClient(k, p)
		if err := srv.Shutdown(p); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
}

// BenchmarkServeGet times one GET of a 1 KiB document through a two-worker
// fleet, client side included, and reports the host allocations per
// request.
func BenchmarkServeGet(b *testing.B) {
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
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := httpd.DoRequest(p, srv.Listener, "/index.html")
			if err != nil || len(res.Body) != len(doc) {
				runErr = fmt.Errorf("request %d: %d-byte body, %v", i, len(res.Body), err)
				break
			}
		}
		b.StopTimer()
		if err := srv.Shutdown(p); err != nil && runErr == nil {
			runErr = err
		}
	}); err != nil {
		b.Fatal(err)
	}
	k.Run()
	if runErr != nil {
		b.Fatal(runErr)
	}
}
