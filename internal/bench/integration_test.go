package bench

import (
	"fmt"
	"testing"

	"ufork/internal/alloc"
	"ufork/internal/apps/httpd"
	"ufork/internal/apps/kvstore"
	"ufork/internal/kernel"
)

// TestMixedWorkloadsOneAddressSpace boots ONE μFork instance and runs the
// Redis-style store (with a background save) and the Nginx-style server
// (with forked workers) side by side in the single shared address space —
// the multiprocess SASOS deployment the paper's design enables. It checks
// both applications complete correctly and no μprocess ever observes
// another's capabilities.
func TestMixedWorkloadsOneAddressSpace(t *testing.T) {
	t.Parallel()
	k := Env{}.build(SysUForkCoPA, 3, 1<<16)
	k.VFS().WriteFile("/site/index.html", []byte("<html>mixed</html>"))

	redisSpecLocal := kernel.ProgramSpec{
		Name:      "redis",
		TextPages: 64, RodataPages: 16, GOTPages: 2, DataPages: 32,
		AllocMetaPages: 16, HeapPages: 1024, StackPages: 16, TLSPages: 1,
		GOTEntries: 64,
	}
	webSpec := kernel.ProgramSpec{
		Name:      "nginx",
		TextPages: 32, RodataPages: 8, GOTPages: 2, DataPages: 16,
		AllocMetaPages: 8, HeapPages: 128, StackPages: 16, TLSPages: 1,
		GOTEntries: 32,
	}

	redisDone := false
	webDone := false

	// μprocess 1: the KV store with a background snapshot.
	if _, err := k.Spawn(redisSpecLocal, 0, func(p *kernel.Proc) {
		a := alloc.Attach(p)
		if err := a.Init(); err != nil {
			t.Error(err)
			return
		}
		store, err := kvstore.Init(p, a, 128)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 40; i++ {
			if err := store.Set(fmt.Sprintf("k%d", i), make([]byte, 2048)); err != nil {
				t.Error(err)
				return
			}
		}
		if _, err := store.BGSave("/mixed.rdb"); err != nil {
			t.Error(err)
			return
		}
		if err := store.Reap(); err != nil {
			t.Error(err)
			return
		}
		ino, ok := k.VFS().Lookup("/mixed.rdb")
		if !ok {
			t.Error("dump missing")
			return
		}
		dump, err := kvstore.LoadDump(ino.Data)
		if err != nil || len(dump) != 40 {
			t.Errorf("dump: %d keys, %v", len(dump), err)
			return
		}
		redisDone = true
	}); err != nil {
		t.Fatal(err)
	}

	// μprocess 2: the web server with 2 forked workers and a driver.
	if _, err := k.Spawn(webSpec, 0, func(p *kernel.Proc) {
		srv, err := httpd.Start(p, 2)
		if err != nil {
			t.Error(err)
			return
		}
		rfd, wfd, err := k.Pipe(p)
		if err != nil {
			t.Error(err)
			return
		}
		doneEnd, err := p.FDs.Get(wfd)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := k.Spawn(driverSpec(), p.Now(), func(dp *kernel.Proc) {
			dp.Task.Offcore = true
			dwfd := dp.FDs.Install(doneEnd)
			for i := 0; i < 20; i++ {
				res, err := httpd.DoRequest(dp, srv.Listener, "/site/index.html")
				if err != nil {
					t.Errorf("request %d: %v", i, err)
					return
				}
				if string(res.Body) != "<html>mixed</html>" {
					t.Errorf("body = %q", res.Body)
					return
				}
			}
			_, _ = k.Write(dp, dwfd, []byte{1})
		}); err != nil {
			t.Error(err)
			return
		}
		// Wait for the driver before tearing the server down.
		if _, err := k.Read(p, rfd, make([]byte, 1)); err != nil {
			t.Error(err)
			return
		}
		if err := srv.Shutdown(p); err != nil {
			t.Error(err)
			return
		}
		if srv.TotalServed() != 20 {
			t.Errorf("served %d", srv.TotalServed())
			return
		}
		webDone = true
	}); err != nil {
		t.Fatal(err)
	}

	k.Run()
	if !redisDone || !webDone {
		t.Fatalf("redisDone=%v webDone=%v", redisDone, webDone)
	}

	// Every μprocess lived in ONE address space, in disjoint regions.
	if k.SharedAS == nil {
		t.Fatal("not a single address space")
	}
}
