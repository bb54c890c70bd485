package core_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/naming"
	"repro/internal/replication"
	"repro/internal/semantics/webdoc"
	"repro/internal/store"
	"repro/internal/strategy"
	"repro/internal/transport/tcpnet"
)

// TestFullStackOverTCP runs the conference scenario over real TCP
// loopback — the transport configuration of the paper's prototype.
func TestFullStackOverTCP(t *testing.T) {
	ns := naming.New()
	const obj = ids.ObjectID("tcp-doc")
	st := strategy.Conference(20 * time.Millisecond)

	serverEP, err := tcpnet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer serverEP.Close()
	server := store.New(store.Config{
		ID: ns.NextStore(), Role: replication.RolePermanent,
		Endpoint: serverEP, Tuning: replication.Tuning{ReadTimeout: 2 * time.Second},
	})
	defer server.Close()
	if err := server.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st}); err != nil {
		t.Fatal(err)
	}

	cacheEP, err := tcpnet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cacheEP.Close()
	cache := store.New(store.Config{
		ID: ns.NextStore(), Role: replication.RoleClientInitiated,
		Endpoint: cacheEP, Tuning: replication.Tuning{ReadTimeout: 2 * time.Second},
	})
	defer cache.Close()
	if err := cache.Host(store.HostConfig{
		Object: obj, Semantics: webdoc.New(), Strat: st,
		Parent: serverEP.Addr(), Subscribe: true,
		Session: []coherence.ClientModel{coherence.ReadYourWrites},
	}); err != nil {
		t.Fatal(err)
	}

	masterEP, err := tcpnet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer masterEP.Close()
	master, err := core.Bind(core.BindConfig{
		Object: obj, Endpoint: masterEP, StoreAddr: cacheEP.Addr(),
		Client: ns.NextClient(), Session: []coherence.ClientModel{coherence.ReadYourWrites},
		Prototype: webdoc.New(), Timeout: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()

	args := webdoc.EncodeWriteArgs(webdoc.WriteArgs{Content: []byte("<li>a</li>"), ModifiedNanos: time.Now().UnixNano()})
	if _, err := master.Invoke(msg.Invocation{Method: webdoc.MethodAppendPage, Page: "program", Args: args}); err != nil {
		t.Fatalf("write over TCP: %v", err)
	}
	out, err := master.Invoke(msg.Invocation{Method: webdoc.MethodGetPage, Page: "program"})
	if err != nil {
		t.Fatalf("RYW read over TCP: %v", err)
	}
	pg, err := webdoc.DecodePage(out)
	if err != nil || string(pg.Content) != "<li>a</li>" {
		t.Fatalf("content %q, err %v", pg.Content, err)
	}
	if master.Store() == 0 || master.Client() == 0 || master.StoreAddr() != cacheEP.Addr() {
		t.Fatalf("proxy identity accessors wrong")
	}
}

// TestProxyTimeout verifies calls fail cleanly when the store is gone.
func TestProxyTimeout(t *testing.T) {
	ep, err := tcpnet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	// Bind against an address nobody listens on: the dial fails fast.
	_, err = core.Bind(core.BindConfig{
		Object: "o", Endpoint: ep, StoreAddr: "127.0.0.1:1",
		Client: 1, Prototype: webdoc.New(), Timeout: 300 * time.Millisecond,
	})
	if err == nil {
		t.Fatalf("bind to dead address succeeded")
	}
}

// TestProxyConcurrentReads checks the demultiplexer under concurrent calls.
func TestProxyConcurrentReads(t *testing.T) {
	ns := naming.New()
	const obj = ids.ObjectID("conc")
	serverEP, err := tcpnet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer serverEP.Close()
	server := store.New(store.Config{ID: ns.NextStore(), Role: replication.RolePermanent, Endpoint: serverEP})
	defer server.Close()
	if err := server.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: strategy.Conference(time.Hour)}); err != nil {
		t.Fatal(err)
	}
	clEP, err := tcpnet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer clEP.Close()
	p, err := core.Bind(core.BindConfig{
		Object: obj, Endpoint: clEP, StoreAddr: serverEP.Addr(),
		Client: ns.NextClient(), Prototype: webdoc.New(), Timeout: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	args := webdoc.EncodeWriteArgs(webdoc.WriteArgs{Content: []byte("x")})
	if _, err := p.Invoke(msg.Invocation{Method: webdoc.MethodPutPage, Page: "p", Args: args}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 20)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := p.Invoke(msg.Invocation{Method: webdoc.MethodGetPage, Page: "p"})
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent read: %v", err)
		}
	}
}

// TestProxyClosedFails covers post-close behaviour.
func TestProxyClosedFails(t *testing.T) {
	ns := naming.New()
	const obj = ids.ObjectID("closed")
	serverEP, err := tcpnet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer serverEP.Close()
	server := store.New(store.Config{ID: ns.NextStore(), Role: replication.RolePermanent, Endpoint: serverEP})
	defer server.Close()
	if err := server.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: strategy.Conference(time.Hour)}); err != nil {
		t.Fatal(err)
	}
	clEP, err := tcpnet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer clEP.Close()
	p, err := core.Bind(core.BindConfig{
		Object: obj, Endpoint: clEP, StoreAddr: serverEP.Addr(),
		Client: ns.NextClient(), Prototype: webdoc.New(), Timeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close() // idempotent
	_, err = p.Invoke(msg.Invocation{Method: webdoc.MethodGetPage, Page: "p"})
	if !errors.Is(err, core.ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

// TestRemoteErrorFormatting covers the error type.
func TestRemoteErrorFormatting(t *testing.T) {
	e := &core.RemoteError{Status: msg.StatusForbidden, Text: "nope"}
	if got := e.Error(); got != "remote forbidden: nope" {
		t.Fatalf("Error() = %q", got)
	}
}
