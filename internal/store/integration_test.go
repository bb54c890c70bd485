package store_test

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
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
	"repro/internal/transport/memnet"
)

// rig assembles a network, naming service, and stores for integration tests.
type rig struct {
	t   *testing.T
	net *memnet.Network
	ns  *naming.Service
}

func newRig(t *testing.T, opts ...memnet.Option) *rig {
	t.Helper()
	n := memnet.New(opts...)
	t.Cleanup(func() { _ = n.Close() })
	return &rig{t: t, net: n, ns: naming.New()}
}

func (r *rig) store(addr string, role replication.Role) *store.Store {
	r.t.Helper()
	ep, err := r.net.Endpoint(addr)
	if err != nil {
		r.t.Fatal(err)
	}
	s := store.New(store.Config{
		ID:       r.ns.NextStore(),
		Role:     role,
		Endpoint: ep,
		Tuning:   replication.Tuning{ReadTimeout: 2 * time.Second},
	})
	r.t.Cleanup(func() { _ = s.Close() })
	return s
}

func (r *rig) bind(addr, storeAddr string, obj ids.ObjectID, models ...coherence.ClientModel) *core.Proxy {
	r.t.Helper()
	ep, err := r.net.Endpoint(addr)
	if err != nil {
		r.t.Fatal(err)
	}
	p, err := core.Bind(core.BindConfig{
		Object:    obj,
		Endpoint:  ep,
		StoreAddr: storeAddr,
		Client:    r.ns.NextClient(),
		Session:   models,
		Prototype: webdoc.New(),
		Timeout:   3 * time.Second,
	})
	if err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(p.Close)
	return p
}

func putPage(t *testing.T, p *core.Proxy, page, content string) {
	t.Helper()
	args := webdoc.EncodeWriteArgs(webdoc.WriteArgs{
		Content: []byte(content), ContentType: "text/html", ModifiedNanos: time.Now().UnixNano(),
	})
	if _, err := p.Invoke(msg.Invocation{Method: webdoc.MethodPutPage, Page: page, Args: args}); err != nil {
		t.Fatalf("PutPage(%s): %v", page, err)
	}
}

func appendPage(t *testing.T, p *core.Proxy, page, content string) {
	t.Helper()
	args := webdoc.EncodeWriteArgs(webdoc.WriteArgs{
		Content: []byte(content), ModifiedNanos: time.Now().UnixNano(),
	})
	if _, err := p.Invoke(msg.Invocation{Method: webdoc.MethodAppendPage, Page: page, Args: args}); err != nil {
		t.Fatalf("AppendPage(%s): %v", page, err)
	}
}

func getPage(t *testing.T, p *core.Proxy, page string) (string, error) {
	t.Helper()
	out, err := p.Invoke(msg.Invocation{Method: webdoc.MethodGetPage, Page: page})
	if err != nil {
		return "", err
	}
	pg, err := webdoc.DecodePage(out)
	if err != nil {
		t.Fatalf("decode page: %v", err)
	}
	return string(pg.Content), nil
}

// eventually retries until the condition holds or the deadline passes.
func eventually(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("condition never held: %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDirectBindReadWrite covers the minimal path: one permanent store, one
// client bound directly to it.
func TestDirectBindReadWrite(t *testing.T) {
	r := newRig(t)
	const obj = ids.ObjectID("doc")
	perm := r.store("perm", replication.RolePermanent)
	st := strategy.Conference(50 * time.Millisecond)
	if err := perm.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st}); err != nil {
		t.Fatal(err)
	}
	cl := r.bind("client-1", "perm", obj)
	putPage(t, cl, "index.html", "<h1>hello</h1>")
	got, err := getPage(t, cl, "index.html")
	if err != nil {
		t.Fatal(err)
	}
	if got != "<h1>hello</h1>" {
		t.Fatalf("read back %q", got)
	}
}

func TestBindUnhostedObjectFails(t *testing.T) {
	r := newRig(t)
	perm := r.store("perm", replication.RolePermanent)
	_ = perm
	ep, err := r.net.Endpoint("client-x")
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.Bind(core.BindConfig{
		Object: "ghost", Endpoint: ep, StoreAddr: "perm",
		Client: r.ns.NextClient(), Prototype: webdoc.New(), Timeout: 2 * time.Second,
	})
	if err == nil {
		t.Fatalf("bind to unhosted object succeeded")
	}
	var re *core.RemoteError
	if !errors.As(err, &re) || re.Status != msg.StatusNotFound {
		t.Fatalf("want RemoteError{not-found}, got %v", err)
	}
}

// TestConferenceScenario reproduces §4 / Figure 3 / Figure 4 / Table 2: the
// Web master M writes incrementally through its cache; updates reach user
// caches via lazy periodic partial pushes; PRAM holds at every store; M's
// Read-Your-Writes triggers a demand pull at its cache.
func TestConferenceScenario(t *testing.T) {
	r := newRig(t)
	const obj = ids.ObjectID("conf-page")
	st := strategy.Conference(30 * time.Millisecond)

	server := r.store("server", replication.RolePermanent)
	if err := server.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st}); err != nil {
		t.Fatal(err)
	}
	cacheM := r.store("cache-m", replication.RoleClientInitiated)
	if err := cacheM.Host(store.HostConfig{
		Object: obj, Semantics: webdoc.New(), Strat: st, Parent: "server",
		Session:   []coherence.ClientModel{coherence.ReadYourWrites},
		Subscribe: true,
	}); err != nil {
		t.Fatal(err)
	}
	cacheU := r.store("cache-u", replication.RoleClientInitiated)
	if err := cacheU.Host(store.HostConfig{
		Object: obj, Semantics: webdoc.New(), Strat: st, Parent: "server", Subscribe: true,
	}); err != nil {
		t.Fatal(err)
	}

	master := r.bind("master", "cache-m", obj, coherence.ReadYourWrites)
	user := r.bind("user", "cache-u", obj)

	// The master updates the page incrementally (writes forward to the
	// server through the cache, as in Figure 4).
	appendPage(t, master, "program.html", "<li>keynote</li>")
	appendPage(t, master, "program.html", "<li>session 1</li>")

	// RYW: the master's immediate read through its cache must include both
	// its writes even though the periodic push may not have arrived yet.
	got, err := getPage(t, master, "program.html")
	if err != nil {
		t.Fatalf("master read: %v", err)
	}
	if got != "<li>keynote</li><li>session 1</li>" {
		t.Fatalf("RYW violated: master read %q", got)
	}

	// The user eventually sees both updates via the periodic push, in PRAM
	// (per-client) order — never session 1 without keynote.
	eventually(t, 3*time.Second, func() bool {
		got, err := getPage(t, user, "program.html")
		if err != nil {
			return false
		}
		if strings.Contains(got, "session 1") && !strings.Contains(got, "keynote") {
			t.Fatalf("PRAM violated at user cache: %q", got)
		}
		return got == "<li>keynote</li><li>session 1</li>"
	}, "user cache converges via lazy push")

	// The master's cache must have issued at least one demand pull (client-
	// outdate reaction = demand).
	ms, err := cacheM.Stats(obj)
	if err != nil {
		t.Fatal(err)
	}
	if ms.DemandsSent == 0 {
		t.Fatalf("expected RYW to trigger demand pulls, stats: %+v", ms)
	}
	if ms.ReqViolations == 0 {
		t.Fatalf("expected requirement violations to be detected, stats: %+v", ms)
	}
}

// TestSingleWriterEnforced covers Table 1's write set = single.
func TestSingleWriterEnforced(t *testing.T) {
	r := newRig(t)
	const obj = ids.ObjectID("doc")
	perm := r.store("perm", replication.RolePermanent)
	if err := perm.Host(store.HostConfig{
		Object: obj, Semantics: webdoc.New(), Strat: strategy.Conference(time.Hour),
	}); err != nil {
		t.Fatal(err)
	}
	owner := r.bind("owner", "perm", obj)
	intruder := r.bind("intruder", "perm", obj)
	putPage(t, owner, "p", "mine")
	args := webdoc.EncodeWriteArgs(webdoc.WriteArgs{Content: []byte("theirs")})
	_, err := intruder.Invoke(msg.Invocation{Method: webdoc.MethodPutPage, Page: "p", Args: args})
	var re *core.RemoteError
	if !errors.As(err, &re) || re.Status != msg.StatusForbidden {
		t.Fatalf("want forbidden, got %v", err)
	}
	// The owner can still write (its sequence did not gap).
	putPage(t, owner, "p", "mine-2")
	got, err := getPage(t, owner, "p")
	if err != nil || got != "mine-2" {
		t.Fatalf("owner follow-up write failed: %q %v", got, err)
	}
}

// TestWhiteboardSequential covers the groupware example: multiple writers,
// sequential model, every replica applies the same total order.
func TestWhiteboardSequential(t *testing.T) {
	r := newRig(t)
	const obj = ids.ObjectID("board")
	st := strategy.Whiteboard()

	perm := r.store("perm", replication.RolePermanent)
	if err := perm.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st}); err != nil {
		t.Fatal(err)
	}
	cacheA := r.store("cache-a", replication.RoleClientInitiated)
	if err := cacheA.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st, Parent: "perm", Subscribe: true}); err != nil {
		t.Fatal(err)
	}
	cacheB := r.store("cache-b", replication.RoleClientInitiated)
	if err := cacheB.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st, Parent: "perm", Subscribe: true}); err != nil {
		t.Fatal(err)
	}

	alice := r.bind("alice", "cache-a", obj)
	bob := r.bind("bob", "cache-b", obj)

	// Interleaved strokes from both writers.
	for i := 0; i < 5; i++ {
		appendPage(t, alice, "canvas", "A")
		appendPage(t, bob, "canvas", "B")
	}

	// Both caches converge on the identical stroke order.
	var fromA, fromB string
	eventually(t, 3*time.Second, func() bool {
		a, errA := getPage(t, alice, "canvas")
		b, errB := getPage(t, bob, "canvas")
		if errA != nil || errB != nil {
			return false
		}
		fromA, fromB = a, b
		return len(a) == 10 && a == b
	}, "whiteboard replicas converge to one total order")
	if strings.Count(fromA, "A") != 5 || strings.Count(fromB, "B") != 5 {
		t.Fatalf("strokes lost: %q vs %q", fromA, fromB)
	}
}

// TestInvalidationMode covers propagation = invalidate + partial access
// transfer: caches mark pages stale and refetch on demand.
func TestInvalidationMode(t *testing.T) {
	r := newRig(t)
	const obj = ids.ObjectID("event-page")
	st := strategy.PopularEventPage()
	st.Scope = strategy.ScopeAll // let the cache run PRAM too

	perm := r.store("perm", replication.RolePermanent)
	if err := perm.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st}); err != nil {
		t.Fatal(err)
	}
	cache := r.store("cache", replication.RoleClientInitiated)
	if err := cache.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st, Parent: "perm", Subscribe: true}); err != nil {
		t.Fatal(err)
	}

	owner := r.bind("owner", "perm", obj)
	reader := r.bind("reader", "cache", obj)

	putPage(t, owner, "news", "v1")
	eventually(t, 3*time.Second, func() bool {
		got, err := getPage(t, reader, "news")
		return err == nil && got == "v1"
	}, "initial version reaches the cache")

	putPage(t, owner, "news", "v2")
	eventually(t, 3*time.Second, func() bool {
		got, err := getPage(t, reader, "news")
		return err == nil && got == "v2"
	}, "invalidation + refetch yields v2")

	cs, err := cache.Stats(obj)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Invalidations == 0 {
		t.Fatalf("no invalidations recorded: %+v", cs)
	}
}

// TestInvalidationThroughMirror is the topology the benchmark's flashcrowd
// workload avoids: www → mirror → two caches under invalidation, per page and
// with whole-object access transfer. An invalidated mirror that answers a
// cache's refetch from the page it holds leaves that cache one version behind
// for good (the cache clears its invalid mark on the old content), so readers
// at the caches check that a page never goes backwards and, once the writer
// stops, that every cache holds www's bytes.
func TestInvalidationThroughMirror(t *testing.T) {
	const (
		obj      = ids.ObjectID("event-page")
		pages    = 8
		versions = 200
	)
	pageName := func(i int) string { return fmt.Sprintf("p%d", i) }
	for _, transfer := range []strategy.Transfer{strategy.TransferPartial, strategy.TransferFull} {
		t.Run(transfer.String(), func(t *testing.T) {
			r := newRig(t)
			st := strategy.PopularEventPage()
			st.AccessTransfer = transfer
			www := r.store("www", replication.RolePermanent)
			if err := www.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st}); err != nil {
				t.Fatal(err)
			}
			writer := r.bind("writer", "www", obj)
			for i := 0; i < pages; i++ {
				putPage(t, writer, pageName(i), "0")
			}
			// Each layer subscribes once the one above holds the seeded pages:
			// the test is about invalidation, not about a replica bootstrapped
			// from a parent that is itself still waiting for its bootstrap.
			bootstrapped := func(s *store.Store) {
				t.Helper()
				eventually(t, 3*time.Second, func() bool {
					_, err := s.ReadLocal(obj, msg.Invocation{Method: webdoc.MethodGetPage, Page: pageName(pages - 1)})
					return err == nil
				}, s.Addr()+" holds the seeded pages")
			}
			mirror := r.store("mirror", replication.RoleObjectInitiated)
			if err := mirror.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st, Parent: "www", Subscribe: true}); err != nil {
				t.Fatal(err)
			}
			bootstrapped(mirror)
			caches := make([]*store.Store, 2)
			var readers sync.WaitGroup
			stop := make(chan struct{})
			for c := range caches {
				addr := fmt.Sprintf("cache%d", c)
				caches[c] = r.store(addr, replication.RoleClientInitiated)
				if err := caches[c].Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st, Parent: "mirror", Subscribe: true}); err != nil {
					t.Fatal(err)
				}
				bootstrapped(caches[c])
				reader := r.bind("reader@"+addr, addr, obj)
				readers.Add(1)
				go func() {
					defer readers.Done()
					seen := make([]int, pages)
					for i := 0; ; i = (i + 1) % pages {
						select {
						case <-stop:
							return
						default:
						}
						out, err := reader.Invoke(msg.Invocation{Method: webdoc.MethodGetPage, Page: pageName(i)})
						if err != nil {
							t.Errorf("%s: read %s: %v", addr, pageName(i), err)
							return
						}
						pg, err := webdoc.DecodePage(out)
						if err != nil {
							t.Errorf("%s: decode %s: %v", addr, pageName(i), err)
							return
						}
						v, err := strconv.Atoi(string(pg.Content))
						if err != nil || v < seen[i] {
							t.Errorf("%s: %s went from version %d to %q", addr, pageName(i), seen[i], pg.Content)
							return
						}
						seen[i] = v
					}
				}()
			}
			for v := 1; v <= versions; v++ {
				for i := 0; i < pages; i++ {
					putPage(t, writer, pageName(i), strconv.Itoa(v))
				}
			}
			close(stop)
			readers.Wait()
			for i := 0; i < pages; i++ {
				inv := msg.Invocation{Method: webdoc.MethodGetPage, Page: pageName(i)}
				want, err := www.ReadLocal(obj, inv)
				if err != nil {
					t.Fatal(err)
				}
				for _, cache := range caches {
					eventually(t, 3*time.Second, func() bool {
						got, err := cache.ReadLocal(obj, inv)
						return err == nil && bytes.Equal(got, want)
					}, fmt.Sprintf("%s holds www's %s after quiesce", cache.Addr(), pageName(i)))
				}
			}
		})
	}
}

// TestMonotonicReadsAcrossStores covers the §3.2.2 example: a client reads
// from store S1, then from S2; the second read must not be older.
func TestMonotonicReadsAcrossStores(t *testing.T) {
	r := newRig(t)
	const obj = ids.ObjectID("mr-doc")
	// Eventual model with very lazy pushes, so mirrors lag badly.
	st := strategy.MirroredSite(time.Hour)

	perm := r.store("perm", replication.RolePermanent)
	if err := perm.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st}); err != nil {
		t.Fatal(err)
	}
	mirror := r.store("mirror", replication.RoleObjectInitiated)
	if err := mirror.Host(store.HostConfig{
		Object: obj, Semantics: webdoc.New(), Strat: st, Parent: "perm", Subscribe: true,
		Session: []coherence.ClientModel{coherence.MonotonicReads},
	}); err != nil {
		t.Fatal(err)
	}

	writer := r.bind("writer", "perm", obj)
	reader := r.bind("reader", "perm", obj, coherence.MonotonicReads)

	putPage(t, writer, "p", "fresh")
	// First read at the (fresh) permanent store.
	got, err := getPage(t, reader, "p")
	if err != nil || got != "fresh" {
		t.Fatalf("first read: %q %v", got, err)
	}

	// Switch to the stale mirror. MR + client-outdate=demand forces the
	// mirror to catch up before serving.
	if err := reader.Rebind("mirror"); err != nil {
		t.Fatal(err)
	}
	got, err = getPage(t, reader, "p")
	if err != nil {
		t.Fatalf("read at mirror: %v", err)
	}
	if got != "fresh" {
		t.Fatalf("monotonic reads violated: mirror served %q", got)
	}
	ms, err := mirror.Stats(obj)
	if err != nil {
		t.Fatal(err)
	}
	if ms.ReqViolations == 0 {
		t.Fatalf("mirror should have detected the MR requirement: %+v", ms)
	}
}

// TestLossyTransportRecovery covers the §4.2 end-to-end argument: over a
// lossy (UDP-like) network, PRAM with object-outdate = demand recovers lost
// updates through the coherence protocol itself.
func TestLossyTransportRecovery(t *testing.T) {
	r := newRig(t, memnet.WithSeed(13))
	const obj = ids.ObjectID("lossy-doc")
	st := strategy.Conference(10 * time.Millisecond)
	st.ObjectOutdate = strategy.Demand // reliability via coherence

	perm := r.store("perm", replication.RolePermanent)
	if err := perm.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st}); err != nil {
		t.Fatal(err)
	}
	cache := r.store("cache", replication.RoleClientInitiated)
	if err := cache.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st, Parent: "perm", Subscribe: true}); err != nil {
		t.Fatal(err)
	}
	// Lose 40% of server->cache pushes; keep every other link reliable.
	r.net.SetLink("perm", "cache", memnet.LinkProfile{Loss: 0.4})

	writer := r.bind("writer", "perm", obj)
	reader := r.bind("reader", "cache", obj)

	for i := 0; i < 10; i++ {
		appendPage(t, writer, "log", "x")
	}
	eventually(t, 5*time.Second, func() bool {
		got, err := getPage(t, reader, "log")
		return err == nil && got == strings.Repeat("x", 10)
	}, "cache recovers all updates despite 40% loss")
}

// TestScopeParameterWeakensLowerLayers: with store scope = permanent, a
// client cache runs the weakest (eventual) ordering even when the object
// model is PRAM.
func TestScopeParameterWeakensLowerLayers(t *testing.T) {
	r := newRig(t)
	const obj = ids.ObjectID("scoped")
	st := strategy.Conference(10 * time.Millisecond)
	st.Scope = strategy.ScopePermanent

	perm := r.store("perm", replication.RolePermanent)
	if err := perm.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st}); err != nil {
		t.Fatal(err)
	}
	cache := r.store("cache", replication.RoleClientInitiated)
	if err := cache.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st, Parent: "perm", Subscribe: true}); err != nil {
		t.Fatal(err)
	}
	writer := r.bind("writer", "perm", obj)
	reader := r.bind("reader", "cache", obj)
	putPage(t, writer, "p", "v1")
	eventually(t, 3*time.Second, func() bool {
		got, err := getPage(t, reader, "p")
		return err == nil && got == "v1"
	}, "out-of-scope cache still receives updates (eventually)")
}

// TestStoreAPIBasics exercises Store-level plumbing and error paths.
func TestStoreAPIBasics(t *testing.T) {
	r := newRig(t)
	const obj = ids.ObjectID("doc")
	perm := r.store("perm", replication.RolePermanent)
	if err := perm.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: strategy.Conference(time.Hour)}); err != nil {
		t.Fatal(err)
	}
	if err := perm.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: strategy.Conference(time.Hour)}); err == nil {
		t.Fatalf("double host accepted")
	}
	if _, err := perm.Stats("ghost"); err == nil {
		t.Fatalf("stats for unhosted object")
	}
	if _, err := perm.Applied("ghost"); err == nil {
		t.Fatalf("applied for unhosted object")
	}
	if _, err := perm.ReadLocal("ghost", msg.Invocation{Method: webdoc.MethodListPages}); err == nil {
		t.Fatalf("ReadLocal for unhosted object")
	}
	if perm.Role() != replication.RolePermanent || perm.Addr() != "perm" || perm.ID() == 0 {
		t.Fatalf("store identity accessors wrong")
	}
	cl := r.bind("c", "perm", obj)
	putPage(t, cl, "p", "x")
	v, err := perm.Applied(obj)
	if err != nil || v.Len() != 1 || v.Get(cl.Client()) != 1 {
		t.Fatalf("Applied = %v, %v", v, err)
	}
	stats, err := perm.Stats(obj)
	if err != nil || stats.WritesAccepted != 1 {
		t.Fatalf("Stats = %+v, %v", stats, err)
	}
	out, err := perm.ReadLocal(obj, msg.Invocation{Method: webdoc.MethodGetPage, Page: "p"})
	if err != nil {
		t.Fatal(err)
	}
	pg, _ := webdoc.DecodePage(out)
	if string(pg.Content) != "x" {
		t.Fatalf("ReadLocal content %q", pg.Content)
	}
	if err := perm.Close(); err != nil {
		t.Fatal(err)
	}
	if err := perm.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if err := perm.Host(store.HostConfig{Object: "late", Semantics: webdoc.New(), Strat: strategy.Conference(time.Hour)}); !errors.Is(err, store.ErrClosed) {
		t.Fatalf("host after close: %v", err)
	}
}

// TestBindSemanticsCheck: a store hosting an object under a named semantics
// type rejects binds that declare a different type, accepts matching and
// unnamed binds.
func TestBindSemanticsCheck(t *testing.T) {
	r := newRig(t)
	s := r.store("store/www", replication.RolePermanent)
	if err := s.Host(store.HostConfig{
		Object: "doc", Semantics: webdoc.New(), SemName: "webdoc",
		Strat: strategy.Conference(time.Hour),
	}); err != nil {
		t.Fatal(err)
	}

	bindAs := func(epAddr, sem string) error {
		ep, err := r.net.Endpoint(epAddr)
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.Bind(core.BindConfig{
			Object:    "doc",
			Endpoint:  ep,
			StoreAddr: s.Addr(),
			Client:    r.ns.NextClient(),
			Prototype: webdoc.New(),
			Semantics: sem,
			Timeout:   3 * time.Second,
		})
		if err == nil {
			p.Close()
		}
		return err
	}
	if err := bindAs("client/match", "webdoc"); err != nil {
		t.Fatalf("matching semantics rejected: %v", err)
	}
	if err := bindAs("client/unnamed", ""); err != nil {
		t.Fatalf("unnamed semantics rejected: %v", err)
	}
	err := bindAs("client/mismatch", "kvstore")
	if err == nil || !strings.Contains(err.Error(), "semantics mismatch") {
		t.Fatalf("mismatched semantics bind: %v", err)
	}
}
