package webobj_test

import (
	"fmt"
	"testing"
	"time"

	"repro/webobj"
)

// waitCovers blocks until at's applied vector for object covers from's, so
// scenario results do not depend on fabric timing.
func waitCovers(t *testing.T, from, at *webobj.Store, object webobj.ObjectID) {
	t.Helper()
	want, err := from.Applied(object)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, err := at.Applied(object)
		if err == nil && got.Covers(&want) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s did not converge: have %v want %v", at.Name(), got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// scenarioResult is everything the scenario observed, in comparable form.
type scenarioResult struct {
	pages map[string]string
	list  []string
	keys  []string
	vals  map[string]string
	log   []string
}

// runScenario drives one fixed deployment script — a Web server with a
// proxy cache, one webdoc, one kv map, one applog — over the given fabric
// and returns what a reader at the cache observes once converged. The
// script only touches the public API, so the identical code runs over the
// simulated network and over real TCP.
func runScenario(t *testing.T, fabric webobj.Fabric) scenarioResult {
	t.Helper()
	sys := webobj.NewSystem(webobj.WithFabric(fabric))
	t.Cleanup(func() { _ = sys.Close() })

	server, err := sys.NewServer("www")
	if err != nil {
		t.Fatal(err)
	}
	cache, err := sys.NewCache("proxy", server)
	if err != nil {
		t.Fatal(err)
	}

	const doc = webobj.ObjectID("scenario-doc")
	const kv = webobj.ObjectID("scenario-kv")
	const alog = webobj.ObjectID("scenario-log")
	if err := sys.Publish(server, doc, webobj.WebDoc(), webobj.ConferenceStrategy(5*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Publish(server, kv, webobj.KV(), webobj.ConferenceStrategy(5*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Publish(server, alog, webobj.AppLog(), webobj.ForumStrategy()); err != nil {
		t.Fatal(err)
	}
	for _, obj := range []webobj.ObjectID{doc, kv, alog} {
		if err := sys.Replicate(cache, obj); err != nil {
			t.Fatal(err)
		}
	}

	// One writer per object, at the server.
	w, err := sys.OpenDocument(doc, webobj.At(server))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Put("index.html", []byte("<h1>home</h1>"), "text/html"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := w.Append("log.html", []byte(fmt.Sprintf("<li>%d</li>", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Put("doomed.html", []byte("x"), ""); err != nil {
		t.Fatal(err)
	}
	if err := w.Delete("doomed.html"); err != nil {
		t.Fatal(err)
	}

	mw, err := sys.OpenMap(kv, webobj.At(server))
	if err != nil {
		t.Fatal(err)
	}
	defer mw.Close()
	for i := 0; i < 3; i++ {
		if err := mw.Put(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := mw.Delete("key-1"); err != nil {
		t.Fatal(err)
	}

	lw, err := sys.OpenLog(alog, webobj.At(server))
	if err != nil {
		t.Fatal(err)
	}
	defer lw.Close()
	for i := 0; i < 3; i++ {
		if err := lw.Append([]byte(fmt.Sprintf("entry-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	for _, obj := range []webobj.ObjectID{doc, kv, alog} {
		waitCovers(t, server, cache, obj)
	}

	// A reader at the cache observes the converged state.
	res := scenarioResult{pages: make(map[string]string), vals: make(map[string]string)}
	r, err := sys.OpenDocument(doc, webobj.At(cache))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if res.list, err = r.Pages(); err != nil {
		t.Fatal(err)
	}
	for _, p := range res.list {
		pg, err := r.Get(p)
		if err != nil {
			t.Fatal(err)
		}
		res.pages[p] = fmt.Sprintf("v%d:%s", pg.Version, pg.Content)
	}

	mr, err := sys.OpenMap(kv, webobj.At(cache))
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Close()
	if res.keys, err = mr.Keys(); err != nil {
		t.Fatal(err)
	}
	for _, k := range res.keys {
		v, err := mr.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		res.vals[k] = string(v)
	}

	lr, err := sys.OpenLog(alog, webobj.At(cache))
	if err != nil {
		t.Fatal(err)
	}
	defer lr.Close()
	entries, err := lr.Suffix(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		res.log = append(res.log, string(e))
	}
	return res
}

// TestScenarioIdenticalAcrossFabrics is the acceptance test of the fabric
// redesign: the same scenario script produces identical observable state
// whether the System deploys over the in-process simulated network or over
// real TCP.
func TestScenarioIdenticalAcrossFabrics(t *testing.T) {
	mem := runScenario(t, webobj.NewMemFabric())
	tcp := runScenario(t, webobj.NewTCPFabric(""))

	if fmt.Sprintf("%v", mem.list) != fmt.Sprintf("%v", tcp.list) {
		t.Fatalf("page lists differ: memnet %v, tcpnet %v", mem.list, tcp.list)
	}
	for p, want := range mem.pages {
		if got := tcp.pages[p]; got != want {
			t.Fatalf("page %q differs: memnet %q, tcpnet %q", p, want, got)
		}
	}
	if fmt.Sprintf("%v", mem.keys) != fmt.Sprintf("%v", tcp.keys) {
		t.Fatalf("key sets differ: memnet %v, tcpnet %v", mem.keys, tcp.keys)
	}
	for k, want := range mem.vals {
		if got := tcp.vals[k]; got != want {
			t.Fatalf("key %q differs: memnet %q, tcpnet %q", k, want, got)
		}
	}
	if fmt.Sprintf("%v", mem.log) != fmt.Sprintf("%v", tcp.log) {
		t.Fatalf("logs differ: memnet %v, tcpnet %v", mem.log, tcp.log)
	}
	// The scenario actually did something.
	if len(mem.pages) != 2 || len(mem.keys) != 2 || len(mem.log) != 3 {
		t.Fatalf("unexpected scenario shape: %+v", mem)
	}
}

// TestAttachRemoteStoreOverTCP plays the two-process deployment inside one
// test: a "daemon" System publishes a document over its own TCP fabric, and
// a second System — sharing nothing with the first but the address —
// attaches the remote permanent store, replicates the object at a local
// cache daemon, and serves it to a client.
func TestAttachRemoteStoreOverTCP(t *testing.T) {
	// Process A: permanent store.
	sysA := webobj.NewSystem(webobj.WithFabric(webobj.NewTCPFabric("")))
	t.Cleanup(func() { _ = sysA.Close() })
	server, err := sysA.NewServer("www", webobj.WithStoreID(1))
	if err != nil {
		t.Fatal(err)
	}
	const doc = webobj.ObjectID("remote-doc")
	if err := sysA.Publish(server, doc, webobj.WebDoc(), webobj.ConferenceStrategy(5*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	wr, err := sysA.OpenDocument(doc, webobj.At(server))
	if err != nil {
		t.Fatal(err)
	}
	defer wr.Close()
	if err := wr.Put("index.html", []byte("served across processes"), "text/html"); err != nil {
		t.Fatal(err)
	}

	// Process B: cache daemon attaching to A by address only.
	sysB := webobj.NewSystem(webobj.WithFabric(webobj.NewTCPFabric("")))
	t.Cleanup(func() { _ = sysB.Close() })
	parent, err := sysB.AttachServer(server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if !parent.Remote() {
		t.Fatalf("attached store not remote")
	}
	if _, err := parent.Applied(doc); err != webobj.ErrRemoteStore {
		t.Fatalf("Applied on remote store: %v", err)
	}
	if err := sysB.AttachObject(parent, doc, webobj.WebDoc(), webobj.ConferenceStrategy(5*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	cache, err := sysB.NewCache("cache-daemon", parent, webobj.WithStoreID(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := sysB.Replicate(cache, doc, webobj.ReadYourWrites); err != nil {
		t.Fatal(err)
	}
	waitCovers(t, server, cache, doc)

	// A client of process B reads the page from the local cache; without
	// At(...) the cache (lowest layer) is chosen over the attached remote
	// permanent store.
	rd, err := sysB.OpenDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if rd.StoreAddr() != cache.Addr() {
		t.Fatalf("client bound %s, want the cache %s", rd.StoreAddr(), cache.Addr())
	}
	pg, err := rd.Get("index.html")
	if err != nil {
		t.Fatal(err)
	}
	if string(pg.Content) != "served across processes" {
		t.Fatalf("page = %q", pg.Content)
	}
}

// TestTypedHandleMismatch: opening an object with the wrong typed handle
// fails — locally when the system knows the object, and at bind time (the
// store-side semantics check) when it does not.
func TestTypedHandleMismatch(t *testing.T) {
	sys := webobj.NewSystem()
	t.Cleanup(func() { _ = sys.Close() })
	server, _ := sys.NewServer("www")
	if err := sys.Publish(server, "biblio", webobj.KV(), webobj.ForumStrategy()); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.OpenDocument("biblio"); err == nil {
		t.Fatalf("webdoc open of kv object accepted locally")
	}

	// A second system over TCP knows nothing about the object locally; the
	// store's bind-time check is what rejects the wrong handle.
	sysTCP := webobj.NewSystem(webobj.WithFabric(webobj.NewTCPFabric("")))
	t.Cleanup(func() { _ = sysTCP.Close() })
	srv, err := sysTCP.NewServer("kv-srv")
	if err != nil {
		t.Fatal(err)
	}
	if err := sysTCP.Publish(srv, "biblio", webobj.KV(), webobj.ForumStrategy()); err != nil {
		t.Fatal(err)
	}
	blind := webobj.NewSystem(webobj.WithFabric(webobj.NewTCPFabric("")))
	t.Cleanup(func() { _ = blind.Close() })
	remote, err := blind.AttachServer(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := blind.OpenDocument("biblio", webobj.At(remote)); err == nil {
		t.Fatalf("webdoc bind to kv object accepted by store")
	}
	if m, err := blind.OpenMap("biblio", webobj.At(remote)); err != nil {
		t.Fatalf("matching kv bind rejected: %v", err)
	} else {
		m.Close()
	}
}

// TestOpenPicksLowestLayerDeterministically is the replica-selection fix:
// without At(...), Open binds the lowest-layer replica with the smallest
// store ID, regardless of registration order.
func TestOpenPicksLowestLayerDeterministically(t *testing.T) {
	sys := webobj.NewSystem()
	t.Cleanup(func() { _ = sys.Close() })
	server, _ := sys.NewServer("www")
	const doc = webobj.ObjectID("pick-doc")
	if err := sys.Publish(server, doc, webobj.WebDoc(), webobj.ConferenceStrategy(time.Hour)); err != nil {
		t.Fatal(err)
	}
	mirror, err := sys.NewMirror("mirror", server)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Replicate(mirror, doc); err != nil {
		t.Fatal(err)
	}
	// Two caches, replicated in descending-ID order so registration order
	// is adverse to the deterministic rule.
	cacheHi, err := sys.NewCache("cache-hi", server, webobj.WithStoreID(9))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Replicate(cacheHi, doc); err != nil {
		t.Fatal(err)
	}
	cacheLo, err := sys.NewCache("cache-lo", server, webobj.WithStoreID(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Replicate(cacheLo, doc); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		d, err := sys.Open(doc)
		if err != nil {
			t.Fatal(err)
		}
		addr := d.StoreAddr()
		d.Close()
		if addr != cacheLo.Addr() {
			t.Fatalf("open %d bound %s, want lowest-layer lowest-ID cache %s", i, addr, cacheLo.Addr())
		}
	}
}

// TestMapReadYourWrites: the RYW session guarantee enforced through the
// typed Map handle — a put through a lazily-updated cache is visible to the
// writer's own immediate get (the cache demands the missing write).
func TestMapReadYourWrites(t *testing.T) {
	sys := webobj.NewSystem()
	t.Cleanup(func() { _ = sys.Close() })
	server, _ := sys.NewServer("www")
	const kv = webobj.ObjectID("session-kv")
	// Pushes only every hour: without RYW the cache would stay stale.
	if err := sys.Publish(server, kv, webobj.KV(), webobj.ConferenceStrategy(time.Hour)); err != nil {
		t.Fatal(err)
	}
	cache, err := sys.NewCache("proxy", server)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Replicate(cache, kv, webobj.ReadYourWrites); err != nil {
		t.Fatal(err)
	}
	m, err := sys.OpenMap(kv, webobj.At(cache), webobj.WithSession(webobj.ReadYourWrites))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := m.Put(key, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if v, err := m.Get(key); err != nil || string(v) != "v" {
			t.Fatalf("RYW violated through Map handle: %q, %v", v, err)
		}
	}
}

// TestLogMonotonicReads: the MR session guarantee enforced through the
// typed Log handle — a travelling client whose first read was at the
// primary cannot observe a shorter log at a lagging mirror.
func TestLogMonotonicReads(t *testing.T) {
	sys := webobj.NewSystem()
	t.Cleanup(func() { _ = sys.Close() })
	server, _ := sys.NewServer("www")
	const alog = webobj.ObjectID("session-log")
	// Mirrors sync only every hour: the mirror is always stale in this test.
	if err := sys.Publish(server, alog, webobj.AppLog(), webobj.MirroredSiteStrategy(time.Hour)); err != nil {
		t.Fatal(err)
	}
	mirror, err := sys.NewMirror("mirror", server)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Replicate(mirror, alog, webobj.MonotonicReads); err != nil {
		t.Fatal(err)
	}
	l, err := sys.OpenLog(alog, webobj.At(server), webobj.WithSession(webobj.MonotonicReads))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte("e")); err != nil {
			t.Fatal(err)
		}
	}
	n, err := l.Len()
	if err != nil || n != 3 {
		t.Fatalf("len at primary = %d, %v", n, err)
	}
	if err := l.Rebind(mirror); err != nil {
		t.Fatal(err)
	}
	n, err = l.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n < 3 {
		t.Fatalf("monotonic reads violated through Log handle: len %d after rebind", n)
	}
}

// TestReusedClientIdentityResumesWriteHistory: a new binding that reuses a
// persistent client ID (a restarted process) must not re-issue write IDs
// the deployment already applied — the bind seeds the session's write
// counter from the store's applied vector, so the second process's writes
// land instead of being deduplicated as replays.
func TestReusedClientIdentityResumesWriteHistory(t *testing.T) {
	sys := webobj.NewSystem()
	t.Cleanup(func() { _ = sys.Close() })
	server, _ := sys.NewServer("www")
	const doc = webobj.ObjectID("resume-doc")
	if err := sys.Publish(server, doc, webobj.WebDoc(), webobj.ForumStrategy()); err != nil {
		t.Fatal(err)
	}
	// "Process one": pinned client 7 writes and exits.
	d1, err := sys.Open(doc, webobj.At(server), webobj.AsClient(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Put("p", []byte("FIRST"), ""); err != nil {
		t.Fatal(err)
	}
	d1.Close()
	// "Process two": the same client identity binds fresh and writes again.
	d2, err := sys.Open(doc, webobj.At(server), webobj.AsClient(7))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if err := d2.Put("p", []byte("SECOND"), ""); err != nil {
		t.Fatal(err)
	}
	pg, err := d2.Get("p")
	if err != nil {
		t.Fatal(err)
	}
	if string(pg.Content) != "SECOND" {
		t.Fatalf("reused client identity write dropped: page = %q", pg.Content)
	}
}
