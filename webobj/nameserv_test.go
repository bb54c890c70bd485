package webobj

import (
	"strings"
	"testing"
	"time"

	"repro/internal/transport/memnet"
)

// TestNameServiceEndToEndTCP is the cross-process naming e2e over real TCP:
// a name server and two Systems (standing in for two daemons, each with its
// own fabric and therefore its own sockets). A publishes; B opens by name
// alone — no store address, no AttachObject sem/strat mirroring — installs
// a replica wired entirely from the record, drops it, re-registers it, and
// re-resolves. A runtime replica added via the control RPC becomes
// resolvable and serves reads.
func TestNameServiceEndToEndTCP(t *testing.T) {
	ns, err := NewNameServer(NewTCPFabric(""), NameServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()

	sysA := NewSystem(
		WithFabric(NewTCPFabric("")),
		WithNameServer(ns.Addr()),
		WithDigestInterval(25*time.Millisecond),
	)
	defer sysA.Close()
	server, err := sysA.NewServer("wwwA")
	if err != nil {
		t.Fatal(err)
	}
	const obj = ObjectID("e2e-doc")
	if err := sysA.Publish(server, obj, WebDoc(), ConferenceStrategy(5*time.Millisecond), ReadYourWrites); err != nil {
		t.Fatal(err)
	}

	sysB := NewSystem(
		WithFabric(NewTCPFabric("")),
		WithNameServer(ns.Addr()),
		WithDigestInterval(25*time.Millisecond),
	)
	defer sysB.Close()

	// Publish on A, open via name lookup on B: the record supplies the
	// store address AND the semantics for the bind-time type check.
	if _, err := sysB.OpenMap(obj); err == nil || !strings.Contains(err.Error(), "webdoc") {
		t.Fatalf("typed open against the record did not fail fast: %v", err)
	}
	doc, err := sysB.Open(obj, WithSession(ReadYourWrites))
	if err != nil {
		t.Fatalf("open by name: %v", err)
	}
	if err := doc.Put("index.html", []byte("hello"), "text/html"); err != nil {
		t.Fatal(err)
	}
	pg, err := doc.Get("index.html")
	if err != nil || string(pg.Content) != "hello" {
		t.Fatalf("get = %v, %v", pg, err)
	}
	doc.Close()

	// Install a replica at B wired entirely from the record: semantics,
	// strategy, and parent all come from resolution.
	cache, err := sysB.NewCache("cacheB", nil)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sysB.ResolveName(obj)
	if err != nil {
		t.Fatal(err)
	}
	parentAddr := ParentFromRecord(rec, cache.Addr())
	if parentAddr == "" {
		t.Fatalf("record lists no permanent store: %+v", rec)
	}
	up, err := sysB.AttachServer(parentAddr)
	if err != nil {
		t.Fatal(err)
	}
	if err := sysB.ReplicateFrom(cache, up, obj, ReadYourWrites); err != nil {
		t.Fatal(err)
	}
	waitForContent(t, sysB, cache, obj, "index.html", "hello")

	// The record now lists the replica, and a default pick from a third
	// system chooses it (lowest layer).
	sysC := NewSystem(WithFabric(NewTCPFabric("")), WithNameServer(ns.Addr()))
	defer sysC.Close()
	waitForEntries(t, sysC, obj, 2)
	docC, err := sysC.Open(obj)
	if err != nil {
		t.Fatal(err)
	}
	if docC.StoreAddr() != cache.Addr() {
		t.Fatalf("default pick bound %s, want the cache %s", docC.StoreAddr(), cache.Addr())
	}
	docC.Close()

	// Kill the replica: it disappears from the record, and a fresh open
	// re-resolves to the permanent store.
	if err := sysB.Drop(cache, obj); err != nil {
		t.Fatal(err)
	}
	sysC.Resolver().Invalidate(obj)
	waitForEntries(t, sysC, obj, 1)
	docC2, err := sysC.Open(obj)
	if err != nil {
		t.Fatalf("open after replica death: %v", err)
	}
	if got, err := docC2.Get("index.html"); err != nil || string(got.Content) != "hello" {
		t.Fatalf("read after re-resolve = %v, %v", got, err)
	}
	docC2.Close()

	// Re-register the replica at runtime THROUGH THE CONTROL RPC — the
	// daemon-side path — and it becomes resolvable and serves reads.
	ctlAddr, err := sysB.ServeControl("")
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewControl(NewTCPFabric(""), ctlAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	if err := ctl.Call(ControlRequest{Op: "host", Store: "cacheB", Object: string(obj), Session: "ryw"}); err != nil {
		t.Fatalf("control host: %v", err)
	}
	waitForContent(t, sysB, cache, obj, "index.html", "hello")
	sysC.Resolver().Invalidate(obj)
	waitForEntries(t, sysC, obj, 2)
	docC3, err := sysC.Open(obj)
	if err != nil {
		t.Fatal(err)
	}
	defer docC3.Close()
	if docC3.StoreAddr() != cache.Addr() {
		t.Fatalf("runtime replica not picked: bound %s, want %s", docC3.StoreAddr(), cache.Addr())
	}
	if got, err := docC3.Get("index.html"); err != nil || string(got.Content) != "hello" {
		t.Fatalf("read at runtime replica = %v, %v", got, err)
	}
}

// waitForContent polls a local replica until a page shows the wanted
// content.
func waitForContent(t *testing.T, sys *System, st *Store, obj ObjectID, page, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		d, err := sys.Open(obj, At(st))
		if err == nil {
			pg, gerr := d.Get(page)
			d.Close()
			if gerr == nil && string(pg.Content) == want {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica %s never served %q=%q", st.Addr(), page, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitForEntries polls resolution until the record lists n live entries.
func waitForEntries(t *testing.T, sys *System, obj ObjectID, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		sys.Resolver().Invalidate(obj)
		rec, err := sys.ResolveName(obj)
		if err == nil && len(rec.Entries) == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("record never reached %d entries: %+v (err %v)", n, rec, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReusedIdentityResumesPastLaggingReplica is the covered-write-ID
// regression: a returning client that pins its identity and binds a replica
// that LAGS its previous writes must not re-issue their write IDs (stores
// would silently absorb the re-issues as replays, losing the new writes).
// The resolver's write-sequence floor — reported when the previous session
// closed — is what closes the hole: binds seed from max(bound store's
// applied vector, floor).
func TestReusedIdentityResumesPastLaggingReplica(t *testing.T) {
	sys := NewSystem()
	defer sys.Close()
	server, err := sys.NewServer("www")
	if err != nil {
		t.Fatal(err)
	}
	const obj = ObjectID("resume-doc")
	// A very long lazy interval keeps the cache lagging: nothing is pushed
	// during the test, so the cache's applied vector stays at the bootstrap
	// snapshot (empty).
	if err := sys.Publish(server, obj, WebDoc(), ConferenceStrategy(time.Hour)); err != nil {
		t.Fatal(err)
	}
	cache, err := sys.NewCache("proxy", server)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Replicate(cache, obj); err != nil {
		t.Fatal(err)
	}

	// Session 1: three writes at the permanent store, then close (which
	// reports the floor to the resolver).
	const pinned = 777
	doc1, err := sys.Open(obj, At(server), AsClient(pinned))
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range []string{"A1;", "A2;", "A3;"} {
		if err := doc1.Append("p", []byte(tok)); err != nil {
			t.Fatal(err)
		}
	}
	doc1.Close()
	if got := sys.Naming().ClientSeqFloor(pinned); got != 3 {
		t.Fatalf("floor after close = %d, want 3", got)
	}

	// Session 2: same identity, bound at the LAGGING cache (applied vector
	// empty). Without the floor the bind would seed seq 0 and the next
	// write would reuse WiD (777,1) — absorbed upstream as a replay.
	doc2, err := sys.Open(obj, At(cache), AsClient(pinned))
	if err != nil {
		t.Fatal(err)
	}
	if err := doc2.Append("p", []byte("B1;")); err != nil {
		t.Fatal(err)
	}
	doc2.Close()

	// The new write must exist at the permanent store alongside the old
	// ones — not silently deduplicated.
	doc3, err := sys.Open(obj, At(server))
	if err != nil {
		t.Fatal(err)
	}
	defer doc3.Close()
	pg, err := doc3.Get("p")
	if err != nil {
		t.Fatal(err)
	}
	if got := string(pg.Content); got != "A1;A2;A3;B1;" {
		t.Fatalf("permanent store content = %q, want the reused identity's new write applied (A1;A2;A3;B1;)", got)
	}
}

// TestSubscribeSurvivesLoss hosts a replica over a link that is already
// lossy when the subscribe handshake runs: the ack + bounded retry (and
// digest-triggered re-subscribe) must get the replica into the children set
// and converged without any clean-network warm-up.
func TestSubscribeSurvivesLoss(t *testing.T) {
	sys := NewSystem(WithFabric(NewMemFabric(memnet.WithSeed(1))), WithDigestInterval(25*time.Millisecond))
	defer sys.Close()
	net := sys.Network()
	// Hostile from the very first frame — the subscribe itself runs under
	// 60% loss.
	net.SetLinkBoth("store/www", "store/proxy", memnet.LinkProfile{
		Latency: 100 * time.Microsecond,
		Jitter:  200 * time.Microsecond,
		Loss:    0.6,
	})

	server, err := sys.NewServer("www")
	if err != nil {
		t.Fatal(err)
	}
	const obj = ObjectID("lossy-doc")
	if err := sys.Publish(server, obj, WebDoc(), WhiteboardStrategy()); err != nil {
		t.Fatal(err)
	}
	if err := doWrite(sys, obj, server, "p", "hello;"); err != nil {
		t.Fatal(err)
	}
	cache, err := sys.NewCache("proxy", server)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Replicate(cache, obj); err != nil {
		t.Fatal(err)
	}
	if err := doWrite(sys, obj, server, "p", "world;"); err != nil {
		t.Fatal(err)
	}
	waitForContent(t, sys, cache, obj, "p", "hello;world;")
	// The scenario must actually have exercised the retry path — a seed
	// whose first subscribe (or its ack) landed cleanly would make this
	// test vacuous.
	stats, err := cache.Stats(obj)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SubscribesSent < 2 {
		t.Fatalf("subscribe retry never fired (SubscribesSent=%d); pick a seed whose first subscribe is lost", stats.SubscribesSent)
	}
}

// doWrite appends one token through a fresh client bound at st, retrying
// timeouts (client links are clean here, but the forwarded write path may
// cross lossy store links in other tests).
func doWrite(sys *System, obj ObjectID, st *Store, page, tok string) error {
	d, err := sys.Open(obj, At(st), WithTimeout(2*time.Second))
	if err != nil {
		return err
	}
	defer d.Close()
	var werr error
	for i := 0; i < 10; i++ {
		if werr = d.Append(page, []byte(tok)); werr == nil {
			return nil
		}
	}
	return werr
}
