package store_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/replication"
	"repro/internal/semantics/webdoc"
	"repro/internal/store"
	"repro/internal/strategy"
	"repro/internal/transport/tcpnet"
)

// digestInterval is the heartbeat period the regression tests run with. The
// acceptance bar is convergence within 2× the interval after a heal; the
// interval is sized so that bound leaves ~180ms of scheduler headroom even
// under -race (worst-case heartbeat lag is 1.25× the interval plus one
// demand round trip).
const digestInterval = 250 * time.Millisecond

// storeWithDigest is rig.store with heartbeats enabled.
func (r *rig) storeWithDigest(addr string, role replication.Role, digest time.Duration) *store.Store {
	r.t.Helper()
	ep, err := r.net.Endpoint(addr)
	if err != nil {
		r.t.Fatal(err)
	}
	s := store.New(store.Config{
		ID:       r.ns.NextStore(),
		Role:     role,
		Endpoint: ep,
		Tuning:   replication.Tuning{ReadTimeout: 2 * time.Second, DigestInterval: digest},
	})
	r.t.Cleanup(func() { _ = s.Close() })
	return s
}

// readLocalPage reads a page's content directly at a store, bypassing the
// client path entirely (the convergence assertions must not generate the
// very foreground traffic whose absence they are testing).
func readLocalPage(s *store.Store, obj ids.ObjectID, page string) (string, error) {
	out, err := s.ReadLocal(obj, msg.Invocation{Method: webdoc.MethodGetPage, Page: page})
	if err != nil {
		return "", err
	}
	pg, err := webdoc.DecodePage(out)
	if err != nil {
		return "", err
	}
	return string(pg.Content), nil
}

// TestDigestHealsPartitionWithoutForegroundTraffic is the tentpole's
// acceptance scenario on memnet: a cache is partitioned from its parent in
// the middle of a write stream, every push is lost, the partition heals —
// and with zero foreground traffic (no reads, no further writes) the cache
// converges within 2× the digest interval, via a KindDigest-triggered
// demand.
func TestDigestHealsPartitionWithoutForegroundTraffic(t *testing.T) {
	r := newRig(t)
	const obj = ids.ObjectID("digest-doc")
	st := strategy.Conference(5 * time.Millisecond)

	perm := r.storeWithDigest("perm", replication.RolePermanent, digestInterval)
	if err := perm.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st}); err != nil {
		t.Fatal(err)
	}
	cache := r.storeWithDigest("cache", replication.RoleClientInitiated, digestInterval)
	if err := cache.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st, Parent: "perm", Subscribe: true}); err != nil {
		t.Fatal(err)
	}
	writer := r.bind("writer", "perm", obj)

	appendPage(t, writer, "log", "a")
	eventually(t, 3*time.Second, func() bool {
		got, err := readLocalPage(cache, obj, "log")
		return err == nil && got == "a"
	}, "pre-partition update arrives")

	// Partition mid-write-stream: these pushes are all dropped.
	r.net.Partition("perm", "cache")
	for i := 0; i < 5; i++ {
		appendPage(t, writer, "log", "b")
	}
	time.Sleep(30 * time.Millisecond) // span several lazy flush windows
	r.net.Heal("perm", "cache")

	// No further writes, no client reads at the cache: only the heartbeat
	// can expose the gap. The eventually deadline IS the acceptance bar.
	eventually(t, 2*digestInterval, func() bool {
		got, err := readLocalPage(cache, obj, "log")
		return err == nil && got == "abbbbb"
	}, "cache converges within 2x DigestInterval after heal")

	cs, err := cache.Stats(obj)
	if err != nil {
		t.Fatal(err)
	}
	if cs.DigestDemands == 0 {
		t.Fatalf("convergence did not come from a digest-triggered demand: %+v", cs)
	}
	if s := r.net.Stats(); s.ByKind[msg.KindDigest] == 0 {
		t.Fatalf("no KindDigest frames crossed the network: %+v", s.ByKind)
	}
}

// TestNoDigestPartitionStalls is the negative control: the identical
// scenario with heartbeats disabled demonstrably stalls — the cache is still
// stale well past the window the digest-enabled run converges in.
func TestNoDigestPartitionStalls(t *testing.T) {
	r := newRig(t)
	const obj = ids.ObjectID("stall-doc")
	st := strategy.Conference(5 * time.Millisecond)

	perm := r.store("perm", replication.RolePermanent) // DigestInterval zero
	if err := perm.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st}); err != nil {
		t.Fatal(err)
	}
	cache := r.store("cache", replication.RoleClientInitiated)
	if err := cache.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st, Parent: "perm", Subscribe: true}); err != nil {
		t.Fatal(err)
	}
	writer := r.bind("writer", "perm", obj)

	appendPage(t, writer, "log", "a")
	eventually(t, 3*time.Second, func() bool {
		got, err := readLocalPage(cache, obj, "log")
		return err == nil && got == "a"
	}, "pre-partition update arrives")

	r.net.Partition("perm", "cache")
	for i := 0; i < 5; i++ {
		appendPage(t, writer, "log", "b")
	}
	time.Sleep(30 * time.Millisecond)
	r.net.Heal("perm", "cache")

	// Give it twice the window the positive test needs, and then some: with
	// no heartbeat and no foreground traffic nothing exposes the gap.
	time.Sleep(2*digestInterval + 100*time.Millisecond)
	got, err := readLocalPage(cache, obj, "log")
	if err != nil {
		t.Fatal(err)
	}
	if got != "a" {
		t.Fatalf("cache recovered without digests (got %q) — negative control invalid", got)
	}
}

// tcpRig assembles stores over real TCP endpoints for the fault tests.
type tcpRig struct {
	t *testing.T
}

func (r *tcpRig) endpoint() *tcpnet.Endpoint {
	r.t.Helper()
	ep, err := tcpnet.Listen("127.0.0.1:0")
	if err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(func() { _ = ep.Close() })
	return ep
}

func (r *tcpRig) store(id uint32, role replication.Role, ep *tcpnet.Endpoint, digest time.Duration) *store.Store {
	r.t.Helper()
	s := store.New(store.Config{
		ID:       ids.StoreID(id),
		Role:     role,
		Endpoint: ep,
		Tuning:   replication.Tuning{ReadTimeout: 2 * time.Second, DigestInterval: digest},
	})
	r.t.Cleanup(func() { _ = s.Close() })
	return s
}

func (r *tcpRig) bind(client uint32, storeAddr string, obj ids.ObjectID) *core.Proxy {
	r.t.Helper()
	ep := r.endpoint()
	p, err := core.Bind(core.BindConfig{
		Object: obj, Endpoint: ep, StoreAddr: storeAddr,
		Client: ids.ClientID(client), Prototype: webdoc.New(), Timeout: 3 * time.Second,
	})
	if err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(p.Close)
	return p
}

// TestDigestHealsTCPPartition runs the partition-heal scenario over real
// TCP: the cache endpoint is paused (listener down, connections severed) in
// the middle of a write stream, every push fails on the broken connections,
// and after resume the digest heartbeat — not client traffic — resyncs it.
func TestDigestHealsTCPPartition(t *testing.T) {
	r := &tcpRig{t: t}
	const obj = ids.ObjectID("tcp-digest-doc")
	st := strategy.Conference(5 * time.Millisecond)

	permEP, cacheEP := r.endpoint(), r.endpoint()
	perm := r.store(1, replication.RolePermanent, permEP, digestInterval)
	if err := perm.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st}); err != nil {
		t.Fatal(err)
	}
	cache := r.store(2, replication.RoleClientInitiated, cacheEP, digestInterval)
	if err := cache.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st, Parent: permEP.Addr(), Subscribe: true}); err != nil {
		t.Fatal(err)
	}
	writer := r.bind(7, permEP.Addr(), obj)

	appendPage(t, writer, "log", "a")
	eventually(t, 3*time.Second, func() bool {
		got, err := readLocalPage(cache, obj, "log")
		return err == nil && got == "a"
	}, "pre-partition update arrives over TCP")

	if err := cacheEP.Pause(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		appendPage(t, writer, "log", "b")
	}
	time.Sleep(30 * time.Millisecond) // pushes fail against the paused endpoint
	if err := cacheEP.Resume(); err != nil {
		t.Fatal(err)
	}

	eventually(t, 2*digestInterval, func() bool {
		got, err := readLocalPage(cache, obj, "log")
		return err == nil && got == "abbbbb"
	}, "TCP cache converges within 2x DigestInterval after resume")

	cs, err := cache.Stats(obj)
	if err != nil {
		t.Fatal(err)
	}
	if cs.DigestDemands == 0 {
		t.Fatalf("TCP convergence did not come from a digest-triggered demand: %+v", cs)
	}
}

// TestTCPConnectionKillMidFrameResyncs kills the cache's connections — mid
// write stream, so frames die in flight — several times, and asserts the
// reconnect + heartbeat path resyncs the replica with no duplicated and no
// reordered applies: the final page content is the exact ordered
// concatenation of every append.
func TestTCPConnectionKillMidFrameResyncs(t *testing.T) {
	r := &tcpRig{t: t}
	const obj = ids.ObjectID("tcp-kill-doc")
	st := strategy.Conference(time.Hour)
	st.Instant = strategy.Immediate // one push per write: many frames to kill
	st.LazyInterval = 0

	permEP, cacheEP := r.endpoint(), r.endpoint()
	perm := r.store(1, replication.RolePermanent, permEP, 100*time.Millisecond)
	if err := perm.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st}); err != nil {
		t.Fatal(err)
	}
	cache := r.store(2, replication.RoleClientInitiated, cacheEP, 100*time.Millisecond)
	if err := cache.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st, Parent: permEP.Addr(), Subscribe: true}); err != nil {
		t.Fatal(err)
	}
	writer := r.bind(7, permEP.Addr(), obj)

	const n = 30
	want := ""
	for i := 0; i < n; i++ {
		tok := fmt.Sprintf("%02d;", i)
		appendPage(t, writer, "log", tok)
		want += tok
		if i%7 == 3 {
			cacheEP.AbortConns() // sever mid-stream; pushes in flight die
		}
	}

	eventually(t, 5*time.Second, func() bool {
		got, err := readLocalPage(cache, obj, "log")
		return err == nil && got == want
	}, "cache resyncs to the exact ordered append sequence (no dup, no reorder)")
}
