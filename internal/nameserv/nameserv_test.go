package nameserv

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/naming"
	"repro/internal/replication"
	"repro/internal/semantics/kvstore"
	"repro/internal/strategy"
	"repro/internal/transport"
	"repro/internal/transport/memnet"
)

func newServerT(t *testing.T, net *memnet.Network, name string, idx, total int, peers []string, sync time.Duration) *Server {
	t.Helper()
	s, err := NewServer(Config{
		Fabric: net, Name: name, Index: idx, Total: total,
		Peers: peers, SyncInterval: sync,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func newClientT(t *testing.T, net *memnet.Network, name string, servers ...string) *Client {
	t.Helper()
	c := NewClient(ClientConfig{Fabric: net, Name: name, Servers: servers, Timeout: 2 * time.Second})
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestRegisterResolveRoundTrip checks the basic record life cycle: register
// entries and metadata, resolve the merged record, deregister, resolve
// again.
func TestRegisterResolveRoundTrip(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	srv := newServerT(t, net, "ns", 1, 1, nil, -1)
	cl := newClientT(t, net, "c1", srv.Addr())

	strat := strategy.Conference(50 * time.Millisecond)
	meta := naming.Meta{Sem: "webdoc", Strat: strat, HasStrat: true, Models: []string{"ryw", "mr"}}
	if err := cl.Register("doc", naming.Entry{Addr: "perm", Store: 1, Role: replication.RolePermanent}, meta); err != nil {
		t.Fatal(err)
	}
	if err := cl.Register("doc", naming.Entry{Addr: "cache", Store: 2, Role: replication.RoleClientInitiated}, naming.Meta{}); err != nil {
		t.Fatal(err)
	}

	rec, err := cl.Resolve("doc")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Entries) != 2 {
		t.Fatalf("got %d entries, want 2: %+v", len(rec.Entries), rec.Entries)
	}
	if rec.Meta.Sem != "webdoc" || !rec.Meta.HasStrat {
		t.Fatalf("meta lost: %+v", rec.Meta)
	}
	if rec.Meta.Strat != strat {
		t.Fatalf("strategy did not round-trip: got %v want %v", rec.Meta.Strat, strat)
	}
	if got := rec.Meta.Models; len(got) != 2 || got[0] != "ryw" || got[1] != "mr" {
		t.Fatalf("models did not round-trip: %v", got)
	}
	if e, ok := naming.PickEntry(rec.Entries); !ok || e.Addr != "cache" {
		t.Fatalf("pick chose %+v, want the cache (lowest layer)", e)
	}

	// Deregister tombstones the entry; the record no longer lists it.
	if err := cl.Deregister("doc", "cache"); err != nil {
		t.Fatal(err)
	}
	rec, err = cl.Resolve("doc")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Entries) != 1 || rec.Entries[0].Addr != "perm" {
		t.Fatalf("tombstone not applied: %+v", rec.Entries)
	}

	if _, err := cl.Resolve("nope"); err == nil {
		t.Fatalf("resolving an unknown object succeeded")
	}
}

// TestRecordCacheInvalidation checks that the client serves cached records
// within the TTL and that Invalidate forces a re-fetch.
func TestRecordCacheInvalidation(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	srv := newServerT(t, net, "ns", 1, 1, nil, -1)
	cl := NewClient(ClientConfig{
		Fabric: net, Name: "c1", Servers: []string{srv.Addr()},
		Timeout: 2 * time.Second, CacheTTL: time.Hour, // never expires in-test
	})
	defer cl.Close()

	other := newClientT(t, net, "c2", srv.Addr())
	if err := cl.Register("doc", naming.Entry{Addr: "a", Store: 1, Role: replication.RolePermanent}, naming.Meta{Sem: "webdoc"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Resolve("doc"); err != nil {
		t.Fatal(err)
	}
	// A registration through ANOTHER client is invisible until invalidation
	// (the cache is per-process; re-registration elsewhere is detected at
	// bind failure, which calls Invalidate).
	if err := other.Register("doc", naming.Entry{Addr: "b", Store: 2, Role: replication.RolePermanent}, naming.Meta{}); err != nil {
		t.Fatal(err)
	}
	rec, err := cl.Resolve("doc")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Entries) != 1 {
		t.Fatalf("cache returned %d entries, want the stale 1", len(rec.Entries))
	}
	cl.Invalidate("doc")
	rec, err = cl.Resolve("doc")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Entries) != 2 {
		t.Fatalf("after invalidation got %d entries, want 2", len(rec.Entries))
	}
}

// TestLeaseUniqueUnderConcurrentDaemons hammers one name server with many
// concurrent allocators and checks every leased identifier is unique —
// the globally-unique-identity guarantee daemons rely on.
func TestLeaseUniqueUnderConcurrentDaemons(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	srv := newServerT(t, net, "ns", 1, 1, nil, -1)

	const daemons = 8
	const perDaemon = 200
	var mu sync.Mutex
	seen := make(map[ids.ClientID]string, daemons*perDaemon)
	var wg sync.WaitGroup
	errCh := make(chan error, daemons)
	for d := 0; d < daemons; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			cl := NewClient(ClientConfig{Fabric: net, Name: fmt.Sprintf("d%d", d), Servers: []string{srv.Addr()}})
			defer cl.Close()
			for i := 0; i < perDaemon; i++ {
				id, err := cl.NextClient()
				if err != nil {
					errCh <- err
					return
				}
				mu.Lock()
				if prev, dup := seen[id]; dup {
					mu.Unlock()
					errCh <- fmt.Errorf("client ID %d leased to both %s and d%d", id, prev, d)
					return
				}
				seen[id] = fmt.Sprintf("d%d", d)
				mu.Unlock()
			}
		}(d)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if len(seen) != daemons*perDaemon {
		t.Fatalf("got %d unique IDs, want %d", len(seen), daemons*perDaemon)
	}
}

// TestLeaseStripingAcrossPeers checks that two name servers allocating
// independently (no sync at all) still hand out disjoint identifier
// ranges — uniqueness must not depend on anti-entropy.
func TestLeaseStripingAcrossPeers(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	s1 := newServerT(t, net, "ns1", 1, 2, nil, -1)
	s2 := newServerT(t, net, "ns2", 2, 2, nil, -1)
	c1 := newClientT(t, net, "c1", s1.Addr())
	c2 := newClientT(t, net, "c2", s2.Addr())

	seen := make(map[ids.StoreID]int)
	for i := 0; i < 300; i++ {
		a, err := c1.NextStore()
		if err != nil {
			t.Fatal(err)
		}
		b, err := c2.NextStore()
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[a]; dup {
			t.Fatalf("store ID %d handed out twice (server %d then 1)", a, prev)
		}
		seen[a] = 1
		if prev, dup := seen[b]; dup {
			t.Fatalf("store ID %d handed out twice (server %d then 2)", b, prev)
		}
		seen[b] = 2
	}
}

// TestDirectoryAntiEntropy checks that records registered at one name
// server become resolvable through its peer via the digest/sync cycle, and
// that a concurrent registration of different entries at both merges
// rather than one side winning wholesale.
func TestDirectoryAntiEntropy(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	// Endpoint names are the addresses on memnet, so peers can be
	// configured by name before the servers exist.
	s1 := newServerT(t, net, "ns1", 1, 2, []string{"ns2"}, 20*time.Millisecond)
	s2 := newServerT(t, net, "ns2", 2, 2, []string{"ns1"}, 20*time.Millisecond)
	c1 := newClientT(t, net, "c1", s1.Addr())
	c2 := newClientT(t, net, "c2", s2.Addr())

	if err := c1.Register("doc", naming.Entry{Addr: "perm", Store: 1, Role: replication.RolePermanent},
		naming.Meta{Sem: "webdoc"}); err != nil {
		t.Fatal(err)
	}
	if err := c2.Register("doc", naming.Entry{Addr: "mirror", Store: 2, Role: replication.RoleObjectInitiated},
		naming.Meta{}); err != nil {
		t.Fatal(err)
	}
	// Both servers must converge on the two-entry record.
	deadline := time.Now().Add(5 * time.Second)
	for {
		r1, ok1 := s1.RecordSnapshot("doc")
		r2, ok2 := s2.RecordSnapshot("doc")
		if ok1 && ok2 && len(r1.Entries) == 2 && len(r2.Entries) == 2 &&
			r1.Meta.Sem == "webdoc" && r2.Meta.Sem == "webdoc" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("directories did not converge: s1=%+v s2=%+v", r1, r2)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// A deregistration at one peer retires the entry at the other.
	if err := c2.Deregister("doc", "perm"); err != nil {
		t.Fatal(err)
	}
	for {
		r1, _ := s1.RecordSnapshot("doc")
		if len(r1.Entries) == 1 && r1.Entries[0].Addr == "mirror" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tombstone did not replicate: s1=%+v", r1)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFloorReplication checks that a write-sequence floor reported at one
// name server is served by its peer after anti-entropy — a returning
// client may bind through a different server than it reported to.
func TestFloorReplication(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	s1 := newServerT(t, net, "ns1", 1, 2, []string{"ns2"}, 20*time.Millisecond)
	s2 := newServerT(t, net, "ns2", 2, 2, []string{"ns1"}, 20*time.Millisecond)
	c1 := newClientT(t, net, "c1", s1.Addr())
	c2 := newClientT(t, net, "c2", s2.Addr())

	c1.ReportClientSeq(77, 41)
	c1.ReportClientSeq(77, 43)
	c1.ReportClientSeq(77, 42) // floors max-merge; lower reports never regress
	if got := c1.ClientSeqFloor(77); got != 43 {
		t.Fatalf("floor at reporting server = %d, want 43", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := c2.ClientSeqFloor(77); got == 43 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("floor did not replicate: peer has %d, want 43", s2.FloorSnapshot(77))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestItemCodecRoundTrip round-trips every item kind through the wire.
func TestItemCodecRoundTrip(t *testing.T) {
	strat := strategy.Whiteboard()
	in := []Item{
		{Kind: itemEntry, Object: "o1", Entry: naming.Entry{Addr: "a:1", Store: 9, Role: replication.RoleObjectInitiated}},
		{Kind: itemMeta, Object: "o2", Meta: naming.Meta{Sem: "applog", Strat: strat, HasStrat: true, Models: []string{"wfr"}}},
	}
	out, err := DecodeItems(EncodeItems(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d items, want %d", len(out), len(in))
	}
	if out[0].Entry != in[0].Entry || out[0].Object != "o1" {
		t.Fatalf("entry item: %+v", out[0])
	}
	if out[1].Meta.Sem != "applog" || !out[1].Meta.HasStrat || out[1].Meta.Strat != strat ||
		len(out[1].Meta.Models) != 1 || out[1].Meta.Models[0] != "wfr" {
		t.Fatalf("meta item: %+v", out[1])
	}
	// Corrupt counts must not panic or over-allocate.
	if _, err := DecodeItems([]byte{0xff, 0xff, 0x01}); err == nil {
		t.Fatalf("corrupt payload decoded")
	}
}

// TestAntiEntropySurvivesLostPushes registers many records through one of
// two peers over a link that drops half the frames: the contiguous
// per-origin coverage floors must keep re-shipping past any lost push or
// sync until both directories converge — a max-based digest would jump the
// holes and hide them forever.
func TestAntiEntropySurvivesLostPushes(t *testing.T) {
	net := memnet.New(memnet.WithSeed(3))
	defer net.Close()
	net.SetLinkBoth("ns1", "ns2", memnet.LinkProfile{
		Latency: 100 * time.Microsecond,
		Jitter:  300 * time.Microsecond,
		Loss:    0.5,
	})
	s1 := newServerT(t, net, "ns1", 1, 2, []string{"ns2"}, 15*time.Millisecond)
	s2 := newServerT(t, net, "ns2", 2, 2, []string{"ns1"}, 15*time.Millisecond)
	c1 := newClientT(t, net, "c1", s1.Addr())

	const records = 40
	for i := 0; i < records; i++ {
		obj := ids.ObjectID(fmt.Sprintf("lossy-%d", i))
		if err := c1.Register(obj, naming.Entry{Addr: fmt.Sprintf("a%d", i), Store: ids.StoreID(i + 1), Role: replication.RolePermanent},
			naming.Meta{Sem: "webdoc"}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < records; i++ {
		obj := ids.ObjectID(fmt.Sprintf("lossy-%d", i))
		for {
			if rec, ok := s2.RecordSnapshot(obj); ok && len(rec.Entries) == 1 && rec.Meta.Sem == "webdoc" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("record %s never reached the peer through 50%% loss", obj)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// TestPeerRestartRecoversCursors restarts one of two naming peers and
// checks the two in-memory cursors that must survive via replication: the
// lease-range cursor (a restarted server must not re-issue identifier
// ranges daemons already hold) and the item-seq counter (items originated
// after the restart must still replicate — a reset counter would stamp
// them below the peers' coverage floor and anti-entropy would never ship
// them).
func TestPeerRestartRecoversCursors(t *testing.T) {
	net := memnet.New(memnet.WithSeed(4))
	defer net.Close()
	s1 := newServerT(t, net, "ns1", 1, 2, []string{"ns2"}, 10*time.Millisecond)
	_ = s1
	s2, err := NewServer(Config{
		Fabric: net, Name: "ns2", Index: 2, Total: 2,
		Peers: []string{"ns1"}, SyncInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c2 := newClientT(t, net, "c2", "ns2")

	// Pre-restart: two leased store ranges and one record via s2.
	seen := make(map[ids.StoreID]bool)
	for i := 0; i < 2*int(DefaultSpan); i++ {
		id, err := c2.NextStore()
		if err != nil {
			t.Fatal(err)
		}
		seen[id] = true
	}
	if err := c2.Register("restart-doc", naming.Entry{Addr: "pre", Store: 1, Role: replication.RolePermanent},
		naming.Meta{Sem: "webdoc"}); err != nil {
		t.Fatal(err)
	}
	// Let the cursors and items replicate to s1, then kill s2.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := s1.RecordSnapshot("restart-doc"); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pre-restart state never replicated to the peer")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart s2 under the same identity. It must recover its cursors from
	// s1 before serving (readiness gate).
	s2b, err := NewServer(Config{
		Fabric: net, Name: "ns2", Index: 2, Total: 2,
		Peers: []string{"ns1"}, SyncInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2b.Close()

	// Post-restart leases must not collide with pre-restart ones.
	for i := 0; i < int(DefaultSpan); i++ {
		id, err := c2.NextStore()
		if err != nil {
			t.Fatal(err)
		}
		if seen[id] {
			t.Fatalf("store ID %d re-issued after server restart", id)
		}
		seen[id] = true
	}
	// Post-restart registrations must still replicate (item seq resumed
	// past the pre-restart stream).
	if err := c2.Register("restart-doc", naming.Entry{Addr: "post", Store: 2, Role: replication.RoleObjectInitiated},
		naming.Meta{}); err != nil {
		t.Fatal(err)
	}
	for {
		if rec, ok := s1.RecordSnapshot("restart-doc"); ok && len(rec.Entries) == 2 {
			break
		}
		if time.Now().After(deadline) {
			rec, _ := s1.RecordSnapshot("restart-doc")
			t.Fatalf("post-restart registration never replicated: peer has %+v", rec)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSnapshotDuringCloseDoesNotHang races RecordSnapshot against Close;
// a posted-but-never-executed closure must not block the caller.
func TestSnapshotDuringCloseDoesNotHang(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	srv, err := NewServer(Config{Fabric: net, Name: "ns", SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			srv.RecordSnapshot("x")
			srv.FloorSnapshot(1)
		}
	}()
	time.Sleep(time.Millisecond)
	_ = srv.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("snapshot call hung across Close")
	}
}

// TestLeaseExpiryRetiresSilentContact is the contact-point liveness
// contract: with a LeaseTTL configured, a registration that stops renewing
// disappears from resolution within roughly one lease period, while a
// renewed one stays; a renewal for an already-expired contact reports zero
// so the daemon knows to re-register.
func TestLeaseExpiryRetiresSilentContact(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	ttl := 200 * time.Millisecond
	srv, err := NewServer(Config{Fabric: net, Name: "ns", SyncInterval: -1, LeaseTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := newClientT(t, net, "c1", srv.Addr())

	if err := cl.Register("doc", naming.Entry{Addr: "live", Store: 1, Role: replication.RolePermanent}, naming.Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Register("doc", naming.Entry{Addr: "dead", Store: 2, Role: replication.RoleObjectInitiated}, naming.Meta{}); err != nil {
		t.Fatal(err)
	}
	// The live daemon heartbeats well inside the TTL; the dead one is silent.
	stop := time.Now().Add(4 * ttl)
	for time.Now().Before(stop) {
		n, err := cl.RenewContact("live")
		if err != nil {
			t.Fatal(err)
		}
		if n != 1 {
			t.Fatalf("renewed %d entries at live, want 1", n)
		}
		time.Sleep(ttl / 4)
	}
	rec, err := cl.Resolve("doc")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Entries) != 1 || rec.Entries[0].Addr != "live" {
		t.Fatalf("after expiry: %+v, want only the renewed contact", rec.Entries)
	}
	if got := srv.ExpiredSnapshot(); got < 1 {
		t.Fatalf("ExpiredSnapshot = %d, want >= 1", got)
	}
	// A heartbeat from the expired contact renews nothing: the daemon must
	// re-register.
	if n, err := cl.RenewContact("dead"); err != nil || n != 0 {
		t.Fatalf("renew of expired contact: n=%d err=%v, want 0, nil", n, err)
	}
	st := cl.Stats()
	if st.LeaseRenewalsSent == 0 || st.RecordsExpired < 1 {
		t.Fatalf("client liveness stats: %+v", st)
	}
	// Re-registration resurrects the contact point (fresh lease).
	if err := cl.Register("doc", naming.Entry{Addr: "dead", Store: 2, Role: replication.RoleObjectInitiated}, naming.Meta{}); err != nil {
		t.Fatal(err)
	}
	cl.Invalidate("doc")
	rec, err = cl.Resolve("doc")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Entries) != 2 {
		t.Fatalf("re-registration after expiry: %+v", rec.Entries)
	}
}

// TestLeaseExpiryReplicatesToPeers: an expiry tombstone originated by one
// naming peer must retire the entry at the other, exactly like an explicit
// deregistration.
func TestLeaseExpiryReplicatesToPeers(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	ttl := 200 * time.Millisecond
	mk := func(name string, idx int, peer string) *Server {
		s, err := NewServer(Config{
			Fabric: net, Name: name, Index: idx, Total: 2,
			Peers: []string{peer}, SyncInterval: 20 * time.Millisecond, LeaseTTL: ttl,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		return s
	}
	s1 := mk("ns1", 1, "ns2")
	s2 := mk("ns2", 2, "ns1")
	c1 := newClientT(t, net, "c1", s1.Addr())

	if err := c1.Register("doc", naming.Entry{Addr: "ghost", Store: 3, Role: replication.RoleObjectInitiated}, naming.Meta{}); err != nil {
		t.Fatal(err)
	}
	// Wait for the entry to reach s2, then for expiry to retire it there.
	deadline := time.Now().Add(5 * time.Second)
	for {
		r2, ok := s2.RecordSnapshot("doc")
		if ok && len(r2.Entries) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("entry never replicated: %+v", r2)
		}
		time.Sleep(2 * time.Millisecond)
	}
	for {
		_, ok1 := s1.RecordSnapshot("doc")
		_, ok2 := s2.RecordSnapshot("doc")
		if !ok1 && !ok2 {
			break // both servers retired the silent contact
		}
		if time.Now().After(deadline) {
			t.Fatalf("expiry did not retire the entry everywhere")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDirectoryRefusesOutsideTraffic: the directory replica is reachable
// only through the naming RPCs and its peers' replication traffic. A bind,
// a write and a read sent straight at it from outside get no OK, and the
// write does not land: it would have forged a lease cursor.
func TestDirectoryRefusesOutsideTraffic(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	srv := newServerT(t, net, "ns", 1, 1, nil, -1)
	ep, err := net.Endpoint("intruder")
	if err != nil {
		t.Fatal(err)
	}
	d := transport.NewDemux(ep)
	defer d.Close()
	const key = "l/1/clients"
	cursor := binary.BigEndian.AppendUint64(nil, 99)
	for _, m := range []*msg.Message{
		{Kind: msg.KindBindRequest, Object: directory, Client: 7},
		{Kind: msg.KindWriteRequest, Object: directory, Client: 7, Write: ids.WiD{Client: 7, Seq: 1},
			Inv: msg.Invocation{Method: kvstore.MethodPut, Page: key, Args: cursor}},
		{Kind: msg.KindReadRequest, Object: directory, Client: 7,
			Inv: msg.Invocation{Method: kvstore.MethodGet, Page: key}},
	} {
		kind := m.Kind
		r, err := d.Call(srv.Addr(), m, 200*time.Millisecond)
		if err == nil {
			if r.Status == msg.StatusOK {
				t.Errorf("%v on the directory answered OK", kind)
			}
			r.Release()
		}
	}
	if v, ok := srv.dir.Get(key); ok {
		t.Fatalf("an outside write set %s to %x", key, v)
	}
}
