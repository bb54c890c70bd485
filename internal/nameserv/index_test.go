package nameserv

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/naming"
	"repro/internal/replication"
	"repro/internal/transport/memnet"
)

// indexOfKeys decodes a server's directory keys into a fresh Service: the
// index a server that started from those keys alone would hold.
func indexOfKeys(srv *Server) *naming.Service {
	ns := naming.New()
	for _, key := range srv.dir.Keys() {
		v, ok := srv.dir.Get(key)
		kind, first, _ := splitKey(key)
		switch {
		case !ok:
		case kind == 'e' || kind == 'm':
			items, err := DecodeItems(v)
			if err != nil || len(items) != 1 {
				continue
			}
			if it := items[0]; it.Kind == itemEntry {
				ns.Register(it.Object, it.Entry)
			} else {
				ns.SetMeta(it.Object, it.Meta)
			}
		case kind == 'f' && len(v) == 8:
			c, err := strconv.ParseUint(first, 10, 32)
			if err == nil {
				ns.ReportClientSeq(ids.ClientID(c), binary.BigEndian.Uint64(v))
			}
		}
	}
	return ns
}

// indexMismatch reports how srv's index differs from indexOfKeys on the
// named objects and clients, or "" when it does not. Versions count each
// server's own changes, so they are left out.
func indexMismatch(srv *Server, objects []ids.ObjectID, clients []ids.ClientID) string {
	fresh := indexOfKeys(srv)
	for _, obj := range objects {
		got, gotOK := srv.RecordSnapshot(obj)
		want, wantOK := fresh.Record(obj)
		if gotOK != wantOK || !reflect.DeepEqual(got.Entries, want.Entries) || !reflect.DeepEqual(got.Meta, want.Meta) {
			return fmt.Sprintf("%s: index has %+v (%v), keys give %+v (%v)", obj, got, gotOK, want, wantOK)
		}
	}
	for _, c := range clients {
		if got, want := srv.FloorSnapshot(c), fresh.ClientSeqFloor(c); got != want {
			return fmt.Sprintf("client %d: index floor %d, keys give %d", c, got, want)
		}
	}
	return ""
}

// TestIndexFollowsDirectoryKeys drives two naming peers through
// registrations, a deregistration, a renewal, an expiry, and a split long
// enough that healing exchanges whole states, merged key by key. After each
// step, each server's index — records and floors — equals what its
// directory keys give when folded afresh.
func TestIndexFollowsDirectoryKeys(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	mk := func(name string, idx int, peer string, ttl time.Duration) *Server {
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
	s1 := mk("ns1", 1, "ns2", 400*time.Millisecond)
	s2 := mk("ns2", 2, "ns1", 0)
	c1 := newClientT(t, net, "c1", s1.Addr())
	c2 := newClientT(t, net, "c2", s2.Addr())
	objects := []ids.ObjectID{"doc", "other", "left", "right"}
	for i := 0; i < 7; i++ {
		objects = append(objects, ids.ObjectID(fmt.Sprintf("churn-%d", i)))
	}
	clients := []ids.ClientID{77, 78, 79}
	deadline := time.Now().Add(20 * time.Second)
	settle := func(step string, done func() bool) {
		t.Helper()
		for {
			var why string
			if !done() {
				why = "the step has not taken effect"
			}
			for _, s := range []*Server{s1, s2} {
				if why == "" {
					why = indexMismatch(s, objects, clients)
				}
			}
			if why == "" {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("after %s: %s", step, why)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	resolvesAt := func(s *Server, obj ids.ObjectID, n int) bool {
		r, ok := s.RecordSnapshot(obj)
		return ok && len(r.Entries) == n
	}

	if err := c1.Register("doc", naming.Entry{Addr: "perm", Store: 1, Role: replication.RolePermanent},
		naming.Meta{Sem: "webdoc", Models: []string{"ryw"}}); err != nil {
		t.Fatal(err)
	}
	if err := c1.Register("doc", naming.Entry{Addr: "mirror", Store: 2, Role: replication.RoleObjectInitiated}, naming.Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := c2.Register("other", naming.Entry{Addr: "x", Store: 3}, naming.Meta{Sem: "kvstore"}); err != nil {
		t.Fatal(err)
	}
	c1.ReportClientSeq(77, 5)
	c2.ReportClientSeq(77, 9)
	settle("registrations", func() bool { return s2.FloorSnapshot(77) == 9 && s1.FloorSnapshot(77) == 9 })

	if err := c2.Deregister("doc", "mirror"); err != nil {
		t.Fatal(err)
	}
	settle("a deregistration", func() bool {
		r, _ := s1.RecordSnapshot("doc")
		for _, e := range r.Entries {
			if e.Addr == "mirror" {
				return false
			}
		}
		return true
	})

	if _, err := c1.RenewContact("perm"); err != nil {
		t.Fatal(err)
	}
	settle("a renewal", func() bool { return true })

	settle("an expiry", func() bool { return s1.ExpiredSnapshot() > 0 && !resolvesAt(s2, "other", 1) })

	net.Partition("ns1", "ns2")
	if err := c1.Register("left", naming.Entry{Addr: "a", Store: 4}, naming.Meta{Sem: "applog"}); err != nil {
		t.Fatal(err)
	}
	if err := c2.Register("right", naming.Entry{Addr: "b", Store: 5}, naming.Meta{}); err != nil {
		t.Fatal(err)
	}
	// A contact point the other side still lists: its whole state drops the
	// key, and no merged key brings it back.
	if err := c1.Deregister("doc", "perm"); err != nil {
		t.Fatal(err)
	}
	c1.ReportClientSeq(78, 3)
	c2.ReportClientSeq(79, 4)
	// More edits per side than the update log holds (4 096), so healing
	// exchanges whole states.
	for i := 0; i < 4200; i++ {
		for _, c := range []*Client{c1, c2} {
			if err := c.Register(ids.ObjectID(fmt.Sprintf("churn-%d", i%7)), naming.Entry{Addr: c.cfg.Name, Store: 6}, naming.Meta{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	net.Heal("ns1", "ns2")
	// Floors never expire: each side's floor reaching the other shows the
	// merge went both ways.
	settle("a whole-state merge", func() bool { return s2.FloorSnapshot(78) == 3 && s1.FloorSnapshot(79) == 4 })
}
