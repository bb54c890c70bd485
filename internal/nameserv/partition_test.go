package nameserv

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/naming"
	"repro/internal/replication"
	"repro/internal/transport/memnet"
)

// TestDirectoryConvergesAfterPartition splits two naming peers, edits the
// directory on both sides, heals, and expects identical directories: both
// sides' registrations, the deregistration made on one side (its delete wins
// over the registration it follows), and the higher of the two floors one
// client reported.
func TestDirectoryConvergesAfterPartition(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	s1 := newServerT(t, net, "ns1", 1, 2, []string{"ns2"}, 20*time.Millisecond)
	s2 := newServerT(t, net, "ns2", 2, 2, []string{"ns1"}, 20*time.Millisecond)
	c1 := newClientT(t, net, "c1", s1.Addr())
	c2 := newClientT(t, net, "c2", s2.Addr())
	deadline := time.Now().Add(4 * time.Second)
	waitFor := func(what string, ok func() bool) {
		t.Helper()
		for !ok() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	if err := c1.Register("shared", naming.Entry{Addr: "perm", Store: 1, Role: replication.RolePermanent},
		naming.Meta{Sem: "webdoc"}); err != nil {
		t.Fatal(err)
	}
	waitFor("the shared entry at both servers", func() bool {
		r, ok := s2.RecordSnapshot("shared")
		return ok && len(r.Entries) == 1
	})

	net.Partition("ns1", "ns2")
	if err := c1.Register("left", naming.Entry{Addr: "a", Store: 2, Role: replication.RoleObjectInitiated},
		naming.Meta{Sem: "kvstore"}); err != nil {
		t.Fatal(err)
	}
	if err := c2.Register("right", naming.Entry{Addr: "b", Store: 3, Role: replication.RoleClientInitiated},
		naming.Meta{Sem: "applog"}); err != nil {
		t.Fatal(err)
	}
	if err := c2.Deregister("shared", "perm"); err != nil {
		t.Fatal(err)
	}
	c1.ReportClientSeq(77, 5)
	c2.ReportClientSeq(77, 9)
	time.Sleep(60 * time.Millisecond) // three gossip rounds, all cut
	if r, _ := s1.RecordSnapshot("shared"); len(r.Entries) != 1 {
		t.Fatalf("the deregistration crossed the partition: %+v", r)
	}
	if _, ok := s1.RecordSnapshot("right"); ok {
		t.Fatalf("a registration crossed the partition")
	}
	if f1, f2 := s1.FloorSnapshot(77), s2.FloorSnapshot(77); f1 != 5 || f2 != 9 {
		t.Fatalf("floors during the partition = %d, %d, want 5, 9", f1, f2)
	}

	net.Heal("ns1", "ns2")
	objects := []ids.ObjectID{"shared", "left", "right"}
	// Version is each server's own count of applied changes, so the
	// directories agree on entries and metadata.
	same := func(obj ids.ObjectID) bool {
		r1, ok1 := s1.RecordSnapshot(obj)
		r2, ok2 := s2.RecordSnapshot(obj)
		return ok1 && ok2 && reflect.DeepEqual(r1.Entries, r2.Entries) && reflect.DeepEqual(r1.Meta, r2.Meta)
	}
	waitFor("identical directories", func() bool {
		for _, obj := range objects {
			if !same(obj) {
				return false
			}
		}
		return s1.FloorSnapshot(77) == 9 && s2.FloorSnapshot(77) == 9
	})
	if r, _ := s1.RecordSnapshot("shared"); len(r.Entries) != 0 || r.Meta.Sem != "webdoc" {
		t.Fatalf("shared record after healing: %+v, want the metadata and no entries", r)
	}
	for obj, sem := range map[ids.ObjectID]string{"left": "kvstore", "right": "applog"} {
		if r, _ := s1.RecordSnapshot(obj); len(r.Entries) != 1 || r.Meta.Sem != sem {
			t.Fatalf("%s after healing: %+v", obj, r)
		}
	}
}

// TestLongPartitionLosesNoWrite: each side of a split makes more directory
// edits than a replica's update log keeps, so on healing neither log can
// bring the other side up to date and the servers exchange whole states.
// Each side's early writes — a lease step, a registration, a deregistration —
// are then held only in its state, and must survive the merge: a registration
// made on either side resolves on both, the deregistration holds, and a lease
// taken after healing does not reissue the range taken before it.
func TestLongPartitionLosesNoWrite(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	s1 := newServerT(t, net, "ns1", 1, 2, []string{"ns2"}, 20*time.Millisecond)
	s2 := newServerT(t, net, "ns2", 2, 2, []string{"ns1"}, 20*time.Millisecond)
	c1 := newClientT(t, net, "c1", s1.Addr())
	c2 := newClientT(t, net, "c2", s2.Addr())
	if err := c1.Register("shared", naming.Entry{Addr: "perm", Store: 1}, naming.Meta{}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	waitFor := func(what string, ok func() bool) {
		t.Helper()
		for !ok() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitFor("the shared entry at both servers", func() bool {
		r, ok := s2.RecordSnapshot("shared")
		return ok && len(r.Entries) == 1
	})

	net.Partition("ns1", "ns2")
	early := map[*Client]ids.ClientID{}
	for _, c := range []*Client{c1, c2} {
		id, err := c.NextClient()
		if err != nil {
			t.Fatal(err)
		}
		early[c] = id
	}
	if err := c1.Register("left", naming.Entry{Addr: "a", Store: 2}, naming.Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := c2.Register("right", naming.Entry{Addr: "b", Store: 3}, naming.Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := c2.Deregister("shared", "perm"); err != nil {
		t.Fatal(err)
	}
	// More edits per side than the update log holds (4 096).
	const churn = 4200
	for i := 0; i < churn; i++ {
		for _, c := range []*Client{c1, c2} {
			if err := c.Register(ids.ObjectID(fmt.Sprintf("churn-%d", i%7)), naming.Entry{Addr: c.cfg.Name, Store: 4}, naming.Meta{}); err != nil {
				t.Fatal(err)
			}
		}
	}

	net.Heal("ns1", "ns2")
	objects := []ids.ObjectID{"shared", "left", "right"}
	for i := 0; i < 7; i++ {
		objects = append(objects, ids.ObjectID(fmt.Sprintf("churn-%d", i)))
	}
	waitFor("identical directories", func() bool {
		for _, obj := range objects {
			r1, ok1 := s1.RecordSnapshot(obj)
			r2, ok2 := s2.RecordSnapshot(obj)
			if ok1 != ok2 || !reflect.DeepEqual(r1.Entries, r2.Entries) {
				return false
			}
		}
		return true
	})
	for _, s := range []*Server{s1, s2} {
		for obj, addr := range map[ids.ObjectID]string{"left": "a", "right": "b"} {
			if r, _ := s.RecordSnapshot(obj); len(r.Entries) != 1 || r.Entries[0].Addr != addr {
				t.Fatalf("%s at %s after healing: %+v", obj, s.Addr(), r)
			}
		}
		if r, _ := s.RecordSnapshot("shared"); len(r.Entries) != 0 {
			t.Fatalf("the deregistration was lost at %s: %+v", s.Addr(), r)
		}
	}
	rangeOf := func(id ids.ClientID) uint64 { return (uint64(id) - ClientLeaseBase) / DefaultSpan }
	for c, s := range map[*Client]*Server{c1: s1, c2: s2} {
		fresh := newClientT(t, net, "fresh-"+c.cfg.Name, s.Addr())
		id, err := fresh.NextClient()
		if err != nil {
			t.Fatal(err)
		}
		if rangeOf(id) == rangeOf(early[c]) {
			t.Fatalf("%s reissued lease range %d (ids %d and %d)", s.Addr(), rangeOf(id), early[c], id)
		}
	}
}
