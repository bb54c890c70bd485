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
	"repro/internal/vclock"
	"repro/internal/wal"
)

// deletePage deletes page through p.
func deletePage(t *testing.T, p *core.Proxy, page string) {
	t.Helper()
	if _, err := p.Invoke(msg.Invocation{Method: webdoc.MethodDeletePage, Page: page}); err != nil {
		t.Fatalf("delete %s: %v", page, err)
	}
}

// TestRecoveredEventualReplicaKeepsDelete: a durable eventual replica writes
// and then deletes a page, compacts, and restarts from the snapshot alone.
// A write to the page from a peer that the delete's stamp beats, arriving
// only now, must lose to the delete, as it would have before the restart.
// The snapshot used to hold no page stamps, so the restarted engine took the
// older write as the page's first and brought the page back.
func TestRecoveredEventualReplicaKeepsDelete(t *testing.T) {
	r := newRig(t)
	const obj = ids.ObjectID("doc")
	dir := t.TempDir()
	st := strategy.MirroredSite(time.Hour)
	d := replication.Durability{Fsync: wal.SyncAlways}

	permEp := r.endpoint("perm")
	s1 := r.durableStore(permEp, dir, 3, d)
	if err := s1.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st}); err != nil {
		t.Fatal(err)
	}
	p1 := r.bind("c1", "perm", obj)
	putPage(t, p1, "p", "v1") // stamped 1 at the replica's fresh clock
	deletePage(t, p1, "p")    // stamped 2
	if err := s1.Compact(obj); err != nil {
		t.Fatal(err)
	}
	p1.Close()
	s1.Crash()

	s2 := r.durableStore(permEp, dir, 3, d)
	if err := s2.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st}); err != nil {
		t.Fatal(err)
	}
	if _, err := readLocalPage(s2, obj, "p"); err == nil {
		t.Fatal("the restarted replica holds the deleted page")
	}
	put := func(c ids.ClientID, at uint64, page string) *msg.Message {
		return &msg.Message{
			Kind: msg.KindUpdate, Object: obj, From: "peer",
			Write: ids.WiD{Client: c, Seq: 1}, Stamp: vclock.Stamp{Time: at, Client: c},
			Inv: msg.Invocation{Method: webdoc.MethodPutPage, Page: page, Args: webdoc.EncodeWriteArgs(webdoc.WriteArgs{Content: []byte("late")})},
		}
	}
	// The older write, then a fresh one behind it on the same link: once
	// the fresh one shows, the older one has been handled.
	peer := r.endpoint("peer")
	for _, m := range []*msg.Message{put(98, 1, "p"), put(99, 100, "marker")} {
		if err := peer.Send("perm", m); err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, 2*time.Second, func() bool {
		_, err := readLocalPage(s2, obj, "marker")
		return err == nil
	}, "the marker write applies")
	if got, err := readLocalPage(s2, obj, "p"); err == nil {
		t.Fatalf("a write older than the delete brought the page back: %q", got)
	}
}

// TestHostedMirrorKeepsNewerDeleteThroughMerge: two hosted eventual mirrors
// are split. One deletes a page the other still holds, while the other writes
// more than its update log keeps. Once they heal, the second can bring the
// first up to date only with its whole state, and the merge must keep the
// first's newer delete. A store's replica could not remove a page, so the
// merge used to restore the sender's older content there.
func TestHostedMirrorKeepsNewerDeleteThroughMerge(t *testing.T) {
	r := newRig(t)
	const obj = ids.ObjectID("mirrored")
	st := strategy.MirroredSite(10 * time.Millisecond)
	a := r.store("mirror-a", replication.RoleObjectInitiated)
	b := r.store("mirror-b", replication.RoleObjectInitiated)
	for _, s := range []*store.Store{a, b} {
		if err := s.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.AddPeer(obj, "mirror-b"); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer(obj, "mirror-a"); err != nil {
		t.Fatal(err)
	}
	alice := r.bind("alice", "mirror-a", obj)
	bob := r.bind("bob", "mirror-b", obj)

	putPage(t, alice, "p", "v1")
	eventually(t, 5*time.Second, func() bool {
		got, err := readLocalPage(b, obj, "p")
		return err == nil && got == "v1"
	}, "mirror b takes p by gossip")

	r.net.Partition("mirror-a", "mirror-b")
	deletePage(t, alice, "p")
	const n = 4097 // one more write than a replica's update log keeps
	for i := 0; i < n; i++ {
		putPage(t, bob, fmt.Sprintf("b%d", i), "x")
	}
	r.net.Heal("mirror-a", "mirror-b")

	last := fmt.Sprintf("b%d", n-1)
	eventually(t, 5*time.Second, func() bool {
		_, errA := readLocalPage(a, obj, last)
		_, errB := readLocalPage(b, obj, "p")
		return errA == nil && errB != nil
	}, "the mirrors exchange what each lacks")
	// b0 has left b's log, so a holds it only by the whole state.
	if _, err := readLocalPage(a, obj, "b0"); err != nil {
		t.Fatalf("mirror a lacks b0: %v", err)
	}
	if got, err := readLocalPage(a, obj, "p"); err == nil {
		t.Fatalf("mirror a holds the page it deleted after the merge: %q", got)
	}
}
