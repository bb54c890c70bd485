package store_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/replication"
	"repro/internal/semantics/webdoc"
	"repro/internal/store"
	"repro/internal/strategy"
)

// TestCallsFailOnceTheEndpointCloses: the loop returns when its endpoint's
// Recv closes (a shared fabric torn down before the store). Every later call
// that has to run on the loop must report ErrClosed, not wait for a loop
// that is gone.
func TestCallsFailOnceTheEndpointCloses(t *testing.T) {
	r := newRig(t)
	const obj = ids.ObjectID("orphan")
	s := r.store("orphan-store", replication.RolePermanent)
	if err := s.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: strategy.Conference(10 * time.Millisecond)}); err != nil {
		t.Fatal(err)
	}
	if err := r.net.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.Applied(obj)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, store.ErrClosed) {
			t.Fatalf("Applied after the endpoint closed: %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Applied still blocked 2s after the endpoint closed")
	}
}

// TestRemovePeerStopsGossip peers two eventual mirrors, sees their gossip
// flow, then removes each from the other: after one more gossip period
// neither sends another digest, and nothing at all crosses the network.
func TestRemovePeerStopsGossip(t *testing.T) {
	r := newRig(t)
	const obj = ids.ObjectID("peered")
	const period = 10 * time.Millisecond
	a := r.store("mirror-a", replication.RoleObjectInitiated)
	b := r.store("mirror-b", replication.RoleObjectInitiated)
	for _, s := range []*store.Store{a, b} {
		if err := s.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: strategy.MirroredSite(period)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.AddPeer(obj, "mirror-b"); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer(obj, "mirror-a"); err != nil {
		t.Fatal(err)
	}
	rounds := func(s *store.Store) uint64 {
		st, err := s.Stats(obj)
		if err != nil {
			t.Fatal(err)
		}
		return st.GossipRounds
	}
	eventually(t, 3*time.Second, func() bool { return rounds(a) > 1 && rounds(b) > 1 }, "both mirrors gossip")

	if err := a.RemovePeer(obj, "mirror-b"); err != nil {
		t.Fatal(err)
	}
	if err := b.RemovePeer(obj, "mirror-a"); err != nil {
		t.Fatal(err)
	}
	// A round armed before the removal may still fire, to no peer.
	time.Sleep(2 * period)
	ra, rb, sent := rounds(a), rounds(b), r.net.Stats()
	time.Sleep(10 * period)
	if got := rounds(a); got != ra {
		t.Errorf("mirror A gossiped %d more rounds after RemovePeer", got-ra)
	}
	if got := rounds(b); got != rb {
		t.Errorf("mirror B gossiped %d more rounds after RemovePeer", got-rb)
	}
	now := r.net.Stats()
	if now.Sent != sent.Sent {
		t.Errorf("%d frames sent after both peers were removed (%d digests)",
			now.Sent-sent.Sent, now.ByKind[msg.KindGossip]-sent.ByKind[msg.KindGossip])
	}
}
