package naming

import (
	"testing"

	"repro/internal/ids"
	"repro/internal/replication"
)

func TestIDAllocation(t *testing.T) {
	s := New()
	if a, b := s.NextClient(), s.NextClient(); a == b || a == 0 || b == 0 {
		t.Fatalf("client ids not unique: %d %d", a, b)
	}
	if a, b := s.NextStore(), s.NextStore(); a == b || a == 0 || b == 0 {
		t.Fatalf("store ids not unique: %d %d", a, b)
	}
}

func TestRegisterLookupOrder(t *testing.T) {
	s := New()
	s.Register("o", Entry{Addr: "perm", Store: 1, Role: replication.RolePermanent})
	s.Register("o", Entry{Addr: "cache", Store: 2, Role: replication.RoleClientInitiated})
	s.Register("o", Entry{Addr: "mirror", Store: 3, Role: replication.RoleObjectInitiated})
	r, _ := s.Record("o")
	got := r.Entries
	if len(got) != 3 {
		t.Fatalf("lookup returned %d entries", len(got))
	}
	// Client-initiated first, permanent last.
	if got[0].Addr != "cache" || got[1].Addr != "mirror" || got[2].Addr != "perm" {
		t.Fatalf("layer ordering wrong: %+v", got)
	}
}

func TestRegisterReplacesSameAddr(t *testing.T) {
	s := New()
	s.Register("o", Entry{Addr: "a", Store: 1, Role: replication.RolePermanent})
	s.Register("o", Entry{Addr: "a", Store: 9, Role: replication.RolePermanent})
	r, _ := s.Record("o")
	got := r.Entries
	if len(got) != 1 || got[0].Store != 9 {
		t.Fatalf("replacement failed: %+v", got)
	}
}

func TestDeregister(t *testing.T) {
	s := New()
	s.Register("o", Entry{Addr: "a", Store: 1, Role: replication.RolePermanent})
	s.Register("o", Entry{Addr: "b", Store: 2, Role: replication.RoleClientInitiated})
	s.Deregister("o", "a")
	r, _ := s.Record("o")
	got := r.Entries
	if len(got) != 1 || got[0].Addr != "b" {
		t.Fatalf("deregister failed: %+v", got)
	}
	s.Deregister("o", "missing") // no-op
}

func TestLookupUnknownObject(t *testing.T) {
	s := New()
	if r, ok := s.Record("nothing"); ok || len(r.Entries) != 0 {
		t.Fatalf("unknown object returned a record: %+v", r)
	}
}

func TestPickLayerAwareDeterministic(t *testing.T) {
	s := New()
	if _, ok := s.Pick("o"); ok {
		t.Fatalf("Pick on empty service returned an entry")
	}
	// Register in adverse order: permanent first, then a high-ID cache, then
	// a low-ID cache. Pick must not depend on registration order.
	s.Register("o", Entry{Addr: "perm", Store: 1, Role: replication.RolePermanent})
	e, ok := s.Pick("o")
	if !ok || e.Addr != "perm" {
		t.Fatalf("Pick with only a permanent store: %+v", e)
	}
	s.Register("o", Entry{Addr: "mirror", Store: 2, Role: replication.RoleObjectInitiated})
	s.Register("o", Entry{Addr: "cache-late", Store: 9, Role: replication.RoleClientInitiated})
	s.Register("o", Entry{Addr: "cache-early", Store: 3, Role: replication.RoleClientInitiated})
	e, _ = s.Pick("o")
	if e.Addr != "cache-early" {
		t.Fatalf("Pick = %+v, want lowest-layer lowest-ID cache-early", e)
	}
	// A remote entry without a store ID loses the tie against an identified
	// replica in the same layer.
	s.Register("o", Entry{Addr: "remote-cache", Store: 0, Role: replication.RoleClientInitiated})
	e, _ = s.Pick("o")
	if e.Addr != "cache-early" {
		t.Fatalf("Pick preferred ID-less remote entry: %+v", e)
	}
}

func TestReserveIDsDisjointFromAllocation(t *testing.T) {
	s := New()
	// Pin ahead of allocation: allocator must skip the pinned ID.
	if err := s.ReserveClient(3); err != nil {
		t.Fatal(err)
	}
	got := []ids.ClientID{s.NextClient(), s.NextClient(), s.NextClient()}
	want := []ids.ClientID{1, 2, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("allocations = %v, want %v", got, want)
		}
	}
	// Re-pinning the same identity is the session-resume pattern: allowed.
	if err := s.ReserveClient(3); err != nil {
		t.Fatalf("re-pin of pinned client: %v", err)
	}
	// Pinning an ID the allocator already handed out is a collision.
	if err := s.ReserveClient(2); err == nil {
		t.Fatalf("pin of auto-allocated client 2 accepted")
	}
	// Stores follow the same rules.
	if err := s.ReserveStore(1); err != nil {
		t.Fatal(err)
	}
	if id := s.NextStore(); id != 2 {
		t.Fatalf("NextStore = %d, want 2 (1 is pinned)", id)
	}
	if err := s.ReserveStore(2); err == nil {
		t.Fatalf("pin of auto-allocated store 2 accepted")
	}
}
