package naming

import (
	"reflect"
	"testing"

	"repro/internal/replication"
)

// TestRecordOrderIgnoresRegistrationOrder: the same entries registered in
// two orders give equal records, listed in Pick's order, so the first entry
// is the one Pick chooses.
func TestRecordOrderIgnoresRegistrationOrder(t *testing.T) {
	entries := []Entry{
		{Addr: "b", Store: 9, Role: replication.RoleObjectInitiated},
		{Addr: "a", Role: replication.RoleObjectInitiated},
		{Addr: "c", Store: 7, Role: replication.RoleObjectInitiated},
		{Addr: "d", Store: 8, Role: replication.RoleObjectInitiated},
		{Addr: "p", Store: 1, Role: replication.RolePermanent},
	}
	fwd, back := New(), New()
	for i := range entries {
		fwd.Register("doc", entries[i])
		back.Register("doc", entries[len(entries)-1-i])
	}
	r1, _ := fwd.Record("doc")
	r2, _ := back.Record("doc")
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("registration order changed the record:\n%+v\n%+v", r1, r2)
	}
	if pick, _ := fwd.Pick("doc"); r1.Entries[0] != pick {
		t.Fatalf("first entry %+v is not the pick %+v", r1.Entries[0], pick)
	}
	var addrs []string
	for _, e := range r1.Entries {
		addrs = append(addrs, e.Addr)
	}
	if want := []string{"c", "d", "b", "a", "p"}; !reflect.DeepEqual(addrs, want) {
		t.Fatalf("entries in order %v, want %v (layer, store ID with 0 last, address)", addrs, want)
	}
}

// TestZeroMetaRemovesMeta: setting a zero Meta removes an object's
// metadata, so an object with no entries left is unknown again.
func TestZeroMetaRemovesMeta(t *testing.T) {
	s := New()
	s.SetMeta("doc", Meta{Sem: "webdoc"})
	s.SetMeta("doc", Meta{})
	if rec, ok := s.Record("doc"); ok {
		t.Fatalf("a zero Meta kept the record: %+v", rec)
	}
}
