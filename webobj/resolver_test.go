package webobj

import (
	"reflect"
	"testing"
	"time"
)

// TestResolversAgreeOnEntryOrder: the same publish and replicate calls
// resolve to the same entry list through the in-process resolver and
// through a name server, the first entry being Pick's choice. The mirrors
// are created in neither address nor store-ID order, so an order kept by
// registration or by address alone would show.
func TestResolversAgreeOnEntryOrder(t *testing.T) {
	const obj = ObjectID("order-doc")
	resolve := func(sys *System) []NameEntry {
		t.Helper()
		server, err := sys.NewServer("www", WithStoreID(30))
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Publish(server, obj, WebDoc(), ConferenceStrategy(time.Hour)); err != nil {
			t.Fatal(err)
		}
		for _, m := range []struct {
			name string
			id   uint32
		}{{"m-b", 9}, {"m-c", 7}, {"m-a", 8}} {
			mirror, err := sys.NewMirror(m.name, server, WithStoreID(m.id))
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.Replicate(mirror, obj); err != nil {
				t.Fatal(err)
			}
		}
		sys.Resolver().Invalidate(obj)
		rec, err := sys.ResolveName(obj)
		if err != nil {
			t.Fatal(err)
		}
		if pick, ok := sys.Resolver().Pick(obj); !ok || len(rec.Entries) == 0 || rec.Entries[0] != pick {
			t.Fatalf("first entry of %+v is not the pick %+v", rec.Entries, pick)
		}
		return rec.Entries
	}

	local := NewSystem()
	defer local.Close()
	fab := NewMemFabric()
	ns, err := NewNameServer(fab, NameServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	served := NewSystem(WithFabric(fab), WithNameServer(ns.Addr()))
	defer served.Close()

	if l, s := resolve(local), resolve(served); !reflect.DeepEqual(l, s) {
		t.Fatalf("the resolvers disagree:\nlocal  %+v\nserved %+v", l, s)
	}
}
