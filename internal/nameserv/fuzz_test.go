package nameserv

import (
	"reflect"
	"testing"

	"repro/internal/naming"
	"repro/internal/replication"
	"repro/internal/strategy"
)

// FuzzDecodeItems feeds DecodeItems register and resolve payloads and their
// mutations. It must never panic, never allocate room for more items than
// the payload's bytes could hold, and decode what it accepts to items that
// re-encode to the same items.
func FuzzDecodeItems(f *testing.F) {
	meta := naming.Meta{Sem: "webdoc", Strat: strategy.Whiteboard(), HasStrat: true, Models: []string{"ryw", "mr"}}
	perm := naming.Entry{Addr: "127.0.0.1:7001", Store: 3, Role: replication.RolePermanent}
	cache := naming.Entry{Addr: "ns/cache:7002", Store: 4, Role: replication.RoleClientInitiated}
	// A register request: one entry and the object's metadata.
	f.Add(EncodeItems([]Item{{Kind: itemEntry, Object: "doc", Entry: perm}, {Kind: itemMeta, Object: "doc", Meta: meta}}))
	// A resolve reply.
	f.Add(EncodeItems(recordItems(&naming.Record{Object: "doc", Entries: []naming.Entry{perm, cache}, Meta: meta})))
	// An empty batch, and the smallest items: metadata naming only an object.
	f.Add(EncodeItems(nil))
	f.Add(EncodeItems([]Item{{Kind: itemMeta, Object: "a"}, {Kind: itemMeta, Object: "b"}, {Kind: itemMeta, Object: "c"}}))
	// A corrupt count.
	f.Add([]byte{0xff, 0xff, 0x01})
	// Metadata whose strategy text carries an interval Marshal cannot write
	// back: a negative pull.
	w := writer{}
	w.u16(1)
	w.u8(itemMeta)
	w.str("doc")
	w.str("webdoc")
	w.str(strategy.Marshal(strategy.Whiteboard()) + ",pull=-1ns")
	w.u8(0)
	f.Add(w.buf)
	f.Fuzz(func(t *testing.T, b []byte) {
		items, err := DecodeItems(b)
		if err != nil {
			return
		}
		if limit := len(b) / minItemBytes; cap(items) > limit {
			t.Fatalf("%d bytes decoded into room for %d items, want at most %d", len(b), cap(items), limit)
		}
		again, err := DecodeItems(EncodeItems(items))
		if err != nil {
			t.Fatalf("re-encoded items do not decode: %v", err)
		}
		if !reflect.DeepEqual(items, again) {
			t.Fatalf("round trip changed the items:\n%+v\n%+v", items, again)
		}
	})
}

// TestItemsNeedObjectAndAddress: an item that names no object, or an entry
// with no address, fails to decode. A register payload in the older layout,
// a zero stamp ahead of the entry's fields, reads as exactly that.
func TestItemsNeedObjectAndAddress(t *testing.T) {
	entry := naming.Entry{Addr: "a:1", Store: 2}
	old := []byte{0, 1, itemEntry}
	old = append(old, make([]byte, 20)...) // the retired stamp
	old = append(old, EncodeItems([]Item{{Kind: itemEntry, Object: "doc", Entry: entry}})[3:]...)
	for name, b := range map[string][]byte{
		"no object":       EncodeItems([]Item{{Kind: itemEntry, Entry: entry}}),
		"no address":      EncodeItems([]Item{{Kind: itemEntry, Object: "doc"}}),
		"meta, no object": EncodeItems([]Item{{Kind: itemMeta, Meta: naming.Meta{Sem: "webdoc"}}}),
		"older layout":    old,
	} {
		if items, err := DecodeItems(b); err == nil {
			t.Errorf("%s: decoded to %+v", name, items)
		}
	}
}
