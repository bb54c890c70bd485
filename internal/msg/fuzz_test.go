package msg

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/ids"
)

// FuzzDecode feeds arbitrary frames to both decoders: neither may panic or
// allocate out of proportion to the frame, they must agree, and whatever
// decodes must survive a re-encode unchanged. Seeds are the golden frames plus
// one whose vector has spilled past VecInline; the corpus of past crashers
// lives in testdata/fuzz/FuzzDecode.
func FuzzDecode(f *testing.F) {
	spilled := sampleMessage()
	for i := 1; i <= 3*VecInline; i++ {
		spilled.VVec.Set(ids.ClientID(i), uint64(i))
	}
	for _, m := range []*Message{sampleMessage(), sampleBatchMessage(), spilled} {
		f.Add(Encode(m))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var m *Message
		var err error
		if n := allocBytes(func() { m, err = Decode(b) }); n > decodeAllocBound(len(b)) {
			t.Fatalf("Decode of a %d-byte frame allocated %d bytes", len(b), n)
		}
		alias, aliasErr := DecodeAlias(b)
		if (err == nil) != (aliasErr == nil) {
			t.Fatalf("Decode error %v, DecodeAlias error %v", err, aliasErr)
		}
		if err != nil {
			return
		}
		wire := Encode(m)
		if !bytes.Equal(wire, Encode(alias)) {
			t.Fatalf("Decode and DecodeAlias disagree:\n%+v\n%+v", m, alias)
		}
		again, err := Decode(wire)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !sameMessage(m, again) {
			t.Fatalf("re-encode changed the message:\n%+v\n%+v", m, again)
		}
	})
}

// sameMessage compares two messages with their vectors taken entry by entry:
// a wire vector that names a client twice decodes spilled and comes back
// inline, so the representations may differ where the entries do not.
func sameMessage(a, b *Message) bool {
	if !sameEntries(&a.VVec, &b.VVec) || !sameEntries(a.Deps, b.Deps) || len(a.Batch) != len(b.Batch) {
		return false
	}
	x, y := *a, *b
	x.VVec, x.Deps, y.VVec, y.Deps = Vec{}, nil, Vec{}, nil
	x.Batch, y.Batch = slices.Clone(a.Batch), slices.Clone(b.Batch)
	for i := range x.Batch {
		if !sameEntries(x.Batch[i].Deps, y.Batch[i].Deps) {
			return false
		}
		x.Batch[i].Deps, y.Batch[i].Deps = nil, nil
	}
	return reflect.DeepEqual(x, y)
}

func sameEntries(a, b *Vec) bool {
	ok := a.Len() == b.Len()
	a.Each(func(c ids.ClientID, s uint64) bool {
		ok = ok && b.Get(c) == s
		return ok
	})
	return ok
}

// decodeAllocBound is the most a decoder may allocate for an n-byte frame: a
// small multiple of the frame (a page name on the wire is 2 bytes and 16 in
// a Pages list) plus the message itself. A count field that pre-allocates
// for more entries than the frame holds exceeds it.
func decodeAllocBound(n int) uint64 { return uint64(16*n + 4096) }

// allocBytes reports the bytes the process allocated while f ran, as the
// least over three runs. The count is process-wide, and a fuzzing worker
// allocates on its own goroutines now and then, which a single run would
// charge to the decoder. f is deterministic, so every run of it allocates
// the same.
func allocBytes(f func()) uint64 {
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestDecodeCapsPageList corrupts a frame's page count to 0xFFFF: the
// decoder must fail without first allocating a list for 65 535 names the
// frame cannot hold.
func TestDecodeCapsPageList(t *testing.T) {
	m := sampleMessage()
	m.Pages = nil
	b := Encode(m)
	// After the page count: WallNanos, Status, empty Err and Sem, and an
	// empty batch count.
	off := len(b) - (2 + 8 + 1 + 2 + 2 + 2)
	if b[off] != 0 || b[off+1] != 0 {
		t.Fatalf("no empty page count at offset %d", off)
	}
	b[off], b[off+1] = 0xFF, 0xFF
	var err error
	n := allocBytes(func() { _, err = Decode(b) })
	if err == nil {
		t.Fatal("Decode accepted 65 535 page names in a frame too short for them")
	}
	if n > decodeAllocBound(len(b)) {
		t.Fatalf("Decode of a %d-byte frame allocated %d bytes, bound %d", len(b), n, decodeAllocBound(len(b)))
	}
}
