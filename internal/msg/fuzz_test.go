package msg

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ids"
)

// FuzzDecode feeds arbitrary frames to both decoders: neither may panic, they
// must agree, and whatever decodes must survive a re-encode unchanged. Seeds
// are the golden frames plus one whose vector has spilled past VecInline; the
// corpus of past crashers lives in testdata/fuzz/FuzzDecode.
func FuzzDecode(f *testing.F) {
	spilled := sampleMessage()
	for i := 1; i <= 3*VecInline; i++ {
		spilled.VVec.Set(ids.ClientID(i), uint64(i))
	}
	for _, m := range []*Message{sampleMessage(), sampleBatchMessage(), spilled} {
		f.Add(Encode(m))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Decode(b)
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
