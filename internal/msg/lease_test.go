package msg

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
	"unsafe"
)

// The golden frames are the encodings of sampleMessage and
// sampleBatchMessage from before Deps became a pointer: the wire format did
// not change with the struct.
const (
	goldenSample = "050a0009636f6e662d70616765000773746f72652d31000763616368652d32000000000000002a0000000700000003000000070000000000000013000000000000006500000000000000370000000700020000000200000000000000040000000700000000000000130001000000020000000000000004000000070000000000000012000000030002000c70726f6772616d2e68746d6c0000000c3c68313e7631393c2f68313e000000030102030002000c70726f6772616d2e68746d6c000a696e6465782e68746d6c00000000499602d201000000000000"
	goldenBatch  = "05130009636f6e662d70616765000773746f72652d31000763616368652d3200000000000000000000000000000003000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000003000000070000000000000001000000000000006500000000000000330000000700010000000200000000000000010002000c70726f6772616d2e68746d6c0000000564656c746100000000000003e9000000070000000000000002000000000000006600000000000000340000000700010000000200000000000000020002000c70726f6772616d2e68746d6c0000000564656c746100000000000003ea000000070000000000000003000000000000006700000000000000350000000700010000000200000000000000030002000c70726f6772616d2e68746d6c0000000564656c746100000000000003eb"
)

func TestWireFormatGolden(t *testing.T) {
	for name, c := range map[string]struct {
		m      *Message
		golden string
	}{"sample": {sampleMessage(), goldenSample}, "batch": {sampleBatchMessage(), goldenBatch}} {
		if got := hex.EncodeToString(Encode(c.m)); got != c.golden {
			t.Errorf("%s: encoding changed:\n got %s\nwant %s", name, got, c.golden)
		}
	}
}

// TestMessageSize pins the decoded envelope in the 480-byte size class,
// which it fills with the one-name page slot: an inline Deps vector would add
// 136 bytes to every frame on every hop.
func TestMessageSize(t *testing.T) {
	if got := unsafe.Sizeof(Message{}); got != 480 {
		t.Fatalf("unsafe.Sizeof(Message{}) = %d, want 480", got)
	}
}

// TestLeasedFrameLifecycle follows one pooled frame through a duplicated
// delivery: each decoded message holds a reference, and the buffer is free
// only once the encoder and both receivers have let go.
func TestLeasedFrameLifecycle(t *testing.T) {
	want := sampleMessage()
	w := EncodePooled(want)
	w.Retain()
	w.Retain()
	a, err := DecodeLeased(w.Bytes(), w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeLeased(w.Bytes(), w)
	if err != nil {
		t.Fatal(err)
	}
	w.Release() // the encoder's reference
	if a == b || !a.leased || a.wire != w {
		t.Fatalf("leased messages must be distinct and hold the frame")
	}
	got := *a
	got.leased, got.wire = false, nil
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("leased decode mismatch:\n got %+v\nwant %+v", &got, want)
	}
	a.Release()
	if n := w.refs.Load(); n != 1 {
		t.Fatalf("after one of two receivers released: %d references, want 1", n)
	}
	if !bytes.Equal(b.Payload, want.Payload) {
		t.Fatalf("the other receiver's message changed when the first released")
	}
	b.Release()
	if n := w.refs.Load(); n != 0 {
		t.Fatalf("after every holder released: %d references, want 0", n)
	}
}

func TestDecodeLeasedErrorKeepsReference(t *testing.T) {
	w := EncodePooled(sampleMessage())
	if _, err := DecodeLeased(w.Bytes()[:10], w); err == nil {
		t.Fatal("truncated frame decoded")
	}
	if n := w.refs.Load(); n != 1 {
		t.Fatalf("failed decode changed the caller's reference: %d", n)
	}
	w.Release()
}

func TestReleaseOfUnleasedMessageIsNoop(t *testing.T) {
	m := sampleMessage()
	m.Release()
	var nilMsg *Message
	nilMsg.Release()
	decoded, err := DecodeAlias(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	decoded.Release()
	if !reflect.DeepEqual(m, sampleMessage()) || !reflect.DeepEqual(decoded, sampleMessage()) {
		t.Fatal("Release changed a message that was not leased")
	}
}

// TestLeasedRoundTripAllocatesNothing: once the pools are warm, a frame
// encoded, decoded and released costs no allocation (outside leasecheck,
// which never reuses).
func TestLeasedRoundTripAllocatesNothing(t *testing.T) {
	if leaseCheck {
		t.Skip("leasecheck poisons released frames instead of reusing them")
	}
	m := sampleMessage()
	m.Deps = nil // a non-empty Deps is the one field decode allocates
	allocs := testing.AllocsPerRun(200, func() {
		w := EncodePooled(m)
		got, err := DecodeLeased(w.Bytes(), w)
		if err != nil {
			t.Fatal(err)
		}
		got.Release()
	})
	// The page list is the decode's one allocation.
	if allocs > 1 {
		t.Fatalf("leased round trip: %.1f allocations, want at most 1", allocs)
	}
}

// TestOverwriteKeepsOnePageName answers a one-page request in its own struct
// with a reply naming the request's page, as a page state reply does: the
// reply's list points into the request's slot, which the overwrite replaces,
// so the name must move into the slot again.
func TestOverwriteKeepsOnePageName(t *testing.T) {
	req, err := Decode(Encode(&Message{Kind: KindStateRequest, Pages: []string{"program.html"}}))
	if err != nil {
		t.Fatal(err)
	}
	r := Message{Kind: KindStateReply, Pages: req.Pages[:1]}
	req.Overwrite(&r)
	if req.Kind != KindStateReply || len(req.Pages) != 1 || req.Pages[0] != "program.html" {
		t.Fatalf("reply names %q, want [program.html]", req.Pages)
	}
}
