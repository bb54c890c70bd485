package msg

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ids"
	"repro/internal/vclock"
)

func sampleMessage() *Message {
	return &Message{
		Kind:      KindUpdate,
		Object:    "conf-page",
		From:      "store-1",
		To:        "cache-2",
		NetSeq:    42,
		Client:    7,
		Store:     3,
		Write:     ids.WiD{Client: 7, Seq: 19},
		GlobalSeq: 101,
		Stamp:     vclock.Stamp{Time: 55, Client: 7},
		VVec:      vecOf(7, 19, 2, 4),
		Deps:      depsOf(2, 4),
		ReadDep:   ids.Dependency{Write: ids.WiD{Client: 7, Seq: 18}, Store: 3},
		Inv:       Invocation{Method: 2, Page: "program.html", Args: []byte("<h1>v19</h1>")},
		Payload:   []byte{0x01, 0x02, 0x03},
		Pages:     []string{"program.html", "index.html"},
		WallNanos: 1234567890,
		Status:    StatusOK,
		Err:       "",
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := sampleMessage()
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

func TestEncodeDecodeZeroFields(t *testing.T) {
	m := &Message{Kind: KindReadRequest, Object: "o"}
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Kind != KindReadRequest || got.Object != "o" {
		t.Fatalf("basic fields lost: %+v", got)
	}
	if got.VVec.Len() != 0 || got.Deps.Len() != 0 || got.Pages != nil || got.Payload != nil {
		t.Fatalf("zero-value fields should decode as empty: %+v", got)
	}
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	b := Encode(sampleMessage())
	b[0] = 99
	if _, err := Decode(b); err == nil || !strings.Contains(err.Error(), "wire version") {
		t.Fatalf("want bad-version error, got %v", err)
	}
}

func TestDecodeRejectsInvalidKind(t *testing.T) {
	b := Encode(sampleMessage())
	b[1] = 0
	if _, err := Decode(b); err == nil {
		t.Fatalf("want invalid-kind error")
	}
	b[1] = uint8(kindMax)
	if _, err := Decode(b); err == nil {
		t.Fatalf("want invalid-kind error for kindMax")
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	full := Encode(sampleMessage())
	for cut := 0; cut < len(full); cut++ {
		if _, err := Decode(full[:cut]); err == nil {
			t.Fatalf("truncation at %d bytes not detected", cut)
		}
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	b := append(Encode(sampleMessage()), 0xFF)
	if _, err := Decode(b); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("want trailing-bytes error, got %v", err)
	}
}

func TestReplyCorrelation(t *testing.T) {
	m := sampleMessage()
	r := m.Reply(KindUpdateAck)
	if r.Kind != KindUpdateAck {
		t.Fatalf("reply kind = %v", r.Kind)
	}
	if r.To != m.From || r.From != m.To {
		t.Fatalf("reply addressing wrong: %q->%q", r.From, r.To)
	}
	if r.Object != m.Object || r.NetSeq != m.NetSeq || r.Write != m.Write {
		t.Fatalf("reply lost correlation fields")
	}
	if r.Status != StatusOK {
		t.Fatalf("reply status = %v, want ok", r.Status)
	}
}

func TestKindAndStatusStrings(t *testing.T) {
	// The retired name-service digest and sync numbers stay unassigned, so
	// the control kinds keep their wire numbers.
	retired := map[Kind]bool{KindNameReply + 1: true, KindNameReply + 2: true}
	for k := KindBindRequest; k < kindMax; k++ {
		if retired[k] {
			if k.Valid() || k.String() != fmt.Sprintf("Kind(%d)", k) {
				t.Fatalf("retired kind %d is valid or named %q", k, k)
			}
			continue
		}
		if !k.Valid() {
			t.Fatalf("kind %d should be valid", k)
		}
		if strings.HasPrefix(k.String(), "Kind(") {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if Kind(0).Valid() || kindMax.Valid() {
		t.Fatalf("out-of-range kinds must be invalid")
	}
	if Kind(200).String() != "Kind(200)" {
		t.Fatalf("unknown kind String misformatted")
	}
	for _, s := range []Status{StatusOK, StatusError, StatusNotFound, StatusRetry, StatusForbidden} {
		if strings.HasPrefix(s.String(), "Status(") {
			t.Fatalf("status %d has no name", s)
		}
	}
	if Status(200).String() != "Status(200)" {
		t.Fatalf("unknown status String misformatted")
	}
}

func TestEncodingDeterministic(t *testing.T) {
	m := sampleMessage()
	a := Encode(m)
	b := Encode(m)
	if !bytes.Equal(a, b) {
		t.Fatalf("encoding not deterministic")
	}
}

func TestWireSizeMatchesEncoding(t *testing.T) {
	m := sampleMessage()
	if got, want := wireSize(m), len(Encode(m)); got != want {
		t.Fatalf("wireSize = %d, want %d", got, want)
	}
}

// quickMessage builds a Message from fuzz inputs, keeping fields within the
// codec's documented ranges.
func quickMessage(kind uint8, obj, from, to, page, errStr string, netSeq, wSeq, gSeq, sTime, wall uint64,
	client, store, wClient uint32, method uint16, args, payload []byte, vv map[uint8]uint16, pages []string) *Message {
	k := Kind(kind%uint8(kindMax-1)) + KindBindRequest
	for !k.Valid() {
		k++ // past a retired number
	}
	m := &Message{
		Kind:      k,
		Object:    ids.ObjectID(obj),
		From:      from,
		To:        to,
		NetSeq:    netSeq,
		Client:    ids.ClientID(client),
		Store:     ids.StoreID(store),
		Write:     ids.WiD{Client: ids.ClientID(wClient), Seq: wSeq},
		GlobalSeq: gSeq,
		Stamp:     vclock.Stamp{Time: sTime, Client: ids.ClientID(client)},
		Inv:       Invocation{Method: method, Page: page, Args: args},
		Payload:   payload,
		WallNanos: int64(wall),
		Status:    StatusOK,
		Err:       errStr,
	}
	for c, s := range vv {
		if s > 0 {
			m.VVec.Set(ids.ClientID(c), uint64(s))
		}
	}
	if len(pages) > 0 {
		// The codec caps page lists at 64K entries and strings at 64K bytes.
		if len(pages) > 100 {
			pages = pages[:100]
		}
		m.Pages = make([]string, len(pages))
		for i, p := range pages {
			if len(p) > 1000 {
				p = p[:1000]
			}
			m.Pages[i] = p
		}
	}
	return m
}

// Property: Decode(Encode(m)) == m for arbitrary messages.
func TestRoundTripProperty(t *testing.T) {
	f := func(kind uint8, obj, from, to, page, errStr string, netSeq, wSeq, gSeq, sTime, wall uint64,
		client, store, wClient uint32, method uint16, args, payload []byte, vv map[uint8]uint16, pages []string) bool {
		m := quickMessage(kind, obj, from, to, page, errStr, netSeq, wSeq, gSeq, sTime, wall,
			client, store, wClient, method, args, payload, vv, pages)
		got, err := Decode(Encode(m))
		if err != nil {
			t.Logf("decode error: %v", err)
			return false
		}
		// Normalise empty slices: codec decodes empty as nil.
		if len(m.Inv.Args) == 0 {
			m.Inv.Args = nil
		}
		if len(m.Payload) == 0 {
			m.Payload = nil
		}
		if len(m.Pages) == 0 {
			m.Pages = nil
		}
		// A one-name list decodes into the message's own slot.
		if len(m.Pages) == 1 {
			m.page[0], m.Pages = m.Pages[0], m.page[:]
		}
		return reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Decode never panics on arbitrary byte soup.
func TestDecodeNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = Decode(b) // must not panic; errors are fine
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// --- batch frames, pooled encode, zero-copy decode ----------------------------

func sampleBatchMessage() *Message {
	m := &Message{
		Kind:   KindUpdateBatch,
		Object: "conf-page",
		From:   "store-1",
		To:     "cache-2",
		Store:  3,
	}
	for i := 1; i <= 3; i++ {
		m.Batch = append(m.Batch, BatchUpdate{
			Write:     ids.WiD{Client: 7, Seq: uint64(i)},
			GlobalSeq: uint64(100 + i),
			Stamp:     vclock.Stamp{Time: uint64(50 + i), Client: 7},
			Deps:      depsOf(2, uint64(i)),
			Inv:       Invocation{Method: 2, Page: "program.html", Args: []byte("delta")},
			WallNanos: int64(1000 + i),
		})
	}
	return m
}

func TestBatchRoundTrip(t *testing.T) {
	m := sampleBatchMessage()
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("batch round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

func TestBatchWireSizeMatchesEncoding(t *testing.T) {
	m := sampleBatchMessage()
	if got, want := wireSize(m), len(Encode(m)); got != want {
		t.Fatalf("wireSize = %d, want %d", got, want)
	}
}

func TestBatchTruncationDetected(t *testing.T) {
	full := Encode(sampleBatchMessage())
	for cut := 0; cut < len(full); cut++ {
		if _, err := Decode(full[:cut]); err == nil {
			t.Fatalf("truncation at %d bytes not detected", cut)
		}
	}
}

// TestAllKindsRoundTrip exercises the codec for every defined kind.
func TestAllKindsRoundTrip(t *testing.T) {
	for k := KindBindRequest; k < kindMax; k++ {
		if !k.Valid() {
			continue // a retired number (TestKindAndStatusStrings)
		}
		m := sampleMessage()
		m.Kind = k
		if k == KindUpdateBatch {
			m = sampleBatchMessage()
		}
		got, err := Decode(Encode(m))
		if err != nil {
			t.Fatalf("kind %v: %v", k, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("kind %v round trip mismatch", k)
		}
	}
}

// TestEncodeExactSize: Encode allocates exactly the wire size, nothing more.
func TestEncodeExactSize(t *testing.T) {
	for _, m := range []*Message{sampleMessage(), sampleBatchMessage(), {Kind: KindReadRequest}} {
		b := Encode(m)
		if len(b) != cap(b) {
			t.Fatalf("kind %v: encode over-allocated: len %d cap %d", m.Kind, len(b), cap(b))
		}
	}
}

func TestEncodePooledMatchesEncode(t *testing.T) {
	m := sampleMessage()
	want := Encode(m)
	for i := 0; i < 3; i++ { // cycle the pool to catch stale-buffer bugs
		wb := EncodePooled(m)
		if !bytes.Equal(wb.Bytes(), want) {
			t.Fatalf("pooled encoding differs on cycle %d", i)
		}
		wb.Release()
	}
	// A smaller message after a big one must not leak stale bytes.
	small := &Message{Kind: KindReadRequest, Object: "o"}
	wb := EncodePooled(small)
	defer wb.Release()
	if !bytes.Equal(wb.Bytes(), Encode(small)) {
		t.Fatalf("pooled encoding of small message after large one differs")
	}
}

func TestDecodeAliasSharesPayload(t *testing.T) {
	m := sampleMessage()
	wire := Encode(m)
	got, err := DecodeAlias(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("alias decode mismatch:\n got %+v\nwant %+v", got, m)
	}
	// Args and Payload must alias the frame: flipping a frame byte shows
	// through (this is the documented contract — callers promise the frame
	// is immutable).
	got.Payload[0] ^= 0xFF
	if copied, _ := Decode(wire); bytes.Equal(copied.Payload, m.Payload) {
		t.Fatalf("DecodeAlias copied Payload instead of aliasing")
	}
	got.Payload[0] ^= 0xFF // restore
	// Plain Decode must keep copying.
	cp, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	cp.Payload[0] ^= 0xFF
	if re, _ := Decode(wire); !bytes.Equal(re.Payload, m.Payload) {
		t.Fatalf("Decode aliased the frame")
	}
}

// Property: batch entries survive the round trip for arbitrary inputs.
func TestBatchRoundTripProperty(t *testing.T) {
	f := func(entries []struct {
		Client uint32
		Seq    uint64
		Method uint16
		Page   string
		Args   []byte
		Wall   uint64
	}) bool {
		if len(entries) > 200 {
			entries = entries[:200]
		}
		m := &Message{Kind: KindUpdateBatch, Object: "o"}
		for _, e := range entries {
			page := e.Page
			if len(page) > 1000 {
				page = page[:1000]
			}
			m.Batch = append(m.Batch, BatchUpdate{
				Write:     ids.WiD{Client: ids.ClientID(e.Client), Seq: e.Seq},
				Stamp:     vclock.Stamp{Time: e.Seq, Client: ids.ClientID(e.Client)},
				Inv:       Invocation{Method: e.Method, Page: page, Args: e.Args},
				WallNanos: int64(e.Wall),
			})
		}
		got, err := Decode(Encode(m))
		if err != nil {
			t.Logf("decode error: %v", err)
			return false
		}
		for i := range m.Batch {
			if len(m.Batch[i].Inv.Args) == 0 {
				m.Batch[i].Inv.Args = nil
			}
		}
		return reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
