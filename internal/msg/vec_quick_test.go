package msg

import (
	"testing"
	"testing/quick"

	"repro/internal/ids"
)

// Property tests for digest-vector round trips. KindDigest frames carry the
// whole anti-entropy protocol in their VVec, so the vector must survive the
// codec for every representation Vec can take — inline (≤ VecInline
// entries) and map-spill (above it) — through both the copying and the
// zero-copy decoder.

// vecEqualsMap reports whether v holds exactly the entries of want.
func vecEqualsMap(v *Vec, want map[ids.ClientID]uint64) bool {
	if v.Len() != len(want) {
		return false
	}
	ok := true
	v.Each(func(c ids.ClientID, s uint64) bool {
		if want[c] != s {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// TestDigestVecRoundTripProperty fuzzes digest frames whose vectors straddle
// the inline/spill boundary: the raw map drives arbitrary small vectors, and
// spillPad regularly pushes the size past VecInline so the map-spill wire
// path is exercised in the same run.
func TestDigestVecRoundTripProperty(t *testing.T) {
	f := func(entries map[uint32]uint64, spillPad uint8) bool {
		vv := make(map[ids.ClientID]uint64, len(entries))
		var v Vec
		for c, s := range entries {
			vv[ids.ClientID(c)] = s
			v.Set(ids.ClientID(c), s)
		}
		for i := 0; i < int(spillPad%(2*VecInline)); i++ {
			vv[ids.ClientID(1_000_000+i)] = uint64(i + 1)
			v.Set(ids.ClientID(1_000_000+i), uint64(i+1))
		}
		m := &Message{
			Kind: KindDigest, Object: "o", From: "store/parent", Store: 3,
			VVec: v, GlobalSeq: 42,
		}
		wire := Encode(m)
		for _, decode := range []func([]byte) (*Message, error){Decode, DecodeAlias} {
			got, err := decode(wire)
			if err != nil {
				t.Logf("decode: %v", err)
				return false
			}
			if got.Kind != KindDigest || got.From != "store/parent" || got.GlobalSeq != 42 {
				return false
			}
			if !vecEqualsMap(&got.VVec, vv) {
				t.Logf("vector mismatch: want %v entries, got %d", len(vv), got.VVec.Len())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestDigestVecSpillSemanticsSurviveWire pins the behaviour gap detection
// depends on: CoversWrite/CoveredBy answers are identical before and after a
// round trip, for a vector big enough to be map-spilled (> VecInline).
func TestDigestVecSpillSemanticsSurviveWire(t *testing.T) {
	var vv Vec
	for i := 1; i <= 3*VecInline; i++ {
		vv.Set(ids.ClientID(i), uint64(10*i))
	}
	m := &Message{Kind: KindDigest, Object: "o", VVec: vv.Clone()}
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.VVec.Len() != 3*VecInline {
		t.Fatalf("Len = %d, want %d", got.VVec.Len(), 3*VecInline)
	}
	for i := 1; i <= 3*VecInline; i++ {
		c := ids.ClientID(i)
		covered := ids.WiD{Client: c, Seq: uint64(10 * i)}
		beyond := ids.WiD{Client: c, Seq: uint64(10*i) + 1}
		if m.VVec.CoversWrite(covered) != got.VVec.CoversWrite(covered) ||
			!got.VVec.CoversWrite(covered) {
			t.Fatalf("client %d: covered write lost across the wire", i)
		}
		if got.VVec.CoversWrite(beyond) {
			t.Fatalf("client %d: decode inflated the vector", i)
		}
	}
	applied := vv.Clone()
	if !got.VVec.CoveredBy(applied) {
		t.Fatalf("round-tripped digest not covered by its own source vector")
	}
	applied.Set(1, 9) // one component behind: a gap
	if got.VVec.CoveredBy(applied) {
		t.Fatalf("gap not detected after round trip")
	}
}
