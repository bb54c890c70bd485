package ids_test

import (
	"testing"
	"testing/quick"

	"repro/internal/ids"
	"repro/internal/msg"
)

// The version vector keyed by ids.ClientID lives in msg.Vec; these tests keep
// its string form and lattice laws pinned from the identifier package too,
// with vectors drawn over the whole uint8 client range.

func mkVec(xs map[uint8]uint16) msg.Vec {
	var v msg.Vec
	for c, s := range xs {
		if s > 0 {
			v.Set(ids.ClientID(c), uint64(s))
		}
	}
	return v
}

func TestVersionVecString(t *testing.T) {
	v := mkVec(map[uint8]uint16{2: 7, 1: 5})
	if got, want := v.String(), "{c1:5 c2:7}"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	var empty msg.Vec
	if got := empty.String(); got != "{}" {
		t.Fatalf("empty String() = %q, want {}", got)
	}
}

func TestVersionVecMergeLatticeLaws(t *testing.T) {
	merge := func(a, b msg.Vec) msg.Vec {
		m := a.Clone()
		m.Merge(&b)
		return m
	}
	f := func(xa, xb, xc map[uint8]uint16) bool {
		a, b, c := mkVec(xa), mkVec(xb), mkVec(xc)
		ab, ba := merge(a, b), merge(b, a)
		if !ab.Equal(&ba) {
			return false
		}
		left, right := merge(merge(a, b), c), merge(a, merge(b, c))
		if !left.Equal(&right) {
			return false
		}
		if aa := merge(a, a); !aa.Equal(&a) {
			return false
		}
		return ab.Covers(&a) && ab.Covers(&b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
