package vclock_test

import (
	"testing"
	"testing/quick"

	"repro/internal/ids"
	"repro/internal/msg"
)

// Vector clocks are msg.Vec; this package keeps only Lamport time. These
// tests pin the vector's string form and its merge as a least upper bound.

func mkVC(xs map[uint8]uint16) msg.Vec {
	var v msg.Vec
	for c, s := range xs {
		if s > 0 {
			v.Set(ids.ClientID(c), uint64(s))
		}
	}
	return v
}

func TestVCString(t *testing.T) {
	v := mkVC(map[uint8]uint16{2: 3, 1: 1})
	if got, want := v.String(), "{c1:1 c2:3}"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if got := (msg.Vec{}).String(); got != "{}" {
		t.Fatalf("zero String() = %q, want {}", got)
	}
}

func TestMergeIsLeastUpperBound(t *testing.T) {
	f := func(xa, xb, xc map[uint8]uint16) bool {
		a, b, c := mkVC(xa), mkVC(xb), mkVC(xc)
		m := a.Clone()
		m.Merge(&b)
		if !m.Covers(&a) || !m.Covers(&b) {
			return false
		}
		if c.Covers(&a) && c.Covers(&b) && !c.Covers(&m) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
