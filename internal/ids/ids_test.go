package ids

import "testing"

func TestWiDZero(t *testing.T) {
	var w WiD
	if !w.Zero() {
		t.Fatalf("zero WiD should report Zero()")
	}
	if (WiD{Client: 1, Seq: 0}).Zero() {
		t.Fatalf("non-zero client should not be Zero()")
	}
	if (WiD{Client: 0, Seq: 3}).Zero() {
		t.Fatalf("non-zero seq should not be Zero()")
	}
}

func TestWiDLessTotalOrder(t *testing.T) {
	a := WiD{Client: 1, Seq: 5}
	b := WiD{Client: 1, Seq: 6}
	c := WiD{Client: 2, Seq: 1}
	if !a.Less(b) || b.Less(a) {
		t.Fatalf("same-client ordering broken")
	}
	if !b.Less(c) {
		t.Fatalf("cross-client ordering should order by client first")
	}
	if a.Less(a) {
		t.Fatalf("Less must be irreflexive")
	}
}

func TestWiDString(t *testing.T) {
	w := WiD{Client: 7, Seq: 42}
	if got, want := w.String(), "c7#42"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestDependencyZeroAndString(t *testing.T) {
	var d Dependency
	if !d.Zero() {
		t.Fatalf("zero dependency should be Zero()")
	}
	d = Dependency{Write: WiD{Client: 3, Seq: 9}, Store: 4}
	if d.Zero() {
		t.Fatalf("non-zero dependency reported Zero()")
	}
	if got, want := d.String(), "c3#9@s4"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
