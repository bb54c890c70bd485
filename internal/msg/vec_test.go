package msg

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ids"
)

// vecOf builds a Vec from client, seq pairs.
func vecOf(kv ...uint64) Vec {
	var v Vec
	for i := 0; i+1 < len(kv); i += 2 {
		v.Set(ids.ClientID(kv[i]), kv[i+1])
	}
	return v
}

func TestVecGetSetBump(t *testing.T) {
	var v Vec
	if got := v.Get(1); got != 0 {
		t.Fatalf("empty vector Get = %d, want 0", got)
	}
	v.Set(1, 5)
	if got := v.Get(1); got != 5 {
		t.Fatalf("Get after Set = %d, want 5", got)
	}
	v.Bump(1, 3) // lower: must not regress
	if got := v.Get(1); got != 5 {
		t.Fatalf("Bump regressed: %d, want 5", got)
	}
	v.Bump(1, 9)
	if got := v.Get(1); got != 9 {
		t.Fatalf("Bump did not advance: %d, want 9", got)
	}
	var none *Vec
	if none.Len() != 0 || none.Get(1) != 0 || !none.CoversWrite(ids.WiD{}) {
		t.Fatalf("nil vector must read as empty")
	}
}

// TestVecCloneIndependence pins the rule every vector handed out relies on: a
// Clone shares nothing with its source, inline or spilled.
func TestVecCloneIndependence(t *testing.T) {
	for _, n := range []int{2, 3 * VecInline} {
		var v Vec
		for i := 1; i <= n; i++ {
			v.Set(ids.ClientID(i), 2)
		}
		c := v.Clone()
		c.Set(1, 100)
		c.Set(ids.ClientID(n+1), 1)
		if v.Get(1) != 2 || v.Len() != n {
			t.Fatalf("%d entries: Clone is not independent: original now %v", n, v)
		}
		v.Set(2, 50)
		if c.Get(2) != 2 {
			t.Fatalf("%d entries: original's change reached the clone: %v", n, c)
		}
	}
	var none *Vec
	c := none.Clone()
	c.Set(9, 9) // must not panic
	if c.Get(9) != 9 {
		t.Fatalf("clone of nil vector unusable")
	}
}

func TestVecCovers(t *testing.T) {
	v := vecOf(1, 5, 2, 3)
	for _, tc := range []struct {
		o    Vec
		want bool
		why  string
	}{
		{vecOf(1, 5), true, "equal component"},
		{vecOf(1, 4, 2, 3), true, "smaller components"},
		{vecOf(1, 6), false, "larger component"},
		{Vec{}, true, "empty vector"},
		{vecOf(7, 0), true, "zero entry"},
	} {
		if got := v.Covers(&tc.o); got != tc.want {
			t.Fatalf("%s: %v.Covers(%v) = %v, want %v", tc.why, v, tc.o, got, tc.want)
		}
		if got := tc.o.CoveredBy(v); got != tc.want {
			t.Fatalf("%s: CoveredBy disagrees with Covers", tc.why)
		}
	}
	if !v.Covers(nil) {
		t.Fatalf("nil vector must be covered by anything")
	}
}

func TestVecCoversWrite(t *testing.T) {
	v := vecOf(1, 5)
	if !v.CoversWrite(ids.WiD{Client: 1, Seq: 5}) {
		t.Fatalf("exact write should be covered")
	}
	if v.CoversWrite(ids.WiD{Client: 1, Seq: 6}) {
		t.Fatalf("future write must not be covered")
	}
	if !v.CoversWrite(ids.WiD{}) {
		t.Fatalf("zero WiD must always be covered")
	}
	if v.CoversWrite(ids.WiD{Client: 2, Seq: 1}) {
		t.Fatalf("unknown client's write must not be covered")
	}
}

func TestVecMergeIsLUB(t *testing.T) {
	a, b := vecOf(1, 5, 2, 1), vecOf(1, 2, 2, 7, 3, 1)
	m := a.Clone()
	m.Merge(&b)
	if !m.Covers(&a) || !m.Covers(&b) {
		t.Fatalf("merge %v does not cover inputs %v, %v", m, a, b)
	}
	if want := vecOf(1, 5, 2, 7, 3, 1); !m.Equal(&want) {
		t.Fatalf("merge = %v, want %v", m, want)
	}
}

// TestVecString pins the form chaos failure messages print, inline and
// spilled, and the JSON shape control replies carry: a map-typed vector's.
func TestVecString(t *testing.T) {
	if got, want := vecOf(2, 7, 1, 5).String(), "{c1:5 c2:7}"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if got := (Vec{}).String(); got != "{}" {
		t.Fatalf("empty String() = %q, want {}", got)
	}
	var spilled Vec
	for i := 3 * VecInline; i >= 1; i-- {
		spilled.Set(ids.ClientID(i), uint64(i))
	}
	if got := spilled.String(); !strings.HasPrefix(got, "{c1:1 c2:2 ") || !strings.HasSuffix(got, " c24:24}") {
		t.Fatalf("spilled String() = %q, want client order", got)
	}
	b, err := json.Marshal(vecOf(2, 7, 10, 5))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]uint64
	if err := json.Unmarshal(b, &m); err != nil || !reflect.DeepEqual(m, map[string]uint64{"2": 7, "10": 5}) {
		t.Fatalf("JSON %s decodes to %v (%v), want {\"2\":7,\"10\":5}", b, m, err)
	}
}

// qvec draws a vector of 0 to 3×VecInline entries over a small client range,
// so inline vectors, spilled ones and merges that cross between the two all
// occur, and so do shared clients and equal sequences.
type qvec struct{ m map[ids.ClientID]uint64 }

func (qvec) Generate(r *rand.Rand, _ int) reflect.Value {
	q := qvec{m: map[ids.ClientID]uint64{}}
	for n := r.Intn(3*VecInline + 1); len(q.m) < n; {
		q.m[ids.ClientID(1+r.Intn(3*VecInline+4))] = uint64(r.Intn(6))
	}
	return reflect.ValueOf(q)
}

func (q qvec) vec() Vec {
	var v Vec
	for c, s := range q.m {
		v.Set(c, s)
	}
	return v
}

func merged(a, b Vec) Vec {
	m := a.Clone()
	m.Merge(&b)
	return m
}

// Property: Merge is commutative, associative and idempotent, and its result
// is the least upper bound of its inputs: it covers both, and so does
// anything else covering both.
func TestVecMergeLatticeLaws(t *testing.T) {
	f := func(qa, qb, qc qvec) bool {
		a, b, c := qa.vec(), qb.vec(), qc.vec()
		ab, ba := merged(a, b), merged(b, a)
		if !ab.Equal(&ba) {
			return false
		}
		abc, aBC := merged(ab, c), merged(a, merged(b, c))
		if !abc.Equal(&aBC) {
			return false
		}
		if aa := merged(a, a); !aa.Equal(&a) {
			return false
		}
		if !ab.Covers(&a) || !ab.Covers(&b) {
			return false
		}
		return !c.Covers(&a) || !c.Covers(&b) || c.Covers(&ab)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Covers is a partial order — reflexive, transitive, antisymmetric
// (up to Equal).
func TestVecCoversPartialOrder(t *testing.T) {
	f := func(qa, qb, qc qvec) bool {
		a, b, c := qa.vec(), qb.vec(), qc.vec()
		if !a.Covers(&a) {
			return false
		}
		if a.Covers(&b) && b.Covers(&c) && !a.Covers(&c) {
			return false
		}
		return !a.Covers(&b) || !b.Covers(&a) || a.Equal(&b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Merge and Covers agree with their entry-wise definitions over
// plain maps, whatever the representation.
func TestVecMatchesEntrywiseReference(t *testing.T) {
	f := func(qa, qb qvec) bool {
		a, b := qa.vec(), qb.vec()
		top := map[ids.ClientID]uint64{}
		covers := true
		for c, s := range qa.m {
			top[c] = s
		}
		for c, s := range qb.m {
			top[c] = max(top[c], s)
			covers = covers && qa.m[c] >= s
		}
		m, ok := merged(a, b), true
		m.Each(func(c ids.ClientID, s uint64) bool {
			ok = top[c] == s
			return ok
		})
		for c, s := range top {
			ok = ok && m.Get(c) == s
		}
		return ok && a.Covers(&b) == covers
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
