package msg

import (
	"cmp"
	"encoding/json"
	"slices"
	"strconv"
	"strings"

	"repro/internal/ids"
)

// VecInline is the number of version-vector entries a Vec stores inline.
// Vectors at or below this size decode without allocating; larger vectors
// spill to a map. A vector holds one entry per writing client, which in
// practice is a handful, so the inline array covers the common case.
const VecInline = 8

// VecEntry is one (client, seq) component of a Vec.
type VecEntry struct {
	Client ids.ClientID
	Seq    uint64
}

// Vec is the one version vector: for each client, the sequence number of its
// newest write covered. It is the paper's expected_write[client] (§4.2)
// generalised to all clients, and it serves as a store's applied vector, a
// read's requirement, a write's dependencies and a frame's VVec alike. Entries
// live in a small array sorted by client, spilling to a map only above
// VecInline entries, so a vector that fits moves and decodes without
// allocating.
//
// The zero value is an empty, usable vector, and a nil *Vec reads as empty.
// Assignment copies inline entries but shares a spilled map: whoever keeps a
// vector it goes on changing hands out Clone()s of it.
type Vec struct {
	n      int
	inline [VecInline]VecEntry     // inline[:n], sorted by Client
	spill  map[ids.ClientID]uint64 // non-nil iff the vector outgrew the array
}

// VecFrom builds a Vec from a map-typed vector. The map is copied, never
// aliased.
//
// Deprecated: bench/ladder.go only; goes with ROADMAP item 7.
func VecFrom(m map[ids.ClientID]uint64) Vec {
	var v Vec
	for c, s := range m {
		v.Set(c, s)
	}
	return v
}

// Len returns the number of entries.
func (v *Vec) Len() int {
	switch {
	case v == nil:
		return 0
	case v.spill != nil:
		return len(v.spill)
	}
	return v.n
}

// Get returns the sequence recorded for client c (zero if absent).
func (v *Vec) Get(c ids.ClientID) uint64 {
	switch {
	case v == nil:
		return 0
	case v.spill != nil:
		return v.spill[c]
	}
	for i := 0; i < v.n; i++ {
		if v.inline[i].Client == c {
			return v.inline[i].Seq
		}
	}
	return 0
}

// Set records seq for client c, keeping the inline entries sorted and
// spilling to a map when the array is full.
func (v *Vec) Set(c ids.ClientID, seq uint64) {
	if v.spill != nil {
		v.spill[c] = seq
		return
	}
	i := 0
	for i < v.n && v.inline[i].Client < c {
		i++
	}
	if i < v.n && v.inline[i].Client == c {
		v.inline[i].Seq = seq
		return
	}
	if v.n == VecInline {
		v.spill = make(map[ids.ClientID]uint64, VecInline+1)
		for j := 0; j < v.n; j++ {
			v.spill[v.inline[j].Client] = v.inline[j].Seq
		}
		v.spill[c] = seq
		v.n = 0
		v.inline = [VecInline]VecEntry{}
		return
	}
	copy(v.inline[i+1:v.n+1], v.inline[i:v.n])
	v.inline[i] = VecEntry{Client: c, Seq: seq}
	v.n++
}

// Bump records seq for client c if it is newer than the current entry.
func (v *Vec) Bump(c ids.ClientID, seq uint64) {
	if v.Get(c) < seq {
		v.Set(c, seq)
	}
}

// Each calls fn for every entry until fn returns false. Inline entries are
// visited in client order; spilled entries in map order.
func (v *Vec) Each(fn func(c ids.ClientID, seq uint64) bool) {
	switch {
	case v == nil:
		return
	case v.spill != nil:
		for c, s := range v.spill {
			if !fn(c, s) {
				return
			}
		}
		return
	}
	for i := 0; i < v.n; i++ {
		if !fn(v.inline[i].Client, v.inline[i].Seq) {
			return
		}
	}
}

// entries returns the entries sorted by client: the inline array itself, or
// a sorted copy of the spilled map.
func (v *Vec) entries() []VecEntry {
	if v == nil {
		return nil
	}
	if v.spill == nil {
		return v.inline[:v.n]
	}
	out := make([]VecEntry, 0, len(v.spill))
	for c, s := range v.spill {
		out = append(out, VecEntry{Client: c, Seq: s})
	}
	slices.SortFunc(out, func(a, b VecEntry) int { return cmp.Compare(a.Client, b.Client) })
	return out
}

// Clone returns an independent copy of v: a plain struct copy while it fits
// inline. Clone of nil is an empty vector.
func (v *Vec) Clone() Vec {
	switch {
	case v == nil:
		return Vec{}
	case v.spill == nil:
		return *v
	}
	var out Vec
	out.spill = make(map[ids.ClientID]uint64, len(v.spill))
	for c, s := range v.spill {
		out.spill[c] = s
	}
	return out
}

// Merge folds o into v entry-wise, keeping the maximum of each component: the
// join of the version-vector lattice.
func (v *Vec) Merge(o *Vec) {
	o.Each(func(c ids.ClientID, s uint64) bool {
		v.Bump(c, s)
		return true
	})
}

// Covers reports whether v dominates o: every entry of o is <= the matching
// entry of v. An empty o is covered by anything.
func (v *Vec) Covers(o *Vec) bool {
	ok := true
	o.Each(func(c ids.ClientID, s uint64) bool {
		ok = v.Get(c) >= s
		return ok
	})
	return ok
}

// CoveredBy is applied.Covers(v).
func (v *Vec) CoveredBy(applied Vec) bool { return applied.Covers(v) }

// CoversWrite reports whether the vector includes write w (v[w.Client] >=
// w.Seq); the zero WiD is always covered.
func (v *Vec) CoversWrite(w ids.WiD) bool {
	return w.Zero() || v.Get(w.Client) >= w.Seq
}

// Equal reports whether v and o hold the same non-zero entries.
func (v *Vec) Equal(o *Vec) bool { return v.Covers(o) && o.Covers(v) }

// String renders the vector sorted by client, as {c1:5 c2:3}.
func (v Vec) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range v.entries() {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteByte('c')
		b.WriteString(strconv.FormatUint(uint64(e.Client), 10))
		b.WriteByte(':')
		b.WriteString(strconv.FormatUint(e.Seq, 10))
	}
	b.WriteByte('}')
	return b.String()
}

// MarshalJSON renders the vector as a JSON object from client to sequence,
// {"1":5,"2":3}: the shape a map-typed vector has.
func (v Vec) MarshalJSON() ([]byte, error) {
	m := make(map[ids.ClientID]uint64, v.Len())
	v.Each(func(c ids.ClientID, s uint64) bool {
		m[c] = s
		return true
	})
	return json.Marshal(m)
}

// UnmarshalJSON reads what MarshalJSON writes.
func (v *Vec) UnmarshalJSON(b []byte) error {
	var m map[ids.ClientID]uint64
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	*v = Vec{}
	for c, s := range m {
		v.Set(c, s)
	}
	return nil
}
