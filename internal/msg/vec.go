package msg

import (
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

// Vec is the wire-level representation of a version or dependency vector: a
// small array of entries kept sorted by client, spilling to a map only above
// VecInline entries. It replaces per-frame map allocations on the decode
// path — a frame whose vectors fit inline decodes them with zero
// allocations.
//
// The zero value is an empty, usable vector. Vec has value semantics for the
// inline representation; a spilled Vec shares its map across copies, so
// treat a Vec as immutable once it has been placed in a Message.
type Vec struct {
	n      int
	inline [VecInline]VecEntry     // inline[:n], sorted by Client
	spill  map[ids.ClientID]uint64 // non-nil iff the vector outgrew the array
}

// VecFrom builds a Vec from a map-typed vector (ids.VersionVec or any
// map[ids.ClientID]uint64). The map is copied, never aliased.
func VecFrom(m map[ids.ClientID]uint64) Vec {
	var v Vec
	if len(m) > VecInline {
		v.spill = make(map[ids.ClientID]uint64, len(m))
		for c, s := range m {
			v.spill[c] = s
		}
		return v
	}
	for c, s := range m {
		v.Set(c, s)
	}
	return v
}

// Len returns the number of entries.
func (v *Vec) Len() int {
	if v.spill != nil {
		return len(v.spill)
	}
	return v.n
}

// Get returns the sequence recorded for client c (zero if absent).
func (v *Vec) Get(c ids.ClientID) uint64 {
	if v.spill != nil {
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

// Each calls fn for every entry until fn returns false. Inline entries are
// visited in client order; spilled entries in map order.
func (v *Vec) Each(fn func(c ids.ClientID, seq uint64) bool) {
	if v.spill != nil {
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

// CoversWrite reports whether the vector includes write w (v[w.Client] >=
// w.Seq); the zero WiD is always covered.
func (v *Vec) CoversWrite(w ids.WiD) bool {
	if w.Zero() {
		return true
	}
	return v.Get(w.Client) >= w.Seq
}

// CoveredBy reports whether every non-zero entry of v is <= the matching
// component of the map-typed vector applied — i.e. applied dominates v.
func (v *Vec) CoveredBy(applied map[ids.ClientID]uint64) bool {
	ok := true
	v.Each(func(c ids.ClientID, s uint64) bool {
		if s > 0 && applied[c] < s {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// MergeInto folds v into the map-typed vector dst entry-wise, keeping the
// maximum of each component.
func (v *Vec) MergeInto(dst map[ids.ClientID]uint64) {
	v.Each(func(c ids.ClientID, s uint64) bool {
		if dst[c] < s {
			dst[c] = s
		}
		return true
	})
}

// Version materialises the vector as an ids.VersionVec (nil when empty).
func (v *Vec) Version() ids.VersionVec {
	if v.Len() == 0 {
		return nil
	}
	out := ids.NewVersionVec(v.Len())
	v.MergeInto(out)
	return out
}
