// Package ids defines the identifier types shared by every layer of the
// framework: object, client, and store identifiers, write identifiers
// (WiD = client ID + per-client sequence number, exactly as in §4.2 of the
// paper), and read dependencies (WiD, store) used by the Read-Your-Writes
// session guarantee. The version vector built from them is msg.Vec.
package ids

import "strconv"

// ObjectID names a distributed shared Web object (one per Web document).
type ObjectID string

// ClientID identifies a client process bound to an object. Client IDs are
// assigned by the naming service at bind time and are unique per object.
type ClientID uint32

// StoreID identifies a store (permanent, object-initiated, or
// client-initiated replica holder).
type StoreID uint32

// NoStore is the zero StoreID, meaning "no store" in dependency records.
const NoStore StoreID = 0

// WiD is a write identifier: the pair (client, per-client sequence number).
// The paper: "a unique write identifier (WiD) is assigned to each new write,
// composed of the client's identifier and a sequence number".
type WiD struct {
	Client ClientID
	Seq    uint64
}

// Zero reports whether w is the zero write identifier (no write).
func (w WiD) Zero() bool { return w.Client == 0 && w.Seq == 0 }

// Less orders write identifiers first by client, then by sequence number.
// It is a total order used only for deterministic iteration, not a
// happened-before relation.
func (w WiD) Less(o WiD) bool {
	if w.Client != o.Client {
		return w.Client < o.Client
	}
	return w.Seq < o.Seq
}

// String renders the WiD as "c<client>#<seq>".
func (w WiD) String() string {
	return "c" + strconv.FormatUint(uint64(w.Client), 10) + "#" + strconv.FormatUint(w.Seq, 10)
}

// Dependency records the last write performed by a client and the store on
// which it was performed. The paper: "this dependency (WiD, store id) is
// transmitted with a read request to the cache" to enforce Read-Your-Writes.
type Dependency struct {
	Write WiD
	Store StoreID
}

// Zero reports whether the dependency is empty.
func (d Dependency) Zero() bool { return d.Write.Zero() && d.Store == NoStore }

// String renders the dependency as "WiD@s<store>".
func (d Dependency) String() string {
	return d.Write.String() + "@s" + strconv.FormatUint(uint64(d.Store), 10)
}

// VersionVec is a version vector as a map. msg.Vec is the one vector type;
// this name remains for one caller.
//
// Deprecated: bench/ladder.go only; goes with the ROADMAP item "The
// benchmark PR, part 1".
type VersionVec map[ClientID]uint64
