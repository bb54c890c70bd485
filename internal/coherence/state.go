package coherence

import (
	"encoding/binary"
	"errors"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/vclock"
)

// State is an ordering engine's whole state: what Engine.State gives out and
// Engine.Seed takes. A replica carries it, encoded, ahead of the content of
// every whole state it sends and every WAL snapshot it writes, so a receiver
// or a restart takes content and ordering state as one value.
type State struct {
	// Applied is the vector of the writes the state reflects.
	Applied msg.Vec
	// Global is the sequencer position, the next total-order sequence the
	// sequential model expects; zero under the other models.
	Global uint64
	// Stamps are the eventual model's winning stamp per page, tombstones
	// included, in ascending page order; nil under the other models.
	Stamps []PageStamp
}

// PageStamp is one page's winning stamp.
type PageStamp struct {
	Page  string
	Stamp vclock.Stamp
}

// Append appends s's encoding to b and returns the extended buffer. The
// encoding is canonical: the sequencer position, the vector's entries in
// client order, then the stamps in page order, each list behind its count,
// little-endian. Equal states encode to equal bytes.
func (s *State) Append(b []byte) []byte {
	le := binary.LittleEndian
	es := s.Applied.Entries()
	b = le.AppendUint32(le.AppendUint64(b, s.Global), uint32(len(es)))
	for _, e := range es {
		b = le.AppendUint64(le.AppendUint32(b, uint32(e.Client)), e.Seq)
	}
	b = le.AppendUint32(b, uint32(len(s.Stamps)))
	for _, p := range s.Stamps {
		b = append(le.AppendUint32(b, uint32(len(p.Page))), p.Page...)
		b = le.AppendUint32(le.AppendUint64(b, p.Stamp.Time), uint32(p.Stamp.Client))
	}
	return b
}

// SplitState decodes the engine state at the front of b, as Append encodes
// it, and returns it with the bytes that follow it. b may come off the
// network: every count is checked against the bytes left before anything is
// allocated for it, and clients and pages must be strictly ascending, so
// only Append's own encoding of a state decodes. The state shares nothing
// with b; the rest is b's tail.
func SplitState(b []byte) (*State, []byte, error) {
	bad := false
	take := func(n int) []byte {
		if bad || n > len(b) {
			bad = true
			return make([]byte, 8)
		}
		v := b[:n]
		b = b[n:]
		return v
	}
	u32 := func() uint32 { return binary.LittleEndian.Uint32(take(4)) }
	u64 := func() uint64 { return binary.LittleEndian.Uint64(take(8)) }
	// count reads a list's length, which must fit what is left at size
	// bytes an entry.
	count := func(size int) int {
		n := int(u32())
		bad = bad || n > len(b)/size
		return n
	}
	s := &State{Global: u64()}
	for n, last := count(4+8), -1; n > 0 && !bad; n-- {
		c := int(u32())
		bad = bad || c <= last
		last = c
		s.Applied.Set(ids.ClientID(c), u64())
	}
	if n := count(4 + 8 + 4); n > 0 && !bad {
		s.Stamps = make([]PageStamp, 0, n)
		for ; n > 0 && !bad; n-- {
			p := PageStamp{Page: string(take(int(u32())))}
			p.Stamp = vclock.Stamp{Time: u64(), Client: ids.ClientID(u32())}
			bad = bad || len(s.Stamps) > 0 && s.Stamps[len(s.Stamps)-1].Page >= p.Page
			s.Stamps = append(s.Stamps, p)
		}
	}
	if bad {
		return nil, nil, errors.New("coherence: malformed engine state")
	}
	return s, b, nil
}
