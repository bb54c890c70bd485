// Package nameserv is the networked naming/location service: a name server
// that any number of daemons register their objects with and that clients
// resolve through. It is the naming front end of a Web object of its own, the
// directory.
//
// Every name server holds one replica of the directory: a replication.Object
// under the mirrored-site strategy (the eventual model, leaderless peers kept
// in sync by gossip) over the directory object, a kvstore. A directory edit —
// a registration, a deregistration, an expiry, a renewal, a floor report, a
// lease cursor step — is an ordinary write on the server's own client
// identity, so peers converge by per-key last-writer-wins exactly as the pages
// of a mirrored site do, a whole state exchanged after a long split included
// (it is merged key by key). The keys are:
//
//	e/<object>/<addr>    one contact point; deregistration and expiry Delete it
//	m/<object>           the object's metadata
//	l/<origin>/<kind>    a server's lease cursor, written only by that server
//	f/<client>/<origin>  a client's write-sequence floor as reported at one
//	                     server; the floor is the max over origins
//
// An object or client is escaped so it holds no '/'. The directory object
// folds every key it changes — by a write, a whole state installed, or one
// key merged from a peer's whole state — into a naming.Service, the same
// index an in-process resolver uses, so a record lists its entries in the
// one order naming.Service gives (layer, then store ID with 0 last, then
// address) whichever way it is resolved. What is naming stays here: the
// register/resolve/lease RPCs, the readiness gate, lease striping and TTL
// expiry.
//
// Identifier allocation is leased: a daemon asks its name server for a
// range of client or store IDs and allocates locally from it. Ranges are
// striped across naming peers (server i of N hands out the ranges whose
// index ≡ i−1 mod N, matching leaseStart), so identities are globally
// unique without any inter-server coordination on the allocation path.
//
//globelint:deterministic
//globelint:aliased-input
package nameserv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/ids"
	"repro/internal/naming"
	"repro/internal/replication"
	"repro/internal/strategy"
)

// Lease sub-operations carried in a KindNameLease request's Inv.Method.
const (
	opLeaseClients uint16 = iota + 1
	opLeaseStores
	opReserveClient
	opReserveStore
	opReportFloor
	opQueryFloor
	// opRenewContact rewrites every live entry of one contact point (the
	// daemon's liveness heartbeat): registrations are renewable leases, and
	// a server configured with a LeaseTTL expires entries whose renewals
	// stop. Carried in Pages[0]; the reply returns the renewed-entry count
	// in Write.Seq and the server's lifetime expired-record count in
	// GlobalSeq. No new message kind, so no wire version bump.
	opRenewContact
)

// Item kinds on the wire.
//
//globelint:wiresym group=nameitem
const (
	itemEntry byte = iota + 1
	itemMeta
)

// Item is one directory fact on the wire: a contact point of an object, or
// the object's metadata. Register requests and resolve replies carry batches
// of them, and the directory object stores each fact as a one-item batch.
type Item struct {
	Kind   byte
	Object ids.ObjectID

	// Entry fields (itemEntry).
	Entry naming.Entry

	// Meta fields (itemMeta).
	Meta naming.Meta
}

// ErrShort reports a truncated or corrupt nameserv payload.
var ErrShort = errors.New("nameserv: short or corrupt payload")

type writer struct{ buf []byte }

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u16(v uint16) { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }
func (w *writer) str(s string) {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	w.u16(uint16(len(s)))
	w.buf = append(w.buf, s...)
}

type reader struct {
	buf []byte
	off int
}

func (r *reader) need(n int) error {
	if len(r.buf)-r.off < n {
		return ErrShort
	}
	return nil
}

func (r *reader) u8() (uint8, error) {
	if err := r.need(1); err != nil {
		return 0, err
	}
	v := r.buf[r.off]
	r.off++
	return v, nil
}

func (r *reader) u16() (uint16, error) {
	if err := r.need(2); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if err := r.need(4); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if err := r.need(8); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

func (r *reader) str() (string, error) {
	n, err := r.u16()
	if err != nil {
		return "", err
	}
	if err := r.need(int(n)); err != nil {
		return "", err
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

// EncodeItems serialises a batch of directory items into a frame payload.
// Batches beyond the u16 count are truncated; no caller comes near it.
//
//globelint:wiresym group=nameitem role=encode
func EncodeItems(items []Item) []byte {
	w := writer{buf: make([]byte, 0, 72*len(items)+2)}
	if len(items) > math.MaxUint16 {
		items = items[:math.MaxUint16]
	}
	w.u16(uint16(len(items)))
	for i := range items {
		it := &items[i]
		w.u8(it.Kind)
		switch it.Kind {
		case itemEntry:
			w.str(string(it.Object))
			w.str(it.Entry.Addr)
			w.u32(uint32(it.Entry.Store))
			w.u8(uint8(it.Entry.Role))
		case itemMeta:
			w.str(string(it.Object))
			w.str(it.Meta.Sem)
			strat := ""
			if it.Meta.HasStrat {
				strat = strategy.Marshal(it.Meta.Strat)
			}
			w.str(strat)
			n := len(it.Meta.Models)
			if n > math.MaxUint8 {
				n = math.MaxUint8
			}
			w.u8(uint8(n))
			for _, m := range it.Meta.Models[:n] {
				w.str(m)
			}
		}
	}
	return w.buf
}

// minItemBytes is the smallest wire form of a valid item: a metadata item
// naming a one-byte object, every other string empty (kind, three string
// lengths, the object, a model count).
const minItemBytes = 9

// DecodeItems parses an EncodeItems payload. An item must name its object,
// and an entry its address: a payload in an older layout, which carried a
// zero stamp ahead of each item's fields, then fails to decode rather than
// registering an empty entry.
//
//globelint:wiresym group=nameitem role=decode
func DecodeItems(b []byte) ([]Item, error) {
	r := reader{buf: b}
	n, err := r.u16()
	if err != nil {
		return nil, err
	}
	// Bound the pre-allocation by what the payload could actually hold, so
	// a corrupt count cannot amplify into a huge allocation.
	capHint := int(n)
	if max := len(b) / minItemBytes; capHint > max {
		capHint = max
	}
	items := make([]Item, 0, capHint)
	for i := 0; i < int(n); i++ {
		var it Item
		if it.Kind, err = r.u8(); err != nil {
			return nil, err
		}
		switch it.Kind {
		case itemEntry:
			obj, err := r.str()
			if err != nil {
				return nil, err
			}
			it.Object = ids.ObjectID(obj)
			if it.Entry.Addr, err = r.str(); err != nil {
				return nil, err
			}
			st, err := r.u32()
			if err != nil {
				return nil, err
			}
			it.Entry.Store = ids.StoreID(st)
			role, err := r.u8()
			if err != nil {
				return nil, err
			}
			it.Entry.Role = replication.Role(role)
			if it.Entry.Addr == "" {
				return nil, fmt.Errorf("%w: entry without an address", ErrShort)
			}
		case itemMeta:
			obj, err := r.str()
			if err != nil {
				return nil, err
			}
			it.Object = ids.ObjectID(obj)
			if it.Meta.Sem, err = r.str(); err != nil {
				return nil, err
			}
			stratText, err := r.str()
			if err != nil {
				return nil, err
			}
			if stratText != "" {
				strat, err := strategy.Parse(stratText)
				if err != nil {
					return nil, fmt.Errorf("nameserv: record strategy: %w", err)
				}
				it.Meta.Strat, it.Meta.HasStrat = strat, true
			}
			nm, err := r.u8()
			if err != nil {
				return nil, err
			}
			for j := 0; j < int(nm); j++ {
				m, err := r.str()
				if err != nil {
					return nil, err
				}
				it.Meta.Models = append(it.Meta.Models, m)
			}
		default:
			return nil, fmt.Errorf("%w: unknown item kind %d", ErrShort, it.Kind)
		}
		if it.Object == "" {
			return nil, fmt.Errorf("%w: item without an object", ErrShort)
		}
		items = append(items, it)
	}
	return items, nil
}

// EncodeLease serialises a leased identifier range.
func EncodeLease(start, span uint64) []byte {
	w := writer{buf: make([]byte, 0, 16)}
	w.u64(start)
	w.u64(span)
	return w.buf
}

// DecodeLease parses an EncodeLease payload.
func DecodeLease(b []byte) (start, span uint64, err error) {
	r := reader{buf: b}
	if start, err = r.u64(); err != nil {
		return 0, 0, err
	}
	if span, err = r.u64(); err != nil {
		return 0, 0, err
	}
	return start, span, nil
}

// recordItems flattens a record into resolve-reply items (entries + meta).
func recordItems(rec *naming.Record) []Item {
	items := make([]Item, 0, len(rec.Entries)+1)
	for _, e := range rec.Entries {
		items = append(items, Item{Kind: itemEntry, Object: rec.Object, Entry: e})
	}
	if rec.Meta.Sem != "" || rec.Meta.HasStrat || len(rec.Meta.Models) > 0 {
		items = append(items, Item{Kind: itemMeta, Object: rec.Object, Meta: rec.Meta})
	}
	return items
}

// recordFromItems inverts recordItems at the client.
func recordFromItems(obj ids.ObjectID, version uint64, items []Item) naming.Record {
	rec := naming.Record{Object: obj, Version: version}
	for i := range items {
		it := &items[i]
		switch it.Kind {
		case itemEntry:
			rec.Entries = append(rec.Entries, it.Entry)
		case itemMeta:
			rec.Meta = it.Meta
		}
	}
	return rec
}
