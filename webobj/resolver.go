package webobj

import (
	"fmt"

	"repro/internal/ids"
	"repro/internal/nameserv"
	"repro/internal/naming"
)

// ClientID identifies a client bound to an object (unique per deployment).
type ClientID = ids.ClientID

// StoreID identifies a store (unique per deployment).
type StoreID = ids.StoreID

// NameEntry is one contact point in a name record: a store holding a
// replica of the object.
type NameEntry = naming.Entry

// NameMeta is the per-object metadata a name record carries: semantics
// type, replication strategy, and supported session models. It is what
// lets a process bind to an object it was never configured for — the
// record, not the client, carries the object's semantics and model.
type NameMeta = naming.Meta

// NameRecord is a full name record: contact points plus metadata plus a
// version that advances on every change.
type NameRecord = naming.Record

// Resolver is the naming/location seam a System resolves through: contact
// points, object metadata, identifier allocation, and client
// write-sequence floors. The default is the in-process naming.Service; a
// networked deployment plugs in the name-service client (WithNameServer)
// so registrations are visible across processes, identifiers are globally
// unique, and AttachObject's manual sem/strat mirroring disappears. The
// System owns its resolver: System.Close closes it.
type Resolver interface {
	// Register upserts one contact point, and — when meta is non-zero —
	// the object's record metadata.
	Register(object ObjectID, e NameEntry, meta NameMeta) error
	// Deregister removes the contact point at addr.
	Deregister(object ObjectID, addr string) error
	// Resolve returns the object's record; it fails when the object is
	// unknown.
	Resolve(object ObjectID) (NameRecord, error)
	// Invalidate drops any cached record for object, forcing the next
	// Resolve to re-fetch (called after a bind to a resolved contact point
	// fails).
	Invalidate(object ObjectID)
	// Pick returns the deterministic default contact point.
	Pick(object ObjectID) (NameEntry, bool)
	// RenewContact refreshes the liveness lease on every record entry
	// registered at addr, returning how many entries were renewed. A
	// successful call renewing zero entries means the directory already
	// expired this contact point: the caller must re-register. Resolvers
	// without leases renew trivially.
	RenewContact(addr string) (uint64, error)

	// NextClient / NextStore allocate deployment-unique identifiers.
	NextClient() (ClientID, error)
	NextStore() (StoreID, error)
	// ReserveClient / ReserveStore pin hand-chosen identifiers so the
	// allocators never hand them out.
	ReserveClient(id ClientID) error
	ReserveStore(id StoreID) error

	// ClientSeqFloor returns the highest write sequence a session using
	// this client identity has reported (zero when unknown);
	// ReportClientSeq raises it. Binds seed the session's write counter
	// from max(bound store's applied vector, this floor), so a reused
	// identity binding a lagging replica does not re-issue covered write
	// IDs.
	ClientSeqFloor(id ClientID) uint64
	ReportClientSeq(id ClientID, seq uint64)

	Close() error
}

// localResolver adapts the in-process naming.Service to the Resolver seam —
// the default for simulations and single-process deployments.
type localResolver struct{ ns *naming.Service }

var _ Resolver = localResolver{}

func (l localResolver) Register(object ObjectID, e NameEntry, meta NameMeta) error {
	l.ns.Register(object, e)
	if meta.Sem != "" || meta.HasStrat || len(meta.Models) > 0 {
		l.ns.SetMeta(object, meta)
	}
	return nil
}

func (l localResolver) Deregister(object ObjectID, addr string) error {
	l.ns.Deregister(object, addr)
	return nil
}

func (l localResolver) Resolve(object ObjectID) (NameRecord, error) {
	rec, ok := l.ns.Record(object)
	if !ok {
		return NameRecord{}, fmt.Errorf("webobj: object %q not registered", object)
	}
	return rec, nil
}

func (l localResolver) Invalidate(ObjectID) {}

func (l localResolver) Pick(object ObjectID) (NameEntry, bool) { return l.ns.Pick(object) }

// RenewContact is trivial locally: in-process registrations have no lease
// to expire, so the contact point is reported alive (non-zero) forever.
func (l localResolver) RenewContact(string) (uint64, error) { return 1, nil }

func (l localResolver) NextClient() (ClientID, error) { return l.ns.NextClient(), nil }
func (l localResolver) NextStore() (StoreID, error)   { return l.ns.NextStore(), nil }

func (l localResolver) ReserveClient(id ClientID) error { return l.ns.ReserveClient(id) }
func (l localResolver) ReserveStore(id StoreID) error   { return l.ns.ReserveStore(id) }

func (l localResolver) ClientSeqFloor(id ClientID) uint64       { return l.ns.ClientSeqFloor(id) }
func (l localResolver) ReportClientSeq(id ClientID, seq uint64) { l.ns.ReportClientSeq(id, seq) }

func (l localResolver) Close() error { return nil }

var _ Resolver = (*nameserv.Client)(nil)
