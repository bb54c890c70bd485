// Package naming implements the Globe support service that lets clients
// find a distributed shared object's contact points (§2: "in order for a
// process to invoke an object's method, it must first bind to that object
// by contacting it at one of the object's contact points"). It also issues
// the system-wide unique client and store identifiers that write IDs and
// dependency records are built from.
package naming

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/ids"
	"repro/internal/replication"
	"repro/internal/strategy"
)

// Entry is one contact point of an object: a store holding a replica.
type Entry struct {
	Addr  string
	Store ids.StoreID
	Role  replication.Role
}

// Meta is the per-object metadata a name record carries beyond contact
// points: the semantics type name, the replication strategy, and the
// client-based session models the object's replicas are expected to
// support. It is what lets a process bind to an object it has never been
// configured for — the record, not the client, carries the object's
// semantics and model (the incremental-consistency spirit of PAPERS.md).
type Meta struct {
	// Sem is the semantics type name ("webdoc", "kvstore", "applog").
	Sem string
	// Strat is the object's replication strategy; HasStrat reports whether
	// it was ever recorded (a zero Strategy is not distinguishable
	// otherwise).
	Strat    strategy.Strategy
	HasStrat bool
	// Models lists the session-model short names ("ryw", "mr", "mw",
	// "wfr") the object's deployment supports for clients.
	Models []string
}

// Record is a full name record: everything the location service knows about
// one object. Version increases whenever the record changes (entry
// registration/removal or metadata update); clients use it to detect that a
// cached record went stale.
type Record struct {
	Object  ids.ObjectID
	Entries []Entry
	Meta    Meta
	Version uint64
}

// Service is an in-memory location service. The zero value is unusable;
// create with New. Safe for concurrent use.
type Service struct {
	mu            sync.Mutex
	objects       map[ids.ObjectID][]Entry
	meta          map[ids.ObjectID]Meta
	versions      map[ids.ObjectID]uint64
	floors        map[ids.ClientID]uint64
	nextClient    ids.ClientID
	nextStore     ids.StoreID
	pinnedClients map[ids.ClientID]bool
	pinnedStores  map[ids.StoreID]bool
}

// New creates an empty location service.
func New() *Service {
	return &Service{
		objects:       make(map[ids.ObjectID][]Entry),
		meta:          make(map[ids.ObjectID]Meta),
		versions:      make(map[ids.ObjectID]uint64),
		floors:        make(map[ids.ClientID]uint64),
		pinnedClients: make(map[ids.ClientID]bool),
		pinnedStores:  make(map[ids.StoreID]bool),
	}
}

// NextClient allocates a fresh client identifier, skipping identifiers
// pinned via ReserveClient.
func (s *Service) NextClient() ids.ClientID {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		s.nextClient++
		if !s.pinnedClients[s.nextClient] {
			return s.nextClient
		}
	}
}

// NextStore allocates a fresh store identifier, skipping identifiers pinned
// via ReserveStore.
func (s *Service) NextStore() ids.StoreID {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		s.nextStore++
		if !s.pinnedStores[s.nextStore] {
			return s.nextStore
		}
	}
}

// ReserveClient pins id so NextClient never allocates it. Deployments that
// choose their own client IDs call this to keep pinned and auto-allocated
// identities disjoint. Re-pinning an already pinned id succeeds — reusing
// a persistent client identity across bindings is how a returning client
// resumes its session — but pinning an id NextClient already handed out is
// an error: two live clients would share a write-ID namespace.
func (s *Service) ReserveClient(id ids.ClientID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pinnedClients[id] {
		return nil
	}
	if id <= s.nextClient {
		return fmt.Errorf("naming: client ID %d was already auto-allocated", id)
	}
	s.pinnedClients[id] = true
	return nil
}

// ReserveStore pins id so NextStore never allocates it. Pinning an id
// NextStore already handed out is an error.
func (s *Service) ReserveStore(id ids.StoreID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pinnedStores[id] {
		return nil
	}
	if id <= s.nextStore {
		return fmt.Errorf("naming: store ID %d was already auto-allocated", id)
	}
	s.pinnedStores[id] = true
	return nil
}

// Register adds a contact point for an object. Registering the same address
// twice replaces the old entry.
func (s *Service) Register(obj ids.ObjectID, e Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.versions[obj]++
	entries := s.objects[obj]
	for i, old := range entries {
		if old.Addr == e.Addr {
			entries[i] = e
			return
		}
	}
	s.objects[obj] = append(entries, e)
}

// Deregister removes the contact point at addr.
func (s *Service) Deregister(obj ids.ObjectID, addr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries := s.objects[obj]
	for i, e := range entries {
		if e.Addr == addr {
			s.versions[obj]++
			s.objects[obj] = append(entries[:i], entries[i+1:]...)
			return
		}
	}
}

// SetMeta records an object's semantics/strategy/model metadata, completing
// its name record. A zero Meta removes it.
func (s *Service) SetMeta(obj ids.ObjectID, m Meta) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.versions[obj]++
	if m.Sem == "" && !m.HasStrat && len(m.Models) == 0 {
		delete(s.meta, obj)
		return
	}
	s.meta[obj] = m
}

// Record returns the full name record of obj, its entries in Pick's order:
// lowest store layer first (client-initiated, then object-initiated, then
// permanent), then store ID, then address. "It is generally up to the
// client to decide to which replica he will bind", closer layers are
// usually preferable, and the order depends only on the entries, not on the
// order they were registered in. ok is false when the service knows nothing
// about obj.
func (s *Service) Record(obj ids.ObjectID) (Record, bool) {
	s.mu.Lock()
	entries := append([]Entry(nil), s.objects[obj]...)
	m, hasMeta := s.meta[obj]
	v := s.versions[obj]
	s.mu.Unlock()
	if len(entries) == 0 && !hasMeta {
		return Record{}, false
	}
	sort.Slice(entries, func(i, j int) bool { return pickLess(entries[i], entries[j]) })
	return Record{Object: obj, Entries: entries, Meta: m, Version: v}, true
}

// ReportClientSeq raises a client identity's write-sequence floor: the
// highest per-client write sequence a session using this identity reports
// having issued. A later bind seeds its write counter from
// max(bound store's applied vector, this floor), so a reused identity
// binding a replica that lags its previous writes does not re-issue covered
// write IDs (which stores silently absorb as replays).
func (s *Service) ReportClientSeq(id ids.ClientID, seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq > s.floors[id] {
		s.floors[id] = seq
	}
}

// ClientSeqFloor returns the recorded write-sequence floor for a client
// identity (zero when the identity never reported).
func (s *Service) ClientSeqFloor(id ids.ClientID) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.floors[id]
}

// Pick returns the default contact point for a client that expressed no
// preference: the lowest-layer replica (client-initiated before
// object-initiated before permanent — closer layers are usually
// preferable), with ties broken by smallest store ID and then address, so
// the choice is deterministic regardless of registration order. Remote
// entries registered without a store ID (ID 0) sort after identified ones
// within their layer.
func (s *Service) Pick(obj ids.ObjectID) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return PickEntry(s.objects[obj])
}

// PickEntry applies the deterministic default-replica choice to an entry
// set from any source — the in-process service or a fetched name record.
func PickEntry(entries []Entry) (Entry, bool) {
	if len(entries) == 0 {
		return Entry{}, false
	}
	best := entries[0]
	for _, e := range entries[1:] {
		if pickLess(e, best) {
			best = e
		}
	}
	return best, true
}

// pickLess orders entries by (layer, store ID with 0 last, address).
func pickLess(a, b Entry) bool {
	ra, rb := layerRank(a.Role), layerRank(b.Role)
	if ra != rb {
		return ra < rb
	}
	ia, ib := uint64(a.Store), uint64(b.Store)
	if ia == 0 {
		ia = math.MaxUint64
	}
	if ib == 0 {
		ib = math.MaxUint64
	}
	if ia != ib {
		return ia < ib
	}
	return a.Addr < b.Addr
}

func layerRank(r replication.Role) int {
	switch r {
	case replication.RoleClientInitiated:
		return 0
	case replication.RoleObjectInitiated:
		return 1
	case replication.RolePermanent:
		return 2
	default:
		return 3
	}
}
