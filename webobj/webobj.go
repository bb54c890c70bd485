// Package webobj is the public face of the framework: distributed,
// consistent, replicated Web objects with a per-object caching/replication
// strategy, reproducing "A Framework for Consistent, Replicated Web
// Objects" (Kermarrec, Kuz, van Steen, Tanenbaum; ICDCS 1998).
//
// A System is one deployment of the framework over a network Fabric. The
// fabric is pluggable: the default in-process simulated network
// (NewMemFabric) and real TCP (NewTCPFabric) build the same System, so the
// code that publishes, replicates, and accesses objects is identical in a
// single-process simulation and a multi-process production deployment —
// only the fabric changes:
//
//	sys := webobj.NewSystem()                                      // simulation
//	sys := webobj.NewSystem(webobj.WithFabric(webobj.NewTCPFabric(""))) // real TCP
//
// A System owns a location (naming) service and any number of stores in
// the paper's three layers — permanent stores (Web servers), object-
// initiated stores (mirrors), and client-initiated stores (proxy/browser
// caches). Stores running in other processes join by address:
// AttachServer registers a remote daemon's store, and AttachObject declares
// an object it publishes, after which local stores replicate from it
// exactly as from a local parent.
//
// An object is published at a permanent store with a Semantics selector
// (WebDoc, KV, AppLog) and a Strategy (the paper's Table 1 parameters plus
// the object-based coherence model); replicas are installed at other
// stores; clients bind through the typed Open calls — OpenDocument,
// OpenMap, OpenLog — optionally with client-based coherence models (session
// guarantees). Binds are semantics-checked at the store, so a client
// holding the wrong typed handle fails at bind time, not at first use.
//
//	sys := webobj.NewSystem()
//	server, _ := sys.NewServer("www")
//	_ = sys.Publish(server, "conf-page", webobj.WebDoc(), webobj.ConferenceStrategy(time.Second))
//	cache, _ := sys.NewCache("proxy", server)
//	_ = sys.Replicate(cache, "conf-page", webobj.ReadYourWrites)
//	doc, _ := sys.Open("conf-page", webobj.At(cache), webobj.WithSession(webobj.ReadYourWrites))
//	_ = doc.Append("program.html", []byte("<li>keynote</li>"))
//	page, _ := doc.Get("program.html")
//
// # Observability
//
// WithMetrics turns on the metrics registry: every field of a replica's
// Stats as a counter series plus HDR log-linear histograms, all carrying
// {store, object} labels — the headline series is
// globe_propagation_lag_seconds, the age of each update at local apply;
// WithTrace(n) additionally keeps the last n write-lifecycle events in a
// lock-free ring. Read them in-process with MetricsSnapshot and
// TraceEvents, serve Prometheus text with MetricsHandler, or fetch either
// over the control port ("metrics" and "trace" ops; see globectl). Both are
// off by default; the counters count regardless (Store.Stats reads them),
// histograms and trace then cost one nil-check branch, and nothing
// allocates on the hot path either way. Caveat:
// latency-valued series (WAL sync, propagation lag) measured on a 1-vCPU
// host include scheduler interleaving — compare shapes and relative
// shifts there, not absolute values.
package webobj

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/nameserv"
	"repro/internal/naming"
	"repro/internal/obs"
	"repro/internal/replication"
	"repro/internal/semantics/webdoc"
	"repro/internal/store"
	"repro/internal/strategy"
	"repro/internal/transport"
	"repro/internal/transport/memnet"
	"repro/internal/wal"
)

// ObjectID names a distributed Web object.
type ObjectID = ids.ObjectID

// Strategy is the per-object replication policy (Table 1 of the paper).
type Strategy = strategy.Strategy

// Page is a Web-document page with its version metadata.
type Page = webdoc.Page

// ClientModel is a client-based coherence model (§3.2.2, Bayou session
// guarantees, enforced rather than checked).
type ClientModel = coherence.ClientModel

// Client-based coherence models.
const (
	ReadYourWrites    = coherence.ReadYourWrites
	MonotonicReads    = coherence.MonotonicReads
	MonotonicWrites   = coherence.MonotonicWrites
	WritesFollowReads = coherence.WritesFollowReads
)

// Strategy presets (see internal/strategy for the full parameter space).
var (
	// ConferenceStrategy is Table 2 of the paper: PRAM everywhere, single
	// writer, lazy periodic partial pushes, RYW-capable caches.
	ConferenceStrategy = strategy.Conference
	// PersonalHomePageStrategy suits rarely-shared personal pages.
	PersonalHomePageStrategy = strategy.PersonalHomePage
	// PopularEventPageStrategy suits hot, proxy-replicated pages.
	PopularEventPageStrategy = strategy.PopularEventPage
	// MagazineStrategy suits periodically-published documents.
	MagazineStrategy = strategy.Magazine
	// ForumStrategy suits causally-ordered shared forums.
	ForumStrategy = strategy.Forum
	// WhiteboardStrategy suits concurrent-writer groupware.
	WhiteboardStrategy = strategy.Whiteboard
	// MirroredSiteStrategy suits eventually-synchronised mirrors.
	MirroredSiteStrategy = strategy.MirroredSite
)

// StrategyPresets returns the named presets with default periods, keyed the
// way tools (globed -strategy) select them.
func StrategyPresets() map[string]Strategy { return strategy.Presets() }

// SemanticsByName resolves a semantics selector from its type name
// ("webdoc", "kvstore"/"kv", "applog"/"log"); tools use it to parse flags.
func SemanticsByName(name string) (Semantics, error) {
	switch name {
	case "webdoc", "doc":
		return WebDoc(), nil
	case "kvstore", "kv":
		return KV(), nil
	case "applog", "log":
		return AppLog(), nil
	default:
		return Semantics{}, fmt.Errorf("webobj: unknown semantics %q (want webdoc|kv|applog)", name)
	}
}

// ClientModelsByNames parses a comma-separated list of session-guarantee
// short names (ryw, mr, mw, wfr); tools use it to parse flags.
func ClientModelsByNames(list string) ([]ClientModel, error) {
	if list == "" {
		return nil, nil
	}
	var out []ClientModel
	for _, part := range strings.Split(list, ",") {
		switch strings.TrimSpace(part) {
		case "ryw":
			out = append(out, ReadYourWrites)
		case "mr":
			out = append(out, MonotonicReads)
		case "mw":
			out = append(out, MonotonicWrites)
		case "wfr":
			out = append(out, WritesFollowReads)
		case "":
		default:
			return nil, fmt.Errorf("webobj: unknown session model %q (want ryw|mr|mw|wfr)", part)
		}
	}
	return out, nil
}

// Store is one store (any layer). Local stores run inside this process;
// attached stores (AttachServer) are daemons in other processes, addressed
// over the fabric.
type Store struct {
	name string
	addr string
	role replication.Role
	st   *store.Store // nil for attached (remote) stores
}

// Name returns the store's name within the system (for attached stores,
// their address).
func (s *Store) Name() string { return s.name }

// Addr returns the store's transport address.
func (s *Store) Addr() string {
	if s.st != nil {
		return s.st.Addr()
	}
	return s.addr
}

// Remote reports whether the store runs in another process (attached via
// AttachServer) rather than inside this System.
func (s *Store) Remote() bool { return s.st == nil }

// ErrRemoteStore is returned by operations that need the store's in-process
// state when called on an attached (remote) store.
var ErrRemoteStore = errors.New("webobj: store is in another process")

// Stats returns the replication protocol counters for one hosted object
// (dissemination rounds, batch frames, demands, parked reads, ...).
func (s *Store) Stats(object ObjectID) (replication.Stats, error) {
	if s.st == nil {
		return replication.Stats{}, ErrRemoteStore
	}
	return s.st.Stats(ids.ObjectID(object))
}

// Applied returns the store's applied version vector for one hosted object.
func (s *Store) Applied(object ObjectID) (msg.Vec, error) {
	if s.st == nil {
		return msg.Vec{}, ErrRemoteStore
	}
	return s.st.Applied(ids.ObjectID(object))
}

// objectInfo is what the System knows about a published or attached object.
type objectInfo struct {
	sem   Semantics
	strat Strategy
}

// System is one deployment of the framework over a Fabric. Safe for
// concurrent use.
type System struct {
	mu         sync.Mutex
	fabric     Fabric
	ns         *naming.Service
	res        Resolver
	nsAddrs    []string // name-server addresses (WithNameServer)
	stores     map[string]*Store
	parents    map[string]string // store name -> parent store name
	objects    map[ObjectID]objectInfo
	ctlEps     []transport.Endpoint   // control listeners (ServeControl)
	tuning     replication.Tuning     // handed whole to every store this system creates
	dataDir    string                 // WAL root for permanent stores (WithDataDir)
	failover   FailoverConfig         // client retry tuning (WithFailover)
	leaseRenew time.Duration          // contact-lease heartbeat period (WithLeaseRenewal)
	regs       map[string][]regRecord // addr -> registrations, replayed when a lease lapses
	renewDone  chan struct{}
	renewWG    sync.WaitGroup
	nextEP     int
	closed     bool

	// Observability (WithMetrics / WithTrace). obsv stays nil when both are
	// off; every downstream consumer is nil-safe.
	metricsOn bool
	traceN    int
	obsv      *obs.Observer
}

// regRecord is one registration this system made, kept so the lease
// heartbeat can re-register a contact point the directory expired (e.g.
// after a long pause that outlived the lease TTL).
type regRecord struct {
	object ObjectID
	entry  NameEntry
	meta   NameMeta
}

// SystemOption configures NewSystem.
type SystemOption func(*System)

// WithFabric deploys the system over f instead of the default in-process
// simulated network. The system takes ownership: System.Close closes the
// fabric.
func WithFabric(f Fabric) SystemOption { return func(s *System) { s.fabric = f } }

// WithResolver resolves objects, identifiers, and write-sequence floors
// through r instead of the in-process location service. The system takes
// ownership: System.Close closes the resolver.
func WithResolver(r Resolver) SystemOption { return func(s *System) { s.res = r } }

// WithNameServer resolves through the networked name service at the given
// addresses (tried in order) over this system's fabric. Publications and
// replicas register themselves there, client and store identifiers are
// leased from it (globally unique across daemons), and objects published by
// other processes are opened by name alone — no AttachObject sem/strat
// mirroring. See NewNameServer and cmd/globens for running the service.
func WithNameServer(addrs ...string) SystemOption {
	return func(s *System) { s.nsAddrs = addrs }
}

// WithDemandRetry tunes the unanswered-demand re-request delay for every
// store this system creates (default 50ms; negative disables retries). Keep
// it well below the digest interval: the retry chases a demand whose frame
// or reply was lost, the heartbeat exposes gaps nobody knows about.
func WithDemandRetry(d time.Duration) SystemOption {
	return func(s *System) { s.tuning.DemandRetry = d }
}

// FsyncPolicy selects when a durable store's write-ahead log reaches stable
// storage.
type FsyncPolicy = wal.Policy

const (
	// FsyncOff leaves flushing to the OS page cache: fastest, but writes
	// acknowledged since the last snapshot/close can be lost to a machine
	// (not process) crash.
	FsyncOff = wal.SyncOff
	// FsyncInterval flushes on a timer (default 100ms): bounds loss to one
	// interval of acknowledged writes.
	FsyncInterval = wal.SyncInterval
	// FsyncAlways flushes before every write acknowledgement: zero
	// acknowledged-write loss even under kill -9, at one fsync per drained
	// batch of writes.
	FsyncAlways = wal.SyncAlways
)

// Durability tunes the write-ahead log of durable stores (WithDataDir):
// fsync policy, flush cadence, snapshot period, recovery grace. The zero
// value means FsyncOff, 100ms interval, snapshot every 1024 records, 2s
// recovery grace.
type Durability = replication.Durability

// WithDataDir makes every permanent store this system creates durable: each
// hosted object keeps a write-ahead log and periodic snapshot under
// <dir>/store-<ID>/<object>/, and a restarted daemon recovers state from
// disk, anti-entropies the tail from surviving replicas, then serves.
// Mirror and cache stores ignore it (their state is reconstructible from
// the parent).
func WithDataDir(dir string) SystemOption {
	return func(s *System) { s.dataDir = dir }
}

// WithDurability tunes the WAL of stores made durable by WithDataDir.
func WithDurability(d Durability) SystemOption {
	return func(s *System) { s.tuning.Durability = d }
}

// ParseFsyncPolicy resolves a flag/manifest fsync value: "off", "interval",
// or "always".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) { return wal.ParsePolicy(s) }

// WithReparenting turns on the store-level liveness watch for every replica
// this system creates: a child that misses `after` consecutive expected
// digest heartbeats from its parent — or exhausts its subscribe retry
// budget — declares the parent dead, re-resolves the object, and
// re-subscribes at the live replica closest to the root (never itself or
// its own subtree). Requires WithDigestInterval: the heartbeat is the
// liveness signal. Choose `after` ≥ 2 so one jittered or lost heartbeat
// does not trigger a spurious re-parent.
func WithReparenting(after int) SystemOption {
	return func(s *System) { s.tuning.ReparentAfter = after }
}

// WithLeaseRenewal starts a background heartbeat that renews this system's
// contact-point leases at the name service every d (choose d ≤ a third of
// the server's lease TTL). If a renewal reports the directory already
// expired a contact point, its registrations are replayed. Without this
// option a daemon's registrations silently age out of a lease-enabled
// directory.
func WithLeaseRenewal(d time.Duration) SystemOption {
	return func(s *System) { s.leaseRenew = d }
}

// WithDigestInterval turns on anti-entropy digest heartbeats for every store
// this system creates: each interval (jittered per store) a store sends its
// subscribed children a compact applied-vector digest, and a child that
// detects a gap demands the missing updates — so a replica behind silent
// tail-loss or a healed partition converges within about one heartbeat
// instead of waiting for new traffic. Zero (the default) disables
// heartbeats.
func WithDigestInterval(d time.Duration) SystemOption {
	return func(s *System) { s.tuning.DigestInterval = d }
}

// NewSystem creates a deployment. By default it runs over an
// instantaneous, lossless in-process network; pass WithFabric to deploy
// over a configured memnet or over real TCP.
func NewSystem(opts ...SystemOption) *System {
	s := &System{
		ns:      naming.New(),
		stores:  make(map[string]*Store),
		parents: make(map[string]string),
		objects: make(map[ObjectID]objectInfo),
		regs:    make(map[string][]regRecord),
	}
	for _, o := range opts {
		o(s)
	}
	s.failover = s.failover.withDefaults()
	if s.fabric == nil {
		s.fabric = NewMemFabric()
	}
	if s.res == nil {
		if len(s.nsAddrs) > 0 {
			s.res = nameserv.NewClient(nameserv.ClientConfig{
				Fabric: s.fabric,
				// Unique per System: several Systems may share one fabric
				// (memnet simulations), and endpoint names must not collide.
				Name:    fmt.Sprintf("nsc/%d", nextResolverEP.Add(1)),
				Servers: s.nsAddrs,
			})
		} else {
			s.res = localResolver{ns: s.ns}
		}
	}
	s.initObs()
	if s.leaseRenew > 0 {
		s.renewDone = make(chan struct{})
		s.renewWG.Add(1)
		go s.renewLoop()
	}
	return s
}

// renewLoop heartbeats the liveness lease of every local store's contact
// points and replays registrations the directory expired meanwhile.
func (s *System) renewLoop() {
	defer s.renewWG.Done()
	t := time.NewTicker(s.leaseRenew)
	defer t.Stop()
	for {
		select {
		case <-s.renewDone:
			return
		case <-t.C:
		}
		s.mu.Lock()
		addrs := make(map[string][]regRecord, len(s.regs))
		for addr, regs := range s.regs {
			addrs[addr] = append([]regRecord(nil), regs...)
		}
		s.mu.Unlock()
		for addr, regs := range addrs {
			n, err := s.res.RenewContact(addr)
			if err != nil || n > 0 {
				continue // unreachable directory: next tick retries
			}
			// The lease lapsed (e.g. the process was paused past the TTL):
			// the tombstoned entries must be registered afresh.
			for _, r := range regs {
				_ = s.res.Register(r.object, r.entry, r.meta)
			}
		}
	}
}

// noteRegistration remembers a registration for lease-lapse replay.
func (s *System) noteRegistration(object ObjectID, e NameEntry, meta NameMeta) {
	s.mu.Lock()
	defer s.mu.Unlock()
	regs := s.regs[e.Addr]
	for i, r := range regs {
		if r.object == object {
			regs[i] = regRecord{object: object, entry: e, meta: meta}
			return
		}
	}
	s.regs[e.Addr] = append(regs, regRecord{object: object, entry: e, meta: meta})
}

// dropRegistration forgets one (addr, object) registration.
func (s *System) dropRegistration(object ObjectID, addr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	regs := s.regs[addr]
	for i, r := range regs {
		if r.object == object {
			s.regs[addr] = append(regs[:i], regs[i+1:]...)
			return
		}
	}
}

// nextResolverEP disambiguates name-service client endpoint names across
// Systems sharing one fabric.
var nextResolverEP atomic.Uint64

// Network exposes the underlying simulated network (link shaping, traffic
// statistics) when the system runs over a memnet fabric, and nil otherwise.
func (s *System) Network() *memnet.Network {
	if n, ok := s.fabric.(*memnet.Network); ok {
		return n
	}
	return nil
}

// Naming exposes the in-process location service (the default resolver's
// backing store). Systems resolving through a networked name server keep
// this service empty; use ResolveName for the deployment-wide view.
func (s *System) Naming() *naming.Service { return s.ns }

// Resolver exposes the naming seam the system resolves through.
func (s *System) Resolver() Resolver { return s.res }

// ResolveName returns the object's name record as the system's resolver
// sees it (local registrations, or the networked directory under
// WithNameServer).
func (s *System) ResolveName(object ObjectID) (NameRecord, error) {
	return s.res.Resolve(object)
}

// StoreOption configures store creation.
type StoreOption func(*storeCfg)

type storeCfg struct {
	id     ids.StoreID
	listen string
}

// WithListenAddr pins the store's transport address independently of its
// name. By default the name doubles as the listen hint (a host:port name
// pins the address on TCP fabrics); manifest-driven daemons give stores
// friendly names and pin the address here.
func WithListenAddr(addr string) StoreOption {
	return func(c *storeCfg) { c.listen = addr }
}

// WithStoreID pins the store's identifier instead of allocating one from
// the system's naming service. Multi-process deployments need it: each
// process has its own naming service, so daemons must be configured with
// deployment-unique IDs.
func WithStoreID(id uint32) StoreOption {
	return func(c *storeCfg) { c.id = ids.StoreID(id) }
}

// NewServer creates a permanent store (a Web server). Over a TCP fabric a
// name of the form host:port pins the listen address.
func (s *System) NewServer(name string, opts ...StoreOption) (*Store, error) {
	return s.newStore(name, replication.RolePermanent, nil, opts)
}

// NewMirror creates an object-initiated store below parent. A nil parent
// is allowed for stores whose replicas name their parents individually
// (ReplicateFrom, manifest-driven daemons).
func (s *System) NewMirror(name string, parent *Store, opts ...StoreOption) (*Store, error) {
	return s.newStore(name, replication.RoleObjectInitiated, parent, opts)
}

// NewCache creates a client-initiated store below parent. A nil parent is
// allowed as for NewMirror.
func (s *System) NewCache(name string, parent *Store, opts ...StoreOption) (*Store, error) {
	return s.newStore(name, replication.RoleClientInitiated, parent, opts)
}

func (s *System) newStore(name string, role replication.Role, parent *Store, opts []StoreOption) (*Store, error) {
	var cfg storeCfg
	for _, o := range opts {
		o(&cfg)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("webobj: system closed")
	}
	if _, dup := s.stores[name]; dup {
		return nil, fmt.Errorf("webobj: store %q already exists", name)
	}
	hint := name
	if cfg.listen != "" {
		hint = cfg.listen
	}
	ep, err := s.fabric.Endpoint("store/" + hint)
	if err != nil {
		return nil, err
	}
	id := cfg.id
	if id == 0 {
		// Allocated through the resolver: in-process deployments get the
		// local counter, name-served deployments lease a globally unique
		// range so no two daemons can mint the same store identity.
		id, err = s.res.NextStore()
		if err != nil {
			_ = ep.Close()
			return nil, fmt.Errorf("webobj: store %q: allocate ID: %w", name, err)
		}
	} else {
		// Keep pinned and auto-allocated IDs disjoint within this deployment:
		// duplicate store identities corrupt version-vector accounting.
		if err := s.res.ReserveStore(id); err != nil {
			_ = ep.Close()
			return nil, fmt.Errorf("webobj: store %q: %w", name, err)
		}
		for _, other := range s.stores {
			if other.st != nil && other.st.ID() == id {
				_ = ep.Close()
				return nil, fmt.Errorf("webobj: store ID %d already used by %q", id, other.name)
			}
		}
	}
	scfg := store.Config{
		ID:            id,
		Role:          role,
		Endpoint:      ep,
		Tuning:        s.tuning,
		ResolveParent: s.parentCandidates,
		Obs:           s.obsv,
	}
	if role == replication.RolePermanent {
		// WithDataDir is a system-wide knob scoped to the stores that can
		// honour it: only the permanent role persists (store.Host rejects a
		// DataDir on mirror/cache roles — durable mirrors are a planned
		// follow-on), so mirrors and caches of a durable system are created
		// without one rather than failing the whole deployment.
		scfg.DataDir = s.dataDir
	}
	st := store.New(scfg)
	h := &Store{name: name, st: st, role: role}
	s.stores[name] = h
	if parent != nil {
		s.parents[name] = parent.name
	}
	return h, nil
}

// parentCandidates is the store layer's re-parenting seam: the object's
// current contact points as the resolver sees them, freshly fetched (the
// cached record may still list the parent being replaced). It runs on the
// store's event loop during a re-parent pick — a rare event — so the
// resolver round-trip's bounded stall is acceptable there.
func (s *System) parentCandidates(object ids.ObjectID) []replication.ParentCandidate {
	s.res.Invalidate(object)
	rec, err := s.res.Resolve(object)
	if err != nil {
		return nil
	}
	out := make([]replication.ParentCandidate, 0, len(rec.Entries))
	for _, e := range rec.Entries {
		out = append(out, replication.ParentCandidate{Addr: e.Addr, Role: e.Role})
	}
	return out
}

// AttachServer registers a permanent store running in another process at
// addr (a daemon started with cmd/globed, or any process hosting a Store
// over the same fabric type). The returned handle can parent local caches
// and mirrors, be a bind target (At), and be declared the publisher of
// objects via AttachObject.
func (s *System) AttachServer(addr string) (*Store, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("webobj: system closed")
	}
	if _, dup := s.stores[addr]; dup {
		return nil, fmt.Errorf("webobj: store %q already exists", addr)
	}
	h := &Store{name: addr, addr: addr, role: replication.RolePermanent}
	s.stores[addr] = h
	return h, nil
}

// Publish creates an object of the given semantics type at a permanent
// store under the given strategy and registers it with the location
// service. The session models declare which client-based guarantees the
// permanent store itself must be able to enforce for clients bound
// directly to it (replicas declare theirs via Replicate).
func (s *System) Publish(server *Store, object ObjectID, sem Semantics, strat Strategy, session ...ClientModel) error {
	if !sem.valid() {
		return errors.New("webobj: zero Semantics; use WebDoc(), KV(), or AppLog()")
	}
	if server.Remote() {
		return fmt.Errorf("webobj: %q is in another process; publish there and use AttachObject here", server.name)
	}
	if server.role != replication.RolePermanent {
		return fmt.Errorf("webobj: objects are published at permanent stores, %q is %v", server.name, server.role)
	}
	if err := server.st.Host(store.HostConfig{
		Object: object, Semantics: sem.factory(), SemName: sem.name, Strat: strat,
		Session: session,
	}); err != nil {
		return err
	}
	s.mu.Lock()
	s.objects[object] = objectInfo{sem: sem, strat: strat}
	s.mu.Unlock()
	// The record carries the object's semantics and model, so other
	// processes bind and replicate through the resolver without any manual
	// configuration.
	meta := NameMeta{Sem: sem.name, Strat: strat, HasStrat: true, Models: modelNames(session)}
	entry := naming.Entry{Addr: server.st.Addr(), Store: server.st.ID(), Role: server.role}
	if err := s.res.Register(object, entry, meta); err != nil {
		return fmt.Errorf("webobj: publish %q: register with name service: %w", object, err)
	}
	s.noteRegistration(object, entry, meta)
	return nil
}

// modelNames renders client models as their record short names.
func modelNames(models []ClientModel) []string {
	if len(models) == 0 {
		return nil
	}
	out := make([]string, 0, len(models))
	for _, m := range models {
		switch m {
		case ReadYourWrites:
			out = append(out, "ryw")
		case MonotonicReads:
			out = append(out, "mr")
		case MonotonicWrites:
			out = append(out, "mw")
		case WritesFollowReads:
			out = append(out, "wfr")
		}
	}
	return out
}

// AttachObject declares an object that is published in another process at
// the attached store: sem and strat mirror the remote Publish. It registers
// the remote contact point with the local location service and records the
// semantics and strategy, after which local stores can Replicate the object
// from the attached store and clients can Open it.
//
// Under WithNameServer this manual mirroring is unnecessary: Replicate and
// the typed Open calls fetch the published record (semantics, strategy,
// models) from the name service, and AttachObject is only useful to
// override it locally.
func (s *System) AttachObject(at *Store, object ObjectID, sem Semantics, strat Strategy) error {
	if !sem.valid() {
		return errors.New("webobj: zero Semantics; use WebDoc(), KV(), or AppLog()")
	}
	s.mu.Lock()
	if info, ok := s.objects[object]; ok && info.sem.name != sem.name {
		s.mu.Unlock()
		return fmt.Errorf("webobj: object %q already known as %s, cannot attach as %s",
			object, info.sem.name, sem.name)
	}
	s.objects[object] = objectInfo{sem: sem, strat: strat}
	s.mu.Unlock()
	var id ids.StoreID
	if at.st != nil {
		id = at.st.ID()
	}
	// Attach declarations stay local: the publisher's own registration is
	// the authoritative record in a name-served deployment.
	s.ns.Register(object, naming.Entry{Addr: at.Addr(), Store: id, Role: at.role})
	return nil
}

// Replicate installs a replica of a published (or attached) object at a
// mirror or cache, subscribing it to its parent store — which may live in
// another process. The session models declare which client-based guarantees
// this replica must be able to enforce.
func (s *System) Replicate(at *Store, object ObjectID, session ...ClientModel) error {
	s.mu.Lock()
	parentName, ok := s.parents[at.name]
	var parent *Store
	if ok {
		parent = s.stores[parentName]
	}
	s.mu.Unlock()
	if parent == nil {
		return fmt.Errorf("webobj: store %q has no parent to replicate from", at.name)
	}
	return s.ReplicateFrom(at, parent, object, session...)
}

// ReplicateFrom installs a replica like Replicate but subscribing to an
// explicit parent store, independent of the store's creation-time parent.
// Multi-object daemons use it when different objects hosted by one store
// have different publishers (each object's record names its own permanent
// store).
func (s *System) ReplicateFrom(at, parent *Store, object ObjectID, session ...ClientModel) error {
	if at.Remote() {
		return fmt.Errorf("webobj: cannot install replicas at %q, it is in another process", at.name)
	}
	if parent == nil {
		return fmt.Errorf("webobj: store %q needs a parent to replicate from", at.name)
	}
	// The replica adopts the object's published semantics and strategy,
	// recorded by Publish or AttachObject — or fetched from the name
	// service when neither ran in this process.
	info, err := s.publishedInfo(object)
	if err != nil {
		return err
	}
	if err := at.st.Host(store.HostConfig{
		Object: object, Semantics: info.sem.factory(), SemName: info.sem.name, Strat: info.strat,
		Parent: parent.Addr(), Session: session, Subscribe: true,
	}); err != nil {
		return err
	}
	entry := naming.Entry{Addr: at.st.Addr(), Store: at.st.ID(), Role: at.role}
	if err := s.res.Register(object, entry, NameMeta{}); err != nil {
		return fmt.Errorf("webobj: replicate %q: register with name service: %w", object, err)
	}
	s.noteRegistration(object, entry, NameMeta{})
	return nil
}

// Peer registers a and b as anti-entropy gossip peers for object, in both
// directions. Gossip only applies to objects replicated under the eventual
// model (mirrored sites); it lets sibling mirrors converge without a
// permanent store on the path. Peering is all-or-nothing: if the second
// registration fails the first is rolled back.
func (s *System) Peer(a, b *Store, object ObjectID) error {
	if a.Remote() || b.Remote() {
		return errors.New("webobj: gossip peering requires both stores in this process")
	}
	if err := a.st.AddPeer(ids.ObjectID(object), b.Addr()); err != nil {
		return err
	}
	if err := b.st.AddPeer(ids.ObjectID(object), a.Addr()); err != nil {
		_ = a.st.RemovePeer(ids.ObjectID(object), b.Addr())
		return err
	}
	return nil
}

func (s *System) publishedInfo(object ObjectID) (objectInfo, error) {
	s.mu.Lock()
	info, ok := s.objects[object]
	s.mu.Unlock()
	if ok {
		return info, nil
	}
	// Unknown locally: the name record carries the published semantics and
	// strategy, so a replica can be installed with zero manual mirroring.
	rec, err := s.res.Resolve(object)
	if err != nil {
		return objectInfo{}, fmt.Errorf("webobj: object %q not published, attached, or name-served (%v)", object, err)
	}
	info, err = infoFromRecord(object, rec)
	if err != nil {
		return objectInfo{}, err
	}
	s.mu.Lock()
	if cached, ok := s.objects[object]; ok {
		info = cached // a concurrent Publish/Attach won the race; keep it
	} else {
		s.objects[object] = info
	}
	s.mu.Unlock()
	return info, nil
}

// infoFromRecord converts a fetched name record into the local object info.
func infoFromRecord(object ObjectID, rec NameRecord) (objectInfo, error) {
	if rec.Meta.Sem == "" || !rec.Meta.HasStrat {
		return objectInfo{}, fmt.Errorf("webobj: name record for %q carries no semantics/strategy (published without a name server?)", object)
	}
	sem, err := SemanticsByName(rec.Meta.Sem)
	if err != nil {
		return objectInfo{}, fmt.Errorf("webobj: name record for %q: %w", object, err)
	}
	return objectInfo{sem: sem, strat: rec.Meta.Strat}, nil
}

// OpenOption configures the typed Open calls.
type OpenOption func(*openCfg)

type openCfg struct {
	at      *Store
	session []ClientModel
	client  ids.ClientID
	timeout time.Duration
}

// At binds to a specific store instead of the default replica.
func At(st *Store) OpenOption { return func(c *openCfg) { c.at = st } }

// WithSession enables client-based coherence models for this client.
func WithSession(models ...ClientModel) OpenOption {
	return func(c *openCfg) { c.session = append(c.session, models...) }
}

// WithTimeout bounds each remote call.
func WithTimeout(d time.Duration) OpenOption {
	return func(c *openCfg) { c.timeout = d }
}

// AsClient pins the client identifier instead of allocating one from the
// system's naming service. Multi-process deployments need it for writers:
// write IDs are (client, seq), so concurrent writers in different processes
// must be configured with deployment-unique client IDs. A returning client
// reusing its identity resumes its write history — the bind seeds the
// session's write sequence from the bound store's applied vector — so bind
// at a store that has applied your previous writes (normally where you
// wrote them); rebinding a reused identity at a replica that lags those
// writes would re-issue their IDs and be deduplicated as replays.
func AsClient(id uint32) OpenOption {
	return func(c *openCfg) { c.client = ids.ClientID(id) }
}

// Open binds a new client to a WebDoc object; it is shorthand for
// OpenDocument, the common case of the paper.
func (s *System) Open(object ObjectID, opts ...OpenOption) (*Document, error) {
	return s.OpenDocument(object, opts...)
}

// OpenDocument binds a new client to a WebDoc object. Without At, the
// lowest-layer registered replica is chosen deterministically (the paper:
// "it is generally up to the client to decide to which replica he will
// bind" — closer layers are usually preferable; ties go to the smallest
// store ID).
func (s *System) OpenDocument(object ObjectID, opts ...OpenOption) (*Document, error) {
	b, err := s.open(object, WebDoc(), opts)
	if err != nil {
		return nil, err
	}
	return &Document{binding: b}, nil
}

// OpenMap binds a new client to a KV object. Replica selection follows
// OpenDocument.
func (s *System) OpenMap(object ObjectID, opts ...OpenOption) (*Map, error) {
	b, err := s.open(object, KV(), opts)
	if err != nil {
		return nil, err
	}
	return &Map{binding: b}, nil
}

// OpenLog binds a new client to an AppLog object. Replica selection follows
// OpenDocument.
func (s *System) OpenLog(object ObjectID, opts ...OpenOption) (*Log, error) {
	b, err := s.open(object, AppLog(), opts)
	if err != nil {
		return nil, err
	}
	return &Log{binding: b}, nil
}

// open is the shared binding core of the typed Open calls.
func (s *System) open(object ObjectID, sem Semantics, opts []OpenOption) (*binding, error) {
	cfg := openCfg{timeout: 5 * time.Second}
	for _, o := range opts {
		o(&cfg)
	}
	// Fail fast locally when the object is known under another semantics
	// type; for objects only the name service knows, the fetched record's
	// semantics name plays the same role. The bind itself re-checks at the
	// store (the wire Sem field), which is what protects stale records —
	// and which is why an At()-pinned open skips the resolve entirely: it
	// needs nothing from the name service, and must not stall on one that
	// is unreachable.
	var rec *NameRecord
	s.mu.Lock()
	info, known := s.objects[object]
	s.mu.Unlock()
	if known {
		if info.sem.name != sem.name {
			return nil, fmt.Errorf("webobj: object %q is %s, not %s", object, info.sem.name, sem.name)
		}
	} else if cfg.at == nil {
		if r, err := s.res.Resolve(object); err == nil {
			rec = &r
			if r.Meta.Sem != "" && r.Meta.Sem != sem.name {
				return nil, fmt.Errorf("webobj: object %q is %s, not %s", object, r.Meta.Sem, sem.name)
			}
		}
	}

	var addr string
	switch {
	case cfg.at != nil:
		addr = cfg.at.Addr()
	case rec != nil:
		e, ok := naming.PickEntry(rec.Entries)
		if !ok {
			return nil, fmt.Errorf("webobj: object %q has no registered replicas", object)
		}
		addr = e.Addr
	default:
		e, ok := s.res.Pick(object)
		if !ok {
			// Objects attached locally while resolving through a name
			// server are still reachable through the in-process service.
			e, ok = s.ns.Pick(object)
		}
		if !ok {
			return nil, fmt.Errorf("webobj: object %q not registered", object)
		}
		addr = e.Addr
	}

	s.mu.Lock()
	s.nextEP++
	epName := fmt.Sprintf("client/%d", s.nextEP)
	s.mu.Unlock()
	ep, err := s.fabric.Endpoint(epName)
	if err != nil {
		return nil, err
	}
	cid := cfg.client
	if cid == 0 {
		if cid, err = s.res.NextClient(); err != nil {
			_ = ep.Close()
			return nil, fmt.Errorf("webobj: allocate client ID: %w", err)
		}
	} else if err := s.res.ReserveClient(cid); err != nil {
		_ = ep.Close()
		return nil, fmt.Errorf("webobj: %w (pick an ID no auto-allocated client holds)", err)
	}
	bindCfg := core.BindConfig{
		Object:    object,
		Endpoint:  ep,
		StoreAddr: addr,
		Client:    cid,
		Session:   cfg.session,
		Prototype: sem.factory(),
		Semantics: sem.name,
		Timeout:   cfg.timeout,
	}
	// Bind under the failover loop: a recovering store's StatusRetry is
	// waited out in place, a dead contact point is re-resolved around
	// (replica died, daemon moved) with jittered backoff, and terminal
	// errors (semantics mismatch, bad request) fail immediately. An
	// At()-pinned bind retries in place but never migrates.
	p, err := core.Bind(bindCfg)
	if err != nil {
		bo := newBackoff(s.failover)
		for err != nil {
			v := classifyFailure(err)
			if v == verdictTerminal || !bo.next() {
				break
			}
			if v == verdictRetryElsewhere && cfg.at == nil {
				s.res.Invalidate(object)
				if r2, rerr := s.res.Resolve(object); rerr == nil {
					if pick, ok := naming.PickEntry(filterAddr(r2.Entries, bindCfg.StoreAddr)); ok {
						bindCfg.StoreAddr = pick.Addr
					}
				}
			}
			p, err = core.Bind(bindCfg)
		}
	}
	if err != nil {
		_ = ep.Close()
		return nil, err
	}
	b := &binding{
		proxy: p, ep: ep,
		sys: s, object: object, failover: s.failover, pinned: cfg.at != nil,
	}
	if cfg.client != 0 {
		// A pinned identity is a resumable one: seed the write counter from
		// the deployment-wide floor too — the bound store's applied vector
		// (seeded inside Bind) is not enough when that replica lags the
		// client's previous writes — and report back on Close so the next
		// session resumes past this one.
		if floor := s.res.ClientSeqFloor(cid); floor > 0 {
			p.Session().SeedSeq(floor)
		}
		res := s.res
		b.closeHook = func() { res.ReportClientSeq(cid, p.Session().Seq()) }
	}
	return b, nil
}

// filterAddr returns entries minus the one at addr.
func filterAddr(entries []NameEntry, addr string) []NameEntry {
	out := make([]NameEntry, 0, len(entries))
	for _, e := range entries {
		if e.Addr != addr {
			out = append(out, e)
		}
	}
	return out
}

// LookupStore returns the store created or attached under name in this
// system (daemon control handlers address stores by name).
func (s *System) LookupStore(name string) (*Store, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.stores[name]
	return st, ok
}

// Drop removes a hosted replica at runtime: the store unsubscribes from its
// parent, the replica closes, and its contact point is deregistered from
// the resolver. Clients bound to it start failing and re-resolve to the
// remaining replicas.
func (s *System) Drop(at *Store, object ObjectID) error {
	if at.Remote() {
		return fmt.Errorf("webobj: cannot drop replicas at %q, it is in another process", at.name)
	}
	if err := at.st.Unhost(ids.ObjectID(object)); err != nil {
		return err
	}
	s.dropRegistration(object, at.Addr())
	return s.res.Deregister(object, at.Addr())
}

// Close tears down the whole system: stores first, then the resolver and
// control listeners, then the fabric (which closes any endpoints still
// open, including attached clients').
func (s *System) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	stores := make([]*Store, 0, len(s.stores))
	for _, st := range s.stores {
		stores = append(stores, st)
	}
	ctl := s.ctlEps
	s.ctlEps = nil
	s.mu.Unlock()
	if s.renewDone != nil {
		close(s.renewDone)
		s.renewWG.Wait()
	}
	for _, st := range stores {
		if st.st != nil {
			_ = st.st.Close()
		}
	}
	_ = s.res.Close()
	for _, ep := range ctl {
		_ = ep.Close()
	}
	return s.fabric.Close()
}
