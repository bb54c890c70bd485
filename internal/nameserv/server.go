package nameserv

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/control"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/naming"
	"repro/internal/replication"
	"repro/internal/semantics/kvstore"
	"repro/internal/strategy"
	"repro/internal/transport"
)

// Lease-space layout: leased identifier ranges start above these bases so
// hand-pinned IDs (small numbers chosen by operators and tests) and leased
// IDs never collide. LeaseSpan identifiers are handed out per lease.
const (
	ClientLeaseBase = 1 << 16
	StoreLeaseBase  = 1 << 12
	DefaultSpan     = 64
)

// Config assembles a name server.
type Config struct {
	// Fabric mints the server's endpoint; Name is the endpoint name hint
	// (for TCP fabrics, "ns/<host:port>" pins the listen address).
	Fabric transport.Fabric
	Name   string
	// Index/Total place this server in the naming peer group for lease
	// striping: server Index of Total (1-based) allocates only the ranges
	// whose index ≡ Index-1 (mod Total). Index is also the server's writer
	// identity in the directory. Zero values mean a single server.
	Index, Total int
	// Peers lists the other name servers' addresses: the directory
	// replica's gossip peers.
	Peers []string
	// SyncInterval is the directory's gossip period (default 500ms;
	// negative disables peering — single-server deployments pay nothing).
	SyncInterval time.Duration
	// LeaseSpan is the number of identifiers per lease (default 64).
	LeaseSpan uint64
	// LeaseTTL makes registrations renewable leases: a contact point whose
	// entries are not renewed (opRenewContact) within the TTL is expired —
	// deleted exactly like a deregistration and replicated to peers, so
	// resolution stops returning dead replicas within one lease period.
	// Zero disables expiry (the default; registrations live forever).
	LeaseTTL time.Duration
	Clock    clock.Clock
}

// directory names the replicated object every name server holds a replica
// of.
const directory ids.ObjectID = "dir"

// Lease kinds: the <kind> of a lease cursor key.
const (
	leaseClients = "clients"
	leaseStores  = "stores"
)

// Server is a networked naming/location service instance. All state but
// the index and the expired count is confined to the event loop goroutine.
type Server struct {
	cfg Config
	ep  transport.Endpoint

	events  chan func()
	done    chan struct{}
	stopped chan struct{} // closed when the event loop exits (Close OR endpoint death)
	wg      sync.WaitGroup
	mu      sync.Mutex
	closed  bool

	// Event-loop state: the directory replica and its semantics object,
	// whose index (dir.ns, with its own lock) is the part read elsewhere.
	repl *replication.Object
	dir  *dirObject
	self ids.ClientID // this server's writer identity
	seq  uint64       // the last write sequence this server issued

	// ready gates the serving RPCs: a server with peers answers
	// StatusRetry (clients fail over) until a peer's gossip showed nothing
	// it lacks or a grace period elapsed, so a restarted peer first recovers
	// its lease cursors instead of reissuing ranges daemons hold.
	ready bool

	// Lease liveness (LeaseTTL > 0): the expiry sweep timer, its jitter
	// source, and the lifetime count of entries this server expired.
	expireArmed    bool
	expireTimer    clock.Timer
	expireRNG      *rand.Rand
	recordsExpired atomic.Uint64
}

// NewServer creates and starts a name server on its own endpoint.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Fabric == nil {
		return nil, fmt.Errorf("nameserv: config needs a fabric")
	}
	if cfg.Name == "" {
		cfg.Name = "ns"
	}
	if cfg.Index <= 0 {
		cfg.Index = 1
	}
	if cfg.Total <= 0 {
		cfg.Total = 1
	}
	if cfg.Index > cfg.Total {
		return nil, fmt.Errorf("nameserv: server index %d of %d", cfg.Index, cfg.Total)
	}
	if cfg.SyncInterval == 0 {
		cfg.SyncInterval = 500 * time.Millisecond
	}
	if cfg.LeaseSpan == 0 {
		cfg.LeaseSpan = DefaultSpan
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	ep, err := cfg.Fabric.Endpoint(cfg.Name)
	if err != nil {
		return nil, err
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(ep.Addr()))
	s := &Server{
		cfg:       cfg,
		ep:        ep,
		events:    make(chan func(), 256),
		done:      make(chan struct{}),
		stopped:   make(chan struct{}),
		dir:       &dirObject{Store: kvstore.New(), ns: naming.New(), seen: make(map[string]time.Time), clock: cfg.Clock},
		self:      ids.ClientID(cfg.Index),
		expireRNG: rand.New(rand.NewSource(int64(h.Sum64()))),
	}
	// A lone server gossips with nobody, so its period only has to be valid.
	s.repl, err = replication.New(replication.Config{
		Env:    dirEnv{Control: control.New(s.dir), s: s},
		Object: directory,
		Self:   ids.StoreID(cfg.Index),
		Addr:   ep.Addr(),
		Role:   replication.RoleObjectInitiated,
		Strat:  strategy.MirroredSite(max(cfg.SyncInterval, time.Millisecond)),
	})
	if err != nil {
		_ = ep.Close()
		return nil, err
	}
	peered := len(cfg.Peers) > 0 && cfg.SyncInterval > 0
	if peered {
		for _, p := range cfg.Peers {
			s.repl.AddPeer(p)
		}
	}
	s.ready = !peered
	s.wg.Add(1)
	go s.loop()
	if cfg.LeaseTTL > 0 {
		s.post(func() { s.armExpire() })
	}
	if peered {
		// Become ready unconditionally after a grace period: peers may all
		// be down, and a lone survivor must still serve.
		cfg.Clock.AfterFunc(2*cfg.SyncInterval, func() {
			s.post(func() { s.ready = true })
		})
	}
	return s, nil
}

// Addr returns the server's transport address (what daemons and clients
// are configured with).
func (s *Server) Addr() string { return s.ep.Addr() }

// Close stops the server and its endpoint.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.done)
	s.wg.Wait()
	return s.ep.Close()
}

func (s *Server) post(f func()) bool {
	select {
	case <-s.done:
		return false
	case <-s.stopped:
		return false
	default:
	}
	select {
	case s.events <- f:
		return true
	case <-s.done:
		return false
	case <-s.stopped:
		return false
	}
}

// loop is the server's single event goroutine. stopped is closed on every
// exit path — including the endpoint's recv channel closing underneath us
// (a shared fabric torn down first) — so posted closures that will never
// run do not strand their callers.
func (s *Server) loop() {
	defer s.wg.Done()
	defer close(s.stopped)
	defer s.repl.Close()
	recv := s.ep.Recv()
	for {
		select {
		case <-s.done:
			if s.expireTimer != nil {
				s.expireTimer.Stop()
			}
			return
		case f := <-s.events:
			f()
		case m, ok := <-recv:
			if !ok {
				return
			}
			s.dispatch(m)
		}
	}
}

func (s *Server) dispatch(m *msg.Message) {
	switch m.Kind {
	case msg.KindNameRegister, msg.KindNameDeregister, msg.KindNameResolve, msg.KindNameLease:
		if !s.ready {
			s.replyErr(m, msg.StatusRetry, "name server recovering from peers; retry another server")
			return
		}
	case msg.KindGossip, msg.KindGossipReply:
		// A peer's digest that shows nothing we lack ends the recovery gate:
		// the directory, lease cursors included, is back. A routine update
		// proves nothing of the kind.
		if !s.ready && m.Object == directory {
			known := s.repl.Applied()
			s.ready = known.Covers(&m.VVec)
		}
	}
	switch m.Kind {
	case msg.KindNameRegister:
		s.onRegister(m)
	case msg.KindNameDeregister:
		s.onDeregister(m)
	case msg.KindNameResolve:
		s.onResolve(m)
	case msg.KindNameLease:
		s.onLease(m)
	case msg.KindGossip, msg.KindGossipReply, msg.KindUpdate, msg.KindUpdateBatch, msg.KindStateReply:
		if m.Object == directory {
			s.repl.Handle(m)
		}
	}
}

// --- the directory object -----------------------------------------------------

// dirEnv is the directory replica's Env, as store's replicaEnv is a hosted
// replica's: the server's endpoint, clock and event loop, and the directory
// object behind a control object.
type dirEnv struct {
	*control.Control
	s *Server
}

var _ replication.Env = dirEnv{}

// Send drops the one frame addressed to the server itself: the ack of its
// own directory write.
func (e dirEnv) Send(to string, m *msg.Message) error {
	if to == e.s.ep.Addr() {
		return nil
	}
	return e.s.ep.Send(to, m)
}

func (e dirEnv) Multicast(tos []string, m *msg.Message) error { return e.s.ep.Multicast(tos, m) }

func (e dirEnv) Now() time.Time { return e.s.cfg.Clock.Now() }

// AfterFunc runs f on the server's event loop, where the replica lives.
func (e dirEnv) AfterFunc(d time.Duration, f func()) clock.Timer {
	return e.s.cfg.Clock.AfterFunc(d, func() { e.s.post(f) })
}

// dirObject is the directory's semantics object: a kvstore that folds every
// key it changes into ns, the server's one index — by a write, a whole state
// installed, or one key restored or removed when a peer's whole state is
// merged. seen holds, for each live e/ key, the local time it was last
// folded (registered, renewed or installed): every server runs its own
// expiry clock against it. Only the event loop touches seen.
type dirObject struct {
	*kvstore.Store
	ns    *naming.Service
	seen  map[string]time.Time
	clock clock.Clock
}

func (d *dirObject) Invoke(inv msg.Invocation) ([]byte, error) {
	out, err := d.Store.Invoke(inv)
	if err == nil && (inv.Method == kvstore.MethodPut || inv.Method == kvstore.MethodDelete) {
		d.fold(inv.Page)
	}
	return out, err
}

// Restore folds every key the directory held before the state or holds
// now, so the index moves key by key and never reads as an empty directory.
func (d *dirObject) Restore(data []byte) error {
	old := d.Keys()
	if err := d.Store.Restore(data); err != nil {
		return err
	}
	for _, key := range append(old, d.Keys()...) {
		d.fold(key)
	}
	return nil
}

func (d *dirObject) RestoreElement(name string, data []byte) error {
	d.Put(name, data)
	d.fold(name)
	return nil
}

func (d *dirObject) RemoveElement(name string) error {
	d.Delete(name)
	d.fold(name)
	return nil
}

// fold brings the index up to date with the current value of one directory
// key. A zero Meta removes the object's metadata. A client's floor only
// rises: it is a max, over origins and over time.
func (d *dirObject) fold(key string) {
	kind, first, rest := splitKey(key)
	v, _ := d.Get(key)
	var it Item
	if items, err := DecodeItems(v); err == nil && len(items) == 1 {
		it = items[0]
	}
	// first may be a window of an update's page name: clone it (cloneInv).
	obj := ids.ObjectID(strings.Clone(first))
	switch kind {
	case 'e':
		if it.Kind == itemEntry {
			d.ns.Register(obj, it.Entry)
			d.seen[strings.Clone(key)] = d.clock.Now()
		} else {
			d.ns.Deregister(obj, rest)
			delete(d.seen, key)
		}
	case 'm':
		d.ns.SetMeta(obj, it.Meta)
	case 'f':
		c, err := strconv.ParseUint(first, 10, 32)
		if err == nil && len(v) == 8 {
			d.ns.ReportClientSeq(ids.ClientID(c), binary.BigEndian.Uint64(v))
		}
	}
}

// dirKey builds a directory key: the kind, then first (an object, client or
// origin) escaped so it holds no '/', then rest verbatim — an address may
// hold '/'.
func dirKey(kind byte, first, rest string) string {
	k := string(kind) + "/" + url.PathEscape(first)
	if rest != "" {
		k += "/" + rest
	}
	return k
}

// splitKey inverts dirKey; kind is 0 for a key it did not build.
func splitKey(key string) (kind byte, first, rest string) {
	if len(key) < 2 || key[1] != '/' {
		return 0, "", ""
	}
	esc, rest, _ := strings.Cut(key[2:], "/")
	first, err := url.PathUnescape(esc)
	if err != nil {
		return 0, "", ""
	}
	return key[0], first, rest
}

func entryKey(obj ids.ObjectID, addr string) string { return dirKey('e', string(obj), addr) }

// write makes one directory edit: a write on the server's own identity,
// handed to the replica as a client's write would be. Its sequence continues
// past every write of that identity the replica has applied, so a restarted
// server resumes its stream above what its peers hold of it.
func (s *Server) write(method uint16, key string, val []byte) {
	applied := s.repl.Applied()
	s.seq = max(s.seq, applied.Get(s.self)) + 1
	s.repl.Handle(&msg.Message{
		Kind: msg.KindWriteRequest, Object: directory, From: s.ep.Addr(),
		Client: s.self, Write: ids.WiD{Client: s.self, Seq: s.seq},
		Inv: msg.Invocation{Method: method, Page: key, Args: val},
	})
}

// writeFact records one registered fact: a contact point or an object's
// metadata. The value is the fact itself, as a one-item batch.
func (s *Server) writeFact(it Item) {
	key := entryKey(it.Object, it.Entry.Addr)
	if it.Kind == itemMeta {
		key = dirKey('m', string(it.Object), "")
	}
	s.write(kvstore.MethodPut, key, EncodeItems([]Item{it}))
}

// --- naming RPCs ----------------------------------------------------------------

func (s *Server) reply(m *msg.Message, k msg.Kind) *msg.Message {
	r := m.Reply(k)
	r.From = s.ep.Addr()
	r.Store = ids.StoreID(s.cfg.Index)
	return r
}

func (s *Server) replyErr(m *msg.Message, status msg.Status, text string) {
	r := s.reply(m, msg.KindNameReply)
	r.Status = status
	r.Err = text
	_ = s.ep.Send(m.From, r)
}

// onRegister records a batch of client-submitted facts (entries, meta) —
// registration authority rests with the server the daemon is configured to
// talk to.
func (s *Server) onRegister(m *msg.Message) {
	items, err := DecodeItems(m.Payload)
	if err != nil {
		s.replyErr(m, msg.StatusError, err.Error())
		return
	}
	for _, it := range items {
		s.writeFact(it)
	}
	r := s.reply(m, msg.KindNameReply)
	rec, _ := s.dir.ns.Record(m.Object)
	r.GlobalSeq = rec.Version
	_ = s.ep.Send(m.From, r)
}

// onDeregister removes one contact point of one object.
func (s *Server) onDeregister(m *msg.Message) {
	if len(m.Pages) == 0 {
		s.replyErr(m, msg.StatusError, "deregister needs an address")
		return
	}
	s.write(kvstore.MethodDelete, entryKey(m.Object, m.Pages[0]), nil)
	_ = s.ep.Send(m.From, s.reply(m, msg.KindNameReply))
}

func (s *Server) onResolve(m *msg.Message) {
	rec, ok := s.dir.ns.Record(m.Object)
	if !ok {
		s.replyErr(m, msg.StatusNotFound, fmt.Sprintf("object %q not registered", m.Object))
		return
	}
	r := s.reply(m, msg.KindNameReply)
	r.Payload = EncodeItems(recordItems(&rec))
	r.GlobalSeq = rec.Version
	_ = s.ep.Send(m.From, r)
}

// leaseStart computes the first identifier of this server's k-th range in
// the striped lease space.
func leaseStart(base, span uint64, index, total int, k uint64) uint64 {
	return base + (k*uint64(total)+uint64(index-1))*span
}

// advanceLease steps this server's cursor for one lease kind and returns the
// range index to allocate. The cursor is a directory key only this server
// writes, so a restarted server recovers it from its peers.
func (s *Server) advanceLease(kind string) uint64 {
	key := dirKey('l', strconv.Itoa(s.cfg.Index), kind)
	var k uint64
	if v, ok := s.dir.Get(key); ok && len(v) == 8 {
		k = binary.BigEndian.Uint64(v)
	}
	s.write(kvstore.MethodPut, key, binary.BigEndian.AppendUint64(nil, k+1))
	return k
}

func (s *Server) onLease(m *msg.Message) {
	r := s.reply(m, msg.KindNameReply)
	switch m.Inv.Method {
	case opLeaseClients:
		k := s.advanceLease(leaseClients)
		r.Payload = EncodeLease(leaseStart(ClientLeaseBase, s.cfg.LeaseSpan, s.cfg.Index, s.cfg.Total, k), s.cfg.LeaseSpan)
	case opLeaseStores:
		k := s.advanceLease(leaseStores)
		r.Payload = EncodeLease(leaseStart(StoreLeaseBase, s.cfg.LeaseSpan, s.cfg.Index, s.cfg.Total, k), s.cfg.LeaseSpan)
	case opReserveClient:
		if m.Client >= ClientLeaseBase {
			s.replyErr(m, msg.StatusForbidden,
				fmt.Sprintf("client ID %d is inside the leased space (pin below %d)", m.Client, ClientLeaseBase))
			return
		}
	case opReserveStore:
		if m.Store >= StoreLeaseBase {
			s.replyErr(m, msg.StatusForbidden,
				fmt.Sprintf("store ID %d is inside the leased space (pin below %d)", m.Store, StoreLeaseBase))
			return
		}
	case opReportFloor:
		// One key per (client, origin): last-writer-wins on a shared key
		// could let an older-stamped, larger report lose to a smaller one.
		if m.Write.Seq > s.dir.ns.ClientSeqFloor(m.Client) {
			key := dirKey('f', strconv.FormatUint(uint64(m.Client), 10), strconv.Itoa(s.cfg.Index))
			s.write(kvstore.MethodPut, key, binary.BigEndian.AppendUint64(nil, m.Write.Seq))
		}
	case opQueryFloor:
		r.Write.Seq = s.dir.ns.ClientSeqFloor(m.Client)
	case opRenewContact:
		if len(m.Pages) == 0 || m.Pages[0] == "" {
			s.replyErr(m, msg.StatusError, "renew needs an address")
			return
		}
		r.Write.Seq = s.renewContact(m.Pages[0])
		r.GlobalSeq = s.recordsExpired.Load()
	default:
		s.replyErr(m, msg.StatusError, fmt.Sprintf("unknown lease op %d", m.Inv.Method))
		return
	}
	_ = s.ep.Send(m.From, r)
}

// --- lease liveness ----------------------------------------------------------

// renewContact rewrites every live entry registered at addr (any object),
// refreshing its lease in one frame per daemon heartbeat. The writes
// replicate like any edit, so the peers' expiry clocks reset too. It returns
// the renewed-entry count: zero tells the caller its registrations were
// already expired (or never made) and it must re-register.
func (s *Server) renewContact(addr string) uint64 {
	var renewed uint64
	for key := range s.dir.seen {
		if _, _, rest := splitKey(key); rest == addr {
			v, _ := s.dir.Get(key)
			s.write(kvstore.MethodPut, key, v)
			renewed++
		}
	}
	return renewed
}

// armExpire schedules the next expiry sweep at a quarter TTL (jittered), so
// a silent contact point disappears from resolution within roughly one TTL
// and a fleet of servers does not sweep in lockstep.
func (s *Server) armExpire() {
	if s.expireArmed || s.cfg.LeaseTTL <= 0 {
		return
	}
	s.expireArmed = true
	d := s.cfg.LeaseTTL / 4
	if quarter := int64(d / 4); quarter > 0 {
		d += time.Duration(s.expireRNG.Int63n(quarter))
	}
	s.expireTimer = s.cfg.Clock.AfterFunc(d, func() {
		s.post(func() {
			s.expireArmed = false
			if s.ready {
				s.sweepExpired()
			}
			s.armExpire()
		})
	})
}

// sweepExpired deletes every live entry whose lease ran out, exactly as a
// deregistration would, and the delete replicates so peers retire their copy
// too. A renewal racing the sweep settles by last-writer-wins everywhere, and
// the daemon's next heartbeat re-registers.
func (s *Server) sweepExpired() {
	now := s.cfg.Clock.Now()
	for key, seen := range s.dir.seen {
		if now.Sub(seen) >= s.cfg.LeaseTTL {
			s.write(kvstore.MethodDelete, key, nil)
			s.recordsExpired.Add(1)
		}
	}
}

// --- debug/test accessors ----------------------------------------------------

// ExpiredSnapshot returns how many entries this server has expired (tests,
// status surfaces).
func (s *Server) ExpiredSnapshot() uint64 { return s.recordsExpired.Load() }

// RecordSnapshot returns the live record of obj as seen by this server
// (tests and the globens status loop). ok is false when the object is
// unknown.
func (s *Server) RecordSnapshot(obj ids.ObjectID) (naming.Record, bool) { return s.dir.ns.Record(obj) }

// FloorSnapshot returns a client's replicated write-sequence floor.
func (s *Server) FloorSnapshot(id ids.ClientID) uint64 { return s.dir.ns.ClientSeqFloor(id) }
