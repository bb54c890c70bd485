// Package store implements the store processes of the paper's system model
// (§3.1, Figure 2): permanent stores (Web servers), object-initiated stores
// (mirrors), and client-initiated stores (proxy/browser caches). A Store
// hosts replicas of any number of distributed shared Web objects; each
// replica is the local-object composition of Figure 1 — a semantics object
// wrapped by a control object, driven by a replication object, communicating
// through the store's endpoint.
//
// The store is a single-event-loop actor: every network message and timer
// callback is funnelled through one goroutine, so replication objects need
// no internal locking. An owner may put a front end before the routing
// (Config.Front): it sees each frame first on the loop, and the store
// releases every frame it consumes. The name server (internal/nameserv) is
// such an owner: a store hosting the directory, with the naming RPCs as
// its front end, its own edits posted to the loop (Post) and made on the
// hosted replica (Replica).
//
//globelint:deterministic
//globelint:aliased-input
package store

import (
	"errors"
	"fmt"
	"net/url"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/coherence"
	"repro/internal/control"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/replication"
	"repro/internal/semantics"
	"repro/internal/strategy"
	"repro/internal/transport"
	"repro/internal/wal"
)

// ErrClosed reports an operation on a closed store.
var ErrClosed = errors.New("store: closed")

// ErrNotHosted reports an object the store has no replica of.
var ErrNotHosted = errors.New("store: object not hosted")

// Config assembles a store.
type Config struct {
	ID       ids.StoreID
	Role     replication.Role
	Endpoint transport.Endpoint
	Clock    clock.Clock
	// Tuning is handed, whole, to every replica this store hosts: timeouts,
	// the demand-retry and digest-heartbeat cadences, the parent liveness
	// watch, and (when DataDir is set) the WAL policy.
	Tuning replication.Tuning
	// ResolveParent, when set, gives every hosted replica the resolver seam
	// for self-healing: on parent death (subscribe-retry exhaustion, or
	// Tuning.ReparentAfter silent digest periods) the replica calls it to
	// list the object's live replicas and re-subscribes at one closer to
	// the root.
	// Called on the store's event loop during a re-parent pick (a rare
	// event); a slow resolver stalls the store for the duration, so keep
	// lookups bounded by a call timeout.
	ResolveParent func(object ids.ObjectID) []replication.ParentCandidate
	// DataDir, when set on a permanent store, makes every hosted replica
	// durable: a per-object write-ahead log + snapshot under
	// <DataDir>/store-<ID>/<object>/, replayed on restart. Only the
	// permanent role persists; Host rejects a DataDir on mirror/cache
	// roles rather than silently dropping durability (durable mirrors are
	// a planned follow-on — their recovery gate must reconcile replayed
	// state against a parent that kept moving).
	DataDir string
	// Obs, when set, wires every hosted replica into the observability
	// layer (internal/obs): every replication.Stats field as a series, the
	// propagation-lag histogram, and — when the observer carries a trace
	// ring — structured protocol events. Nil is the default.
	Obs *obs.Observer
	// Front, when set, sees every frame on the event loop before the store
	// routes it. It returns true when it consumed the frame (the store then
	// releases it) and false to let the store route it as usual. The name
	// server answers its RPCs here in front of its directory replica.
	Front func(m *msg.Message) bool
}

// replica is one hosted local object.
type replica struct {
	ctrl *control.Control
	repl *replication.Object
	sem  string // semantics type name; "" = unchecked
}

// Store hosts replicas and runs their shared event loop.
type Store struct {
	cfg      Config
	addr     string // the endpoint's address, read on every send
	events   chan func()
	done     chan struct{}
	stopped  chan struct{} // closed when the loop exits: Close, Crash, or the endpoint's Recv closing
	wg       sync.WaitGroup
	mu       sync.Mutex
	replicas map[ids.ObjectID]*replica
	hosted   *obs.Gauge // replicas currently hosted (nil when obs is off)
	closed   bool
}

// New creates and starts a store.
func New(cfg Config) *Store {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	s := &Store{
		cfg:      cfg,
		addr:     cfg.Endpoint.Addr(),
		events:   make(chan func(), 1024),
		done:     make(chan struct{}),
		stopped:  make(chan struct{}),
		replicas: make(map[ids.ObjectID]*replica),
	}
	s.hosted = cfg.Obs.Registry().Gauge("globe_store_objects_hosted",
		"replicas currently hosted by this store",
		obs.L("store", fmt.Sprintf("%d", cfg.ID)))
	s.wg.Add(1)
	go s.loop()
	return s
}

// ID returns the store identifier.
func (s *Store) ID() ids.StoreID { return s.cfg.ID }

// Role returns the store's class.
func (s *Store) Role() replication.Role { return s.cfg.Role }

// Addr returns the store's transport address.
func (s *Store) Addr() string { return s.addr }

// HostConfig describes one replica to install.
type HostConfig struct {
	Object ids.ObjectID

	// Semantics is the replica's semantics object (fresh or pre-loaded).
	Semantics semantics.Object
	// SemName, when set, names the semantics type ("webdoc", "kvstore",
	// "applog", ...). Bind requests that declare a different semantics name
	// are rejected, so a client holding the wrong typed handle fails fast
	// at bind time instead of hitting unknown-method errors later.
	SemName string
	// Strat is the object's replication strategy (Table 1).
	Strat strategy.Strategy
	// Parent is the upstream store's address ("" for permanent stores).
	Parent string
	// Session lists client-based models this store must support
	// (DepGuard wrapping when the object model doesn't imply them).
	Session []coherence.ClientModel
	// Subscribe, when true, registers with the parent immediately.
	Subscribe bool
}

// Host installs a replica on the store's event loop and returns once it is
// active. The returned replication object must only be inspected through
// its thread-safe accessors after this call (Stats/Applied via Store).
func (s *Store) Host(hc HostConfig) error {
	if s.cfg.DataDir != "" && s.cfg.Role != replication.RolePermanent {
		// Fail fast instead of silently dropping durability: only the
		// permanent role persists (see Config.DataDir). A deployment that
		// sets a data dir on a mirror or cache believes its data is safe;
		// it is not, so say so at configuration time.
		return fmt.Errorf("store %d: DataDir %q configured on %v role: only permanent stores are durable (durable mirrors are a planned follow-on)",
			s.cfg.ID, s.cfg.DataDir, s.cfg.Role)
	}
	ctrl := control.New(hc.Semantics)
	var walDir string
	if s.cfg.DataDir != "" {
		walDir = s.walDir(hc.Object)
	}
	return s.onLoop(func() error { return s.host(hc, ctrl, walDir) })
}

// host is the loop side of Host; walDir is empty for a memory-only replica.
//
//globelint:looponly
func (s *Store) host(hc HostConfig, ctrl *control.Control, walDir string) error {
	if _, exists := s.replicas[hc.Object]; exists {
		return fmt.Errorf("store %d: object %q already hosted", s.cfg.ID, hc.Object)
	}
	rc := replication.Config{
		Env:     &replicaEnv{store: s, ctrl: ctrl},
		Object:  hc.Object,
		Self:    s.cfg.ID,
		Addr:    s.Addr(),
		Role:    s.cfg.Role,
		Parent:  hc.Parent,
		Strat:   hc.Strat,
		Session: hc.Session,
		Tuning:  s.cfg.Tuning,
		Obs:     s.cfg.Obs,
	}
	if resolve := s.cfg.ResolveParent; resolve != nil {
		rc.ResolveParent = func() []replication.ParentCandidate {
			return resolve(hc.Object)
		}
	}
	if walDir != "" {
		var err error
		if rc.WAL, rc.Recovered, err = wal.Open(walDir); err != nil {
			return fmt.Errorf("store %d: opening wal for %q: %w", s.cfg.ID, hc.Object, err)
		}
	}
	ro, err := replication.New(rc)
	if err != nil {
		if rc.WAL != nil {
			_ = rc.WAL.Close()
		}
		return err
	}
	s.replicas[hc.Object] = &replica{ctrl: ctrl, repl: ro, sem: hc.SemName}
	s.hosted.Add(1)
	if hc.Subscribe {
		ro.SubscribeToParent()
	}
	return nil
}

// walDir is the durable directory for one replica:
// <DataDir>/store-<ID>/<escaped object>.
func (s *Store) walDir(object ids.ObjectID) string {
	return filepath.Join(s.cfg.DataDir,
		fmt.Sprintf("store-%d", s.cfg.ID), url.PathEscape(string(object)))
}

// onLoop runs f on the event loop and waits for it: ErrClosed when the loop
// is gone before f could run.
func (s *Store) onLoop(f func() error) error {
	errCh := make(chan error, 1)
	if !s.Post(func() { errCh <- f() }) {
		return ErrClosed
	}
	select {
	case err := <-errCh:
		return err
	case <-s.stopped:
		// f runs before the loop exits, or never.
		select {
		case err := <-errCh:
			return err
		default:
			return ErrClosed
		}
	}
}

// Replica returns the hosted replica of object, or nil. Only loop code
// (a posted function or the front end) may use it.
//
//globelint:looponly
func (s *Store) Replica(object ids.ObjectID) *replication.Object {
	if r, ok := s.replicas[object]; ok {
		return r.repl
	}
	return nil
}

// call runs f against the hosted replica of object on the event loop and
// waits for its result: ErrNotHosted when the store has no such replica.
func call[T any](s *Store, object ids.ObjectID, f func(*replica) (T, error)) (out T, err error) {
	err = s.onLoop(func() (err error) {
		r, ok := s.replicas[object]
		if !ok {
			return fmt.Errorf("%w: %q", ErrNotHosted, object)
		}
		out, err = f(r)
		return err
	})
	return out, err
}

// do is call for operations with no result beyond the error.
func (s *Store) do(object ids.ObjectID, f func(*replica) error) error {
	_, err := call(s, object, func(r *replica) (struct{}, error) { return struct{}{}, f(r) })
	return err
}

// Unhost removes a hosted replica at runtime: it unsubscribes from the
// parent (so the parent stops pushing to a dead address), closes the
// replication object, and forgets the replica. The multi-object daemon's
// drop-replica control RPC is built on it.
func (s *Store) Unhost(object ids.ObjectID) error {
	return s.do(object, func(r *replica) error {
		r.repl.UnsubscribeFromParent()
		r.repl.Close()
		delete(s.replicas, object)
		s.hosted.Add(-1)
		return nil
	})
}

// Stats returns the replication counters of a hosted object.
func (s *Store) Stats(object ids.ObjectID) (replication.Stats, error) {
	return call(s, object, func(r *replica) (replication.Stats, error) { return r.repl.Stats(), nil })
}

// Applied returns the applied version vector of a hosted object.
func (s *Store) Applied(object ids.ObjectID) (msg.Vec, error) {
	return call(s, object, func(r *replica) (msg.Vec, error) { return r.repl.Applied(), nil })
}

// ReadLocal executes a read invocation directly against the hosted replica
// (test and metrics support; bypasses the session machinery).
func (s *Store) ReadLocal(object ids.ObjectID, inv msg.Invocation) ([]byte, error) {
	return call(s, object, func(r *replica) ([]byte, error) {
		//globelint:ignore aliasretain inv is caller-owned (not decode output) and the caller blocks in call until this closure finishes
		return r.ctrl.ServeRead(inv)
	})
}

// Close stops the event loop and closes every replica. It does not close
// the endpoint (the owner of the endpoint closes it).
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.done)
	s.wg.Wait()
	for _, r := range s.replicas {
		r.repl.Close()
	}
	return nil
}

// Crash stops the event loop abruptly WITHOUT closing replicas: timers are
// abandoned, WALs are neither flushed nor closed — the in-process analogue
// of kill -9 for crash-recovery tests. The endpoint (owned by the caller)
// should be torn down around it.
func (s *Store) Crash() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.done)
	s.wg.Wait()
}

// Compact forces a snapshot compaction of a durable replica (tests, control
// surfaces).
func (s *Store) Compact(object ids.ObjectID) error {
	return s.do(object, func(r *replica) error { return r.repl.Compact() })
}

// Durability reports the durable-store state of a hosted replica.
func (s *Store) Durability(object ids.ObjectID) (replication.DurabilityInfo, error) {
	return call(s, object, func(r *replica) (replication.DurabilityInfo, error) { return r.repl.Durability(), nil })
}

// Post schedules f on the event loop; it reports false once the loop has
// stopped. A function posted while the loop stops may never run.
func (s *Store) Post(f func()) bool {
	select {
	case <-s.stopped:
		return false
	default:
	}
	select {
	case s.events <- f:
		return true
	case <-s.stopped:
		return false
	}
}

// maxDrainBatch bounds how many immediately-available messages one loop
// iteration dispatches before flushing acks, so a hot link cannot starve
// posted events or shutdown — and so the group-commit batch stays bounded.
const maxDrainBatch = 128

// loop is the store's single event goroutine. Incoming messages are drained
// in bounded batches; after each batch (and each posted event) the loop
// releases the write acks it parked (replication.FlushAcks), so N writes
// admitted in one drain share one fsync barrier — the loop plays the tcpnet
// writev leader, the queue is the batch.
func (s *Store) loop() {
	defer s.wg.Done()
	defer close(s.stopped)
	recv := s.cfg.Endpoint.Recv()
	for {
		select {
		case <-s.done:
			return
		case f := <-s.events:
			f()
			s.flushAcks()
		case m, ok := <-recv:
			if !ok {
				return
			}
			s.dispatch(m)
			s.drain(recv)
			s.flushAcks()
		}
	}
}

// drain dispatches messages already queued behind the one just handled.
//
//globelint:looponly
func (s *Store) drain(recv <-chan *msg.Message) {
	for i := 0; i < maxDrainBatch; i++ {
		select {
		case m, ok := <-recv:
			if !ok {
				return
			}
			s.dispatch(m)
		default:
			return
		}
	}
}

// flushAcks runs the per-batch group commit on every hosted replica (a
// no-op on replicas with nothing parked).
//
//globelint:looponly
func (s *Store) flushAcks() {
	for _, r := range s.replicas {
		r.repl.FlushAcks()
	}
}

// dispatch routes one message to the front end, the store or its replicas,
// and sees that its frame is released: a replica's Handle does that itself,
// possibly only once a parked request is answered.
//
//globelint:looponly
func (s *Store) dispatch(m *msg.Message) {
	if s.cfg.Front != nil && s.cfg.Front(m) {
		m.Release()
		return
	}
	r, ok := s.replicas[m.Object]
	switch {
	case m.Kind == msg.KindBindRequest:
		s.onBind(m)
	case ok:
		r.repl.Handle(m)
		return
	case m.Kind == msg.KindReadRequest || m.Kind == msg.KindWriteRequest:
		// Reads/writes for unhosted objects get an explicit error so
		// clients fail fast instead of timing out.
		s.replyUnhosted(m)
	}
	m.Release()
}

// onBind answers a client bind request: success if the object is hosted and
// the client's declared semantics type (the bind request's Sem field)
// matches the replica's. Either side may leave the name empty to skip the
// check.
//
//globelint:looponly
func (s *Store) onBind(m *msg.Message) {
	r := m.Reply(msg.KindBindReply)
	r.From = s.Addr()
	r.Store = s.cfg.ID
	rep, ok := s.replicas[m.Object]
	switch {
	case !ok:
		r.Status = msg.StatusNotFound
		r.Err = string(m.Object) + " not hosted"
	case rep.repl.Recovering():
		// Recover-then-serve: no new binds until the restarted replica has
		// anti-entropied the tail from its children (clients back off and
		// retry, like any StatusRetry).
		r.Status = msg.StatusRetry
		r.Err = "store recovering from restart"
	case m.Sem != "" && rep.sem != "" && m.Sem != rep.sem:
		r.Status = msg.StatusError
		r.Err = fmt.Sprintf("semantics mismatch: object %q is %s, client bound a %s handle",
			m.Object, rep.sem, m.Sem)
	default:
		// The reply carries the replica's applied vector so the client's
		// session can seed its write counter past writes this deployment
		// already applied under its client ID (see coherence.SeedSeq).
		r.VVec = rep.repl.Applied()
	}
	_ = s.cfg.Endpoint.Send(m.From, r)
}

//globelint:looponly
func (s *Store) replyUnhosted(m *msg.Message) {
	kind := msg.KindReadReply
	if m.Kind == msg.KindWriteRequest {
		kind = msg.KindWriteReply
	}
	r := m.Reply(kind)
	r.From = s.Addr()
	r.Store = s.cfg.ID
	r.Status = msg.StatusNotFound
	r.Err = string(m.Object) + " not hosted"
	_ = s.cfg.Endpoint.Send(m.From, r)
}

// replicaEnv implements replication.Env for one replica, bridging to the
// store's endpoint, clock, and the replica's control object. A read result
// or page element is appended into scratch, which the next one reuses: the
// replica sends each before its next Env call (replication.Env).
type replicaEnv struct {
	store   *Store
	ctrl    *control.Control
	scratch []byte
}

var _ replication.Env = (*replicaEnv)(nil)

// Send drops a frame to the store itself: the ack of a write that loop code
// handed its own replica (the name server's directory edits).
func (e *replicaEnv) Send(to string, m *msg.Message) error {
	if to == e.store.addr {
		return nil
	}
	return e.store.cfg.Endpoint.Send(to, m)
}

func (e *replicaEnv) Multicast(tos []string, m *msg.Message) error {
	return e.store.cfg.Endpoint.Multicast(tos, m)
}

func (e *replicaEnv) ApplyOp(u *coherence.Update) error { return e.ctrl.ApplyOp(u) }
func (e *replicaEnv) ApplyFull(snapshot []byte) error   { return e.ctrl.ApplyFull(snapshot) }
func (e *replicaEnv) ApplyElement(name string, data []byte) error {
	return e.ctrl.ApplyElement(name, data)
}
func (e *replicaEnv) Snapshot() ([]byte, error) { return e.ctrl.Snapshot() }
func (e *replicaEnv) RemoveElement(name string) error {
	return e.ctrl.RemoveElement(name)
}
func (e *replicaEnv) SnapshotElement(name string) ([]byte, error) {
	return e.reuse(e.ctrl.AppendElement(e.scratch[:0], name))
}
func (e *replicaEnv) ServeRead(inv msg.Invocation) ([]byte, error) {
	return e.reuse(e.ctrl.AppendRead(e.scratch[:0], inv))
}

// reuse keeps b as the scratch for the next reply, unless it outgrew what
// msg's frame pool keeps, so one huge page does not pin its size for good.
func (e *replicaEnv) reuse(b []byte, err error) ([]byte, error) {
	if err == nil && cap(b) <= msg.MaxPooledBuf {
		e.scratch = b
	}
	return b, err
}

func (e *replicaEnv) Now() time.Time { return e.store.cfg.Clock.Now() }

// AfterFunc re-dispatches the callback onto the store's event loop so
// replication objects stay single-threaded.
func (e *replicaEnv) AfterFunc(d time.Duration, f func()) clock.Timer {
	return e.store.cfg.Clock.AfterFunc(d, func() {
		_ = e.store.Post(f)
	})
}

// Retune swaps a hosted object's implementation parameters at runtime (the
// paper's dynamic-adaptation hook); the coherence model cannot change.
func (s *Store) Retune(object ids.ObjectID, strat strategy.Strategy) error {
	return s.do(object, func(r *replica) error { return r.repl.Retune(strat) })
}

// AddPeer registers a sibling replica for anti-entropy gossip (eventual
// model, leaderless mirror synchronisation).
func (s *Store) AddPeer(object ids.ObjectID, peerAddr string) error {
	return s.do(object, func(r *replica) error { r.repl.AddPeer(peerAddr); return nil })
}

// RemovePeer deregisters a gossip peer previously added with AddPeer.
func (s *Store) RemovePeer(object ids.ObjectID, peerAddr string) error {
	return s.do(object, func(r *replica) error { r.repl.RemovePeer(peerAddr); return nil })
}
