// Package replication implements the replication sub-object of the Globe
// local-object composition: the per-object coherence protocol. One Object
// lives at every store holding a replica; it interprets the object's
// Strategy (Table 1 of the paper) and drives an ordering engine
// (internal/coherence) that realises the object-based coherence model.
//
// The Object does five jobs, each decided in one place: read/park (read.go:
// serveRead, park), admit/forward (write.go), disseminate (disseminate.go:
// shipNow, relayDown), install/serve (transfer.go: install is the only way
// another replica's state comes in, serveState the only way state goes out),
// and subscribe/reparent (subscribe.go, reparent.go, digest.go).
// handlers.go holds the dispatch switch and the frame constructor,
// updatelog.go the retained update log every demand is answered from.
//
// The Object is a deterministic state machine: every handler runs on the
// owning store's single event-loop goroutine, and all I/O is performed
// through the injected Env, so the protocol can be unit-tested with fake
// environments and no network. This mirrors the paper's requirement that
// "the replication objects all have the same interface... however, the
// internals differ as each implements its own part of a coherence
// protocol".
//
//globelint:deterministic
//globelint:aliased-input
package replication

import (
	"errors"
	"hash/fnv"
	"math/rand"
	"slices"
	"time"

	"repro/internal/clock"
	"repro/internal/coherence"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/strategy"
	"repro/internal/vclock"
	"repro/internal/wal"
)

// Role is the store class hosting this replication object (Figure 2).
type Role int

// Roles, from the top of the store hierarchy down.
const (
	RolePermanent Role = iota + 1
	RoleObjectInitiated
	RoleClientInitiated
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RolePermanent:
		return "permanent"
	case RoleObjectInitiated:
		return "object-initiated"
	case RoleClientInitiated:
		return "client-initiated"
	default:
		return "Role(?)"
	}
}

// InScope reports whether a store with role r implements the object-based
// model under the given store-scope parameter; out-of-scope stores fall
// back to the weakest (eventual) ordering, per §3.1: lower layers "may, for
// performance reasons, support a weaker coherence model".
func (r Role) InScope(s strategy.StoreScope) bool {
	switch s {
	case strategy.ScopePermanent:
		return r == RolePermanent
	case strategy.ScopePermanentAndObjectInitiated:
		return r == RolePermanent || r == RoleObjectInitiated
	default:
		return true
	}
}

// Env is everything the replication object needs from its surroundings: the
// communication object (Send/Multicast), the control object (Apply*/Serve*,
// Snapshot*), and timers. Implementations must dispatch timer callbacks
// back onto the store's event loop.
type Env interface {
	// Send and Multicast encode m before they return and do not retain it,
	// as transport.Endpoint promises: the replica sends every frame that is
	// not a reply from one reused envelope, and a reply from the request it
	// answers.
	Send(to string, m *msg.Message) error
	Multicast(tos []string, m *msg.Message) error

	// ApplyOp applies an ordered write. u is owned by the replica — cloneInv
	// copied its page name and arguments off the frame into one block, and
	// the log holds it unchanged for as long as it is retained — so the
	// semantics object may keep u.Inv.Args (webdoc's Put keeps the content
	// window) rather than copy them. A map keyed by u.Inv.Page must clone
	// the key, or it pins the whole block.
	ApplyOp(u *coherence.Update) error
	ApplyFull(snapshot []byte) error
	// ApplyElement installs one element of a page state reply. name and data
	// alias the received frame, so the semantics object copies what it
	// keeps: webdoc keeps one copy of data, and clones name only for a page
	// it did not hold.
	ApplyElement(name string, data []byte) error
	Snapshot() ([]byte, error)
	SnapshotElement(name string) ([]byte, error)
	// ServeRead's result, like SnapshotElement's, may be shared with every
	// other read until the next write: it is sent, never modified.
	ServeRead(inv msg.Invocation) ([]byte, error)

	Now() time.Time
	// AfterFunc schedules f on the store's event loop after d.
	AfterFunc(d time.Duration, f func()) clock.Timer
}

// Stats counts protocol events. Each field is incremented by exactly one
// statement (inc/add, obs.go), and each is also a {store, object} series in
// the metrics registry when the replica was built with one: the registry reads
// the very word Stats() copies (registerStats), so ctl stats, /metrics and
// bench -trace cannot disagree. The obs tag is the series name — a counter
// when it ends in _total, a gauge otherwise — and help its description.
type Stats struct {
	ReadsServed         uint64 `obs:"globe_reads_served_total" help:"reads answered from local state"`
	ReadsParked         uint64 `obs:"globe_reads_parked_total" help:"reads that had to wait or trigger a fetch"`
	ReadsFailed         uint64 `obs:"globe_reads_failed_total" help:"reads answered with an error status"`
	ReqViolations       uint64 `obs:"globe_read_requirement_misses_total" help:"reads whose session requirement was not met locally"`
	WritesAdmitted      uint64 `obs:"globe_writes_admitted_total" help:"client writes admitted (stamped) at this replica"`
	WritesSequenced     uint64 `obs:"globe_writes_sequenced_total" help:"writes assigned a global sequence by this sequencer"`
	WritesAccepted      uint64 `obs:"globe_writes_accepted_total" help:"write requests accepted at the permanent store"`
	WritesForwarded     uint64 `obs:"globe_writes_forwarded_total" help:"write requests forwarded towards the permanent store"`
	WritesRejected      uint64 `obs:"globe_writes_rejected_total" help:"write-set violations"`
	WritesAcked         uint64 `obs:"globe_writes_acked_total" help:"write acknowledgements issued to clients"`
	UpdatesApplied      uint64 `obs:"globe_updates_applied_total" help:"ordered updates applied to local semantics"`
	UpdatesBuffered     uint64 `obs:"globe_updates_buffered_total" help:"updates buffered by the ordering engine"`
	UpdatesDisseminated uint64 `obs:"globe_updates_disseminated_total" help:"coherence transfers shipped to subscribed children (updates, invalidations, notifications)"`
	ApplyFailed         uint64 `obs:"globe_apply_failed_total" help:"ordered operations the semantics object rejected"`
	DemandsSent         uint64 `obs:"globe_demands_sent_total" help:"demand-update and state requests issued"`
	Invalidations       uint64 `obs:"globe_invalidations_total" help:"pages invalidated locally"`
	LazyFlushes         uint64 `obs:"globe_lazy_flushes_total" help:"aggregated dissemination rounds"`
	GossipRounds        uint64 `obs:"globe_gossip_rounds_total" help:"anti-entropy digests sent to peers"`
	BatchesSent         uint64 `obs:"globe_batches_sent_total" help:"KindUpdateBatch frames shipped"`
	BatchedUpdates      uint64 `obs:"globe_batched_updates_total" help:"updates carried inside batch frames"`
	DigestsSent         uint64 `obs:"globe_digests_sent_total" help:"heartbeat digests sent to children"`
	DigestsRecv         uint64 `obs:"globe_digests_received_total" help:"heartbeat digests received"`
	DigestDemands       uint64 `obs:"globe_digest_gap_demands_total" help:"demands triggered by a digest heartbeat gap"`
	SubscribesSent      uint64 `obs:"globe_subscribes_sent_total" help:"subscribe frames sent (1 + retries + re-subscribes)"`
	ReparentsDone       uint64 `obs:"globe_reparents_total" help:"completed re-parent handshakes (new parent acked)"`
	ParentMissedDigests uint64 `obs:"globe_parent_missed_digests_total" help:"watch periods that saw no parent traffic"`
	GroupCommits        uint64 `obs:"globe_wal_group_commits_total" help:"fsync barriers that covered more than one ack"`
	WALAppends          uint64 `obs:"globe_wal_appends_total" help:"records appended to the write-ahead log"`
	WALSnapshots        uint64 `obs:"globe_wal_snapshots_total" help:"snapshot compactions written"`
	WALReplayed         uint64 `obs:"globe_wal_replayed_total" help:"update records replayed from disk on recovery"`
	WALTornTail         uint64 `obs:"globe_wal_torn_tails_total" help:"corrupt WAL tails truncated on recovery"`
	Recoveries          uint64 `obs:"globe_recoveries_total" help:"WAL recoveries performed at startup"`
	RecoveryNanos       uint64 `obs:"globe_last_recovery_nanoseconds" help:"last restart: replay start to serve gate open"`
}

// parkedReq is a request this replica could not answer yet: a client read
// waiting for coherence (its requirement vector), for state (a page fetch) or
// for one revalidation round trip, or a child's request for state this
// replica holds only in invalidated form (see serveState).
type parkedReq struct {
	m        *msg.Message
	deadline time.Time
	// needsReval marks pull-on-access reads that must not be served until
	// the parent has answered one revalidation (epoch advanced past epoch).
	needsReval bool
	epoch      uint64
	// fetchTried/fetchedAt record that this request triggered a state fetch
	// and how many full fetches had completed at that point: if a full
	// fetch completes (fullFetches advances past fetchedAt) and the element
	// is still missing, the parent does not have it and the read fails
	// instead of looping fetch → state-reply → reconsider forever.
	fetchTried bool
	fetchedAt  uint64
	// queued is set while the request sits in Object.parked.
	queued bool
}

// oneShot is a timer that is idle or armed once: arming it while armed does
// nothing, and it is idle again when its callback runs. The callback is fixed
// when the Object is built (Object.timer), so arming allocates nothing.
// Callbacks reach the event loop through Env.AfterFunc, and an Env may run
// one early or after stop — bench's stub env fires every callback it was
// handed on its own schedule — so each re-checks the state it acts on.
type oneShot struct {
	fire    func()
	pending clock.Timer // non-nil while armed
}

// timer registers f as a one-shot callback that Close will stop.
func (o *Object) timer(f func()) *oneShot {
	t := &oneShot{}
	t.fire = func() {
		t.pending = nil
		if !o.closed {
			f()
		}
	}
	o.timers = append(o.timers, t)
	return t
}

// arm schedules t to fire after d unless it is already armed.
func (o *Object) arm(t *oneShot, d time.Duration) {
	if t.pending == nil && !o.closed {
		t.pending = o.env.AfterFunc(d, t.fire)
	}
}

func (t *oneShot) armed() bool { return t.pending != nil }

func (t *oneShot) stop() {
	if t.pending != nil {
		t.pending.Stop()
		t.pending = nil
	}
}

// Object is the replication sub-object for one distributed shared object at
// one store. Not safe for concurrent use: the owning store serialises all
// calls on its event loop.
//
//globelint:looponly
type Object struct {
	env    Env
	tune   Tuning // with defaults resolved
	object ids.ObjectID
	self   ids.StoreID
	role   Role
	strat  strategy.Strategy
	engine coherence.Engine

	// addr is this store's transport address (for From fields).
	addr string
	// out is the envelope every frame that is not a reply leaves in (send,
	// multicast); it is zero between sends.
	out msg.Message
	// names is the page list of a frame being built (fetch, shipNow). The
	// frame holds it only until send or multicast returns, which clear it.
	names []string
	// parent is the next store up the hierarchy ("" at permanent stores).
	parent string
	// children are subscribed lower-layer stores, sorted: the list every
	// push is addressed to. addChild and removeChild are its only writers.
	children []string

	// Write-set enforcement (permanent store, write set = single).
	writer    ids.ClientID
	hasWriter bool

	// Sequencer state (permanent store, sequential model).
	nextGlobal uint64
	lamport    vclock.Lamport
	// stamped tracks, per client, which write sequences this store has
	// admitted (minted a stamp for) — the at-most-once guard for unstamped
	// (direct-from-client) requests. The engines' applied vectors cannot
	// play this role: the sequential, FIFO, and eventual ones jump
	// per-client gaps, so "covered" does not imply "admitted". A watermark
	// alone cannot either (a jittered link can reorder two in-flight
	// writes), so each entry also keeps the bounded set of unseen
	// sequences below its watermark.
	stamped map[ids.ClientID]*stampedSeqs

	// log keeps applied updates in application order for demand-serving,
	// replays and the re-apply after a state transfer (updatelog.go).
	log updateLog
	// slab is what is left of the block newUpdate takes update structs from.
	slab []coherence.Update

	// timers lists every oneShot below, for Close.
	timers []*oneShot

	// lazy aggregates applied updates between lazy-instant flushes.
	lazy      []*coherence.Update
	lazyTimer *oneShot

	// Relay re-batching: while a batch arrival is being fanned into the
	// engine (relayDepth > 0), immediately-disseminated updates collect in
	// relay and ship as one frame when the fan-in completes, so batching
	// survives the full root→leaf path.
	relayDepth int
	relay      []*coherence.Update

	// Pull-initiative poller.
	pollTimer *oneShot

	// Subscription reliability: the subscribe frame used to be send-once,
	// so one lost frame on a lossy link stranded the replica outside the
	// parent's children set forever (no pushes, no digests). Now the
	// bootstrap KindSubscribeAck doubles as the subscribe's ack: until it
	// arrives the child re-sends on a bounded timer, and a digest heard
	// from the parent while still unacked (the ack itself was lost — the
	// parent registered us) triggers an immediate re-subscribe.
	subWanted  bool // SubscribeToParent was requested
	subAcked   bool // bootstrap ack received
	subRetries int
	subTimer   *oneShot

	// Self-healing (see reparent.go): when the parent stops answering —
	// subscribe retries exhausted, or tune.ReparentAfter consecutive digest
	// periods with no parent traffic — the child re-resolves the object
	// through resolveParent, adopts a live replica closer to the root, and
	// re-runs the subscribe handshake there.
	resolveParent    func() []ParentCandidate
	parentHeard      bool // parent traffic since the last watch tick
	parentSilent     int  // consecutive silent watch periods
	parentWatchTimer *oneShot
	reparentTimer    *oneShot // same-parent-later cooldown
	reparenting      bool     // a re-parent handshake awaits its ack

	// Anti-entropy gossip peers (eventual model, sibling mirrors).
	peers       map[string]bool
	gossipTimer *oneShot

	// Digest heartbeats: every tune.DigestInterval (jittered), the store sends
	// its children a compact applied-vector digest so a child behind silent
	// tail-loss or a healed partition detects the gap and demands, instead
	// of staying stale until the next unrelated arrival.
	digestTimer *oneShot
	digestRNG   *rand.Rand
	// digestGapDemand marks the open demand cycle as digest-initiated: its
	// gap has no buffered updates or parked reads to witness it, so the
	// retry timer must chase it anyway (see retryDemand).
	digestGapDemand bool

	// invalid holds the invalid marks: per page, the writes an invalidation
	// or notification from upstream named, which the page must include before
	// it is served or handed out again (current). The "" entry is the
	// page-less mark every page must meet as well. A mark is met once the
	// page's knowledge covers it (knows), whichever transfer or op brought
	// that, so nothing clears it and a stale transfer cannot; the entry stays
	// for the next notice to merge into.
	invalid map[string]*msg.Vec
	// fetchVec is coherence knowledge gained by full state transfer rather
	// than ordered updates.
	fetchVec msg.Vec
	// appliedCache is applied(), rebuilt only once the engine was fed or
	// seeded or fetchVec grew since (markAppliedStale), so a read reply or a
	// heartbeat copies the vector instead of rebuilding it.
	appliedCache msg.Vec
	appliedStale bool
	// pageVec tracks knowledge gained by partial (per-page) state transfer:
	// an op update for page p whose write is covered by pageVec[p] must not
	// re-apply its content (the fetched page already includes it).
	pageVec map[string]*msg.Vec
	// fetching de-duplicates concurrent full-state fetches.
	fetching bool
	// fullFetches counts completed full state transfers (state replies,
	// full-state updates, subscribe bootstraps); parked reads use it to
	// detect "a full fetch finished and the element still is not here".
	fullFetches uint64

	// forwarded is the highest write sequence per client this replica passed
	// upstream (forward): the writes whose updates it can expect back.
	forwarded msg.Vec
	// awaitingPush marks the armed retry timer as (also) a read's wait for
	// such an update: set when serveRead parks the read without demanding,
	// consumed by retryDemand, which demands if the read is still unserved.
	awaitingPush bool

	// Demand-retry: a demand whose reply is lost would otherwise strand the
	// store until the next arrival (tail-loss). After tune.DemandRetry with no
	// coherence response (revalEpoch unchanged), the demand is re-sent,
	// bounded by maxDemandRetries per cycle.
	demandRetryTimer *oneShot
	demandEpoch      uint64
	demandRetries    int

	// Group commit (see durable.go): write replies under the always policy
	// park in ackPending, each addressed by its own To, and the owning loop
	// releases them with FlushAcks — one fsync per drained batch, the same
	// leader-flushes-the-whole-queue shape tcpnet uses for writev.
	ackPending []msg.Message

	// Durability (permanent stores with a data dir; see durable.go). wal
	// is nil on memory-only replicas and every hook is a no-op.
	wal          *wal.Log
	walSyncTimer *oneShot
	walReplaying bool
	lastSnapVec  *msg.Vec

	// Recover-then-serve gate state (see recover/gateRecovering).
	recovering        bool
	recoverPending    map[string]bool
	recoverStart      time.Time
	recoverRetries    int
	recoverGraceTimer *oneShot
	recoverRetryTimer *oneShot

	parked []*parkedReq
	// spareParked is the queue's second array, which reconsiderParked swaps
	// in while it retries the first; freeParked holds the entries of
	// requests that left the queue for good (unpark), for park to reuse.
	spareParked []*parkedReq
	freeParked  []*parkedReq
	// held reports that the message Handle is dispatching was parked, so
	// Handle leaves its release to the parked queue.
	held bool
	// revalEpoch counts coherence responses received from the parent
	// (updates, state replies, acks); pull-on-access reads wait for it to
	// advance.
	revalEpoch uint64

	// stats is allocated on its own: registered series read its words from
	// the scraper's goroutine and may outlive the replica (see registerStats).
	stats *Stats
	// obsv holds the histograms and the trace ring (internal/obs); all nil —
	// and free — when the store was built without an Observer.
	obsv repObs

	closed bool
}

// Config assembles an Object.
type Config struct {
	Env     Env
	Object  ids.ObjectID
	Self    ids.StoreID
	Addr    string
	Role    Role
	Parent  string
	Strat   strategy.Strategy
	Session []coherence.ClientModel // client models requested at bind time
	// Tuning holds the timeouts, retry and heartbeat cadences and the WAL
	// policy; its zero value is the default deployment.
	Tuning Tuning
	// ResolveParent, when set, lets the replica pick a replacement parent
	// after declaring the configured one dead: it returns the object's
	// currently resolvable replicas (typically from the name service). It
	// is called on the owning event loop and must not block. Without it the
	// replica still recovers from retry exhaustion, but only by re-dialling
	// the same parent after a cooldown.
	ResolveParent func() []ParentCandidate

	// WAL, when set, makes the replica durable: stamped updates, admission
	// decisions, and children changes are logged before acks under
	// Tuning.Durability. The object owns the log from here on (Close closes
	// it).
	WAL *wal.Log
	// Recovered is the state wal.Open reconstructed from disk; New replays
	// it before the replica sees any traffic.
	Recovered *wal.Recovery

	// Obs, when set, wires the replica into the observability layer: every
	// Stats field and the propagation-lag and WAL histograms registered under
	// {store, object} labels, and (when the observer carries a trace ring)
	// structured protocol events. Counting itself is unconditional; nil only
	// means nobody scrapes it.
	Obs *obs.Observer
}

// ParentCandidate is one live replica of the object as reported by the
// resolver seam — a potential parent for re-subscription. It is declared
// here (not in the naming layer) because naming already imports replication.
type ParentCandidate struct {
	Addr string
	Role Role
}

// New builds the replication object, choosing the ordering engine from the
// strategy and the store's role: in-scope stores run the object's model,
// out-of-scope stores run eventual ordering. If any requested client model
// requires explicit dependency enforcement that the model doesn't imply,
// the engine is wrapped in a DepGuard.
func New(cfg Config) (*Object, error) {
	if err := cfg.Strat.Validate(); err != nil {
		return nil, err
	}
	model := cfg.Strat.Model
	if !cfg.Role.InScope(cfg.Strat.Scope) {
		model = coherence.Eventual
	}
	eng, err := coherence.NewEngine(model)
	if err != nil {
		return nil, err
	}
	needGuard := false
	for _, cm := range cfg.Session {
		if (cm == coherence.MonotonicWrites || cm == coherence.WritesFollowReads) &&
			!model.Implies(cm) {
			needGuard = true
		}
	}
	if needGuard {
		eng = coherence.NewDepGuard(eng)
	}
	o := &Object{
		env:           cfg.Env,
		tune:          cfg.Tuning.withDefaults(),
		object:        cfg.Object,
		self:          cfg.Self,
		addr:          cfg.Addr,
		role:          cfg.Role,
		parent:        cfg.Parent,
		strat:         cfg.Strat,
		engine:        eng,
		nextGlobal:    1,
		stamped:       make(map[ids.ClientID]*stampedSeqs),
		invalid:       make(map[string]*msg.Vec),
		pageVec:       make(map[string]*msg.Vec),
		resolveParent: cfg.ResolveParent,
		wal:           cfg.WAL,
		stats:         new(Stats),
	}
	// Instruments and timers must exist before recover() below replays the
	// WAL and arms the recovery gate.
	o.obsv = o.newRepObs(cfg.Obs)
	o.lazyTimer = o.timer(o.flushLazy)
	o.pollTimer = o.timer(o.poll)
	o.subTimer = o.timer(o.retrySubscribe)
	o.parentWatchTimer = o.timer(o.watchParent)
	o.reparentTimer = o.timer(o.retryReparent)
	o.gossipTimer = o.timer(o.gossip)
	o.digestTimer = o.timer(o.digest)
	o.demandRetryTimer = o.timer(o.retryDemand)
	o.walSyncTimer = o.timer(o.walSync)
	o.recoverGraceTimer = o.timer(o.finishRecovery)
	o.recoverRetryTimer = o.timer(o.retryRecovery)
	if o.tune.DigestInterval > 0 {
		// Per-object deterministic jitter source: seeded from the store's
		// address, the object, and the store ID, so a fleet sharing one
		// interval — and the N objects co-hosted on one store — all
		// de-synchronise, the same way on every run. Only touched on the
		// owning event loop.
		h := fnv.New64a()
		_, _ = h.Write([]byte(cfg.Addr))
		_, _ = h.Write([]byte(cfg.Object))
		o.digestRNG = rand.New(rand.NewSource(int64(h.Sum64()) ^ int64(cfg.Self)<<32))
	}
	if cfg.WAL != nil && cfg.Recovered != nil {
		o.recover(cfg.Recovered)
	}
	return o, nil
}

// Stats returns a copy of the protocol counters.
func (o *Object) Stats() Stats { return *o.stats }

// Engine exposes the ordering engine (tests, metrics).
func (o *Object) Engine() coherence.Engine { return o.engine }

// Parent returns the configured parent address.
func (o *Object) Parent() string { return o.parent }

// addChild and removeChild report whether the set changed. Each change makes
// a new slice, so one handed to a transport earlier is never written under it.
func (o *Object) addChild(addr string) bool {
	i, found := slices.BinarySearch(o.children, addr)
	if !found {
		o.children = slices.Insert(slices.Clone(o.children), i, addr)
	}
	return !found
}

func (o *Object) removeChild(addr string) bool {
	i, found := slices.BinarySearch(o.children, addr)
	if found {
		o.children = slices.Delete(slices.Clone(o.children), i, i+1)
	}
	return found
}

// Close cancels timers and fails parked reads. Acks parked for a group
// commit are flushed first, so their writes' durability promise holds.
func (o *Object) Close() {
	o.FlushAcks()
	o.closed = true
	for _, t := range o.timers {
		t.stop()
	}
	if o.wal != nil {
		_ = o.wal.Close()
		o.wal = nil
	}
	for _, p := range o.parked {
		o.refuseParked(p, msg.StatusRetry, "store closing")
	}
	o.parked = nil
}

// Retune replaces the object's implementation parameters at runtime — the
// dynamic adaptation §3.3 anticipates ("ideally, the implementation
// parameters can be modified dynamically as the usage characteristics of an
// object change"). The coherence model itself is fixed at creation (it
// defines the object's contract with clients); only the Table 1
// dissemination parameters may change. Pending lazy buffers are flushed
// under the old parameters first.
func (o *Object) Retune(s strategy.Strategy) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if s.Model != o.strat.Model {
		return errors.New("replication: Retune cannot change the coherence model")
	}
	if s.Writers != o.strat.Writers {
		return errors.New("replication: Retune cannot change the write set")
	}
	// Drain aggregation state under the old policy so nothing is stranded.
	o.lazyTimer.stop()
	o.flushLazy()
	o.pollTimer.stop()
	o.strat = s
	o.armPoll()
	return nil
}

// applied is the store's total coherence knowledge: ordered applies plus
// state-transfer knowledge. It is a copy, the caller's to keep: what replies,
// digests and demands carry.
func (o *Object) applied() msg.Vec {
	if o.appliedStale {
		o.appliedCache = o.engine.Applied()
		o.appliedCache.Merge(&o.fetchVec)
		o.appliedStale = false
	}
	return o.appliedCache.Clone()
}

// markAppliedStale records that applied() may have advanced: called wherever
// the engine is fed or seeded and wherever fetchVec grows.
func (o *Object) markAppliedStale() { o.appliedStale = true }

// covers reports whether write w is part of this store's coherence
// knowledge — ordered applies or state transfer — by direct lookup.
func (o *Object) covers(w ids.WiD) bool {
	return o.engine.Covers(w) || o.fetchVec.CoversWrite(w)
}

// knows is the one coverage question: does K(page) dominate v, entry by entry
// and without materialising it? K(page) is what this replica knows page to
// hold: applied() merged with pageVec[page], the vectors of the transfers
// that brought page on its own. For "" it is applied() alone. install's stale
// guard, the invalid marks (current) and a read's session requirement all ask
// it.
func (o *Object) knows(page string, v *msg.Vec) bool {
	pv := o.pageVec[page]
	ok := true
	v.Each(func(c ids.ClientID, s uint64) bool {
		w := ids.WiD{Client: c, Seq: s}
		ok = o.covers(w) || pv.CoversWrite(w)
		return ok
	})
	return ok
}

// knowledge is K(page). A page reply carries it, so the receiver's pageVec
// records what the page holds and not only what this replica has applied.
func (o *Object) knowledge(page string) msg.Vec {
	k := o.applied()
	k.Merge(o.pageVec[page])
	return k
}

// Applied exposes the combined applied vector (a copy).
func (o *Object) Applied() msg.Vec { return o.applied() }
