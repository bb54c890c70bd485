package replication

import (
	"errors"
	"strconv"
	"strings"

	"repro/internal/coherence"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/semantics"
	"repro/internal/strategy"
	"repro/internal/vclock"
)

// Handle dispatches one incoming message for this object. Unknown kinds are
// ignored (forward compatibility). The exempt list names the kinds a
// replication object never receives: client-side replies, bind traffic the
// store answers before replication sees it, and the name-service/control
// protocols that have their own servers.
//
//globelint:wiresym type=msg.Kind role=dispatch exempt=KindBindRequest,KindBindReply,KindReadReply,KindWriteReply,KindNameRegister,KindNameDeregister,KindNameResolve,KindNameLease,KindNameReply,KindNameDigest,KindNameSync,KindCtrlRequest,KindCtrlReply
func (o *Object) Handle(m *msg.Message) {
	if o.closed {
		return
	}
	if o.recovering && o.gateRecovering(m) {
		return
	}
	if o.parent != "" && m.From == o.parent {
		o.noteParentTraffic()
	}
	switch m.Kind {
	case msg.KindReadRequest:
		o.onRead(m)
	case msg.KindWriteRequest:
		o.onWrite(m)
	case msg.KindUpdate:
		o.onUpdate(m)
	case msg.KindUpdateBatch:
		o.onUpdateBatch(m)
	case msg.KindUpdateAck:
		// "Nothing missing" answer to a demand: counts as revalidation.
		// The ack's vector covers writes the sender will never send — LWW
		// losers superseded before dissemination — so fold it into fetch
		// knowledge; otherwise a digest advertising those components would
		// re-demand every heartbeat forever.
		m.VVec.MergeInto(o.fetchVec)
		o.markAppliedStale()
		o.revalEpoch++
		o.reconsiderParked()
	case msg.KindInvalidate, msg.KindNotify:
		o.onInvalidate(m)
	case msg.KindDemandUpdate:
		o.onDemand(m)
	case msg.KindStateRequest:
		o.serveState(m, nil)
	case msg.KindStateReply:
		o.onStateReply(m)
	case msg.KindSubscribe:
		o.onSubscribe(m)
	case msg.KindSubscribeAck:
		o.onSubscribeAck(m)
	case msg.KindUnsubscribe:
		o.onUnsubscribe(m)
	case msg.KindGossip:
		if o.validGossipStrategy() {
			o.onGossip(m)
		}
	case msg.KindGossipReply:
		if o.validGossipStrategy() {
			o.onGossipReply(m)
		}
	case msg.KindDigest:
		o.onDigest(m)
	}
}

// frame starts an outgoing message of kind k under this replica's header.
// With re set it is the reply to re: addressed to re's sender, carrying its
// correlation fields, status OK.
func (o *Object) frame(k msg.Kind, re *msg.Message) *msg.Message {
	var m *msg.Message
	if re != nil {
		m = re.Reply(k)
	} else {
		m = &msg.Message{Kind: k}
	}
	m.Object, m.From, m.Store = o.object, o.addr, o.self
	return m
}

func (o *Object) send(to string, m *msg.Message) { _ = o.env.Send(to, m) }

func (o *Object) multicast(tos []string, m *msg.Message) { _ = o.env.Multicast(tos, m) }

// relayDown passes a coherence frame from the parent on to this store's own
// children under this store's header (multi-layer hierarchies, Figure 2).
// Pull children fetch on their own schedule.
func (o *Object) relayDown(m *msg.Message) {
	if len(o.children) == 0 || o.strat.Initiative != strategy.Push {
		return
	}
	fwd := *m
	fwd.From, fwd.Store = o.addr, o.self
	o.multicast(o.Children(), &fwd)
}

// refuse answers a request this replica will not serve with an error status.
// Only client reads and writes have a reply that carries one; a child's held
// state request is dropped instead (its own retries and read deadlines bound
// the wait), since any state reply would be installed as content.
func (o *Object) refuse(m *msg.Message, st msg.Status, text string) {
	var r *msg.Message
	switch m.Kind {
	case msg.KindReadRequest:
		o.stats.ReadsFailed++
		r = o.frame(msg.KindReadReply, m)
	case msg.KindWriteRequest:
		r = o.frame(msg.KindWriteReply, m)
	default:
		return
	}
	r.Status = st
	r.Err = text
	o.send(m.From, r)
}

// --- reads -----------------------------------------------------------------

// onRead implements the access path: check session requirements (client-
// based models, §3.2.2), check replica validity (invalidations, pull mode),
// then serve from the local semantics object.
func (o *Object) onRead(m *msg.Message) {
	// Pull-on-access revalidation: with pull initiative and no periodic
	// poller, every access first validates against the parent (the
	// If-Modified-Since pattern from the paper's introduction).
	if o.strat.Initiative == strategy.Pull && o.strat.PullInterval <= 0 && o.parent != "" {
		o.demandFromParent()
		p := o.park(m, nil)
		p.needsReval, p.epoch = true, o.revalEpoch
		return
	}
	o.serveRead(m, nil)
}

// requirementMet checks the read's session-guarantee requirement vector.
func (o *Object) requirementMet(m *msg.Message) bool {
	return o.coversVec(&m.VVec)
}

// invalidated reports whether this replica may not hand out page (or, for
// "", the object as a reader sees it) because a notice from upstream marked
// it outdated. A store with no parent has nobody to refetch from: what it
// holds is the object.
func (o *Object) invalidated(page string) bool {
	return o.parent != "" && (o.allInvalid || o.invalid[page])
}

// serveRead answers read m from the local semantics object, or parks it: for
// coherence when its requirement vector is not covered, for state when the
// page is invalidated or missing here and a parent can supply it. p is m's
// parked entry when the read has waited before, nil on arrival. A miss that
// outlives a completed full state transfer means the parent lacks the element
// too, so the read fails with not-found rather than livelocking in a fetch →
// state-reply → reconsider cycle.
func (o *Object) serveRead(m *msg.Message, p *parkedReq) {
	if !o.requirementMet(m) {
		if p == nil {
			o.stats.ReqViolations++
			// §4: under demand "the cache first demands an update from the
			// Web server"; under wait the store "simply waits until a new
			// write arrives".
			if o.strat.ClientOutdate == strategy.Demand {
				o.demandFromParent()
			}
		}
		o.park(m, p)
		return
	}
	page := m.Inv.Page
	invalid := o.invalidated(page)
	if !invalid {
		payload, err := o.env.ServeRead(m.Inv)
		if err == nil {
			o.stats.ReadsServed++
			r := o.frame(msg.KindReadReply, m)
			r.Payload = payload
			r.VVec = o.appliedVec()
			o.send(m.From, r)
			return
		}
		// A cold or partially warm replica misses elements it never
		// fetched; resolve through the parent per the access-transfer type.
		fetchedInVain := p != nil && p.fetchTried && o.fetchesWhole(page) && o.fullFetches > p.fetchedAt
		if !errors.Is(err, semantics.ErrNoElement) || o.parent == "" || fetchedInVain {
			o.refuse(m, msg.StatusNotFound, err.Error())
			return
		}
	}
	p = o.park(m, p)
	// The fetch for an invalidated page stays in flight until its reply
	// clears the mark; a miss after a fetch means that fetch did not bring
	// the element, so ask again.
	if !invalid || !p.fetchTried {
		o.fetch(page)
		p.fetchTried, p.fetchedAt = true, o.fullFetches
	}
}

// park queues request m until coherence or state arrives, with a deadline on
// its first visit; p is its entry from an earlier visit, or nil.
func (o *Object) park(m *msg.Message, p *parkedReq) *parkedReq {
	if p == nil {
		if m.Kind == msg.KindReadRequest {
			o.stats.ReadsParked++
		}
		p = &parkedReq{m: m, deadline: o.env.Now().Add(o.readTimeout)}
		o.env.AfterFunc(o.readTimeout, func() { o.expireParked() })
	}
	//globelint:ignore aliasretain parked request pins its frame by design: transports never reuse frames and expireParked bounds the hold to readTimeout
	o.parked = append(o.parked, p)
	return p
}

// expireParked refuses requests whose deadline passed. A whole-object fetch
// they waited for is presumed lost with them, so the next one may ask again.
func (o *Object) expireParked() {
	if o.closed {
		return
	}
	now := o.env.Now()
	rest := o.parked[:0]
	for _, p := range o.parked {
		if now.Before(p.deadline) {
			rest = append(rest, p)
			continue
		}
		o.fetching = false
		o.refuse(p.m, msg.StatusRetry, "coherence requirement not satisfiable before timeout")
	}
	o.parked = rest
}

// reconsiderParked retries parked requests after local state changed; each
// is answered or parks again.
func (o *Object) reconsiderParked() {
	if len(o.parked) == 0 {
		return
	}
	pending := o.parked
	o.parked = nil
	for _, p := range pending {
		switch {
		case p.needsReval && p.epoch >= o.revalEpoch:
			o.parked = append(o.parked, p) // revalidation still in flight
		case p.m.Kind == msg.KindReadRequest:
			o.serveRead(p.m, p)
		default:
			o.serveState(p.m, p)
		}
	}
}

// failParkedPage answers parked reads for one page with not-found.
func (o *Object) failParkedPage(page, errText string) {
	rest := o.parked[:0]
	for _, p := range o.parked {
		if p.m.Inv.Page == page {
			o.refuse(p.m, msg.StatusNotFound, errText)
			continue
		}
		rest = append(rest, p)
	}
	o.parked = rest
}

// --- writes ----------------------------------------------------------------

// onWrite handles a client write request. Non-permanent stores forward
// writes up the hierarchy (the permanent stores own the object's coherence,
// §3.1); under the eventual model they additionally apply the write locally
// first, so a mirror serves its own writes immediately.
func (o *Object) onWrite(m *msg.Message) {
	if o.role != RolePermanent && o.strat.Model != coherence.Eventual {
		if o.parent == "" {
			o.refuse(m, msg.StatusError, "store has no parent to order writes")
			return
		}
		o.forward(m)
		return
	}
	// Permanent store: enforce the write set.
	if o.role == RolePermanent && o.strat.Writers == strategy.SingleWriter {
		if !o.hasWriter {
			o.hasWriter = true
			o.writer = m.Write.Client
		} else if o.writer != m.Write.Client {
			o.stats.WritesRejected++
			o.refuse(m, msg.StatusForbidden, "write set is single; another client owns the object")
			return
		}
	}
	fresh, replay := o.admit(m)
	if replay {
		// The retry may exist because the ORIGINAL forward (or the ack) was
		// lost, so a mirror re-propagates the logged stamped form upstream —
		// re-forwarding the unstamped replay instead would mint a second
		// stamp at the parent and double-apply on the way back down; an
		// identical stamp is deduplicated by LWW everywhere.
		if u := o.loggedWrite(m.Write); u != nil {
			m.Stamp, m.Inv = u.Stamp, u.Inv
			o.forward(m)
		}
		o.ackWrite(m)
		return
	}
	u := updateFromMsg(m)
	if o.strat.Model == coherence.Sequential && u.GlobalSeq == 0 {
		u.GlobalSeq = o.nextGlobal
		o.nextGlobal++
		o.obsv.sequenced.Inc()
		if o.traceOn() {
			o.emit("write_sequenced", "wid="+u.Write.String()+" gseq="+strconv.FormatUint(u.GlobalSeq, 10))
		}
	}
	if o.role == RolePermanent {
		o.stats.WritesAccepted++
	}
	released := o.submitLogged(u)
	if fresh {
		// The admission record lands AFTER its update record (see
		// walAppendAdmit): a crash between the two appends leaves the
		// update durable, and recovery seeds the watermark from it.
		o.walAppendAdmit(m.Write.Client, m.Write.Seq)
	}
	if len(released) == 0 && o.engine.Pending() > 0 {
		o.stats.UpdatesBuffered++
	}
	o.applyReleased(released)
	// Ack the writer (the client learns the store that performed its
	// write — the (WiD, store) dependency of §4.2). A mirror acks at once:
	// eventual coherence promises no more.
	o.ackWrite(m)
	// Continue propagation towards the permanent store.
	o.forward(m)
	o.reconsiderParked()
}

// admit is at-most-once admission. A request frame duplicated by the link
// (the UDP configuration) or retried after a lost ack must be re-acked, not
// admitted again — under the sequential model a second pass would assign the
// same WiD a fresh GlobalSeq and apply it twice, and under the eventual model
// it would mint a fresh Lamport stamp that wins LWW against itself.
// Client-originated requests are exactly the unstamped ones (only eventual
// mirrors forward pre-stamped frames, whose replays carry an identical stamp
// that LWW drops on its own), and the watermark+holes record distinguishes a
// replay from a genuinely new write that was merely overtaken in flight — the
// engines' own applied vectors cannot, since the sequential, FIFO, and
// eventual ones all jump per-client gaps. A fresh write is stamped here; a
// stamped one has its stamp witnessed. Fresh admissions are WAL-logged on
// durable replicas — by the CALLER, after the stamped update record — so the
// same distinction survives a restart (recovery replays both through
// admitSeq).
func (o *Object) admit(m *msg.Message) (fresh, replay bool) {
	if !m.Stamp.Zero() {
		o.lamport.Witness(m.Stamp.Time)
		return false, false
	}
	if o.admitSeq(m.Write.Client, m.Write.Seq) {
		return false, true
	}
	m.Stamp = vclock.Stamp{Time: o.lamport.Next(), Client: m.Write.Client}
	o.obsv.admitted.Inc()
	if o.traceOn() {
		o.emit("write_admitted", "wid="+m.Write.String())
	}
	return true, false
}

// forward passes a write request one hop towards the permanent store (a no-op
// at the root), keeping the client's From so the store that orders the write
// acks the client directly.
func (o *Object) forward(m *msg.Message) {
	if o.parent == "" {
		return
	}
	fwd := *m
	fwd.To = o.parent
	o.stats.WritesForwarded++
	o.obsv.forwarded.Inc()
	o.send(o.parent, &fwd)
}

// ackWrite sends the OK write reply for m. On a durable replica under the
// always policy, everything logged for this write reaches disk first: an
// acknowledged write survives even kill -9 between ack and the next flush.
// With group commit enabled the ack parks instead and FlushAcks pays one
// barrier for the whole drained batch (durability unchanged: the ack still
// never leaves before its records are stable).
func (o *Object) ackWrite(m *msg.Message) {
	o.obsv.acked.Inc()
	if o.traceOn() {
		o.emit("write_acked", "wid="+m.Write.String()+" to="+m.From)
	}
	r := o.frame(msg.KindWriteReply, m)
	if o.deferBarrier() {
		// The ack can sit in ackPending across many handler turns under
		// group commit; clone the reply address so the parked ack does not
		// pin the request frame's chunk until the next flush.
		o.ackPending = append(o.ackPending, pendingAck{to: strings.Clone(m.From), r: r})
		return
	}
	o.walBarrier()
	o.send(m.From, r)
}

// stampedSeqs is one client's unstamped-write admission record: the highest
// sequence stamped so far plus the sequences below it this store has NOT
// seen (holes left by in-flight reordering on a jittered link). The holes
// set is bounded by the client's writes-in-flight window in practice; a
// pathological gap (e.g. a reused client identity resuming far ahead, see
// coherence.SeedSeq) is not recorded beyond the cap, and uncovered old
// sequences then classify as replays — matching the documented semantics of
// reused write IDs everywhere else in the system.
type stampedSeqs struct {
	max   uint64
	holes map[uint64]bool
}

// maxStampedHoles caps the per-client holes set.
const maxStampedHoles = 256

// maxStampedClients caps the admission map itself so client churn on a
// long-lived daemon cannot grow it without bound; when full, a record
// (preferably one with no holes) is evicted. This is the bounded-memory
// trade every dedup cache makes: a replay from an evicted identity —
// requiring more than this many writer identities on ONE object plus a
// duplicate still floating from before the eviction — can be re-admitted.
const maxStampedClients = 4096

// admitSeq is the watermark/holes state machine behind admit, shared with
// WAL recovery (which must re-run admissions without re-logging them). It
// reports whether this store already minted a Lamport stamp for the write,
// recording the admission otherwise: a sequence at or below the watermark
// that is not a recorded hole was stamped here before, so the frame is a
// link duplicate (or an ack-loss retry) that must not be stamped again; a
// recorded hole is a genuinely new write that was merely overtaken in
// flight.
func (o *Object) admitSeq(c ids.ClientID, seq uint64) bool {
	u := o.stamped[c]
	if u == nil {
		if len(o.stamped) >= maxStampedClients {
			// Bound the map unconditionally; prefer evicting a record with
			// no holes, but never let "all records hold holes" unbound it.
			var victim ids.ClientID
			found := false
			for old, rec := range o.stamped {
				victim, found = old, true
				if len(rec.holes) == 0 {
					break
				}
			}
			if found {
				delete(o.stamped, victim)
			}
		}
		u = &stampedSeqs{}
		o.stamped[c] = u
		if seq > maxStampedHoles {
			// First contact at a high sequence is a resumed client identity
			// (binds seed the session counter past prior applied writes, see
			// coherence.SeedSeq) — its old sequences were admitted in an
			// earlier life and must classify as replays, not as holes a
			// floating duplicate could crawl back through.
			u.max = seq
			return false
		}
	}
	switch {
	case seq > u.max:
		for s := u.max + 1; s < seq && len(u.holes) < maxStampedHoles; s++ {
			if u.holes == nil {
				u.holes = make(map[uint64]bool, 2)
			}
			u.holes[s] = true
		}
		u.max = seq
		return false
	case u.holes[seq]:
		delete(u.holes, seq)
		return false // overtaken in flight; new write, admit it
	default:
		return true
	}
}

// loggedWrite finds the applied update with the given write ID in the
// retained log (newest first — replays chase recent writes).
func (o *Object) loggedWrite(w ids.WiD) *coherence.Update {
	for i := len(o.log) - 1; i >= 0; i-- {
		if o.log[i].Write == w {
			return o.log[i]
		}
	}
	return nil
}

// updateFromMsg builds the engine-level update from a wire message.
func updateFromMsg(m *msg.Message) *coherence.Update {
	return &coherence.Update{
		Write:     m.Write,
		GlobalSeq: m.GlobalSeq,
		Deps:      m.Deps.VC(),
		Stamp:     m.Stamp,
		Inv:       cloneInv(m.Inv),
		WallNanos: m.WallNanos,
	}
}

// cloneInv deep-copies an invocation taken from a wire message. Updates
// outlive their frame — they sit in the update log and their Page/Args end
// up inside semantics state — so retaining the zero-copy decoded fields
// would pin whole transport buffers (tcpnet handoff chunks, memnet frames)
// for the replica's lifetime. One copy per write restores the footprint of
// the old copying decode while reads stay zero-copy end to end.
func cloneInv(inv msg.Invocation) msg.Invocation {
	out := msg.Invocation{Method: inv.Method, Page: strings.Clone(inv.Page)}
	if inv.Args != nil {
		out.Args = append([]byte(nil), inv.Args...)
	}
	return out
}

// --- dissemination ----------------------------------------------------------

// applyReleased applies ordered updates to semantics, logs them, and feeds
// dissemination. Updates whose effects already arrived via state transfer
// (full snapshot or a per-page fetch) advance the coherence accounting but
// are not re-applied to semantics — re-applying an incremental append would
// duplicate content.
func (o *Object) applyReleased(released []*coherence.Update) {
	// One clock read covers the whole release set: the propagation-lag
	// histogram measures network+ordering delay, not intra-batch apply cost.
	var nowNanos int64
	if len(released) > 0 && (o.obsv.lag != nil || o.traceOn()) {
		nowNanos = o.env.Now().UnixNano()
	}
	for _, u := range released {
		if !o.coveredByState(u) {
			if err := o.env.ApplyOp(u); err != nil {
				// Semantics rejected the op (e.g. malformed args);
				// coherence-wise it is applied — record and continue.
				o.stats.ReadsFailed++
			}
		}
		o.stats.UpdatesApplied++
		o.obsv.applied.Inc()
		if u.WallNanos > 0 {
			// The headline metric: update age at apply, from the origin's
			// wall-clock stamp. On one machine (memnet, tests) the clocks
			// are the same; across real deployments the series carries the
			// usual NTP skew caveat.
			o.obsv.lag.Observe(nowNanos - u.WallNanos)
		}
		if o.traceOn() {
			o.emit("update_applied", "wid="+u.Write.String()+" page="+u.Inv.Page+
				" lag="+strconv.FormatInt(nowNanos-u.WallNanos, 10)+"ns")
		}
		o.appendLog(u)
	}
	o.disseminate(released)
	if len(released) > 0 {
		o.reconsiderParked()
	}
	o.maybeCompact()
}

// coveredByState reports whether u's content effects already arrived via
// state transfer.
func (o *Object) coveredByState(u *coherence.Update) bool {
	if o.fetchVec.CoversWrite(u.Write) {
		return true
	}
	if u.Inv.Page == "" {
		return false
	}
	return o.pageVec[u.Inv.Page].CoversWrite(u.Write)
}

func (o *Object) appendLog(u *coherence.Update) {
	o.log = append(o.log, u)
	if len(o.log) > o.logLimit {
		o.log = o.log[len(o.log)-o.logLimit:]
		o.logPruned = true
	}
}

// disseminate propagates newly applied updates to subscribed children per
// the strategy's propagation, initiative, instant, and coherence-transfer
// parameters. It accepts the whole release set at once so updates that
// became applicable together travel together.
func (o *Object) disseminate(ups []*coherence.Update) {
	if len(ups) == 0 || len(o.children) == 0 || o.strat.Initiative == strategy.Pull {
		return // pull children fetch on their own schedule
	}
	switch {
	case o.strat.Instant == strategy.Lazy:
		o.lazy = append(o.lazy, ups...)
		o.arm(o.lazyTimer, o.strat.LazyInterval)
	case o.relayDepth > 0:
		// A batch arrival is mid-fan-in: collect the released updates and
		// relay them as one frame when the whole batch has been processed.
		o.relay = append(o.relay, ups...)
	default:
		o.shipNow(ups)
	}
}

// beginRelayBatch opens a relay collection scope: released updates are
// buffered instead of shipped until the matching endRelayBatch.
func (o *Object) beginRelayBatch() { o.relayDepth++ }

// endRelayBatch closes the scope and ships everything collected as one
// coherence transfer (one KindUpdateBatch frame for operation shipping, one
// invalidation/notification/snapshot for the other transfer types).
func (o *Object) endRelayBatch() {
	o.relayDepth--
	if o.relayDepth > 0 {
		return
	}
	ups := o.relay
	o.relay = nil
	o.shipNow(ups)
}

// flushLazy ships everything aggregated since the last period.
func (o *Object) flushLazy() {
	if len(o.lazy) == 0 {
		return
	}
	ups := o.lazy
	o.lazy = nil
	o.stats.LazyFlushes++
	o.shipNow(ups)
}

// shipNow performs the actual coherence transfer to children.
func (o *Object) shipNow(ups []*coherence.Update) {
	tos := o.Children()
	if len(ups) == 0 || len(tos) == 0 {
		return
	}
	o.obsv.disseminated.Add(uint64(len(ups)))
	if o.traceOn() {
		o.emit("updates_shipped", "n="+strconv.Itoa(len(ups))+" children="+strconv.Itoa(len(tos)))
	}
	last := ups[len(ups)-1]
	switch {
	case o.strat.Propagation == strategy.PropagateInvalidate:
		inv := o.frame(msg.KindInvalidate, nil)
		inv.Pages = pagesOf(ups)
		inv.Write = last.Write
		inv.WallNanos = last.WallNanos
		o.multicast(tos, inv)
	case o.strat.CoherenceTransfer == strategy.CoherenceNotification:
		n := o.frame(msg.KindNotify, nil)
		n.Pages = pagesOf(ups)
		o.multicast(tos, n)
	case o.strat.CoherenceTransfer == strategy.CoherencePartial:
		// Operation shipping: a single update travels as its marshalled
		// write invocation; an aggregated flush ships all N updates in
		// one KindUpdateBatch frame, amortising the envelope.
		o.shipOps(ups, func(m *msg.Message) { o.multicast(tos, m) })
	case o.strat.CoherenceTransfer == strategy.CoherenceFull:
		// Aggregation pays off here: one snapshot replaces the whole
		// batch.
		snap, err := o.env.Snapshot()
		if err != nil {
			return
		}
		m := o.frame(msg.KindUpdate, nil)
		m.Payload = snap
		m.VVec = o.appliedVec()
		m.GlobalSeq = o.engine.Global()
		m.WallNanos = last.WallNanos
		o.multicast(tos, m)
	}
}

// pagesOf lists the distinct non-empty pages the updates touch.
func pagesOf(ups []*coherence.Update) []string {
	seen := make(map[string]bool, len(ups))
	out := make([]string, 0, len(ups))
	for _, u := range ups {
		if p := u.Inv.Page; p != "" && !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// updateMsg converts an update to its wire form (operation shipping).
func (o *Object) updateMsg(u *coherence.Update) *msg.Message {
	m := o.frame(msg.KindUpdate, nil)
	m.Write = u.Write
	m.GlobalSeq = u.GlobalSeq
	m.Stamp = u.Stamp
	m.Deps = msg.VecFrom(u.Deps)
	m.Inv = u.Inv
	m.WallNanos = u.WallNanos
	return m
}

// batchMsg packs N updates into one KindUpdateBatch frame.
func (o *Object) batchMsg(ups []*coherence.Update) *msg.Message {
	m := o.frame(msg.KindUpdateBatch, nil)
	m.Batch = make([]msg.BatchUpdate, len(ups))
	for i, u := range ups {
		m.Batch[i] = msg.BatchUpdate{
			Write:     u.Write,
			GlobalSeq: u.GlobalSeq,
			Stamp:     u.Stamp,
			Deps:      msg.VecFrom(u.Deps),
			Inv:       u.Inv,
			WallNanos: u.WallNanos,
		}
	}
	return m
}

// shipOps hands updates to deliver as wire frames: one KindUpdate for a
// single update, one KindUpdateBatch for several, split across frames when
// a flush exceeds the wire format's per-frame entry count (the codec would
// otherwise silently truncate the tail). Every batching decision (and its
// stats accounting) funnels through here.
func (o *Object) shipOps(ups []*coherence.Update, deliver func(*msg.Message)) {
	for len(ups) > 0 {
		chunk := ups
		if len(chunk) > msg.MaxBatch {
			chunk = chunk[:msg.MaxBatch]
		}
		ups = ups[len(chunk):]
		if len(chunk) == 1 {
			deliver(o.updateMsg(chunk[0]))
			continue
		}
		o.stats.BatchesSent++
		o.stats.BatchedUpdates += uint64(len(chunk))
		deliver(o.batchMsg(chunk))
	}
}

// sendUpdates ships updates to one destination, batching when more than one
// is pending (demand replay, gossip deltas).
func (o *Object) sendUpdates(to string, ups []*coherence.Update) {
	o.shipOps(ups, func(m *msg.Message) { o.send(to, m) })
}

// onUpdate handles a pushed or demanded coherence update. Full-state
// updates (Payload set) bypass the engine and merge the sender's vector;
// operation updates go through the ordering engine.
func (o *Object) onUpdate(m *msg.Message) {
	o.revalEpoch++
	if len(m.Payload) == 0 {
		o.submitOp(updateFromMsg(m))
		return
	}
	// Aggregated full-state update.
	if o.install("", &m.VVec, m.GlobalSeq, m.Payload) {
		o.relayDown(m)
	}
}

// onUpdateBatch fans an aggregated KindUpdateBatch frame into the ordering
// engine entry by entry, exactly as if each update had arrived in its own
// KindUpdate message — except for dissemination: everything the batch
// releases (including previously buffered updates it unblocks) is collected
// and relayed to this store's children as one batch frame, so batching is
// preserved hop by hop down the hierarchy.
func (o *Object) onUpdateBatch(m *msg.Message) {
	o.revalEpoch++
	o.beginRelayBatch()
	defer o.endRelayBatch()
	for i := range m.Batch {
		e := &m.Batch[i]
		o.submitOp(&coherence.Update{
			Write:     e.Write,
			GlobalSeq: e.GlobalSeq,
			Deps:      e.Deps.VC(),
			Stamp:     e.Stamp,
			Inv:       cloneInv(e.Inv),
			WallNanos: e.WallNanos,
		})
	}
}

// submitOp runs one operation update through the ordering engine and applies
// whatever it releases.
func (o *Object) submitOp(u *coherence.Update) {
	released := o.submitLogged(u)
	if len(released) == 0 && o.engine.Pending() > 0 {
		o.stats.UpdatesBuffered++
		// A gap was detected. Under object-outdate = demand the store
		// immediately requests the missing updates — this is how, per
		// §4.2, "reliability comes as a side-effect of the coherence
		// model" on unreliable transports. One demand per arrival: the
		// reply replays everything beyond our vector, so a batch that
		// buffers k entries must not ask k times. Each surplus demand is
		// answered with the same replay, whose already-applied entries
		// land here while the next reordering has something buffered and
		// ask again — k replies of k entries each, a storm that feeds on
		// the backlog it builds at the parent.
		if o.strat.ObjectOutdate == strategy.Demand && !o.demandOutstanding() {
			o.demandFromParent()
		}
	}
	for _, r := range released {
		if p := r.Inv.Page; p != "" {
			delete(o.invalid, p)
		}
	}
	o.applyReleased(released)
}

// onInvalidate handles an invalidation, or a notification — the same
// machinery, but the message promises no content at all: mark the pages
// stale, under object-outdate = demand refresh them immediately (otherwise
// the next access fetches), and relay the notice so lower layers learn of
// the change too.
func (o *Object) onInvalidate(m *msg.Message) {
	o.markInvalid(m.Pages)
	if o.strat.ObjectOutdate == strategy.Demand {
		o.refreshInvalid(m.Pages)
	}
	o.relayDown(m)
}

func (o *Object) markInvalid(pages []string) {
	if len(pages) == 0 {
		o.allInvalid = true
		o.stats.Invalidations++
		return
	}
	for _, p := range pages {
		// Page names arrive zero-copy decoded; the invalid set may hold
		// them past the frame's lifetime, so clone (see cloneInv).
		o.invalid[strings.Clone(p)] = true
		o.stats.Invalidations++
	}
}

// refreshInvalid fetches fresh state for invalidated pages right away.
func (o *Object) refreshInvalid(pages []string) {
	if len(pages) == 0 {
		o.fetch("")
	}
	for _, p := range pages {
		o.fetch(p)
	}
}

// --- demand / state transfer -------------------------------------------------

// demandFromParent asks the parent for every update beyond our applied
// vector, and arms the retry timer so a lost demand (or lost reply) on an
// otherwise quiet object re-requests after a bounded delay instead of
// stranding until the next arrival.
func (o *Object) demandFromParent() {
	if o.parent == "" {
		return
	}
	// Every direct call opens a fresh retry cycle; an exhausted earlier
	// cycle must not leave retries permanently disabled (retryDemand
	// restores its own count after this reset).
	o.demandRetries = 0
	o.stats.DemandsSent++
	o.obsv.demands.Inc()
	if o.traceOn() {
		o.emit("demand_sent", "to="+o.parent)
	}
	d := o.frame(msg.KindDemandUpdate, nil)
	d.VVec = o.appliedVec()
	o.send(o.parent, d)
	o.demandEpoch = o.revalEpoch
	if o.demandRetry > 0 {
		o.arm(o.demandRetryTimer, o.demandRetry)
	}
}

// maxDemandRetries bounds re-requests per unanswered-demand cycle, so a
// dead parent is not hammered forever (the cycle resets on any coherence
// response).
const maxDemandRetries = 16

// retryDemand re-sends the demand if no coherence response arrived since it
// was issued and something is still outstanding (buffered updates awaiting
// predecessors, or parked reads).
func (o *Object) retryDemand() {
	if o.revalEpoch != o.demandEpoch {
		o.demandRetries = 0 // the parent answered; cycle complete
		o.digestGapDemand = false
		return
	}
	// A digest-initiated demand chases a silent gap: nothing is buffered
	// and no read is parked, yet the demand (or its reply) may have been
	// lost — without the flag this check would end the cycle and recovery
	// would wait a whole extra heartbeat.
	if o.engine.Pending() == 0 && len(o.parked) == 0 && !o.digestGapDemand {
		o.demandRetries = 0 // nothing outstanding to chase
		return
	}
	if o.demandRetries >= maxDemandRetries {
		return
	}
	// demandFromParent starts a fresh cycle (resetting the counter), so
	// carry the retry count across the re-send explicitly.
	retries := o.demandRetries + 1
	o.demandFromParent()
	o.demandRetries = retries
}

// fetchesWhole reports whether fetching page means fetching the whole
// object: the access-transfer type says so, the request names no page, or a
// page-less notice outdated everything at once (no page reply lifts that).
func (o *Object) fetchesWhole(page string) bool {
	return o.strat.AccessTransfer == strategy.TransferFull || page == "" || o.allInvalid
}

// fetch requests state per the access-transfer type: one element
// (partial) or the full document.
func (o *Object) fetch(page string) {
	if o.parent == "" {
		return
	}
	full := o.fetchesWhole(page)
	if full {
		if o.fetching {
			return
		}
		o.fetching = true
	}
	o.stats.DemandsSent++
	o.obsv.demands.Inc()
	if o.traceOn() {
		o.emit("demand_sent", "to="+o.parent+" state_page="+page)
	}
	req := o.frame(msg.KindStateRequest, nil)
	if !full {
		req.Pages = []string{page}
	}
	o.send(o.parent, req)
}

// onDemand serves a child's demand-update: replay logged updates it lacks,
// or fall back to full state when the log genuinely cannot bring the
// requester up to date — because history was pruned, or because this
// store's own knowledge arrived by state transfer (seeded writes are never
// logged). Answering "nothing missing" in that situation would let the
// requester mark content it never received as covered.
func (o *Object) onDemand(m *msg.Message) {
	if !o.logCovers(&m.VVec) {
		o.serveState(m, nil)
		return
	}
	missing := o.missingFrom(&m.VVec)
	if len(missing) == 0 {
		// Nothing to send: answer anyway so pull-on-access revalidations
		// complete instead of timing out.
		ack := o.frame(msg.KindUpdateAck, nil)
		ack.VVec = o.appliedVec()
		o.send(m.From, ack)
		return
	}
	// Replay as one batch frame instead of one message per logged update.
	o.sendUpdates(m.From, missing)
}

// logCovers reports whether the retained log suffices to bring a requester
// with vector v up to date: for every client, the requester must already
// know everything older than the log's earliest retained write from that
// client.
func (o *Object) logCovers(v *msg.Vec) bool {
	minSeq := make(map[ids.ClientID]uint64, 4)
	for _, u := range o.log {
		if s, ok := minSeq[u.Write.Client]; !ok || u.Write.Seq < s {
			minSeq[u.Write.Client] = u.Write.Seq
		}
	}
	for c, applied := range o.applied() {
		need := applied // client absent from log: requester must know it all
		if s, ok := minSeq[c]; ok {
			need = s - 1
		}
		if v.Get(c) < need {
			return false
		}
	}
	return true
}

// serveState is the one place state leaves this replica for another: it
// answers req — a child's state request (one page, or the whole object), a
// subscribe (the bootstrap ack), or a demand the log cannot answer — and
// owns the rule for what may be handed out: never a page marked invalid,
// and nothing whole while any mark is set. The receiver installs what it
// gets and clears its own mark on it, so state served from behind a mark
// would leave a whole subtree one version stale with nothing to flag it.
// While a parent can supply fresh content the request parks behind this
// replica's own fetch (p is its entry from an earlier visit, nil on arrival):
// reconsiderParked answers it from what the fetch installs, expireParked
// drops it at ReadTimeout.
func (o *Object) serveState(req *msg.Message, p *parkedReq) {
	page := ""
	if req.Kind == msg.KindStateRequest && len(req.Pages) > 0 {
		page = req.Pages[0]
	}
	if o.invalidated(page) || (page == "" && o.parent != "" && len(o.invalid) > 0) {
		if p = o.park(req, p); !p.fetchTried {
			o.fetch(page)
			p.fetchTried = true
		}
		return
	}
	kind := msg.KindStateReply
	if req.Kind == msg.KindSubscribe {
		kind = msg.KindSubscribeAck
	}
	r := o.frame(kind, req)
	r.VVec = o.appliedVec()
	if page != "" {
		r.Pages = req.Pages[:1]
		data, err := o.env.SnapshotElement(page)
		if err != nil {
			r.Status = msg.StatusNotFound
			r.Err = err.Error()
		}
		r.Payload = data
	} else {
		snap, err := o.env.Snapshot()
		if err != nil {
			return
		}
		r.Payload = snap
		r.GlobalSeq = o.engine.Global()
	}
	o.send(req.From, r)
}

// onStateReply installs fetched state: one page's, or the whole object's.
func (o *Object) onStateReply(m *msg.Message) {
	o.revalEpoch++
	if len(m.Pages) == 0 {
		o.fetching = false
		o.install("", &m.VVec, m.GlobalSeq, m.Payload)
		return
	}
	// Cloned: the name is retained as a pageVec key and a semantics
	// element key, long past this frame (see cloneInv).
	page := strings.Clone(m.Pages[0])
	if m.Status == msg.StatusNotFound {
		// The parent lacks it too; fail parked reads for that page, and
		// tell children asking for it the same.
		o.failParkedPage(page, m.Err)
		delete(o.invalid, page)
		o.reconsiderParked()
		return
	}
	o.install(page, &m.VVec, m.GlobalSeq, m.Payload)
}

// install is the one place state from another replica replaces content here:
// one page's (a page state reply), or the whole object's when page is "" (a
// pushed snapshot, a full state reply, the subscribe ack). v is the sender's
// applied vector when it took the state, gseq its sequencer position. It
// reports whether the state was taken, and retries parked requests either
// way — a dropped transfer still proves the parent answered.
//
// Every transfer first passes the stale guard (staleSnapshot): demand and
// subscribe retries and link duplication put several transfers in flight,
// and a late one this replica already covers must not roll content back.
// reapplyBeyond cannot repair such a rollback — it replays only logged ops,
// and ops whose effects arrived inside an earlier transfer were never logged
// — so an unguarded overwrite leaves a mid-sequence gap readers can observe
// (an MW/PRAM violation) that no digest would ever flag. One exception: a
// page marked invalid is outdated by definition, and an invalidation advances
// no vector for the guard to compare, so its fetch is taken as it comes.
//
// What a taken transfer does to the invalid marks: a page transfer clears
// that page's mark; a whole-object transfer clears every mark, the page-less
// one included, whichever frame carried it — it replaces every page, so no
// mark describes the content held any longer. This presumes the snapshot is
// no older than the marks. serveState guarantees the sender was not itself
// handing out invalidated content, and on an ordered link a snapshot taken
// before a write arrives before that write's invalidation; a reordering link
// can deliver one late, and because the guard cannot see invalidations that
// snapshot passes it. The chaos matrix has no invalidation leg yet (ROADMAP
// 1(b)) to put a number on that window.
func (o *Object) install(page string, v *msg.Vec, gseq uint64, payload []byte) bool {
	defer o.reconsiderParked()
	if o.staleSnapshot(v, page) && !(page != "" && (o.invalid[page] || o.allInvalid)) {
		return false
	}
	if page != "" {
		if err := o.env.ApplyElement(page, payload); err != nil {
			return false
		}
		o.reapplyBeyond(v, page)
		delete(o.invalid, page)
		pv, ok := o.pageVec[page]
		if !ok {
			pv = ids.NewVersionVec(4)
			o.pageVec[page] = pv
		}
		v.MergeInto(pv)
		return true
	}
	// A bare subscribe ack (no payload) still seeds the vectors.
	if len(payload) > 0 {
		if err := o.env.ApplyFull(payload); err != nil {
			return false
		}
		o.fullFetches++
		o.reapplyBeyond(v, "")
	}
	clear(o.invalid)
	o.allInvalid = false
	// The snapshot already reflects every write in v: seed the ordering
	// engine so pushed op updates it covers are not re-applied.
	v.MergeInto(o.fetchVec)
	o.engine.Seed(v.Version(), gseq)
	o.markAppliedStale()
	return true
}

// staleSnapshot is install's guard, run before replacing content with a
// state transfer stamped v (of one page, or of the whole object when page is
// ""). Installing a late or reordered transfer rolls back whatever arrived
// since inside an earlier one: reapplyBeyond restores only logged ops, and a
// page's own vector goes on claiming the lost writes, so the ordered updates
// that would repair them are skipped as covered. A transfer is stale when
// this replica already knows every write in v — applied, fetched whole, or
// fetched for that page — and a whole-object transfer also when it predates
// any page fetched on its own. An empty v is a snapshot from before the first
// write: what a fresh replica bootstraps from when the parent was seeded with
// content, so it installs while the replica knows of no write to what it
// replaces, and is stale from then on.
func (o *Object) staleSnapshot(v *msg.Vec, page string) bool {
	if page == "" {
		for _, fetched := range o.pageVec {
			for c, s := range fetched {
				if v.Get(c) < s {
					return true
				}
			}
		}
	}
	pv := o.pageVec[page]
	if v.Len() == 0 {
		known := o.appliedVec()
		return known.Len() > 0 || len(pv) > 0
	}
	covered := true
	v.Each(func(c ids.ClientID, s uint64) bool {
		w := ids.WiD{Client: c, Seq: s}
		covered = o.covers(w) || pv.CoversWrite(w)
		return covered
	})
	return covered
}

// reapplyBeyond re-applies logged updates the snapshot vector does not
// cover (restricted to one page when page != ""). A state transfer installs
// the sender's content wholesale; when this replica had already applied
// ops the snapshot predates — a reply overtaken by later pushes, or a
// retried subscribe's stale ack — ApplyFull/ApplyElement would silently
// roll that content back while the engine keeps its newer applied state,
// and no digest would ever flag the loss. Replaying the log's tail on top
// of the snapshot reconstructs exactly snapshot ∪ newer-local-ops.
func (o *Object) reapplyBeyond(v *msg.Vec, page string) {
	for _, u := range o.log {
		if page != "" && u.Inv.Page != page {
			continue
		}
		if !v.CoversWrite(u.Write) {
			if err := o.env.ApplyOp(u); err != nil {
				o.stats.ReadsFailed++
			}
		}
	}
}

// --- subscription -------------------------------------------------------------

// onSubscribe registers a child store and bootstraps it with full state.
func (o *Object) onSubscribe(m *msg.Message) {
	// The child address is retained for the replica's lifetime; clone it so
	// a zero-copy decoded string does not pin its transport frame (tcpnet
	// handoff chunks, memnet wire buffers) for that long.
	if child := strings.Clone(m.From); !o.children[child] {
		o.children[child] = true
		// Durable stores log the children set: a restarted permanent store
		// anti-entropies the tail from exactly these addresses before
		// serving (see recover).
		o.walAppendChild(child, false)
	}
	o.serveState(m, nil)
	o.armDigest()
}

// onSubscribeAck completes the subscription handshake (stopping the re-send
// timer) and installs the bootstrap state received from the parent. Subscribe
// retries mean several acks can be in flight; install drops the stale ones.
func (o *Object) onSubscribeAck(m *msg.Message) {
	o.subAcked = true
	o.revalEpoch++
	if o.reparenting {
		o.reparenting = false
		o.stats.ReparentsDone++
		o.obsv.reparents.Inc()
		if o.traceOn() {
			o.emit("reparent_done", "parent="+m.From)
		}
	}
	o.armParentWatch()
	o.install("", &m.VVec, m.GlobalSeq, m.Payload)
}

// onUnsubscribe removes a departing child from the children set (the
// drop-replica control path); further dissemination skips it.
func (o *Object) onUnsubscribe(m *msg.Message) {
	if o.children[m.From] {
		delete(o.children, m.From)
		o.walAppendChild(m.From, true)
	}
}

// SubscribeToParent initiates the child->parent subscription and arms the
// pull poller when the strategy asks for one. The subscribe is retried on a
// bounded timer until the parent's bootstrap ack arrives (see sendSubscribe).
func (o *Object) SubscribeToParent() {
	if o.parent == "" {
		return
	}
	o.subWanted = true
	o.sendSubscribe()
	o.armParentWatch()
	o.armPoll()
}

// UnsubscribeFromParent tells the parent to stop pushing to this replica
// (runtime replica removal). It also cancels any subscribe retries.
func (o *Object) UnsubscribeFromParent() {
	if o.parent == "" || !o.subWanted {
		return
	}
	o.subWanted = false
	o.subTimer.stop()
	o.send(o.parent, o.frame(msg.KindUnsubscribe, nil))
}

// maxSubscribeRetries bounds one subscribe cycle, so a dead parent is not
// dialled forever. Exhausting the budget is no longer terminal: the replica
// re-parents to another live replica when the resolver offers one, or cools
// down and re-dials the same parent later (see reparent.go). A digest from
// the parent heard meanwhile also restarts the cycle immediately.
const maxSubscribeRetries = 32

// sendSubscribe transmits one subscribe frame and arms the retry timer: a
// subscribe (or its ack) lost on a lossy link must not strand the replica
// outside the children set, so the child re-sends every demandRetry until
// the bootstrap ack arrives. Duplicate subscribes are idempotent at the
// parent (children is a set; the extra bootstrap snapshot is absorbed like
// any full-state transfer).
func (o *Object) sendSubscribe() {
	o.stats.SubscribesSent++
	o.send(o.parent, o.frame(msg.KindSubscribe, nil))
	if o.subAcked || o.demandRetry <= 0 || o.subTimer.armed() {
		return
	}
	if o.subRetries >= maxSubscribeRetries {
		o.reparent(true)
		return
	}
	o.arm(o.subTimer, o.demandRetry)
}

// retrySubscribe is the subscribe timer's callback: re-send unless the ack
// arrived or the subscription was withdrawn meanwhile.
func (o *Object) retrySubscribe() {
	if o.subAcked || !o.subWanted {
		return
	}
	o.subRetries++
	o.sendSubscribe()
}

// armPoll schedules periodic demand pulls (TTL-style refresh) when the
// strategy asks for them.
func (o *Object) armPoll() {
	if o.strat.Initiative == strategy.Pull && o.strat.PullInterval > 0 && o.parent != "" {
		o.arm(o.pollTimer, o.strat.PullInterval)
	}
}

func (o *Object) poll() {
	o.demandFromParent()
	o.armPoll()
}
