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
	case msg.KindInvalidate:
		o.onInvalidate(m)
	case msg.KindNotify:
		o.onNotify(m)
	case msg.KindDemandUpdate:
		o.onDemand(m)
	case msg.KindStateRequest:
		o.onStateRequest(m)
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
		o.parkReval(m)
		return
	}
	if !o.requirementMet(m) {
		o.stats.ReqViolations++
		switch o.strat.ClientOutdate {
		case strategy.Demand:
			// §4: "the cache first demands an update from the Web server".
			o.demandFromParent()
		case strategy.Wait:
			// §4: the store "simply waits until a new write arrives".
		}
		o.park(m)
		return
	}
	o.serveOrFetch(m)
}

// requirementMet checks the read's session-guarantee requirement vector.
func (o *Object) requirementMet(m *msg.Message) bool {
	return o.coversVec(&m.VVec)
}

// serveOrFetch serves the read locally, fetching missing/invalidated state
// from the parent first when needed.
func (o *Object) serveOrFetch(m *msg.Message) {
	page := m.Inv.Page
	if o.allInvalid || (page != "" && o.invalid[page]) {
		if o.parent != "" {
			o.parkFetch(m, page)
			return
		}
	}
	payload, err := o.env.ServeRead(m.Inv)
	if err != nil {
		// A cold or partially warm replica misses elements it never
		// fetched; resolve through the parent per the access-transfer type.
		if errors.Is(err, semantics.ErrNoElement) && o.parent != "" {
			o.parkFetch(m, page)
			return
		}
		o.stats.ReadsFailed++
		o.replyErr(m, msg.StatusNotFound, err.Error())
		return
	}
	o.stats.ReadsServed++
	r := m.Reply(msg.KindReadReply)
	r.From = o.addr
	r.Store = o.self
	r.Payload = payload
	r.VVec = o.appliedVec()
	o.send(m.From, r)
}

// park queues a read until coherence or state arrives, with a deadline.
func (o *Object) park(m *msg.Message) {
	o.stats.ReadsParked++
	p := &parkedRead{m: m, deadline: o.env.Now().Add(o.readTimeout)}
	//globelint:ignore aliasretain parked read pins its frame by design: transports never reuse frames and expireParked bounds the hold to readTimeout
	o.parked = append(o.parked, p)
	o.env.AfterFunc(o.readTimeout, func() { o.expireParked() })
}

// parkFetch requests state for a read's page and parks the read, recording
// the fetch so a completed-but-still-missing full transfer fails the read
// instead of refetching forever.
func (o *Object) parkFetch(m *msg.Message, page string) {
	o.fetch(page)
	o.park(m)
	p := o.parked[len(o.parked)-1]
	p.fetchTried = true
	p.fetchedAt = o.fullFetches
}

// parkReval queues a read that must wait for one revalidation response.
func (o *Object) parkReval(m *msg.Message) {
	o.stats.ReadsParked++
	p := &parkedRead{
		m: m, deadline: o.env.Now().Add(o.readTimeout),
		needsReval: true, epoch: o.revalEpoch,
	}
	//globelint:ignore aliasretain parked read pins its frame by design: transports never reuse frames and expireParked bounds the hold to readTimeout
	o.parked = append(o.parked, p)
	o.env.AfterFunc(o.readTimeout, func() { o.expireParked() })
}

// expireParked fails reads whose deadline passed.
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
		o.stats.ReadsFailed++
		o.replyErr(p.m, msg.StatusRetry, "coherence requirement not satisfiable before timeout")
	}
	o.parked = rest
}

// reconsiderParked retries parked reads after local state changed.
func (o *Object) reconsiderParked() {
	if len(o.parked) == 0 {
		return
	}
	pending := o.parked
	o.parked = nil
	for _, p := range pending {
		if p.needsReval && p.epoch >= o.revalEpoch {
			o.parked = append(o.parked, p) // revalidation still in flight
			continue
		}
		if !o.requirementMet(p.m) {
			o.parked = append(o.parked, p)
			continue
		}
		page := p.m.Inv.Page
		if (o.allInvalid || (page != "" && o.invalid[page])) && o.parent != "" {
			o.parked = append(o.parked, p)
			continue
		}
		o.serveOrFetchParked(p)
	}
}

// serveOrFetchParked is serveOrFetch for an already parked read: on a state
// miss it re-parks without double-counting. If the miss persists after a
// full state transfer completed, the element does not exist at the parent
// either, so the read fails with not-found rather than livelocking in a
// fetch → state-reply → reconsider cycle.
func (o *Object) serveOrFetchParked(p *parkedRead) {
	payload, err := o.env.ServeRead(p.m.Inv)
	if err != nil {
		if errors.Is(err, semantics.ErrNoElement) && o.parent != "" {
			page := p.m.Inv.Page
			full := o.strat.AccessTransfer == strategy.TransferFull || page == ""
			if full && p.fetchTried && o.fullFetches > p.fetchedAt {
				o.stats.ReadsFailed++
				o.replyErr(p.m, msg.StatusNotFound, err.Error())
				return
			}
			o.fetch(page)
			p.fetchTried = true
			p.fetchedAt = o.fullFetches
			o.parked = append(o.parked, p)
			return
		}
		o.stats.ReadsFailed++
		o.replyErr(p.m, msg.StatusNotFound, err.Error())
		return
	}
	o.stats.ReadsServed++
	r := p.m.Reply(msg.KindReadReply)
	r.From = o.addr
	r.Store = o.self
	r.Payload = payload
	r.VVec = o.appliedVec()
	o.send(p.m.From, r)
}

// --- writes ----------------------------------------------------------------

// onWrite handles a client write request. Non-permanent stores forward
// writes up the hierarchy (the permanent stores own the object's coherence,
// §3.1); under the eventual model they additionally apply the write locally
// first, so a mirror serves its own writes immediately.
func (o *Object) onWrite(m *msg.Message) {
	if o.role != RolePermanent {
		if o.strat.Model == coherence.Eventual {
			freshAdmission := false
			if m.Stamp.Zero() {
				if o.replayedUnstamped(m) {
					// Already stamped here once; a second stamp would win
					// LWW and double-apply (see the permanent-store check).
					// The retry may exist because the ORIGINAL forward (or
					// the ack) was lost, so re-propagate the logged stamped
					// form upstream — re-forwarding the unstamped replay
					// instead would mint a second stamp at the parent and
					// double-apply on the way back down; an identical stamp
					// is deduplicated by LWW everywhere.
					if o.parent != "" {
						if u := o.loggedWrite(m.Write); u != nil {
							fwd := *m
							fwd.To = o.parent
							fwd.Stamp = u.Stamp
							fwd.Inv = u.Inv
							o.stats.WritesForwarded++
							o.obsv.forwarded.Inc()
							o.sendRaw(o.parent, &fwd)
						}
					}
					o.ackWrite(m)
					return
				}
				freshAdmission = true
				m.Stamp = vclock.Stamp{Time: o.lamport.Next(), Client: m.Write.Client}
				o.obsv.admitted.Inc()
				if o.traceOn() {
					o.emit("write_admitted", "wid="+m.Write.String())
				}
			} else {
				o.lamport.Witness(m.Stamp.Time)
			}
			u := updateFromMsg(m)
			o.applyReleased(o.submitLogged(u))
			if freshAdmission {
				o.walAppendAdmit(m.Write.Client, m.Write.Seq)
			}
			// Ack immediately: eventual coherence promises no more.
			o.ackWrite(m)
			// Continue propagation towards the permanent store.
			if o.parent != "" {
				fwd := *m
				fwd.To = o.parent
				o.stats.WritesForwarded++
				o.obsv.forwarded.Inc()
				o.sendRaw(o.parent, &fwd)
			}
			o.reconsiderParked()
			return
		}
		if o.parent == "" {
			o.replyErr(m, msg.StatusError, "store has no parent to order writes")
			return
		}
		fwd := *m // preserve the original From so the permanent store acks the client
		fwd.To = o.parent
		o.stats.WritesForwarded++
		o.obsv.forwarded.Inc()
		o.sendRaw(o.parent, &fwd)
		return
	}

	// Permanent store: enforce the write set.
	if o.strat.Writers == strategy.SingleWriter {
		if !o.hasWriter {
			o.hasWriter = true
			o.writer = m.Write.Client
		} else if o.writer != m.Write.Client {
			o.stats.WritesRejected++
			o.replyErr(m, msg.StatusForbidden, "write set is single; another client owns the object")
			return
		}
	}

	// At-most-once admission: a request frame duplicated by the link (the
	// UDP configuration) or retried after a lost ack must be re-acked, not
	// admitted again — under the sequential model a second pass would
	// assign the same WiD a fresh GlobalSeq and apply it twice, and under
	// the eventual model it would mint a fresh Lamport stamp that wins LWW
	// against itself. Client-originated requests are exactly the unstamped
	// ones (only eventual mirrors forward pre-stamped frames, whose
	// replays carry an identical stamp that LWW drops on its own), and the
	// watermark+holes record distinguishes a replay from a genuinely new
	// write that was merely overtaken in flight — the engines' own applied
	// vectors cannot, since the sequential, FIFO, and eventual ones all
	// jump per-client gaps.
	freshAdmission := false
	if m.Stamp.Zero() {
		if o.replayedUnstamped(m) {
			o.ackWrite(m)
			return
		}
		freshAdmission = true
		m.Stamp = vclock.Stamp{Time: o.lamport.Next(), Client: m.Write.Client}
		o.obsv.admitted.Inc()
		if o.traceOn() {
			o.emit("write_admitted", "wid="+m.Write.String())
		}
	} else {
		o.lamport.Witness(m.Stamp.Time)
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
	o.stats.WritesAccepted++
	released := o.submitLogged(u)
	if freshAdmission {
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
	// write — the (WiD, store) dependency of §4.2).
	o.ackWrite(m)
	o.reconsiderParked()
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
	r := m.Reply(msg.KindWriteReply)
	r.From = o.addr
	r.Store = o.self
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

// replayedUnstamped reports whether this store already minted a Lamport
// stamp for the given write, recording the admission otherwise. Only
// unstamped requests — which come directly from a client session — consult
// this: a sequence at or below the watermark that is not a recorded hole
// was stamped here before, so the frame is a link duplicate (or an
// ack-loss retry) that must not be stamped again; a recorded hole is a
// genuinely new write that was merely overtaken in flight. Forwarded
// store-to-store traffic is already stamped and never reaches this check.
// Fresh admissions are WAL-logged on durable replicas — by the CALLER,
// after the stamped update record — so the same distinction survives a
// restart (recovery replays both through admitSeq).
func (o *Object) replayedUnstamped(m *msg.Message) bool {
	return o.admitSeq(m.Write.Client, m.Write.Seq)
}

// admitSeq is the watermark/holes state machine behind replayedUnstamped,
// shared with WAL recovery (which must re-run admissions without re-logging
// them).
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

// staleSnapshot is the one guard every install path runs before replacing
// content with a state transfer stamped v (of one page, or of the whole
// object when page is ""). Retries, link duplication and jitter make late
// and reordered transfers routine, and installing one rolls back whatever
// arrived since inside an earlier transfer: reapplyBeyond restores only
// logged ops, and a page's own vector goes on claiming the lost writes, so
// the ordered updates that would repair them are skipped as covered. A
// transfer is stale when this replica already knows every write in v —
// applied, fetched whole, or fetched for that page — and a whole-object
// transfer also when it predates any page fetched on its own. An empty v is
// a snapshot from before the first write: what a fresh replica bootstraps
// from when the parent was seeded with content, so it installs while the
// replica knows of no write to what it replaces, and is stale from then on.
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

// --- dissemination ----------------------------------------------------------

// disseminate propagates newly applied updates to subscribed children per
// the strategy's propagation, initiative, instant, and coherence-transfer
// parameters. It accepts the whole release set at once so updates that
// became applicable together travel together.
func (o *Object) disseminate(ups []*coherence.Update) {
	if len(ups) == 0 || len(o.children) == 0 || o.strat.Initiative == strategy.Pull {
		return // pull children fetch on their own schedule
	}
	if o.strat.Instant == strategy.Lazy {
		o.lazyUpdates = append(o.lazyUpdates, ups...)
		for _, u := range ups {
			if u.Inv.Page != "" {
				o.lazyPages[u.Inv.Page] = true
			}
		}
		o.armLazy()
		return
	}
	if o.relayDepth > 0 {
		// A batch arrival is mid-fan-in: collect the released updates and
		// relay them as one frame when the whole batch has been processed.
		o.relayBuf = append(o.relayBuf, ups...)
		for _, u := range ups {
			if u.Inv.Page != "" {
				o.relayPages[u.Inv.Page] = true
			}
		}
		return
	}
	o.shipNow(ups, pageSet(ups))
}

// pageSet collects the distinct non-empty pages the updates touch.
func pageSet(ups []*coherence.Update) map[string]bool {
	pages := make(map[string]bool, len(ups))
	for _, u := range ups {
		if u.Inv.Page != "" {
			pages[u.Inv.Page] = true
		}
	}
	return pages
}

// beginRelayBatch opens a relay collection scope: released updates are
// buffered instead of shipped until the matching endRelayBatch.
func (o *Object) beginRelayBatch() {
	if o.relayDepth == 0 && o.relayPages == nil {
		o.relayPages = make(map[string]bool, 4)
	}
	o.relayDepth++
}

// endRelayBatch closes the scope and ships everything collected as one
// coherence transfer (one KindUpdateBatch frame for operation shipping, one
// invalidation/notification/snapshot for the other transfer types).
func (o *Object) endRelayBatch() {
	o.relayDepth--
	if o.relayDepth > 0 {
		return
	}
	ups := o.relayBuf
	pages := o.relayPages
	o.relayBuf = nil
	o.relayPages = nil
	if len(ups) == 0 {
		return
	}
	o.shipNow(ups, pages)
}

// armLazy schedules the aggregated flush.
func (o *Object) armLazy() {
	if o.lazyArmed {
		return
	}
	o.lazyArmed = true
	o.lazyTimer = o.env.AfterFunc(o.strat.LazyInterval, func() {
		o.lazyArmed = false
		o.flushLazy()
	})
}

// flushLazy ships everything aggregated since the last period.
func (o *Object) flushLazy() {
	if o.closed || len(o.lazyUpdates) == 0 && len(o.lazyPages) == 0 {
		return
	}
	ups := o.lazyUpdates
	pages := o.lazyPages
	o.lazyUpdates = nil
	o.lazyPages = make(map[string]bool)
	o.stats.LazyFlushes++
	o.shipNow(ups, pages)
}

// shipNow performs the actual coherence transfer to children.
func (o *Object) shipNow(ups []*coherence.Update, pages map[string]bool) {
	tos := o.Children()
	if len(tos) == 0 {
		return
	}
	o.obsv.disseminated.Add(uint64(len(ups)))
	if o.traceOn() {
		o.emit("updates_shipped", "n="+strconv.Itoa(len(ups))+" children="+strconv.Itoa(len(tos)))
	}
	switch o.strat.Propagation {
	case strategy.PropagateInvalidate:
		inv := &msg.Message{
			Kind:   msg.KindInvalidate,
			Object: o.object,
			From:   o.addr,
			Store:  o.self,
			Pages:  pageList(pages),
		}
		if n := len(ups); n > 0 {
			inv.Write = ups[n-1].Write
			inv.WallNanos = ups[n-1].WallNanos
		}
		o.multicast(tos, inv)
		return
	case strategy.PropagateUpdate:
		switch o.strat.CoherenceTransfer {
		case strategy.CoherenceNotification:
			n := &msg.Message{
				Kind:   msg.KindNotify,
				Object: o.object,
				From:   o.addr,
				Store:  o.self,
				Pages:  pageList(pages),
			}
			o.multicast(tos, n)
		case strategy.CoherencePartial:
			// Operation shipping: a single update travels as its marshalled
			// write invocation; an aggregated flush ships all N updates in
			// one KindUpdateBatch frame, amortising the envelope.
			o.shipOps(ups, func(m *msg.Message) { o.multicast(tos, m) })
		case strategy.CoherenceFull:
			// Aggregation pays off here: one snapshot replaces the whole
			// batch.
			snap, err := o.env.Snapshot()
			if err != nil {
				return
			}
			m := &msg.Message{
				Kind:      msg.KindUpdate,
				Object:    o.object,
				From:      o.addr,
				Store:     o.self,
				Payload:   snap,
				VVec:      o.appliedVec(),
				GlobalSeq: o.engine.Global(),
				WallNanos: ups[len(ups)-1].WallNanos,
			}
			o.multicast(tos, m)
		}
	}
}

// updateMsg converts an update to its wire form (operation shipping).
func (o *Object) updateMsg(u *coherence.Update) *msg.Message {
	return &msg.Message{
		Kind:      msg.KindUpdate,
		Object:    o.object,
		From:      o.addr,
		Store:     o.self,
		Write:     u.Write,
		GlobalSeq: u.GlobalSeq,
		Stamp:     u.Stamp,
		Deps:      msg.VecFrom(u.Deps),
		Inv:       u.Inv,
		WallNanos: u.WallNanos,
	}
}

// batchMsg packs N updates into one KindUpdateBatch frame.
func (o *Object) batchMsg(ups []*coherence.Update) *msg.Message {
	entries := make([]msg.BatchUpdate, len(ups))
	for i, u := range ups {
		entries[i] = msg.BatchUpdate{
			Write:     u.Write,
			GlobalSeq: u.GlobalSeq,
			Stamp:     u.Stamp,
			Deps:      msg.VecFrom(u.Deps),
			Inv:       u.Inv,
			WallNanos: u.WallNanos,
		}
	}
	return &msg.Message{
		Kind:   msg.KindUpdateBatch,
		Object: o.object,
		From:   o.addr,
		Store:  o.self,
		Batch:  entries,
	}
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

func pageList(pages map[string]bool) []string {
	out := make([]string, 0, len(pages))
	for p := range pages {
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

// --- update reception --------------------------------------------------------

// onUpdate handles a pushed or demanded coherence update. Full-state
// updates (Payload set) bypass the engine and merge the sender's vector;
// operation updates go through the ordering engine.
func (o *Object) onUpdate(m *msg.Message) {
	o.revalEpoch++
	if len(m.Payload) > 0 {
		// Aggregated full-state update.
		if o.staleSnapshot(&m.VVec, "") {
			return // stale or duplicate snapshot
		}
		if err := o.env.ApplyFull(m.Payload); err != nil {
			return
		}
		o.fullFetches++
		o.reapplyBeyond(&m.VVec, "")
		m.VVec.MergeInto(o.fetchVec)
		o.engine.Seed(m.VVec.Version(), m.GlobalSeq)
		o.markAppliedStale()
		o.invalid = make(map[string]bool)
		o.allInvalid = false
		o.relayFull(m)
		o.reconsiderParked()
		return
	}
	o.submitOp(updateFromMsg(m))
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

// relayFull forwards a full-state update down to this store's own children
// (multi-layer hierarchies, Figure 2).
func (o *Object) relayFull(m *msg.Message) {
	if len(o.children) == 0 || o.strat.Initiative == strategy.Pull {
		return
	}
	fwd := *m
	fwd.From = o.addr
	fwd.Store = o.self
	o.multicast(o.Children(), &fwd)
}

// onInvalidate marks pages stale; under object-outdate = demand it
// refreshes immediately, otherwise the next access fetches.
func (o *Object) onInvalidate(m *msg.Message) {
	o.markInvalid(m.Pages)
	if o.strat.ObjectOutdate == strategy.Demand {
		o.refreshInvalid(m.Pages)
	}
	// Relay to children so lower layers learn of the change too.
	if len(o.children) > 0 && o.strat.Initiative == strategy.Push {
		fwd := *m
		fwd.From = o.addr
		fwd.Store = o.self
		o.multicast(o.Children(), &fwd)
	}
}

// onNotify handles notification-only coherence transfer: same invalidation
// machinery, but the message promises no content at all.
func (o *Object) onNotify(m *msg.Message) {
	o.markInvalid(m.Pages)
	if o.strat.ObjectOutdate == strategy.Demand {
		o.refreshInvalid(m.Pages)
	}
	if len(o.children) > 0 && o.strat.Initiative == strategy.Push {
		fwd := *m
		fwd.From = o.addr
		fwd.Store = o.self
		o.multicast(o.Children(), &fwd)
	}
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
	if o.parent == "" {
		return
	}
	if len(pages) == 0 || o.strat.AccessTransfer == strategy.TransferFull {
		o.fetch("")
		return
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
	d := &msg.Message{
		Kind:   msg.KindDemandUpdate,
		Object: o.object,
		From:   o.addr,
		Store:  o.self,
		VVec:   o.appliedVec(),
	}
	o.send(o.parent, d)
	o.demandEpoch = o.revalEpoch
	o.armDemandRetry()
}

// maxDemandRetries bounds re-requests per unanswered-demand cycle, so a
// dead parent is not hammered forever (the cycle resets on any coherence
// response).
const maxDemandRetries = 16

// armDemandRetry schedules one retry check; it is a no-op when a check is
// already pending or retries are disabled.
func (o *Object) armDemandRetry() {
	if o.demandRetryArmed || o.closed || o.demandRetry <= 0 {
		return
	}
	o.demandRetryArmed = true
	o.demandRetryTimer = o.env.AfterFunc(o.demandRetry, func() {
		o.demandRetryArmed = false
		o.retryDemand()
	})
}

// retryDemand re-sends the demand if no coherence response arrived since it
// was issued and something is still outstanding (buffered updates awaiting
// predecessors, or parked reads).
func (o *Object) retryDemand() {
	if o.closed {
		return
	}
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

// fetch requests state per the access-transfer type: one element
// (partial) or the full document.
func (o *Object) fetch(page string) {
	if o.parent == "" {
		return
	}
	full := o.strat.AccessTransfer == strategy.TransferFull || page == ""
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
	req := &msg.Message{
		Kind:   msg.KindStateRequest,
		Object: o.object,
		From:   o.addr,
		Store:  o.self,
	}
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
		o.sendFullState(m.From, nil)
		return
	}
	missing := make([]*coherence.Update, 0, 8)
	for _, u := range o.log {
		if !m.VVec.CoversWrite(u.Write) {
			missing = append(missing, u)
		}
	}
	if len(missing) == 0 {
		// Nothing to send: answer anyway so pull-on-access revalidations
		// complete instead of timing out.
		ack := &msg.Message{
			Kind:   msg.KindUpdateAck,
			Object: o.object,
			From:   o.addr,
			Store:  o.self,
			VVec:   o.appliedVec(),
		}
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

// onStateRequest serves partial or full state.
func (o *Object) onStateRequest(m *msg.Message) {
	if len(m.Pages) == 0 {
		o.sendFullState(m.From, m)
		return
	}
	r := m.Reply(msg.KindStateReply)
	r.From = o.addr
	r.Store = o.self
	r.VVec = o.appliedVec()
	r.Pages = m.Pages[:1]
	data, err := o.env.SnapshotElement(m.Pages[0])
	if err != nil {
		r.Status = msg.StatusNotFound
		r.Err = err.Error()
	} else {
		r.Payload = data
	}
	o.send(m.From, r)
}

func (o *Object) sendFullState(to string, req *msg.Message) {
	snap, err := o.env.Snapshot()
	if err != nil {
		return
	}
	r := &msg.Message{
		Kind:      msg.KindStateReply,
		Object:    o.object,
		From:      o.addr,
		Store:     o.self,
		Payload:   snap,
		VVec:      o.appliedVec(),
		GlobalSeq: o.engine.Global(),
	}
	if req != nil {
		r.NetSeq = req.NetSeq
	}
	o.send(to, r)
}

// onStateReply installs fetched state. A partial (per-page) reply only
// advances that page's knowledge; a full snapshot seeds the ordering engine
// so pushed op updates the snapshot already reflects are not re-applied.
func (o *Object) onStateReply(m *msg.Message) {
	o.revalEpoch++
	if len(m.Pages) > 0 {
		// Cloned: the name is retained as a pageVec key and a semantics
		// element key, long past this frame (see cloneInv).
		page := strings.Clone(m.Pages[0])
		if m.Status == msg.StatusNotFound {
			// The parent lacks it too; fail parked reads for that page.
			o.failParkedPage(page, m.Err)
			delete(o.invalid, page)
			return
		}
		// Same stale-snapshot guard as the full branch below and
		// onSubscribeAck: demand retries and link-level duplication mean
		// several replies can be in flight, and a late one whose vector this
		// replica already covers must not roll the page back. reapplyBeyond
		// cannot fully repair such a rollback — it replays only ops that went
		// through the log, and ops whose effects arrived inside an earlier
		// full state transfer were never logged — so an unguarded overwrite
		// leaves the page with a mid-sequence gap readers can observe (an
		// MW/PRAM violation). An invalidated page is the exception: its local
		// content is outdated by definition, so the fetch is taken as-is.
		if o.staleSnapshot(&m.VVec, page) && !o.invalid[page] && !o.allInvalid {
			o.reconsiderParked()
			return
		}
		if err := o.env.ApplyElement(page, m.Payload); err != nil {
			return
		}
		// The fetched page is the parent's content at reply time; restore any
		// locally applied ops the reply predates (reordered replies, a reply
		// overtaken by pushes) — see reapplyBeyond.
		o.reapplyBeyond(&m.VVec, page)
		delete(o.invalid, page)
		pv, ok := o.pageVec[page]
		if !ok {
			pv = ids.NewVersionVec(4)
			o.pageVec[page] = pv
		}
		m.VVec.MergeInto(pv)
	} else {
		o.fetching = false
		// Same stale-snapshot guard as onSubscribeAck: a delayed reply whose
		// vector we already cover must not roll semantics content back.
		if o.staleSnapshot(&m.VVec, "") {
			o.reconsiderParked()
			return
		}
		if err := o.env.ApplyFull(m.Payload); err != nil {
			return
		}
		o.fullFetches++
		o.reapplyBeyond(&m.VVec, "")
		o.invalid = make(map[string]bool)
		o.allInvalid = false
		m.VVec.MergeInto(o.fetchVec)
		o.engine.Seed(m.VVec.Version(), m.GlobalSeq)
		o.markAppliedStale()
	}
	o.reconsiderParked()
}

// failParkedPage answers parked reads for one page with not-found.
func (o *Object) failParkedPage(page, errText string) {
	rest := o.parked[:0]
	for _, p := range o.parked {
		if p.m.Inv.Page == page {
			o.stats.ReadsFailed++
			o.replyErr(p.m, msg.StatusNotFound, errText)
			continue
		}
		rest = append(rest, p)
	}
	o.parked = rest
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
	snap, err := o.env.Snapshot()
	if err != nil {
		return
	}
	r := m.Reply(msg.KindSubscribeAck)
	r.From = o.addr
	r.Store = o.self
	r.Payload = snap
	r.VVec = o.appliedVec()
	r.GlobalSeq = o.engine.Global()
	o.send(m.From, r)
	o.armDigest()
}

// onSubscribeAck installs the bootstrap state received from the parent and
// completes the subscription handshake (stopping the re-send timer).
//
// Stale acks are discarded: subscribe retries mean several acks can be in
// flight, and a late one whose vector this replica already covers must not
// ApplyFull — replacing newer semantics content with an older snapshot
// while the engine keeps its newer applied state would silently lose the
// overwritten updates forever (no digest would ever flag the gap).
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
	if o.staleSnapshot(&m.VVec, "") {
		o.reconsiderParked()
		return
	}
	if len(m.Payload) > 0 {
		if err := o.env.ApplyFull(m.Payload); err != nil {
			return
		}
		o.fullFetches++
		o.reapplyBeyond(&m.VVec, "")
	}
	m.VVec.MergeInto(o.fetchVec)
	o.engine.Seed(m.VVec.Version(), m.GlobalSeq)
	o.markAppliedStale()
	o.reconsiderParked()
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
	if o.strat.Initiative == strategy.Pull && o.strat.PullInterval > 0 {
		o.armPoll()
	}
}

// UnsubscribeFromParent tells the parent to stop pushing to this replica
// (runtime replica removal). It also cancels any subscribe retries.
func (o *Object) UnsubscribeFromParent() {
	if o.parent == "" || !o.subWanted {
		return
	}
	o.subWanted = false
	if o.subTimer != nil {
		o.subTimer.Stop()
	}
	u := &msg.Message{
		Kind:   msg.KindUnsubscribe,
		Object: o.object,
		From:   o.addr,
		Store:  o.self,
	}
	o.send(o.parent, u)
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
	s := &msg.Message{
		Kind:   msg.KindSubscribe,
		Object: o.object,
		From:   o.addr,
		Store:  o.self,
	}
	o.send(o.parent, s)
	o.armSubscribeRetry()
}

// armSubscribeRetry schedules the next subscribe re-send check; a no-op
// when already armed, acked, disabled (demandRetry <= 0), or exhausted.
func (o *Object) armSubscribeRetry() {
	if o.subArmed || o.closed || o.subAcked || o.demandRetry <= 0 {
		return
	}
	if o.subRetries >= maxSubscribeRetries {
		o.reparent(true)
		return
	}
	o.subArmed = true
	o.subTimer = o.env.AfterFunc(o.demandRetry, func() {
		o.subArmed = false
		if o.closed || o.subAcked || !o.subWanted {
			return
		}
		o.subRetries++
		o.sendSubscribe()
	})
}

// armPoll schedules periodic demand pulls (TTL-style refresh).
func (o *Object) armPoll() {
	if o.pollArmed || o.closed {
		return
	}
	o.pollArmed = true
	o.pollTimer = o.env.AfterFunc(o.strat.PullInterval, func() {
		o.pollArmed = false
		if o.closed {
			return
		}
		o.demandFromParent()
		o.armPoll()
	})
}

// --- small helpers -------------------------------------------------------------

func (o *Object) send(to string, m *msg.Message) {
	m.Object = o.object
	if m.From == "" {
		m.From = o.addr
	}
	_ = o.env.Send(to, m)
}

// sendRaw sends without overriding From (used when forwarding client
// requests so replies go straight back to the client).
func (o *Object) sendRaw(to string, m *msg.Message) {
	m.Object = o.object
	_ = o.env.Send(to, m)
}

func (o *Object) multicast(tos []string, m *msg.Message) {
	m.Object = o.object
	_ = o.env.Multicast(tos, m)
}

func (o *Object) replyErr(m *msg.Message, st msg.Status, text string) {
	var r *msg.Message
	switch m.Kind {
	case msg.KindReadRequest:
		r = m.Reply(msg.KindReadReply)
	case msg.KindWriteRequest:
		r = m.Reply(msg.KindWriteReply)
	default:
		return
	}
	r.From = o.addr
	r.Store = o.self
	r.Status = st
	r.Err = text
	o.send(m.From, r)
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
	if o.lazyTimer != nil {
		o.lazyTimer.Stop()
	}
	o.lazyArmed = false
	o.flushLazy()
	if o.pollTimer != nil {
		o.pollTimer.Stop()
	}
	o.pollArmed = false
	o.strat = s
	if s.Initiative == strategy.Pull && s.PullInterval > 0 && o.parent != "" {
		o.armPoll()
	}
	return nil
}

// Strategy returns the currently active strategy.
func (o *Object) Strategy() strategy.Strategy { return o.strat }
