package replication

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"time"

	"repro/internal/coherence"
	"repro/internal/msg"
	"repro/internal/semantics"
	"repro/internal/strategy"
)

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
	o.sendDemand(o.parent)
	o.demandEpoch = o.revalEpoch
	if o.tune.DemandRetry > 0 {
		o.arm(o.demandRetryTimer, o.tune.DemandRetry)
	}
}

// sendDemand asks to — the parent, or after a restart a child that outlived
// it — for every update beyond this replica's applied vector.
func (o *Object) sendDemand(to string) {
	inc(&o.stats.DemandsSent)
	if o.traceOn() {
		o.emit("demand_sent", "to="+to)
	}
	d := o.frame(msg.KindDemandUpdate, nil)
	d.VVec = o.applied()
	o.send(to, &d)
}

// maxDemandRetries bounds re-requests per unanswered-demand cycle, so a
// dead parent is not hammered forever (the cycle resets on any coherence
// response).
const maxDemandRetries = 16

// retryDemand is the retry timer's callback. A read that waited for a write
// this replica forwarded (awaitingPush) gets its demand now if it is still
// unserved: other writers' pushes advance revalEpoch without bringing the one
// it waits for, so the epoch says nothing about that wait. Otherwise it
// re-sends the demand if no coherence response arrived since it was issued
// and something is still outstanding (buffered updates awaiting
// predecessors, or parked reads).
func (o *Object) retryDemand() {
	if o.awaitingPush {
		o.awaitingPush = false
		if o.readLacksWrite() {
			o.demandFromParent()
			return
		}
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

// readLacksWrite reports whether a parked read's requirement is still unmet.
func (o *Object) readLacksWrite() bool {
	return slices.ContainsFunc(o.parked, func(p *parkedReq) bool {
		return p.m.Kind == msg.KindReadRequest && !o.knows("", &p.m.VVec)
	})
}

// fetchesWhole reports whether fetching page means fetching the whole
// object: the access-transfer type says so, or the request names no page.
func (o *Object) fetchesWhole(page string) bool {
	return o.strat.AccessTransfer == strategy.TransferFull || page == ""
}

// fetch requests state per the access-transfer type: one element
// (partial) or the full document. One fetch per page ("" for the whole
// object) is in flight at a time, so an invalidation's fetch and a read that
// parks on the page ask once between them; require ends a page's fetch when
// it marks a newer write, which a fetch that left before cannot bring. A
// fetch still unanswered after DemandRetry (ReadTimeout when retries are off)
// is presumed lost: the fetch-retry timer, armed while fetches are wanted,
// has every request still parked ask again.
func (o *Object) fetch(page string) {
	if o.parent == "" {
		return
	}
	if o.fetchesWhole(page) {
		page = ""
	}
	if o.tune.DemandRetry > 0 {
		o.arm(o.fetchRetryTimer, o.tune.DemandRetry)
	}
	now := o.env.Now()
	sent := o.fetching[page]
	if sent == nil {
		// Page names arrive zero-copy decoded; the record outlives the
		// frame and is made once per page, so a later fetch allocates
		// nothing.
		sent = new(time.Time)
		o.fetching[strings.Clone(page)] = sent
	}
	lost := o.tune.DemandRetry
	if lost <= 0 {
		lost = o.tune.ReadTimeout
	}
	if !sent.IsZero() && now.Sub(*sent) < lost {
		return
	}
	*sent = now
	inc(&o.stats.DemandsSent)
	if o.traceOn() {
		o.emit("demand_sent", "to="+o.parent+" state_page="+page)
	}
	req := o.frame(msg.KindStateRequest, nil)
	if page != "" {
		o.names = append(o.names[:0], page)
		req.Pages = o.names
	}
	o.send(o.parent, &req)
}

// fetched ends page's fetch (the whole object's when fetch asks for it
// whole): its reply arrived, or it left before a write it cannot bring.
func (o *Object) fetched(page string) {
	if o.fetchesWhole(page) {
		page = ""
	}
	if sent := o.fetching[page]; sent != nil {
		*sent = time.Time{}
	}
}

// onDemand serves a child's demand-update: replay logged updates it lacks,
// or fall back to full state when the log genuinely cannot bring the
// requester up to date — because history was pruned, or because this
// store's own knowledge arrived by state transfer (seeded writes are never
// logged). Answering "nothing missing" in that situation would let the
// requester mark content it never received as covered.
func (o *Object) onDemand(m *msg.Message) {
	known := o.applied()
	if !o.log.covers(&m.VVec, &known) {
		o.serveState(m, nil)
		return
	}
	var few [8]*coherence.Update
	missing := o.log.since(&m.VVec, few[:0])
	if len(missing) == 0 {
		// Nothing to send: answer anyway so pull-on-access revalidations
		// complete instead of timing out.
		ack := o.frame(msg.KindUpdateAck, nil)
		ack.VVec = known
		o.answer(m, &ack)
		return
	}
	// Replay as one batch frame instead of one message per logged update.
	o.sendUpdates(m.From, missing)
}

// serveState is the one place state leaves this replica for another: it
// answers req — a child's state request (one page, or the whole object), a
// subscribe (the bootstrap ack), or a demand the log cannot answer. It hands
// out a page only while K(page) covers the page's invalid marks (current),
// and the whole object only while every page's does, so nothing it sends is
// older than a write it has been told of. A page reply carries K(page), the
// whole object applied(): the vector of what the receiver installs. While a
// parent can supply fresh content the request parks behind this replica's
// own fetch (p is its entry from an earlier visit, nil on arrival):
// reconsiderParked answers it from what the fetch installs, expireParked
// drops it at ReadTimeout.
func (o *Object) serveState(req *msg.Message, p *parkedReq) {
	page := ""
	if req.Kind == msg.KindStateRequest && len(req.Pages) > 0 {
		page = req.Pages[0]
	}
	if !o.current(page) || (page == "" && !o.currentWhole()) {
		o.park(req, p)
		o.fetch(page)
		return
	}
	kind := msg.KindStateReply
	if req.Kind == msg.KindSubscribe {
		kind = msg.KindSubscribeAck
	}
	r := o.frame(kind, req)
	r.WallNanos = o.newestWall
	// The clock that stamped every write the state holds: the receiver's
	// next write orders after all of it.
	r.Stamp.Time = o.lamport.Now()
	if page != "" {
		r.VVec = o.knowledge(page)
		r.Pages = req.Pages[:1]
		data, err := o.env.SnapshotElement(page)
		if err != nil {
			r.Status = msg.StatusNotFound
			r.Err = err.Error()
		}
		r.Payload = data
	} else {
		_, whole, err := o.wholeState(nil)
		if err != nil {
			return
		}
		r.Payload = whole
	}
	o.answer(req, &r)
}

// wholeState appends to dst the whole object as it leaves this replica, for
// another replica or for a WAL snapshot: the engine's state, with applied()
// as its vector, encoded ahead of the semantics snapshot. It returns the
// engine state too.
func (o *Object) wholeState(dst []byte) (*coherence.State, []byte, error) {
	snap, err := o.env.Snapshot()
	if err != nil {
		return nil, nil, err
	}
	st := o.engine.State()
	st.Applied = o.applied()
	return st, append(st.Append(dst), snap...), nil
}

// onStateReply installs fetched state: one page's, or the whole object's.
func (o *Object) onStateReply(m *msg.Message) {
	o.revalEpoch++
	o.lamport.Witness(m.Stamp.Time)
	if len(m.Pages) == 0 {
		o.fetched("")
		o.install("", m)
		return
	}
	// The name aliases the frame. It is copied only where a map first keeps
	// it (install's pageVec entry, the semantics object's page, fetch's
	// record), never assigned to a key that exists: that would make the key
	// alias the frame.
	page := m.Pages[0]
	if m.Status == msg.StatusNotFound {
		o.notFound(page, m)
	} else {
		o.install(page, m)
	}
	if o.current(page) {
		o.fetched(page)
		return
	}
	// Answered before the write a mark names (a late or duplicated reply).
	// The fetch that left after the mark brings it, and fetch asks again only
	// when none did or that one is presumed lost: a parent that keeps
	// answering short is asked once per DemandRetry, not at link speed.
	o.fetch(page)
}

// notFound takes a not-found reply for page: the parent held no such page as
// of m.VVec. It says nothing of a write it does not cover, so it is taken
// only when it covers the page's marks, and fails only the parked reads whose
// requirement it covers. Taken, it ends the page's mark and installs the
// absence as install installs a page: unless K(page) already covers m.VVec
// (staleSnapshot), a page held here is removed, logged writes beyond m.VVec
// are re-applied, and m.VVec joins what this replica knows of the page. The
// not-found it hands a child then covers the same writes, and the child takes
// it.
func (o *Object) notFound(page string, m *msg.Message) {
	if !m.VVec.Covers(o.invalid[page]) || !m.VVec.Covers(o.invalid[""]) {
		return
	}
	o.failParkedPage(page, m)
	delete(o.invalid, page)
	if !o.staleSnapshot(&m.VVec, page) && o.removeElement(page) {
		o.reapplyBeyond(&m.VVec, page)
		o.learnPage(page, &m.VVec)
	}
	o.reconsiderParked()
}

// install is the one place state from another replica replaces content here:
// one page's (a page state reply), or the whole object's when page is "" (a
// pushed snapshot, a full state reply, the subscribe ack). m carries it. A
// page's Payload is its element and m.VVec K(page) at the sender; a whole
// state's Payload is wholeState's encoding, whose engine state gives its
// vector, the sender's applied vector. It reports whether the state was
// taken, and retries parked requests either way — a dropped transfer still
// proves the parent answered. A taken state records one propagation-lag
// sample, the age of the newest write it carries (WallNanos), so a replica
// that catches up by transfer alone still reports its lag.
//
// A transfer is taken only if K(page) does not already cover v (the stale
// guard, staleSnapshot): demand and subscribe retries and link duplication
// put several transfers in flight, and a late one this replica already
// covers must not roll content back. reapplyBeyond cannot repair such a
// rollback — it replays only logged ops, and ops whose effects arrived inside
// an earlier transfer were never logged — so an unguarded overwrite leaves a
// mid-sequence gap readers can observe (an MW/PRAM violation) that no digest
// would ever flag. Installing v grows K(page), and that alone meets the
// invalid marks v covers: a transfer taken before a mark's write, however
// late it arrives, leaves the mark unmet. Under the eventual model a whole
// state that carries page stamps is merged instead (mergeState), which loses
// nothing on either side. One without them comes from a replica that orders
// by no stamp — the permanent store above an out-of-scope cache, which runs
// eventual ordering beneath an ordered model — and its content is taken
// whole, as any parent's is.
func (o *Object) install(page string, m *msg.Message) bool {
	defer o.reconsiderParked()
	if page != "" {
		v := &m.VVec
		if o.staleSnapshot(v, page) || o.env.ApplyElement(page, m.Payload) != nil {
			return false
		}
		o.reapplyBeyond(v, page)
		o.learnPage(page, v)
		o.installed(m.WallNanos)
		return true
	}
	st, content, err := coherence.SplitState(m.Payload)
	if err != nil || o.staleSnapshot(&st.Applied, "") {
		return false
	}
	if o.engine.Model() == coherence.Eventual && len(st.Stamps) > 0 {
		err = o.mergeState(st, content)
	} else if err = o.env.ApplyFull(content); err == nil {
		o.reapplyBeyond(&st.Applied, "")
	}
	if err != nil {
		return false
	}
	o.fullFetches++
	o.seed(st)
	o.installed(m.WallNanos)
	return true
}

// seed fast-forwards the engine and the sequencer to st, the engine state of
// content that arrived whole: an installed transfer or a recovered snapshot.
// Every write st covers counts as known here (fetchVec), so pushed updates it
// covers are not re-applied.
func (o *Object) seed(st *coherence.State) {
	o.engine.Seed(st)
	o.fetchVec.Merge(&st.Applied)
	o.nextGlobal = max(o.nextGlobal, st.Global)
	o.markAppliedStale()
}

// learnPage merges v, the vector of state taken for page, into pageVec[page].
func (o *Object) learnPage(page string, v *msg.Vec) {
	pv := o.pageVec[page]
	if pv == nil {
		pv = new(msg.Vec)
		o.pageVec[strings.Clone(page)] = pv
	}
	pv.Merge(v)
}

// installed records a taken state whose newest write originated at wall
// (UnixNano; zero when the sender held no stamped write).
func (o *Object) installed(wall int64) {
	if wall <= 0 {
		return
	}
	o.newestWall = max(o.newestWall, wall)
	if o.obsv.lag != nil {
		o.obsv.lag.Observe(o.env.Now().UnixNano() - wall)
	}
}

// elementRemover is implemented by an Env that can delete one element; the
// store's and the name server's do. Without it, removeElement removes
// nothing.
type elementRemover interface {
	RemoveElement(name string) error
}

// removeElement deletes page here, and reports whether this replica now holds
// no such page.
func (o *Object) removeElement(page string) bool {
	if rm, ok := o.env.(elementRemover); ok {
		return rm.RemoveElement(page) == nil
	}
	_, err := o.env.SnapshotElement(page)
	return errors.Is(err, semantics.ErrNoElement)
}

// mergeState installs an eventual object's whole state page by page under
// last-writer-wins, the rule its writes follow: a page whose winning write
// here is newer than the sender's, or that the sender never wrote, keeps this
// replica's content (or its deletion); every other page takes the sender's
// content. So a peer concurrent with the sender loses none of its own writes,
// even those its log no longer holds. Both stamp lists are in page order, so
// one pass pairs them; install then seeds the engine with the sender's
// stamps, which keeps the winners. Logged updates are not replayed: a page
// they wrote either keeps its content here or lost to a newer sender write.
func (o *Object) mergeState(theirs *coherence.State, content []byte) error {
	type own struct {
		page string
		data []byte
		gone bool
	}
	var keep []own
	t := theirs.Stamps
	for _, mine := range o.engine.State().Stamps {
		for len(t) > 0 && t[0].Page < mine.Page {
			t = t[1:]
		}
		if len(t) == 0 || t[0].Page != mine.Page || t[0].Stamp.Less(mine.Stamp) {
			// Cloned: the element is valid only until the next Env call.
			data, err := o.env.SnapshotElement(mine.Page)
			keep = append(keep, own{mine.Page, bytes.Clone(data), err != nil})
		}
	}
	if err := o.env.ApplyFull(content); err != nil {
		return err
	}
	for _, k := range keep {
		if k.gone {
			o.removeElement(k.page)
		} else {
			_ = o.env.ApplyElement(k.page, k.data)
		}
	}
	for _, p := range theirs.Stamps {
		o.lamport.Witness(p.Stamp.Time)
	}
	return nil
}

// staleSnapshot is install's guard, run before replacing content with a
// state transfer stamped v (of one page, or of the whole object when page is
// ""). Installing a late or reordered transfer rolls back whatever arrived
// since inside an earlier one: reapplyBeyond restores only logged ops, and a
// page's own vector goes on claiming the lost writes, so the ordered updates
// that would repair them are skipped as covered. A transfer is stale when
// K(page) already covers v, and a whole-object transfer also when it
// predates any page fetched on its own. An empty v is a snapshot from before
// the first write: what a fresh replica bootstraps from when the parent was
// seeded with content, so it installs while the replica knows of no write to
// what it replaces, and is stale from then on.
func (o *Object) staleSnapshot(v *msg.Vec, page string) bool {
	if page == "" {
		for _, fetched := range o.pageVec {
			if !v.Covers(fetched) {
				return true
			}
		}
	}
	if v.Len() == 0 {
		known := o.applied()
		return known.Len() > 0 || o.pageVec[page].Len() > 0
	}
	return o.knows(page, v)
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
	var few [8]*coherence.Update
	newer := o.log.since(v, few[:0])
	for _, u := range newer {
		if page == "" || u.Inv.Page == page {
			o.applyOp(u)
		}
	}
}
