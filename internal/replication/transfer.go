package replication

import (
	"slices"
	"strings"

	"repro/internal/coherence"
	"repro/internal/msg"
	"repro/internal/strategy"
	"repro/internal/vclock"
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
	inc(&o.stats.DemandsSent)
	if o.traceOn() {
		o.emit("demand_sent", "to="+o.parent+" state_page="+page)
	}
	req := o.frame(msg.KindStateRequest, nil)
	if !full {
		o.names = append(o.names[:0], page)
		req.Pages = o.names
	}
	o.send(o.parent, &req)
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
	r.VVec = o.knowledge(page)
	// The clock that stamped every write the state holds: the receiver's
	// next write orders after all of it.
	r.Stamp.Time = o.lamport.Now()
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
		r.Batch = o.pageStamps()
	}
	o.answer(req, &r)
}

// pageStamps lists every page's winning stamp for a whole state to carry,
// when the engine orders pages by stamp (the eventual model), as one entry
// per page with only Inv.Page and Stamp set. An object with more pages than a
// frame can list sends none, and its receivers replace rather than merge.
func (o *Object) pageStamps() []msg.BatchUpdate {
	ps, ok := o.engine.(coherence.PageStamps)
	if !ok {
		return nil
	}
	var out []msg.BatchUpdate
	ps.EachStamp(func(page string, s vclock.Stamp) {
		out = append(out, msg.BatchUpdate{Stamp: s, Inv: msg.Invocation{Page: page}})
	})
	if len(out) > msg.MaxBatch {
		return nil
	}
	return out
}

// onStateReply installs fetched state: one page's, or the whole object's.
func (o *Object) onStateReply(m *msg.Message) {
	o.revalEpoch++
	o.lamport.Witness(m.Stamp.Time)
	if len(m.Pages) == 0 {
		o.fetching = false
		o.install("", m)
		return
	}
	// The name aliases the frame. It is copied only where a map first keeps
	// it (install's pageVec entry, the semantics object's page), never
	// assigned to a key that exists: that would make the key alias the
	// frame.
	page := m.Pages[0]
	if m.Status == msg.StatusNotFound {
		// The parent lacks it too; fail parked reads for that page, and
		// tell children asking for it the same.
		o.failParkedPage(page, m.Err)
		delete(o.invalid, page)
		o.reconsiderParked()
		return
	}
	o.install(page, m)
	if !o.current(page) {
		// Taken before the write the page's mark names: ask again.
		o.fetch(page)
	}
}

// install is the one place state from another replica replaces content here:
// one page's (a page state reply), or the whole object's when page is "" (a
// pushed snapshot, a full state reply, the subscribe ack). m carries it: its
// VVec is the vector of what the sender held — K(page) for a page, its
// applied vector for the whole object — its GlobalSeq the sender's sequencer
// position, its Payload the state, and for a whole state under the eventual
// model its Batch the sender's page stamps (pageStamps). It reports whether
// the state was taken, and retries parked requests either way — a dropped
// transfer still proves the parent answered.
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
// late it arrives, leaves the mark unmet. A whole state that carries page
// stamps is merged instead (mergeState), which loses nothing on either side.
func (o *Object) install(page string, m *msg.Message) bool {
	defer o.reconsiderParked()
	v, payload := &m.VVec, m.Payload
	if o.staleSnapshot(v, page) {
		return false
	}
	if page != "" {
		if err := o.env.ApplyElement(page, payload); err != nil {
			return false
		}
		o.reapplyBeyond(v, page)
		pv := o.pageVec[page]
		if pv == nil {
			pv = new(msg.Vec)
			o.pageVec[strings.Clone(page)] = pv
		}
		pv.Merge(v)
		return true
	}
	// A bare subscribe ack (no payload) still seeds the vectors.
	if len(payload) > 0 {
		ps, stamped := o.engine.(coherence.PageStamps)
		if stamped && len(m.Batch) > 0 {
			if err := o.mergeState(ps, payload, m.Batch); err != nil {
				return false
			}
		} else {
			if err := o.env.ApplyFull(payload); err != nil {
				return false
			}
			o.reapplyBeyond(v, "")
		}
		o.fullFetches++
	}
	// The snapshot already reflects every write in v: seed the ordering
	// engine so pushed op updates it covers are not re-applied.
	o.fetchVec.Merge(v)
	o.engine.Seed(v, m.GlobalSeq)
	o.markAppliedStale()
	return true
}

// elementRemover is implemented by an Env that can delete one element.
// mergeState restores through it a deletion that beats the sender's content;
// under an Env without it such a page keeps the sender's content.
type elementRemover interface {
	RemoveElement(name string) error
}

// mergeState installs an eventual object's whole state page by page under
// last-writer-wins, the rule its writes follow: a page whose winning write
// here is newer than the sender's, or that the sender never wrote, keeps this
// replica's content (or its deletion); every other page takes the sender's.
// So a peer concurrent with the sender loses none of its own writes, even
// those its log no longer holds. stamps are the sender's (pageStamps); the
// engine adopts those that win. Logged updates are not replayed: a page they
// wrote either keeps its content here or lost to a newer sender write.
func (o *Object) mergeState(ps coherence.PageStamps, payload []byte, stamps []msg.BatchUpdate) error {
	theirs := make(map[string]vclock.Stamp, len(stamps))
	for i := range stamps {
		theirs[stamps[i].Inv.Page] = stamps[i].Stamp
	}
	type own struct {
		page string
		data []byte
		gone bool
	}
	var keep []own
	ps.EachStamp(func(page string, mine vclock.Stamp) {
		if t, ok := theirs[page]; !ok || t.Less(mine) {
			data, err := o.env.SnapshotElement(page)
			keep = append(keep, own{page, data, err != nil})
		}
	})
	if err := o.env.ApplyFull(payload); err != nil {
		return err
	}
	rm, _ := o.env.(elementRemover)
	for _, k := range keep {
		switch {
		case !k.gone:
			_ = o.env.ApplyElement(k.page, k.data)
		case rm != nil:
			_ = rm.RemoveElement(k.page)
		}
	}
	for i := range stamps {
		// Cloned: the name outlives the frame as an engine key (cloneInv).
		ps.MergeStamp(strings.Clone(stamps[i].Inv.Page), stamps[i].Stamp)
		o.lamport.Witness(stamps[i].Stamp.Time)
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
