package replication

import (
	"strconv"
	"strings"

	"repro/internal/coherence"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/strategy"
)

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
		o.apply(u, o.coveredByState(u))
		o.newestWall = max(o.newestWall, u.WallNanos)
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
	}
	o.disseminate(released)
	if len(released) > 0 {
		o.reconsiderParked()
	}
	o.maybeCompact()
}

// apply takes one update the engine released: into semantics unless state
// transfer (or a recovered snapshot) already brought its content, into the
// count, and into the log.
func (o *Object) apply(u *coherence.Update, covered bool) {
	if !covered {
		o.applyOp(u)
	}
	inc(&o.stats.UpdatesApplied)
	o.log.append(u)
}

// applyOp hands one ordered operation to the semantics object. One it
// rejects (malformed arguments, say) is applied as far as coherence goes:
// count it and carry on.
func (o *Object) applyOp(u *coherence.Update) {
	if err := o.env.ApplyOp(u); err != nil {
		inc(&o.stats.ApplyFailed)
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
	inc(&o.stats.LazyFlushes)
	o.shipNow(ups)
}

// shipNow performs the actual coherence transfer to children.
func (o *Object) shipNow(ups []*coherence.Update) {
	tos := o.children
	if len(ups) == 0 || len(tos) == 0 {
		return
	}
	add(&o.stats.UpdatesDisseminated, uint64(len(ups)))
	if o.traceOn() {
		o.emit("updates_shipped", "n="+strconv.Itoa(len(ups))+" children="+strconv.Itoa(len(tos)))
	}
	last := ups[len(ups)-1]
	switch {
	case o.strat.Propagation == strategy.PropagateInvalidate:
		inv := o.frame(msg.KindInvalidate, nil)
		inv.Pages = o.pagesOf(ups)
		inv.Write = last.Write
		inv.WallNanos = last.WallNanos
		o.multicast(tos, &inv)
	case o.strat.CoherenceTransfer == strategy.CoherenceNotification:
		n := o.frame(msg.KindNotify, nil)
		n.Pages = o.pagesOf(ups)
		n.Write = last.Write
		o.multicast(tos, &n)
	case o.strat.CoherenceTransfer == strategy.CoherencePartial:
		// Operation shipping: a single update travels as its marshalled
		// write invocation; an aggregated flush ships all N updates in
		// one KindUpdateBatch frame, amortising the envelope.
		o.shipOps(ups, tos)
	case o.strat.CoherenceTransfer == strategy.CoherenceFull:
		// Aggregation pays off here: one snapshot replaces the whole
		// batch.
		_, whole, err := o.wholeState(nil)
		if err != nil {
			return
		}
		m := o.frame(msg.KindUpdate, nil)
		m.Payload = whole
		m.WallNanos = last.WallNanos
		o.multicast(tos, &m)
	}
}

// pagesOf lists the distinct non-empty pages the updates touch, in the
// scratch list multicast clears.
func (o *Object) pagesOf(ups []*coherence.Update) []string {
	seen := make(map[string]bool, len(ups))
	out := o.names[:0]
	for _, u := range ups {
		if p := u.Inv.Page; p != "" && !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	o.names = out
	return out
}

// updateMsg converts an update to its wire form (operation shipping).
func (o *Object) updateMsg(u *coherence.Update) msg.Message {
	m := o.frame(msg.KindUpdate, nil)
	m.Write = u.Write
	m.GlobalSeq = u.GlobalSeq
	m.Stamp = u.Stamp
	m.Deps = u.Deps
	m.Inv = u.Inv
	m.WallNanos = u.WallNanos
	return m
}

// batchMsg packs N updates into one KindUpdateBatch frame.
func (o *Object) batchMsg(ups []*coherence.Update) msg.Message {
	m := o.frame(msg.KindUpdateBatch, nil)
	m.Batch = make([]msg.BatchUpdate, len(ups))
	for i, u := range ups {
		m.Batch[i] = msg.BatchUpdate{
			Write:     u.Write,
			GlobalSeq: u.GlobalSeq,
			Stamp:     u.Stamp,
			Deps:      u.Deps,
			Inv:       u.Inv,
			WallNanos: u.WallNanos,
		}
	}
	return m
}

// shipOps sends updates to tos as wire frames: one KindUpdate for a single
// update, one KindUpdateBatch for several, split across frames when a flush
// exceeds the wire format's per-frame entry count (the codec would otherwise
// silently truncate the tail). Every batching decision (and its stats
// accounting) funnels through here.
func (o *Object) shipOps(ups []*coherence.Update, tos []string) {
	for len(ups) > 0 {
		chunk := ups
		if len(chunk) > msg.MaxBatch {
			chunk = chunk[:msg.MaxBatch]
		}
		ups = ups[len(chunk):]
		var m msg.Message
		if len(chunk) == 1 {
			m = o.updateMsg(chunk[0])
		} else {
			inc(&o.stats.BatchesSent)
			add(&o.stats.BatchedUpdates, uint64(len(chunk)))
			m = o.batchMsg(chunk)
		}
		o.multicast(tos, &m)
	}
}

// sendUpdates ships updates to one destination, batching when more than one
// is pending (demand replay, gossip deltas).
func (o *Object) sendUpdates(to string, ups []*coherence.Update) {
	if len(ups) > 0 {
		o.shipOps(ups, []string{to})
	}
}

// onUpdate handles a pushed or demanded coherence update. Full-state
// updates (Payload set) bypass the engine and merge the sender's vector;
// operation updates go through the ordering engine.
func (o *Object) onUpdate(m *msg.Message) {
	o.revalEpoch++
	if len(m.Payload) == 0 {
		o.submitOp(o.updateFromMsg(m))
		return
	}
	// Aggregated full-state update.
	if o.install("", m) {
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
		o.submitOp(o.newUpdate(&m.Batch[i]))
	}
}

// submitOp runs one operation update through the ordering engine and applies
// whatever it releases. Its stamp is witnessed first, so a write admitted here
// afterwards orders after it under the eventual model's last-writer-wins: a
// mirror that overwrites or deletes a page it was sent must win.
func (o *Object) submitOp(u *coherence.Update) {
	o.lamport.Witness(u.Stamp.Time)
	released := o.submitLogged(u)
	if len(released) == 0 && o.engine.Pending() > 0 {
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
	o.applyReleased(released)
}

// onInvalidate handles an invalidation, or a notification — the same
// machinery, but the message promises no content at all: mark each page (or,
// for a page-less notice, every page) with the write it names, and relay the
// notice so lower layers learn of the change too. A page-less notice counts
// as one invalidation.
func (o *Object) onInvalidate(m *msg.Message) {
	add(&o.stats.Invalidations, uint64(max(len(m.Pages), 1)))
	if len(m.Pages) == 0 {
		o.require("", m.Write)
	}
	for _, p := range m.Pages {
		o.require(p, m.Write)
	}
	o.relayDown(m)
}

// require merges write w into page's invalid mark ("" marks every page), and
// under object-outdate = demand refetches the page at once unless K(page)
// already covers the mark (otherwise the next access fetches). A notice that
// names no write marks nothing. The mark is made once per page and reused by
// every later notice.
func (o *Object) require(page string, w ids.WiD) {
	if w.Zero() {
		return
	}
	r := o.invalid[page]
	if r == nil {
		// Page names arrive zero-copy decoded; the mark outlives the frame,
		// so clone (see cloneInv).
		r = new(msg.Vec)
		o.invalid[strings.Clone(page)] = r
	}
	if r.Get(w.Client) < w.Seq {
		r.Set(w.Client, w.Seq)
		// A fetch that left before this write cannot bring it.
		o.fetched(page)
	}
	if o.strat.ObjectOutdate == strategy.Demand && !o.current(page) {
		o.fetch(page)
	}
}
