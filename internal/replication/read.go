package replication

import (
	"errors"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/semantics"
	"repro/internal/strategy"
)

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

// awaitsForwarded is the wait-or-demand decision for a read whose requirement
// req this replica does not cover: wait when the answer is already on its way
// down. That is so when the parent pushes every update the moment it applies
// it (a lazy push, a pull or an invalidation brings nothing by itself), this
// replica is subscribed to those pushes, and each write req still lacks went
// upstream through this replica — the parent acks the writer one hop away and
// pushes here in the same turn, so the writer's next read mostly beats its
// own update by a few microseconds. A requirement naming any other write (a
// client that rebound from another cache, a monotonic read ahead of this
// replica) says nothing about what is in flight, and demands; so does every
// read when DemandRetry is off, since a wait with no fallback would strand it
// behind a lost push.
func (o *Object) awaitsForwarded(req *msg.Vec) bool {
	if o.strat.Initiative != strategy.Push || o.strat.Instant != strategy.Immediate ||
		o.strat.Propagation == strategy.PropagateInvalidate || !o.subAcked ||
		o.tune.DemandRetry <= 0 {
		return false
	}
	ok := true
	req.Each(func(c ids.ClientID, s uint64) bool {
		ok = o.forwarded.Get(c) >= s || o.covers(ids.WiD{Client: c, Seq: s})
		return ok
	})
	return ok
}

// current reports whether this replica may serve or hand out page: K(page)
// covers the page's invalid mark and the page-less one. A store with no
// parent has nobody to refetch from: what it holds is the object.
func (o *Object) current(page string) bool {
	return o.parent == "" || (o.meets(page, page) && o.meets(page, ""))
}

// currentWhole reports whether the whole object may be handed out: every
// mark is met by its own page's knowledge (the page-less one by applied(),
// which every page's knowledge includes), and applied() covers what each page
// fetched on its own holds. A whole transfer carries applied() alone, so a
// page beyond it would reach the receiver as state it was not told of, and
// the replayed op would be applied to it a second time.
func (o *Object) currentWhole() bool {
	for page := range o.invalid {
		if !o.current(page) {
			return false
		}
	}
	for _, pv := range o.pageVec {
		if o.parent != "" && !o.knows("", pv) {
			return false
		}
	}
	return true
}

// meets reports whether K(page) covers the invalid mark kept under mark.
func (o *Object) meets(page, mark string) bool {
	r := o.invalid[mark]
	return r == nil || o.knows(page, r)
}

// serveRead answers read m from the local semantics object, or parks it: for
// coherence when its requirement vector is not covered, for state when the
// page is not current or missing here and a parent can supply it. p is m's
// parked entry when the read has waited before, nil on arrival. A miss that
// outlives a completed full state transfer means the parent lacks the element
// too, so the read fails with not-found rather than livelocking in a fetch →
// state-reply → reconsider cycle.
func (o *Object) serveRead(m *msg.Message, p *parkedReq) {
	if !o.knows("", &m.VVec) {
		if p == nil {
			inc(&o.stats.ReqViolations)
			// §4: under demand "the cache first demands an update from the
			// Web server"; under wait the store "simply waits until a new
			// write arrives" — as it does for writes it forwarded itself
			// when their updates are pushed at once, with the demand left
			// to retryDemand as the fallback for a lost forward or push.
			if o.strat.ClientOutdate == strategy.Demand {
				if o.awaitsForwarded(&m.VVec) {
					o.awaitingPush = true
					o.arm(o.demandRetryTimer, o.tune.DemandRetry)
				} else {
					o.demandFromParent()
				}
			}
		}
		o.park(m, p)
		return
	}
	page := m.Inv.Page
	current := o.current(page)
	if current {
		payload, err := o.env.ServeRead(m.Inv)
		if err == nil {
			inc(&o.stats.ReadsServed)
			r := o.frame(msg.KindReadReply, m)
			r.Payload = payload
			r.VVec = o.applied()
			o.answer(m, &r)
			return
		}
		// A cold or partially warm replica misses elements it never
		// fetched; resolve through the parent per the access-transfer type.
		// A page whose state was taken here — its absence included — and
		// whose knowledge covers the read is known to be absent: a fetch
		// would only bring the same not-found back.
		fetchedInVain := p != nil && p.fetchTried && o.fetchesWhole(page) && o.fullFetches > p.fetchedAt
		knownAbsent := o.pageVec[page] != nil && o.knows(page, &m.VVec)
		if !errors.Is(err, semantics.ErrNoElement) || o.parent == "" || fetchedInVain || knownAbsent {
			o.refuse(m, msg.StatusNotFound, err.Error())
			return
		}
	}
	p = o.park(m, p)
	// Every visit asks: fetch sends nothing while the page's fetch is in
	// flight, and asks again once it is answered or presumed lost.
	o.fetch(page)
	if !p.fetchTried {
		p.fetchTried, p.fetchedAt = true, o.fullFetches
	}
}

// park queues request m until coherence or state arrives, with a deadline on
// its first visit; p is its entry from an earlier visit, or nil. A parked
// request keeps its frame leased (Handle does not release it) until it
// leaves the queue for good: answered on a retry, refused, or expired.
func (o *Object) park(m *msg.Message, p *parkedReq) *parkedReq {
	if p == nil {
		if m.Kind == msg.KindReadRequest {
			inc(&o.stats.ReadsParked)
		}
		p = o.newParked()
		p.m, p.deadline = m, o.env.Now().Add(o.tune.ReadTimeout)
		o.env.AfterFunc(o.tune.ReadTimeout, func() { o.expireParked() })
		o.held = true
	}
	p.queued = true
	//globelint:ignore aliasretain a parked request holds its frame's lease, released only when it leaves the queue (reconsiderParked, refuseParked); expireParked bounds the hold to ReadTimeout
	o.parked = append(o.parked, p)
	return p
}

// newParked returns a zero queue entry, reused from a request that left the
// queue when there is one.
func (o *Object) newParked() *parkedReq {
	n := len(o.freeParked)
	if n == 0 {
		return new(parkedReq)
	}
	p := o.freeParked[n-1]
	o.freeParked = o.freeParked[:n-1]
	return p
}

// unpark ends parked request p for good: its lease ends, and its entry goes
// back for park to reuse.
func (o *Object) unpark(p *parkedReq) {
	p.m.Release()
	*p = parkedReq{}
	o.freeParked = append(o.freeParked, p)
}

// refuseParked refuses parked request p with st and unparks it.
func (o *Object) refuseParked(p *parkedReq, st msg.Status, text string) {
	o.refuse(p.m, st, text)
	o.unpark(p)
}

// expireParked refuses requests whose deadline passed.
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
		o.refuseParked(p, msg.StatusRetry, "coherence requirement not satisfiable before timeout")
	}
	o.parked = rest
}

// reconsiderParked retries parked requests after local state changed; each
// is answered and unparked, or parks again, into the spare array.
func (o *Object) reconsiderParked() {
	if len(o.parked) == 0 {
		return
	}
	pending := o.parked
	o.parked, o.spareParked = o.spareParked[:0], nil
	for _, p := range pending {
		p.queued = false
		switch {
		case p.needsReval && p.epoch >= o.revalEpoch:
			o.park(p.m, p) // revalidation still in flight
		case p.m.Kind == msg.KindReadRequest:
			o.serveRead(p.m, p)
		default:
			o.serveState(p.m, p)
		}
		if !p.queued {
			o.unpark(p)
		}
	}
	clear(pending)
	o.spareParked = pending[:0]
}

// failParkedPage answers parked reads for one page with not-found reply r's
// error, each only if r's vector covers what the read requires: a reply
// older than a write the reader has seen says nothing about that write, so
// the read stays parked for it.
func (o *Object) failParkedPage(page string, r *msg.Message) {
	rest := o.parked[:0]
	for _, p := range o.parked {
		if p.m.Inv.Page == page && r.VVec.Covers(&p.m.VVec) {
			o.refuseParked(p, msg.StatusNotFound, r.Err)
			continue
		}
		rest = append(rest, p)
	}
	o.parked = rest
}
