package replication

import (
	"slices"

	"repro/internal/msg"
)

// Self-healing re-parenting: the replica tree of Figure 2 must survive the
// loss of an interior node. Two signals declare the configured parent dead —
// subscribe-retry exhaustion (the bootstrap handshake never completed) and
// reparentAfter consecutive digest periods with no parent traffic (the
// steady-state heartbeat went silent). Either way the child re-resolves the
// object through the injected ResolveParent seam, adopts a live replica on a
// strictly higher layer, and re-runs the ordinary subscribe handshake there;
// the bootstrap snapshot plus the digest/demand path then anti-entropy
// whatever the dead parent never relayed. The at-most-once admission layer
// and the recovery gate make the rejoin safe against duplicated or stale
// state, so re-parenting needs no protocol of its own.
//
// Cycle freedom is structural: a candidate is eligible only when its layer
// is strictly closer to the permanent root than the chooser's (and is not
// one of the chooser's own children), so parent edges always point up a
// strict ranking and no adoption sequence can close a loop.

// roleDepth ranks roles by distance from the permanent root: adoption is
// only allowed towards strictly smaller depths.
func roleDepth(r Role) int {
	switch r {
	case RolePermanent:
		return 0
	case RoleObjectInitiated:
		return 1
	default:
		return 2
	}
}

// noteParentTraffic records that the parent proved itself alive; any frame
// from it resets the missed-digest count.
func (o *Object) noteParentTraffic() {
	o.parentHeard = true
	o.parentSilent = 0
}

// armParentWatch schedules the parent liveness check. Each period spans one
// and a half digest intervals — enough to cover the parent's jitter (at most
// a quarter interval) with slack — so a healthy parent lands at least one
// digest per period.
func (o *Object) armParentWatch() {
	if o.tune.ReparentAfter > 0 && o.tune.DigestInterval > 0 && o.parent != "" {
		o.arm(o.parentWatchTimer, o.tune.DigestInterval*3/2)
	}
}

// watchParent is one liveness check: count a period with no parent traffic,
// and declare the parent dead after reparentAfter of them in a row.
func (o *Object) watchParent() {
	// Until the bootstrap ack lands the subscribe retry cycle owns
	// liveness: keep watching without counting.
	if o.subAcked && !o.parentHeard {
		o.parentSilent++
		inc(&o.stats.ParentMissedDigests)
		if o.parentSilent >= o.tune.ReparentAfter {
			o.parentSilent = 0
			o.reparent(false)
		}
	}
	o.parentHeard = false
	o.armParentWatch()
}

// reparent reacts to a dead parent. With a live alternative it adopts that
// replica; otherwise it re-runs the handshake against the current parent —
// immediately when the digest watch fired (the parent may have restarted and
// forgotten us), or after a cooldown when the subscribe retry budget to that
// very parent was just exhausted (exhausted=true), so a dead node is not
// dialled in a tight loop but "same parent, later" still recovers.
func (o *Object) reparent(exhausted bool) {
	if o.closed || o.parent == "" || o.reparentTimer.armed() {
		return
	}
	if next := o.pickParent(); next != "" {
		o.adoptParent(next)
		return
	}
	if !exhausted {
		o.adoptParent(o.parent)
		return
	}
	o.armReparentRetry()
}

// pickParent re-resolves the object and chooses the best eligible candidate:
// strictly closer to the root than this store, not itself, not one of its
// children, and not the presumed-dead current parent. Among those, the
// nearest layer wins ("lowest layer first", as client binding does), with
// the address as a deterministic tie-break.
func (o *Object) pickParent() string {
	if o.resolveParent == nil {
		return ""
	}
	self := roleDepth(o.role)
	best, bestDepth := "", -1
	for _, c := range o.resolveParent() {
		d := roleDepth(c.Role)
		if c.Addr == "" || c.Addr == o.addr || c.Addr == o.parent ||
			slices.Contains(o.children, c.Addr) || d >= self {
			continue
		}
		if d > bestDepth || (d == bestDepth && c.Addr < best) {
			best, bestDepth = c.Addr, d
		}
	}
	return best
}

// adoptParent switches the subscription to addr (possibly the current
// parent again) and restarts the bootstrap handshake from scratch. The
// engine and fetch knowledge are kept: the ack's stale-snapshot guard and
// the admission layer discard whatever the new bootstrap re-sends. A
// best-effort unsubscribe tells an old parent that turns out to be merely
// slow to stop pushing here.
func (o *Object) adoptParent(addr string) {
	if old := o.parent; old != "" && old != addr {
		u := o.frame(msg.KindUnsubscribe, nil)
		o.send(old, &u)
	}
	o.subTimer.stop()
	o.subAcked = false
	o.subRetries = 0
	o.subWanted = true
	o.parent = addr
	o.parentHeard = false
	o.parentSilent = 0
	o.reparenting = true
	o.sendSubscribe()
	o.armParentWatch()
}

// armReparentRetry schedules the same-parent-later attempt after a cooldown
// of half the subscribe retry budget, then re-resolves: a candidate that
// appeared meanwhile is adopted, otherwise the current parent is dialled
// again with a fresh retry budget.
func (o *Object) armReparentRetry() {
	if o.tune.DemandRetry > 0 {
		o.arm(o.reparentTimer, o.tune.DemandRetry*maxSubscribeRetries/2)
	}
}

func (o *Object) retryReparent() {
	if !o.subAcked && o.subWanted {
		o.reparent(false)
	}
}
