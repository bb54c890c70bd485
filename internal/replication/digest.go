package replication

import (
	"time"

	"repro/internal/msg"
)

// Digest heartbeats are the framework-level answer to the UDP configuration
// of §4.2: "reliability comes as a side-effect of the coherence model" only
// works when a later arrival exposes the gap, so a silently dropped frame on
// an otherwise quiet object — tail loss, or every push swallowed by a
// partition — would strand a replica until unrelated traffic happens to
// arrive. With heartbeats enabled, every store periodically multicasts its
// children a compact applied-vector digest (one KindDigest frame per hosted
// object); a child whose applied vector does not cover the digest detects
// the gap immediately and requests the missing updates through the existing
// demand path. A healed partition or lost flush therefore converges within
// one heartbeat period instead of waiting for foreground traffic.
//
// The digest-triggered demand reuses demandFromParent, including its bounded
// retry timer; a heartbeat arriving while a demand is already outstanding is
// ignored, so timers and heartbeats never duplicate requests for the same
// gap.

// armDigest schedules the next heartbeat. It is a no-op while a heartbeat is
// already pending, when heartbeats are disabled, or while the store has no
// subscribed children to tell.
func (o *Object) armDigest() {
	if o.tune.DigestInterval > 0 && len(o.children) > 0 && !o.digestTimer.armed() {
		o.arm(o.digestTimer, o.digestPeriod())
	}
}

func (o *Object) digest() {
	o.digestRound()
	o.armDigest()
}

// digestPeriod is the configured interval plus a deterministic jitter in
// [0, interval/4), so a fleet of stores sharing one configured interval does
// not heartbeat in lockstep (and a child is never more than 1.25 intervals
// behind its parent's next digest).
func (o *Object) digestPeriod() time.Duration {
	d := o.tune.DigestInterval
	if quarter := int64(d / 4); quarter > 0 {
		d += time.Duration(o.digestRNG.Int63n(quarter))
	}
	return d
}

// digestRound multicasts this store's applied-vector digest to its children:
// the vector is all that gap detection uses.
func (o *Object) digestRound() {
	tos := o.children
	if len(tos) == 0 {
		return
	}
	m := o.frame(msg.KindDigest, nil)
	m.VVec = o.applied()
	o.multicast(tos, &m)
	add(&o.stats.DigestsSent, uint64(len(tos)))
}

// onDigest handles a heartbeat at a child: when the parent's digest covers
// writes this replica has not applied, the gap is real (those updates were
// lost or cut off by a partition) and the child demands them. Digests from
// anyone but the configured parent are ignored — the demand path runs up
// the hierarchy only.
func (o *Object) onDigest(m *msg.Message) {
	inc(&o.stats.DigestsRecv)
	if o.parent == "" || m.From != o.parent {
		return
	}
	// Hearing a digest proves the parent has us in its children set; if the
	// bootstrap ack never arrived (lost on the wire, or the retry budget ran
	// out), re-subscribe now — the fresh ack re-seeds the engine and restores
	// a replica the send-once protocol would have stranded half-initialised.
	if o.subWanted && !o.subAcked && !o.subTimer.armed() {
		o.subRetries = 0
		o.sendSubscribe()
	}
	// Gap detection tests each entry against the engine and fetch vectors
	// directly (knows): the common case — a converged child answering
	// "nothing missing" every interval — must not re-materialise the
	// applied vector per heartbeat.
	//
	// Precision matches the vector representation: under the contiguous
	// models (sequential, PRAM, causal) a covered component proves every
	// earlier write arrived, so detection is exact. The eventual and FIFO
	// engines deliberately jump gaps (newest-write-wins vectors), so a
	// digest cannot name a superseded or per-page hole there — those
	// deployments pair the eventual model with full coherence transfer
	// (snapshots repair content wholesale, as the mirror preset does) or
	// gossip. See ROADMAP.
	if o.knows("", &m.VVec) {
		return // nothing missing; stay quiet
	}
	if o.demandOutstanding() {
		return // the demand-retry timer owns re-requests for this gap
	}
	inc(&o.stats.DigestDemands)
	if o.traceOn() {
		o.emit("digest_gap", "parent digest advertised writes this replica is missing")
	}
	// Mark the cycle as digest-initiated: a silent-tail-loss gap has no
	// buffered updates and no parked reads, so without the flag retryDemand
	// would see "nothing outstanding" and drop a lost demand (or lost
	// reply) on the floor until the next heartbeat.
	o.digestGapDemand = true
	o.demandFromParent()
}

// demandOutstanding reports whether a previously issued demand is still
// unanswered: its retry timer is armed (by that demand, not by a read waiting
// for a push) and no coherence response has arrived since it was sent.
func (o *Object) demandOutstanding() bool {
	return o.demandRetryTimer.armed() && !o.awaitingPush && o.revalEpoch == o.demandEpoch
}
