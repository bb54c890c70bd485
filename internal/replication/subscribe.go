package replication

import (
	"strings"

	"repro/internal/msg"
	"repro/internal/strategy"
)

// onSubscribe registers a child store and bootstraps it with full state.
func (o *Object) onSubscribe(m *msg.Message) {
	// The child address is retained for the replica's lifetime; clone it so
	// a zero-copy decoded string does not pin its transport frame (tcpnet
	// handoff chunks, memnet wire buffers) for that long.
	if child := strings.Clone(m.From); o.addChild(child) {
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
	o.lamport.Witness(m.Stamp.Time)
	if o.reparenting {
		o.reparenting = false
		inc(&o.stats.ReparentsDone)
		if o.traceOn() {
			o.emit("reparent_done", "parent="+m.From)
		}
	}
	o.armParentWatch()
	o.install("", m)
}

// onUnsubscribe removes a departing child from the children set (the
// drop-replica control path); further dissemination skips it.
func (o *Object) onUnsubscribe(m *msg.Message) {
	if o.removeChild(m.From) {
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
	u := o.frame(msg.KindUnsubscribe, nil)
	o.send(o.parent, &u)
}

// maxSubscribeRetries bounds one subscribe cycle, so a dead parent is not
// dialled forever. Exhausting the budget is no longer terminal: the replica
// re-parents to another live replica when the resolver offers one, or cools
// down and re-dials the same parent later (see reparent.go). A digest from
// the parent heard meanwhile also restarts the cycle immediately.
const maxSubscribeRetries = 32

// sendSubscribe transmits one subscribe frame and arms the retry timer: a
// subscribe (or its ack) lost on a lossy link must not strand the replica
// outside the children set, so the child re-sends every DemandRetry until
// the bootstrap ack arrives. Duplicate subscribes are idempotent at the
// parent (children is a set; the extra bootstrap snapshot is absorbed like
// any full-state transfer).
func (o *Object) sendSubscribe() {
	inc(&o.stats.SubscribesSent)
	sub := o.frame(msg.KindSubscribe, nil)
	o.send(o.parent, &sub)
	if o.subAcked || o.tune.DemandRetry <= 0 || o.subTimer.armed() {
		return
	}
	if o.subRetries >= maxSubscribeRetries {
		o.reparent(true)
		return
	}
	o.arm(o.subTimer, o.tune.DemandRetry)
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
