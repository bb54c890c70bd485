package replication

import (
	"repro/internal/coherence"
	"repro/internal/msg"
)

// Anti-entropy gossip completes the eventual coherence model for
// object-initiated stores ("a typical example of an object-initiated store
// is a mirrored Web site", §3.1): sibling replicas exchange version-vector
// digests on the lazy interval and ship each other the updates the digest
// shows missing. Combined with the eventual engine's last-writer-wins rule
// this gives convergent, leaderless mirror synchronisation — no permanent
// store on the path.

// AddPeer registers a sibling replica for anti-entropy exchange and arms
// the gossip timer. Peers only make sense under the eventual model; other
// models order through the store hierarchy instead.
func (o *Object) AddPeer(addr string) {
	if o.strat.Model != coherence.Eventual || addr == o.addr {
		return
	}
	addSorted(&o.peers, addr)
	o.armGossip()
}

// RemovePeer deregisters a sibling replica from anti-entropy exchange.
func (o *Object) RemovePeer(addr string) {
	removeSorted(&o.peers, addr)
}

// armGossip schedules the next anti-entropy round. The lazy interval doubles
// as the gossip period (both express "how stale may replicas drift").
func (o *Object) armGossip() {
	if len(o.peers) == 0 {
		return
	}
	period := o.strat.LazyInterval
	if period <= 0 {
		period = o.strat.PullInterval
	}
	if period > 0 { // else no periodic behaviour configured; gossip on demand only
		o.arm(o.gossipTimer, period)
	}
}

func (o *Object) gossip() {
	o.gossipRound()
	o.armGossip()
}

// gossipRound sends this replica's digest to every peer, in address order.
func (o *Object) gossipRound() {
	for _, peer := range o.peers {
		g := o.frame(msg.KindGossip, nil)
		g.VVec = o.applied()
		o.send(peer, &g)
		inc(&o.stats.GossipRounds)
	}
}

// onGossip handles a peer's digest, or its reply to ours, the way onDemand
// handles a child's demand: ship what the peer lacks from the log, as one
// batch frame when several updates are due, or the whole object when the log
// cannot bring the peer up to date (history pruned, or knowledge that came by
// state transfer and was never logged). That state carries its page stamps,
// so a peer holding writes we lack merges it (mergeState) and keeps them. A
// digest is answered with our own only when the peer knows a write we lack,
// so converged peers exchange one frame per round; the reply lets the peer
// ship us what it has.
func (o *Object) onGossip(m *msg.Message) {
	known := o.applied()
	if m.Kind == msg.KindGossip && !known.Covers(&m.VVec) {
		r := o.frame(msg.KindGossipReply, m)
		r.VVec = known
		o.send(m.From, &r)
	}
	if !o.log.covers(&m.VVec, &known) {
		o.serveState(m, nil)
		return
	}
	var few [8]*coherence.Update
	o.sendUpdates(m.From, o.log.since(&m.VVec, few[:0]))
}
