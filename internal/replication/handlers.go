package replication

import (
	"repro/internal/coherence"
	"repro/internal/msg"
	"repro/internal/strategy"
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
	case msg.KindGossip, msg.KindGossipReply:
		// Only the eventual model gossips; ordering models synchronise
		// through the store hierarchy.
		if o.strat.Model == coherence.Eventual {
			o.onGossip(m)
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
	o.multicast(o.children, &fwd)
}

// refuse answers a request this replica will not serve with an error status.
// Only client reads and writes have a reply that carries one; a child's held
// state request is dropped instead (its own retries and read deadlines bound
// the wait), since any state reply would be installed as content.
func (o *Object) refuse(m *msg.Message, st msg.Status, text string) {
	var r *msg.Message
	switch m.Kind {
	case msg.KindReadRequest:
		inc(&o.stats.ReadsFailed)
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
