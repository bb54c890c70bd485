package replication

import (
	"repro/internal/coherence"
	"repro/internal/msg"
	"repro/internal/strategy"
)

// Handle dispatches one incoming message for this object. Handle owns m from
// here on: it may answer in m's own struct (answer) or park it, and it
// releases m (msg.Message.Release) once done with it — at once, or when a
// parked request leaves the queue — so the caller must not read or reuse m
// afterwards.
func (o *Object) Handle(m *msg.Message) {
	o.held = false
	o.dispatch(m)
	if !o.held {
		m.Release()
	}
}

// dispatch routes m by kind. Unknown kinds are ignored (forward
// compatibility). The exempt list names the kinds a replication object never
// receives: client-side replies, bind traffic the store answers before
// replication sees it, and the name-service/control protocols that have
// their own servers.
//
//globelint:wiresym type=msg.Kind role=dispatch exempt=KindBindRequest,KindBindReply,KindReadReply,KindWriteReply,KindNameRegister,KindNameDeregister,KindNameResolve,KindNameLease,KindNameReply,KindCtrlRequest,KindCtrlReply
func (o *Object) dispatch(m *msg.Message) {
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
		o.fetchVec.Merge(&m.VVec)
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

// frame starts an outgoing message of kind k under this replica's header. With
// re set it is the reply to re: addressed to re's sender, carrying its
// correlation fields, status OK. It is a value: the caller fills it on the
// stack and hands it to send, multicast or answer, none of which keeps it.
func (o *Object) frame(k msg.Kind, re *msg.Message) msg.Message {
	m := msg.Message{Kind: k, Object: o.object, From: o.addr, Store: o.self}
	if re != nil {
		m.To, m.NetSeq, m.Client, m.Write, m.Status = re.From, re.NetSeq, re.Client, re.Write, msg.StatusOK
	}
	return m
}

// send and multicast hand m to the transport from o.out, the replica's one
// envelope: Env encodes the frame before returning and keeps nothing, so a
// frame built on the stack never moves to the heap, and the envelope and the
// page list scratch (names) are cleared again so they pin none of m's
// strings or slices between sends.
func (o *Object) send(to string, m *msg.Message) {
	//globelint:ignore aliasretain the envelope holds m only for the Env call below and is zeroed before send returns
	o.out = *m
	_ = o.env.Send(to, &o.out)
	o.clearOut()
}

func (o *Object) multicast(tos []string, m *msg.Message) {
	//globelint:ignore aliasretain the envelope holds m only for the Env call below and is zeroed before multicast returns
	o.out = *m
	_ = o.env.Multicast(tos, &o.out)
	o.clearOut()
}

func (o *Object) clearOut() {
	o.out = msg.Message{}
	clear(o.names)
	o.names = o.names[:0]
}

// answer sends reply r to the sender of req in req's own struct, which the
// handler owns (Handle): no reply is allocated and none shares the envelope.
// It must be the handler's last use of req, whose fields are r's from here on.
func (o *Object) answer(req, r *msg.Message) {
	to := req.From
	req.Overwrite(r)
	_ = o.env.Send(to, req)
}

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
	var r msg.Message
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
	o.answer(m, &r)
}
