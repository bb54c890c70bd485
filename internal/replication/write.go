package replication

import (
	"strconv"
	"strings"

	"repro/internal/coherence"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/strategy"
	"repro/internal/vclock"
)

// onWrite handles a client write request. Non-permanent stores forward
// writes up the hierarchy (the permanent stores own the object's coherence,
// §3.1); under the eventual model they additionally apply the write locally
// first, so a mirror serves its own writes immediately.
func (o *Object) onWrite(m *msg.Message) {
	if o.role != RolePermanent && o.strat.Model != coherence.Eventual {
		if o.parent == "" {
			o.refuse(m, msg.StatusError, "store has no parent to order writes")
			return
		}
		o.forward(m)
		return
	}
	// Permanent store: enforce the write set.
	if o.role == RolePermanent && o.strat.Writers == strategy.SingleWriter {
		if !o.hasWriter {
			o.hasWriter = true
			o.writer = m.Write.Client
		} else if o.writer != m.Write.Client {
			inc(&o.stats.WritesRejected)
			o.refuse(m, msg.StatusForbidden, "write set is single; another client owns the object")
			return
		}
	}
	fresh, replay := o.admit(m)
	if replay {
		// The retry may exist because the ORIGINAL forward (or the ack) was
		// lost, so a mirror re-propagates the logged stamped form upstream —
		// re-forwarding the unstamped replay instead would mint a second
		// stamp at the parent and double-apply on the way back down; an
		// identical stamp is deduplicated by LWW everywhere.
		if u := o.log.find(m.Write); u != nil {
			m.Stamp, m.Inv = u.Stamp, u.Inv
			o.forward(m)
		}
		o.ackWrite(m)
		return
	}
	u := updateFromMsg(m)
	if o.strat.Model == coherence.Sequential && u.GlobalSeq == 0 {
		u.GlobalSeq = o.nextGlobal
		o.nextGlobal++
		inc(&o.stats.WritesSequenced)
		if o.traceOn() {
			o.emit("write_sequenced", "wid="+u.Write.String()+" gseq="+strconv.FormatUint(u.GlobalSeq, 10))
		}
	}
	if o.role == RolePermanent {
		inc(&o.stats.WritesAccepted)
	}
	released := o.submitLogged(u)
	if fresh {
		// The admission record lands AFTER its update record (see
		// walAppendAdmit): a crash between the two appends leaves the
		// update durable, and recovery seeds the watermark from it.
		o.walAppendAdmit(m.Write.Client, m.Write.Seq)
	}
	o.applyReleased(released)
	// Continue propagation towards the permanent store, then ack the writer
	// (the client learns the store that performed its write — the (WiD,
	// store) dependency of §4.2). A mirror acks at once: eventual coherence
	// promises no more. The ack comes last because it is written into m.
	o.forward(m)
	o.ackWrite(m)
	o.reconsiderParked()
}

// admit is at-most-once admission. A request frame duplicated by the link
// (the UDP configuration) or retried after a lost ack must be re-acked, not
// admitted again — under the sequential model a second pass would assign the
// same WiD a fresh GlobalSeq and apply it twice, and under the eventual model
// it would mint a fresh Lamport stamp that wins LWW against itself.
// Client-originated requests are exactly the unstamped ones (only eventual
// mirrors forward pre-stamped frames, whose replays carry an identical stamp
// that LWW drops on its own), and the watermark+holes record distinguishes a
// replay from a genuinely new write that was merely overtaken in flight — the
// engines' own applied vectors cannot, since the sequential, FIFO, and
// eventual ones all jump per-client gaps. A fresh write is stamped here; a
// stamped one has its stamp witnessed. Fresh admissions are WAL-logged on
// durable replicas — by the CALLER, after the stamped update record — so the
// same distinction survives a restart (recovery replays both through
// admitSeq).
func (o *Object) admit(m *msg.Message) (fresh, replay bool) {
	if !m.Stamp.Zero() {
		o.lamport.Witness(m.Stamp.Time)
		return false, false
	}
	if o.admitSeq(m.Write.Client, m.Write.Seq) {
		return false, true
	}
	m.Stamp = vclock.Stamp{Time: o.lamport.Next(), Client: m.Write.Client}
	inc(&o.stats.WritesAdmitted)
	if o.traceOn() {
		o.emit("write_admitted", "wid="+m.Write.String())
	}
	return true, false
}

// forward passes a write request one hop towards the permanent store (a no-op
// at the root), keeping the client's From so the store that orders the write
// acks the client directly. It notes the write as forwarded: its update comes
// back down by itself under immediate push (see awaitsForwarded). The frame is
// the handler's, so it is re-addressed in place for the send.
func (o *Object) forward(m *msg.Message) {
	if o.parent == "" {
		return
	}
	o.forwarded.Bump(m.Write.Client, m.Write.Seq)
	inc(&o.stats.WritesForwarded)
	to := m.To
	m.To = o.parent
	o.send(o.parent, m)
	m.To = to
}

// ackWrite sends the OK write reply for m, in m (answer). On a durable
// replica under the always policy, everything logged for this write reaches
// disk first: an acknowledged write survives even kill -9 between ack and the
// next flush. There the ack parks and FlushAcks pays one barrier for every ack
// parked since the last one — the whole batch the owning loop drained.
func (o *Object) ackWrite(m *msg.Message) {
	inc(&o.stats.WritesAcked)
	if o.traceOn() {
		o.emit("write_acked", "wid="+m.Write.String()+" to="+m.From)
	}
	r := o.frame(msg.KindWriteReply, m)
	if o.deferBarrier() {
		// The ack can sit in ackPending across many handler turns; it parks
		// by value with a cloned address, so nothing in it pins the request
		// frame's chunk until the next flush.
		r.To = strings.Clone(m.From)
		o.ackPending = append(o.ackPending, r)
		return
	}
	o.answer(m, &r)
}

// stampedSeqs is one client's unstamped-write admission record: the highest
// sequence stamped so far plus the sequences below it this store has NOT
// seen (holes left by in-flight reordering on a jittered link). The holes
// set is bounded by the client's writes-in-flight window in practice; a
// pathological gap (e.g. a reused client identity resuming far ahead, see
// coherence.SeedSeq) is not recorded beyond the cap, and uncovered old
// sequences then classify as replays — matching the documented semantics of
// reused write IDs everywhere else in the system.
type stampedSeqs struct {
	max   uint64
	holes map[uint64]bool
}

// maxStampedHoles caps the per-client holes set.
const maxStampedHoles = 256

// maxStampedClients caps the admission map itself so client churn on a
// long-lived daemon cannot grow it without bound; when full, a record
// (preferably one with no holes) is evicted. This is the bounded-memory
// trade every dedup cache makes: a replay from an evicted identity —
// requiring more than this many writer identities on ONE object plus a
// duplicate still floating from before the eviction — can be re-admitted.
const maxStampedClients = 4096

// admitSeq is the watermark/holes state machine behind admit, shared with
// WAL recovery (which must re-run admissions without re-logging them). It
// reports whether this store already minted a Lamport stamp for the write,
// recording the admission otherwise: a sequence at or below the watermark
// that is not a recorded hole was stamped here before, so the frame is a
// link duplicate (or an ack-loss retry) that must not be stamped again; a
// recorded hole is a genuinely new write that was merely overtaken in
// flight.
func (o *Object) admitSeq(c ids.ClientID, seq uint64) bool {
	u := o.stamped[c]
	if u == nil {
		if len(o.stamped) >= maxStampedClients {
			// Bound the map unconditionally; prefer evicting a record with
			// no holes, but never let "all records hold holes" unbound it.
			var victim ids.ClientID
			found := false
			for old, rec := range o.stamped {
				victim, found = old, true
				if len(rec.holes) == 0 {
					break
				}
			}
			if found {
				delete(o.stamped, victim)
			}
		}
		u = &stampedSeqs{}
		o.stamped[c] = u
		if seq > maxStampedHoles {
			// First contact at a high sequence is a resumed client identity
			// (binds seed the session counter past prior applied writes, see
			// coherence.SeedSeq) — its old sequences were admitted in an
			// earlier life and must classify as replays, not as holes a
			// floating duplicate could crawl back through.
			u.max = seq
			return false
		}
	}
	switch {
	case seq > u.max:
		for s := u.max + 1; s < seq && len(u.holes) < maxStampedHoles; s++ {
			if u.holes == nil {
				u.holes = make(map[uint64]bool, 2)
			}
			u.holes[s] = true
		}
		u.max = seq
		return false
	case u.holes[seq]:
		delete(u.holes, seq)
		return false // overtaken in flight; new write, admit it
	default:
		return true
	}
}

// updateFromMsg builds the engine-level update from a wire message.
func updateFromMsg(m *msg.Message) *coherence.Update {
	return &coherence.Update{
		Write:     m.Write,
		GlobalSeq: m.GlobalSeq,
		Deps:      coherence.DepsOf(m.Deps),
		Stamp:     m.Stamp,
		Inv:       cloneInv(m.Inv),
		WallNanos: m.WallNanos,
	}
}

// cloneInv deep-copies an invocation taken from a wire message. Updates
// outlive their frame — they sit in the update log and their Page/Args end
// up inside semantics state — so retaining the zero-copy decoded fields
// would pin whole transport buffers (tcpnet handoff chunks, memnet frames)
// for the replica's lifetime. One copy per write restores the footprint of
// the old copying decode while reads stay zero-copy end to end, and it is the
// only one: the copy is the update's own and never changes again, which is
// what lets Env.ApplyOp hand Args to the semantics object to keep.
func cloneInv(inv msg.Invocation) msg.Invocation {
	out := msg.Invocation{Method: inv.Method, Page: strings.Clone(inv.Page)}
	if inv.Args != nil {
		out.Args = append([]byte(nil), inv.Args...)
	}
	return out
}
