package replication

import (
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/semantics/webdoc"
	"repro/internal/strategy"
)

// leased returns m as a transport delivers it: encoded into a pooled frame
// and decoded into a leased message that aliases that frame.
func leased(t *testing.T, m *msg.Message) *msg.Message {
	t.Helper()
	w := msg.EncodePooled(m)
	l, err := msg.DecodeLeased(w.Bytes(), w)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestHandleEndsLeaseUnlessParked: Handle ends the lease of a request it
// answers at once, and a parked request keeps its lease until it leaves the
// queue, answered or expired. A released message reads as no valid kind
// (zeroed for reuse, or poisoned under the leasecheck tag). Replies here
// alias released frames, so only their value fields are read.
func TestHandleEndsLeaseUnlessParked(t *testing.T) {
	env := newFakeEnv()
	st := strategy.Conference(time.Hour)
	st.ClientOutdate = strategy.Wait
	o := newObj(t, env, RolePermanent, st, "")
	read := func(seq uint64) *msg.Message {
		return leased(t, &msg.Message{
			Kind: msg.KindReadRequest, Object: "obj", From: "m-ep", Client: 1,
			VVec: vecOf(1, seq),
			Inv:  msg.Invocation{Method: webdoc.MethodGetPage, Page: "p"},
		})
	}

	w := leased(t, writeMsg(1, 1, "p", "content"))
	o.Handle(w)
	served := read(1)
	o.Handle(served)
	if w.Kind.Valid() || served.Kind.Valid() {
		t.Fatalf("requests answered at once still leased: write %v, read %v", w.Kind, served.Kind)
	}
	if acks, replies := env.takeSent(msg.KindWriteReply), env.takeSent(msg.KindReadReply); len(acks) != 1 || len(replies) != 1 {
		t.Fatalf("%d acks and %d read replies, want one each", len(acks), len(replies))
	}

	answered := read(2)
	o.Handle(answered)
	if answered.Kind != msg.KindReadRequest || answered.From != "m-ep" || answered.Inv.Page != "p" {
		t.Fatalf("parked request released before it left the queue: %+v", answered)
	}
	o.Handle(leased(t, writeMsg(1, 2, "p", "more")))
	if replies := env.takeSent(msg.KindReadReply); len(replies) != 1 || replies[0].Status != msg.StatusOK {
		t.Fatalf("parked read not answered: %d replies", len(replies))
	}
	if answered.Kind.Valid() {
		t.Fatalf("answered parked request still leased: %v", answered.Kind)
	}

	expired := read(9)
	o.Handle(expired)
	if expired.Kind != msg.KindReadRequest {
		t.Fatalf("parked request released before it expired: %v", expired.Kind)
	}
	env.clk.Advance(2 * time.Second)
	if replies := env.takeSent(msg.KindReadReply); len(replies) != 1 || replies[0].Status != msg.StatusRetry {
		t.Fatalf("expired read not refused: %d replies", len(replies))
	}
	if expired.Kind.Valid() {
		t.Fatalf("expired parked request still leased: %v", expired.Kind)
	}
}
