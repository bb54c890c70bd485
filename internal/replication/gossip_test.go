package replication

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/semantics/webdoc"
	"repro/internal/strategy"
	"repro/internal/vclock"
)

// TestGossipBehindPrunedLogGetsState: a peer whose digest is older than the
// log reaches back gets the whole object, as a demand would. Shipping only
// what the log still holds would leave it without the pruned writes for good,
// since a mirror has no parent to repair it.
func TestGossipBehindPrunedLogGetsState(t *testing.T) {
	env := newFakeEnv()
	o := newObj(t, env, RoleObjectInitiated, strategy.MirroredSite(time.Hour), "")
	for i := 1; i <= logLimit+1; i++ {
		o.Handle(writeMsg(1, uint64(i), fmt.Sprintf("p%d", i), "x"))
	}
	env.sent = nil
	o.Handle(&msg.Message{Kind: msg.KindGossip, Object: "obj", From: "peer-1"})
	states := env.takeSent(msg.KindStateReply)
	if len(states) != 1 || states[0].To != "peer-1" || len(states[0].Pages) != 0 || len(states[0].Payload) == 0 {
		t.Fatalf("state replies: %+v", states)
	}
	if st, _ := splitWhole(t, states[0].Payload); !st.Applied.CoversWrite(ids.WiD{Client: 1, Seq: logLimit + 1}) {
		t.Fatalf("state reply vector %v does not cover the last write", st.Applied)
	}
	if batches := env.takeSent(msg.KindUpdateBatch); len(batches) != 0 {
		t.Fatalf("a peer behind the log was shipped a partial log: %d batch frames", len(batches))
	}
}

// TestMirrorWriteOrdersAfterWhatItReceived: a write admitted at a mirror must
// win last-writer-wins over every write the mirror already holds, whether it
// came as an update or inside a state transfer (a state reply, a subscribe
// ack). Otherwise the mirror's own overwrite or delete of a page loses to the
// older write and never applies.
func TestMirrorWriteOrdersAfterWhatItReceived(t *testing.T) {
	env := newFakeEnv()
	o := newObj(t, env, RoleObjectInitiated, strategy.MirroredSite(time.Hour), "parent")
	up := writeMsg(2, 1, "p", "peer")
	up.Kind, up.Stamp = msg.KindUpdate, vclock.Stamp{Time: 10, Client: 2}
	o.Handle(up)
	o.Handle(writeMsg(1, 1, "p", "mine"))
	fwd := env.takeSent(msg.KindWriteRequest)
	if len(fwd) != 1 || fwd[0].Stamp.Time <= 10 {
		t.Fatalf("write after an update stamped at 10 forwarded as %+v", fwd)
	}
	if got := o.Stats().UpdatesApplied; got != 2 {
		t.Fatalf("UpdatesApplied = %d, want 2: the mirror's own write lost", got)
	}

	snap, err := env.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	o.Handle(&msg.Message{
		Kind: msg.KindStateReply, Object: "obj", From: "parent",
		Stamp: vclock.Stamp{Time: 50}, Payload: whole(snap, vecOf(1, 1, 2, 1, 3, 5), 0),
	})
	o.Handle(writeMsg(1, 2, "p", "again"))
	fwd = env.takeSent(msg.KindWriteRequest)
	if len(fwd) != 1 || fwd[0].Stamp.Time <= 50 {
		t.Fatalf("write after a state transfer stamped at 50 forwarded as %+v", fwd)
	}

	o.Handle(&msg.Message{
		Kind: msg.KindSubscribeAck, Object: "obj", From: "parent",
		Stamp: vclock.Stamp{Time: 90}, Payload: whole(snap, vecOf(1, 2, 2, 1, 3, 6), 0),
	})
	o.Handle(writeMsg(1, 3, "p", "once more"))
	fwd = env.takeSent(msg.KindWriteRequest)
	if len(fwd) != 1 || fwd[0].Stamp.Time <= 90 {
		t.Fatalf("write after a subscribe ack stamped at 90 forwarded as %+v", fwd)
	}
}

// TestStateReplyCarriesTheClock: a whole-object reply carries the Lamport
// time that stamped the state it holds.
func TestStateReplyCarriesTheClock(t *testing.T) {
	env := newFakeEnv()
	o := newObj(t, env, RoleObjectInitiated, strategy.MirroredSite(time.Hour), "")
	for i := uint64(1); i <= 3; i++ {
		o.Handle(writeMsg(1, i, "p", "x"))
	}
	o.Handle(&msg.Message{Kind: msg.KindStateRequest, Object: "obj", From: "peer-1"})
	states := env.takeSent(msg.KindStateReply)
	if len(states) != 1 || states[0].Stamp.Time < 3 {
		t.Fatalf("state replies: %+v", states)
	}
}

// TestConcurrentStateMergesByPage: a whole state from a peer that lacks some
// of this replica's writes is merged page by page under last-writer-wins: each
// page takes the newer of the two writes, whichever side holds it, and a page
// the sender never wrote keeps its content here.
func TestConcurrentStateMergesByPage(t *testing.T) {
	put := func(c ids.ClientID, seq uint64, page, content string) *msg.Message {
		m := writeMsg(c, seq, page, content)
		m.Inv.Method = webdoc.MethodPutPage
		return m
	}
	aEnv, bEnv := newFakeEnv(), newFakeEnv()
	a := newObj(t, aEnv, RoleObjectInitiated, strategy.MirroredSite(time.Hour), "")
	b := newObj(t, bEnv, RoleObjectInitiated, strategy.MirroredSite(time.Hour), "")
	a.Handle(put(1, 1, "p", "a-old"))  // stamp 1
	a.Handle(put(1, 2, "q", "a-only")) // stamp 2
	a.Handle(put(1, 3, "s", "a-new"))  // stamp 3
	b.Handle(put(2, 1, "r", "b-only")) // stamp 1
	b.Handle(put(2, 2, "s", "b-old"))  // stamp 2
	b.Handle(put(2, 3, "p", "b-new"))  // stamp 3, beats a's p
	want := map[string][]byte{}
	for page, env := range map[string]*fakeEnv{"p": bEnv, "q": aEnv, "r": bEnv, "s": aEnv} {
		data, err := env.ctrl.SnapshotElement(page)
		if err != nil {
			t.Fatal(err)
		}
		want[page] = data
	}

	b.Handle(&msg.Message{Kind: msg.KindStateRequest, Object: "obj", From: "a"})
	states := bEnv.takeSent(msg.KindStateReply)
	if len(states) != 1 {
		t.Fatalf("state replies: %+v", states)
	}
	if st, _ := splitWhole(t, states[0].Payload); len(st.Stamps) != 3 {
		t.Fatalf("state replies: %+v", states)
	}
	a.Handle(states[0])
	for page, data := range want {
		if got, err := aEnv.SnapshotElement(page); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("page %s after the merge = %q (%v), want %q", page, got, err, data)
		}
	}
	if known := a.Applied(); !known.CoversWrite(ids.WiD{Client: 1, Seq: 3}) || !known.CoversWrite(ids.WiD{Client: 2, Seq: 3}) {
		t.Fatalf("applied after the merge: %v", known)
	}
	// The merged stamps hold: b's older write to s, redelivered, loses.
	up := put(2, 2, "s", "b-old")
	up.Kind, up.Stamp = msg.KindUpdate, vclock.Stamp{Time: 2, Client: 2}
	a.Handle(up)
	if got, _ := aEnv.SnapshotElement("s"); !bytes.Equal(got, want["s"]) {
		t.Fatalf("a redelivered older write replaced page s: %q", got)
	}
}

// TestGossipRoundSendsInAddressOrder: a round sends its digests in peer
// address order, whatever order the peers were added in, so a seeded run
// emits the same frames in the same order every time.
func TestGossipRoundSendsInAddressOrder(t *testing.T) {
	env := newFakeEnv()
	o := newObj(t, env, RoleObjectInitiated, strategy.MirroredSite(time.Hour), "")
	for _, p := range []string{"peer-c", "peer-a", "peer-b"} {
		o.AddPeer(p)
	}
	for round := 0; round < 20; round++ {
		o.gossipRound()
		var got []string
		for _, g := range env.takeSent(msg.KindGossip) {
			got = append(got, g.To)
		}
		if fmt.Sprint(got) != "[peer-a peer-b peer-c]" {
			t.Fatalf("round %d sent gossip to %v, want address order", round, got)
		}
	}
}

// TestMergeOverMaxBatchPagesKeepsNewerLocalWrite: a whole state of more pages
// than a frame's batch can list still carries every page's stamp, so a
// concurrent newer write here survives the merge even once this replica's log
// no longer holds it. The stamps used to ride in the frame's batch, which was
// left empty above msg.MaxBatch pages, and the receiver then replaced its
// content with the sender's.
func TestMergeOverMaxBatchPagesKeepsNewerLocalWrite(t *testing.T) {
	put := func(c ids.ClientID, seq uint64, page, content string) *msg.Message {
		m := writeMsg(c, seq, page, content)
		m.Inv.Method = webdoc.MethodPutPage
		return m
	}
	aEnv, bEnv := newFakeEnv(), newFakeEnv()
	a := newObj(t, aEnv, RoleObjectInitiated, strategy.MirroredSite(time.Hour), "")
	b := newObj(t, bEnv, RoleObjectInitiated, strategy.MirroredSite(time.Hour), "")
	for i := 0; i <= msg.MaxBatch; i++ {
		b.Handle(put(2, uint64(i+1), fmt.Sprintf("p%d", i), "b"))
		bEnv.sent = bEnv.sent[:0]
	}
	// a has seen a write stamped past all of b's, so its own write to p0
	// orders after b's; then enough writes follow that the log drops it.
	up := put(9, 1, "z", "z")
	up.Kind, up.Stamp = msg.KindUpdate, vclock.Stamp{Time: 1 << 20, Client: 9}
	a.Handle(up)
	a.Handle(put(1, 1, "p0", "a-new"))
	for seq := uint64(2); seq <= logLimit+1; seq++ {
		a.Handle(put(1, seq, "a-log", "x"))
	}
	want, err := aEnv.ctrl.SnapshotElement("p0")
	if err != nil {
		t.Fatal(err)
	}
	b.Handle(&msg.Message{Kind: msg.KindStateRequest, Object: "obj", From: "a"})
	states := bEnv.takeSent(msg.KindStateReply)
	if len(states) != 1 {
		t.Fatalf("state replies: %d", len(states))
	}
	if st, _ := splitWhole(t, states[0].Payload); len(st.Stamps) <= msg.MaxBatch {
		t.Fatalf("the state carries %d page stamps, want %d", len(st.Stamps), msg.MaxBatch+1)
	}
	a.Handle(states[0])
	if got, err := aEnv.SnapshotElement("p0"); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("page p0 after the merge = %q (%v), want the newer local write %q", got, err, want)
	}
	theirs, _ := bEnv.ctrl.SnapshotElement("p1")
	if got, err := aEnv.SnapshotElement("p1"); err != nil || !bytes.Equal(got, theirs) {
		t.Fatalf("page p1 after the merge = %q (%v), want the sender's %q", got, err, theirs)
	}
}
