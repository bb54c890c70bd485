package replication

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/coherence"
	"repro/internal/control"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/semantics/webdoc"
	"repro/internal/strategy"
)

// fakeEnv is a synchronous, in-memory replication.Env capturing all sends.
// Like store's replicaEnv, it appends every read result and page element
// into one scratch buffer, so a replica that kept one past its next Env call
// would see it overwritten.
type fakeEnv struct {
	ctrl    *control.Control
	clk     *clock.Fake
	sent    []*msg.Message
	scratch []byte
}

func newFakeEnv() *fakeEnv {
	return &fakeEnv{ctrl: control.New(webdoc.New()), clk: clock.NewFake()}
}

// Send keeps a copy of m, as the Env contract allows: m's fields are the
// replica's, so the page list and payload are copied too (the replica builds
// the list in a scratch list it reuses, and a read's payload is this Env's
// scratch).
func (e *fakeEnv) Send(to string, m *msg.Message) error {
	cp := *m
	cp.To = to
	cp.Pages = slices.Clone(m.Pages)
	cp.Payload = slices.Clone(m.Payload)
	e.sent = append(e.sent, &cp)
	return nil
}

func (e *fakeEnv) Multicast(tos []string, m *msg.Message) error {
	for _, to := range tos {
		if err := e.Send(to, m); err != nil {
			return err
		}
	}
	return nil
}

func (e *fakeEnv) ApplyOp(u *coherence.Update) error     { return e.ctrl.ApplyOp(u) }
func (e *fakeEnv) ApplyFull(s []byte) error              { return e.ctrl.ApplyFull(s) }
func (e *fakeEnv) ApplyElement(n string, d []byte) error { return e.ctrl.ApplyElement(n, d) }
func (e *fakeEnv) Snapshot() ([]byte, error)             { return e.ctrl.Snapshot() }
func (e *fakeEnv) RemoveElement(n string) error          { return e.ctrl.RemoveElement(n) }
func (e *fakeEnv) SnapshotElement(n string) ([]byte, error) {
	return e.reuse(e.ctrl.AppendElement(e.scratch[:0], n))
}
func (e *fakeEnv) ServeRead(inv msg.Invocation) ([]byte, error) {
	return e.reuse(e.ctrl.AppendRead(e.scratch[:0], inv))
}

func (e *fakeEnv) reuse(b []byte, err error) ([]byte, error) {
	if err == nil {
		e.scratch = b
	}
	return b, err
}
func (e *fakeEnv) Now() time.Time { return e.clk.Now() }
func (e *fakeEnv) AfterFunc(d time.Duration, f func()) clock.Timer {
	return e.clk.AfterFunc(d, f)
}

// whole is a whole state as a replica sends it: an engine state with vector
// v and sequencer position global, then the semantics snapshot snap.
func whole(snap []byte, v msg.Vec, global uint64) []byte {
	st := coherence.State{Applied: v, Global: global}
	return append(st.Append(nil), snap...)
}

// splitWhole decodes a whole state a replica sent.
func splitWhole(t *testing.T, payload []byte) (*coherence.State, []byte) {
	t.Helper()
	st, snap, err := coherence.SplitState(payload)
	if err != nil {
		t.Fatalf("whole state %x: %v", payload, err)
	}
	return st, snap
}

// takeSent drains and returns captured messages of one kind.
func (e *fakeEnv) takeSent(k msg.Kind) []*msg.Message {
	var out, rest []*msg.Message
	for _, m := range e.sent {
		if m.Kind == k {
			out = append(out, m)
		} else {
			rest = append(rest, m)
		}
	}
	e.sent = rest
	return out
}

func newObj(t *testing.T, env Env, role Role, st strategy.Strategy, parent string, models ...coherence.ClientModel) *Object {
	t.Helper()
	o, err := New(Config{
		Env: env, Object: "obj", Self: 1, Addr: "self", Role: role,
		Parent: parent, Strat: st, Session: models, Tuning: Tuning{ReadTimeout: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func writeMsg(client ids.ClientID, seq uint64, page, content string) *msg.Message {
	return &msg.Message{
		Kind: msg.KindWriteRequest, Object: "obj", From: "client-ep",
		Client: client, Write: ids.WiD{Client: client, Seq: seq},
		Inv: msg.Invocation{
			Method: webdoc.MethodAppendPage, Page: page,
			Args: webdoc.EncodeWriteArgs(webdoc.WriteArgs{Content: []byte(content)}),
		},
	}
}

func TestPermanentAcceptsAndAcksWrite(t *testing.T) {
	env := newFakeEnv()
	o := newObj(t, env, RolePermanent, strategy.Conference(time.Hour), "")
	o.Handle(writeMsg(1, 1, "p", "x"))
	acks := env.takeSent(msg.KindWriteReply)
	if len(acks) != 1 || acks[0].To != "client-ep" || acks[0].Status != msg.StatusOK {
		t.Fatalf("acks: %+v", acks)
	}
	if got := o.Stats(); got.WritesAccepted != 1 || got.UpdatesApplied != 1 {
		t.Fatalf("stats: %+v", got)
	}
	if applied := o.Applied(); !applied.CoversWrite(ids.WiD{Client: 1, Seq: 1}) {
		t.Fatalf("applied vector missing write")
	}
}

// An eventual mirror applies and acks a client's write itself and forwards it
// too. The ack is written into the request, so the forward must go first: the
// parent gets the client's write request, invocation intact, and the client
// its ack.
func TestEventualMirrorForwardsTheWriteBeforeAcking(t *testing.T) {
	env := newFakeEnv()
	o := newObj(t, env, RoleObjectInitiated, strategy.MirroredSite(time.Hour), "parent-store")
	w := writeMsg(1, 1, "p", "x")
	inv := w.Inv
	o.Handle(w)
	fwd := env.takeSent(msg.KindWriteRequest)
	if len(fwd) != 1 || fwd[0].To != "parent-store" || fwd[0].From != "client-ep" || fwd[0].Write != (ids.WiD{Client: 1, Seq: 1}) {
		t.Fatalf("forward: %+v", fwd)
	}
	if got := fwd[0].Inv; got.Method != inv.Method || got.Page != inv.Page || string(got.Args) != string(inv.Args) {
		t.Fatalf("forwarded invocation %+v, want %+v", got, inv)
	}
	acks := env.takeSent(msg.KindWriteReply)
	if len(acks) != 1 || acks[0].To != "client-ep" || acks[0].Status != msg.StatusOK {
		t.Fatalf("acks: %+v", acks)
	}
}

func TestWriteSetSingleRejectsSecondWriter(t *testing.T) {
	env := newFakeEnv()
	o := newObj(t, env, RolePermanent, strategy.Conference(time.Hour), "")
	o.Handle(writeMsg(1, 1, "p", "x"))
	env.takeSent(msg.KindWriteReply)
	o.Handle(writeMsg(2, 1, "p", "y"))
	acks := env.takeSent(msg.KindWriteReply)
	if len(acks) != 1 || acks[0].Status != msg.StatusForbidden {
		t.Fatalf("intruder ack: %+v", acks)
	}
	if got := o.Stats(); got.WritesRejected != 1 {
		t.Fatalf("stats: %+v", got)
	}
}

func TestCacheForwardsWritesPreservingOrigin(t *testing.T) {
	env := newFakeEnv()
	o := newObj(t, env, RoleClientInitiated, strategy.Conference(time.Hour), "parent-store")
	o.Handle(writeMsg(1, 1, "p", "x"))
	fwd := env.takeSent(msg.KindWriteRequest)
	if len(fwd) != 1 || fwd[0].To != "parent-store" {
		t.Fatalf("forward: %+v", fwd)
	}
	if fwd[0].From != "client-ep" {
		t.Fatalf("forward must preserve the client's From for direct ack, got %q", fwd[0].From)
	}
	if got := o.Stats(); got.WritesForwarded != 1 {
		t.Fatalf("stats: %+v", got)
	}
}

func TestCacheWithoutParentFailsWrite(t *testing.T) {
	env := newFakeEnv()
	o := newObj(t, env, RoleClientInitiated, strategy.Conference(time.Hour), "")
	o.Handle(writeMsg(1, 1, "p", "x"))
	acks := env.takeSent(msg.KindWriteReply)
	if len(acks) != 1 || acks[0].Status != msg.StatusError {
		t.Fatalf("acks: %+v", acks)
	}
}

func TestImmediateDisseminationToChildren(t *testing.T) {
	env := newFakeEnv()
	st := strategy.Conference(time.Hour)
	st.Instant = strategy.Immediate
	st.LazyInterval = 0
	o := newObj(t, env, RolePermanent, st, "")
	// A child subscribes.
	o.Handle(&msg.Message{Kind: msg.KindSubscribe, Object: "obj", From: "child-1"})
	if acks := env.takeSent(msg.KindSubscribeAck); len(acks) != 1 || acks[0].To != "child-1" {
		t.Fatalf("subscribe ack: %+v", acks)
	}
	o.Handle(writeMsg(1, 1, "p", "x"))
	ups := env.takeSent(msg.KindUpdate)
	if len(ups) != 1 || ups[0].To != "child-1" || ups[0].Write.Seq != 1 {
		t.Fatalf("updates: %+v", ups)
	}
	if len(ups[0].Payload) != 0 {
		t.Fatalf("partial coherence transfer should ship the op, not a snapshot")
	}
}

func TestLazyAggregationFullSnapshot(t *testing.T) {
	env := newFakeEnv()
	st := strategy.Magazine(100 * time.Millisecond) // lazy + full transfer
	o := newObj(t, env, RolePermanent, st, "")
	o.Handle(&msg.Message{Kind: msg.KindSubscribe, Object: "obj", From: "child-1"})
	env.takeSent(msg.KindSubscribeAck)
	// Three writes inside one lazy window aggregate into ONE snapshot.
	for i := 1; i <= 3; i++ {
		o.Handle(writeMsg(1, uint64(i), "p", "x"))
	}
	if ups := env.takeSent(msg.KindUpdate); len(ups) != 0 {
		t.Fatalf("lazy mode shipped early: %+v", ups)
	}
	env.clk.Advance(100 * time.Millisecond)
	ups := env.takeSent(msg.KindUpdate)
	if len(ups) != 1 {
		t.Fatalf("aggregation failed: %d updates", len(ups))
	}
	if st, _ := splitWhole(t, ups[0].Payload); !st.Applied.CoversWrite(ids.WiD{Client: 1, Seq: 3}) {
		t.Fatalf("aggregated snapshot malformed: %+v", ups[0])
	}
	if got := o.Stats(); got.LazyFlushes != 1 {
		t.Fatalf("stats: %+v", got)
	}
}

func TestNotificationTransfer(t *testing.T) {
	env := newFakeEnv()
	st := strategy.Conference(time.Hour)
	st.Instant = strategy.Immediate
	st.CoherenceTransfer = strategy.CoherenceNotification
	st.ObjectOutdate = strategy.Demand
	o := newObj(t, env, RolePermanent, st, "")
	o.Handle(&msg.Message{Kind: msg.KindSubscribe, Object: "obj", From: "child-1"})
	env.takeSent(msg.KindSubscribeAck)
	o.Handle(writeMsg(1, 1, "news", "x"))
	notes := env.takeSent(msg.KindNotify)
	if len(notes) != 1 || len(notes[0].Pages) != 1 || notes[0].Pages[0] != "news" {
		t.Fatalf("notify: %+v", notes)
	}
	if ups := env.takeSent(msg.KindUpdate); len(ups) != 0 {
		t.Fatalf("notification mode must not ship content: %+v", ups)
	}
}

func TestNotifyTriggersDemandWhenReactionIsDemand(t *testing.T) {
	env := newFakeEnv()
	st := strategy.Conference(time.Hour)
	st.ObjectOutdate = strategy.Demand
	o := newObj(t, env, RoleClientInitiated, st, "parent-store")
	o.Handle(&msg.Message{Kind: msg.KindNotify, Object: "obj", From: "parent-store", Pages: []string{"p"}, Write: ids.WiD{Client: 1, Seq: 1}})
	// Access transfer full -> full state request.
	reqs := env.takeSent(msg.KindStateRequest)
	if len(reqs) != 1 || reqs[0].To != "parent-store" {
		t.Fatalf("state requests: %+v", reqs)
	}
	if got := o.Stats(); got.Invalidations != 1 || got.DemandsSent != 1 {
		t.Fatalf("stats: %+v", got)
	}
}

func TestInvalidateWaitDefersUntilAccess(t *testing.T) {
	env := newFakeEnv()
	st := strategy.Conference(time.Hour)
	st.Propagation = strategy.PropagateInvalidate
	st.ObjectOutdate = strategy.Wait
	st.AccessTransfer = strategy.TransferPartial
	o := newObj(t, env, RoleClientInitiated, st, "parent-store")
	// Seed the replica with page content via state reply.
	doc := webdoc.New()
	doc.Put("p", []byte("v1"), "", 1)
	el, _ := doc.AppendElement(nil, "p")
	o.Handle(&msg.Message{
		Kind: msg.KindStateReply, Object: "obj", From: "parent-store",
		Pages: []string{"p"}, Payload: el, VVec: vecOf(1, 1),
	})
	// Invalidation arrives; wait reaction -> no traffic yet.
	o.Handle(&msg.Message{Kind: msg.KindInvalidate, Object: "obj", From: "parent-store", Pages: []string{"p"}, Write: ids.WiD{Client: 1, Seq: 2}})
	if reqs := env.takeSent(msg.KindStateRequest); len(reqs) != 0 {
		t.Fatalf("wait reaction fetched eagerly: %+v", reqs)
	}
	// A read arrives: now the page must be refetched before serving.
	o.Handle(&msg.Message{
		Kind: msg.KindReadRequest, Object: "obj", From: "reader-ep", Client: 9,
		Inv: msg.Invocation{Method: webdoc.MethodGetPage, Page: "p"},
	})
	if reqs := env.takeSent(msg.KindStateRequest); len(reqs) != 1 || reqs[0].Pages[0] != "p" {
		t.Fatalf("access did not trigger partial fetch: %+v", reqs)
	}
	// Parent answers with the fresh page; the parked read completes.
	doc.Put("p", []byte("v2"), "", 2)
	el2, _ := doc.AppendElement(nil, "p")
	o.Handle(&msg.Message{
		Kind: msg.KindStateReply, Object: "obj", From: "parent-store",
		Pages: []string{"p"}, Payload: el2, VVec: vecOf(1, 2),
	})
	replies := env.takeSent(msg.KindReadReply)
	if len(replies) != 1 || replies[0].Status != msg.StatusOK {
		t.Fatalf("read replies: %+v", replies)
	}
	pg, err := webdoc.DecodePage(replies[0].Payload)
	if err != nil || string(pg.Content) != "v2" {
		t.Fatalf("served %q, %v", pg.Content, err)
	}
}

func TestDemandServedFromLog(t *testing.T) {
	env := newFakeEnv()
	o := newObj(t, env, RolePermanent, strategy.Conference(time.Hour), "")
	for i := 1; i <= 3; i++ {
		o.Handle(writeMsg(1, uint64(i), "p", "x"))
	}
	env.sent = nil
	// Child knows up to write 1; demands the rest, which arrives as one
	// aggregated batch frame.
	o.Handle(&msg.Message{
		Kind: msg.KindDemandUpdate, Object: "obj", From: "child-1",
		VVec: vecOf(1, 1),
	})
	batches := env.takeSent(msg.KindUpdateBatch)
	if len(batches) != 1 {
		t.Fatalf("demand reply batches: %+v", batches)
	}
	bu := batches[0].Batch
	if len(bu) != 2 || bu[0].Write.Seq != 2 || bu[1].Write.Seq != 3 {
		t.Fatalf("batch entries: %+v", bu)
	}
}

func TestDemandSingleMissingUpdateShipsUnbatched(t *testing.T) {
	env := newFakeEnv()
	o := newObj(t, env, RolePermanent, strategy.Conference(time.Hour), "")
	for i := 1; i <= 2; i++ {
		o.Handle(writeMsg(1, uint64(i), "p", "x"))
	}
	env.sent = nil
	o.Handle(&msg.Message{
		Kind: msg.KindDemandUpdate, Object: "obj", From: "child-1",
		VVec: vecOf(1, 1),
	})
	ups := env.takeSent(msg.KindUpdate)
	if len(ups) != 1 || ups[0].Write.Seq != 2 {
		t.Fatalf("single-update demand reply: %+v", ups)
	}
}

func TestDemandNothingMissingSendsAck(t *testing.T) {
	env := newFakeEnv()
	o := newObj(t, env, RolePermanent, strategy.Conference(time.Hour), "")
	o.Handle(writeMsg(1, 1, "p", "x"))
	env.sent = nil
	o.Handle(&msg.Message{
		Kind: msg.KindDemandUpdate, Object: "obj", From: "child-1",
		VVec: vecOf(1, 1),
	})
	acks := env.takeSent(msg.KindUpdateAck)
	if len(acks) != 1 || acks[0].To != "child-1" {
		t.Fatalf("ack: %+v", acks)
	}
}

func TestDemandAfterLogPruneFallsBackToFullState(t *testing.T) {
	env := newFakeEnv()
	o := newObj(t, env, RolePermanent, strategy.Conference(time.Hour), "")
	for i := 1; i <= logLimit+3; i++ {
		o.Handle(writeMsg(1, uint64(i), "p", "x"))
	}
	env.sent = nil
	// Child knows nothing; the log holds only the newest logLimit writes and
	// the first three are gone — the paper's protocol must fall back to full
	// state.
	o.Handle(&msg.Message{Kind: msg.KindDemandUpdate, Object: "obj", From: "child-1"})
	ups := env.takeSent(msg.KindUpdate)
	states := env.takeSent(msg.KindStateReply)
	if len(states) == 0 && len(ups) != 0 {
		// Acceptable alternative: updates cover the missing suffix AND a
		// state reply covers the prefix — but updates alone cannot rebuild
		// writes 1-3.
		t.Fatalf("pruned log answered with ops only: %d ups, %d states", len(ups), len(states))
	}
}

func TestReadParkedUntilRequirementMet(t *testing.T) {
	env := newFakeEnv()
	st := strategy.Conference(time.Hour)
	st.ClientOutdate = strategy.Wait
	o := newObj(t, env, RolePermanent, st, "")
	// RYW requirement for a write that has not arrived yet.
	o.Handle(&msg.Message{
		Kind: msg.KindReadRequest, Object: "obj", From: "m-ep", Client: 1,
		VVec: vecOf(1, 1),
		Inv:  msg.Invocation{Method: webdoc.MethodGetPage, Page: "p"},
	})
	if replies := env.takeSent(msg.KindReadReply); len(replies) != 0 {
		t.Fatalf("read served before requirement met: %+v", replies)
	}
	if got := o.Stats(); got.ReqViolations != 1 || got.ReadsParked != 1 {
		t.Fatalf("stats: %+v", got)
	}
	// The write arrives; the parked read must complete.
	o.Handle(writeMsg(1, 1, "p", "content"))
	replies := env.takeSent(msg.KindReadReply)
	if len(replies) != 1 || replies[0].Status != msg.StatusOK {
		t.Fatalf("parked read not released: %+v", replies)
	}
}

func TestReadTimesOutWithRetryStatus(t *testing.T) {
	env := newFakeEnv()
	st := strategy.Conference(time.Hour)
	st.ClientOutdate = strategy.Wait
	o := newObj(t, env, RolePermanent, st, "")
	o.Handle(&msg.Message{
		Kind: msg.KindReadRequest, Object: "obj", From: "m-ep", Client: 1,
		VVec: vecOf(1, 99),
		Inv:  msg.Invocation{Method: webdoc.MethodGetPage, Page: "p"},
	})
	env.clk.Advance(2 * time.Second)
	replies := env.takeSent(msg.KindReadReply)
	if len(replies) != 1 || replies[0].Status != msg.StatusRetry {
		t.Fatalf("timeout replies: %+v", replies)
	}
}

func TestMissingPageFailsCleanlyAtPermanent(t *testing.T) {
	env := newFakeEnv()
	o := newObj(t, env, RolePermanent, strategy.Conference(time.Hour), "")
	o.Handle(&msg.Message{
		Kind: msg.KindReadRequest, Object: "obj", From: "r-ep", Client: 2,
		Inv: msg.Invocation{Method: webdoc.MethodGetPage, Page: "nope"},
	})
	replies := env.takeSent(msg.KindReadReply)
	if len(replies) != 1 || replies[0].Status != msg.StatusNotFound {
		t.Fatalf("replies: %+v", replies)
	}
}

func TestRoleScopeAndEngineSelection(t *testing.T) {
	env := newFakeEnv()
	st := strategy.Conference(time.Hour)
	st.Scope = strategy.ScopePermanent
	cache := newObj(t, env, RoleClientInitiated, st, "parent")
	if cache.Engine().Model() != coherence.Eventual {
		t.Fatalf("out-of-scope store should run eventual, got %v", cache.Engine().Model())
	}
	perm := newObj(t, newFakeEnv(), RolePermanent, st, "")
	if perm.Engine().Model() != coherence.PRAM {
		t.Fatalf("permanent store should run the object model, got %v", perm.Engine().Model())
	}
	// Session models needing explicit deps wrap the engine in a DepGuard.
	guarded := newObj(t, newFakeEnv(), RoleClientInitiated, st, "parent", coherence.WritesFollowReads)
	if _, ok := guarded.Engine().(*coherence.DepGuard); !ok {
		t.Fatalf("WFR on eventual engine should be DepGuard-wrapped")
	}
}

func TestRoleStringsAndScope(t *testing.T) {
	if RolePermanent.String() != "permanent" || RoleObjectInitiated.String() != "object-initiated" ||
		RoleClientInitiated.String() != "client-initiated" || Role(9).String() != "Role(?)" {
		t.Fatalf("role strings wrong")
	}
	if !RolePermanent.InScope(strategy.ScopePermanent) || RoleObjectInitiated.InScope(strategy.ScopePermanent) {
		t.Fatalf("scope permanent wrong")
	}
	if !RoleObjectInitiated.InScope(strategy.ScopePermanentAndObjectInitiated) ||
		RoleClientInitiated.InScope(strategy.ScopePermanentAndObjectInitiated) {
		t.Fatalf("scope permanent+object wrong")
	}
	if !RoleClientInitiated.InScope(strategy.ScopeAll) {
		t.Fatalf("scope all wrong")
	}
}

func TestCloseFailsParkedReads(t *testing.T) {
	env := newFakeEnv()
	st := strategy.Conference(time.Hour)
	st.ClientOutdate = strategy.Wait
	o := newObj(t, env, RolePermanent, st, "")
	o.Handle(&msg.Message{
		Kind: msg.KindReadRequest, Object: "obj", From: "m-ep", Client: 1,
		VVec: vecOf(1, 9),
		Inv:  msg.Invocation{Method: webdoc.MethodGetPage, Page: "p"},
	})
	o.Close()
	replies := env.takeSent(msg.KindReadReply)
	if len(replies) != 1 || replies[0].Status != msg.StatusRetry {
		t.Fatalf("close replies: %+v", replies)
	}
	// Handlers are inert after close.
	o.Handle(writeMsg(1, 1, "p", "x"))
	if acks := env.takeSent(msg.KindWriteReply); len(acks) != 0 {
		t.Fatalf("closed object still handling: %+v", acks)
	}
}

func TestInvalidStrategyRejected(t *testing.T) {
	st := strategy.Conference(time.Hour)
	st.LazyInterval = 0
	if _, err := New(Config{
		Env: newFakeEnv(), Object: "obj", Self: 1, Addr: "a", Role: RolePermanent, Strat: st,
	}); err == nil {
		t.Fatalf("invalid strategy accepted")
	}
}

// --- batch frames -------------------------------------------------------------

// TestLazyFlushShipsOneBatchFrame: N writes aggregated by a lazy interval
// leave as a single KindUpdateBatch frame per child, not N KindUpdate
// messages.
func TestLazyFlushShipsOneBatchFrame(t *testing.T) {
	env := newFakeEnv()
	o := newObj(t, env, RolePermanent, strategy.Conference(10*time.Millisecond), "")
	o.Handle(&msg.Message{Kind: msg.KindSubscribe, Object: "obj", From: "child-1"})
	env.sent = nil
	for i := 1; i <= 5; i++ {
		o.Handle(writeMsg(1, uint64(i), "p", "x"))
	}
	if got := env.takeSent(msg.KindUpdate); len(got) != 0 {
		t.Fatalf("updates shipped before the lazy flush: %+v", got)
	}
	env.clk.Advance(10 * time.Millisecond)
	batches := env.takeSent(msg.KindUpdateBatch)
	if len(batches) != 1 {
		t.Fatalf("batch frames: %d, want 1", len(batches))
	}
	if got := len(batches[0].Batch); got != 5 {
		t.Fatalf("batch entries: %d, want 5", got)
	}
	for i, e := range batches[0].Batch {
		if e.Write.Seq != uint64(i+1) {
			t.Fatalf("entry %d out of order: %+v", i, e.Write)
		}
	}
	if s := o.Stats(); s.BatchesSent != 1 || s.BatchedUpdates != 5 {
		t.Fatalf("batch stats: %+v", s)
	}
}

// TestUpdateBatchFanIn: a received batch frame fans into the ordering engine
// entry by entry and applies in order.
func TestUpdateBatchFanIn(t *testing.T) {
	env := newFakeEnv()
	o := newObj(t, env, RoleClientInitiated, strategy.Conference(time.Hour), "parent-store")
	var entries []msg.BatchUpdate
	for i := 1; i <= 3; i++ {
		entries = append(entries, msg.BatchUpdate{
			Write: ids.WiD{Client: 1, Seq: uint64(i)},
			Inv: msg.Invocation{
				Method: webdoc.MethodAppendPage, Page: "p",
				Args: webdoc.EncodeWriteArgs(webdoc.WriteArgs{Content: []byte("x")}),
			},
		})
	}
	o.Handle(&msg.Message{
		Kind: msg.KindUpdateBatch, Object: "obj", From: "parent-store", Batch: entries,
	})
	if s := o.Stats(); s.UpdatesApplied != 3 {
		t.Fatalf("updates applied: %+v", s)
	}
	if applied := o.Applied(); !applied.CoversWrite(ids.WiD{Client: 1, Seq: 3}) {
		t.Fatalf("applied vector missing batched writes: %v", o.Applied())
	}
	got, err := env.ctrl.ServeRead(msg.Invocation{Method: webdoc.MethodGetPage, Page: "p"})
	if err != nil {
		t.Fatal(err)
	}
	pg, err := webdoc.DecodePage(got)
	if err != nil || string(pg.Content) != "xxx" {
		t.Fatalf("content after batch fan-in: %q, %v", pg.Content, err)
	}
}

// TestUpdateBatchGapStillDemands: a batch whose first entry leaves a gap
// buffers and triggers a demand, like a standalone out-of-order update.
func TestUpdateBatchGapStillDemands(t *testing.T) {
	env := newFakeEnv()
	st := strategy.Conference(time.Hour)
	st.ObjectOutdate = strategy.Demand
	o := newObj(t, env, RoleClientInitiated, st, "parent-store")
	o.Handle(&msg.Message{
		Kind: msg.KindUpdateBatch, Object: "obj", From: "parent-store",
		Batch: []msg.BatchUpdate{{
			Write: ids.WiD{Client: 1, Seq: 3}, // gap: 1,2 never arrived
			Inv: msg.Invocation{
				Method: webdoc.MethodAppendPage, Page: "p",
				Args: webdoc.EncodeWriteArgs(webdoc.WriteArgs{Content: []byte("x")}),
			},
		}},
	})
	if s := o.Stats(); s.UpdatesApplied != 0 || s.UpdatesBuffered != 1 {
		t.Fatalf("gap handling stats: %+v", s)
	}
	if got := env.takeSent(msg.KindDemandUpdate); len(got) != 1 {
		t.Fatalf("demands: %+v", got)
	}
}

// TestGossipShipsBatch: an anti-entropy exchange ships all missing updates
// to the peer in one batch frame. A peer that is behind gets no digest back;
// one that knows a write we lack gets ours, so it can ship that write.
func TestGossipShipsBatch(t *testing.T) {
	env := newFakeEnv()
	st := strategy.MirroredSite(time.Hour)
	st.CoherenceTransfer = strategy.CoherencePartial
	o := newObj(t, env, RoleObjectInitiated, st, "")
	for i := 1; i <= 4; i++ {
		o.Handle(writeMsg(1, uint64(i), "p", "x"))
	}
	env.sent = nil
	o.Handle(&msg.Message{
		Kind: msg.KindGossip, Object: "obj", From: "peer-1",
		VVec: vecOf(1, 1),
	})
	batches := env.takeSent(msg.KindUpdateBatch)
	if len(batches) != 1 || len(batches[0].Batch) != 3 {
		t.Fatalf("gossip delta batches: %+v", batches)
	}
	if replies := env.takeSent(msg.KindGossipReply); len(replies) != 0 {
		t.Fatalf("a peer behind us got a gossip reply: %+v", replies)
	}
	o.Handle(&msg.Message{
		Kind: msg.KindGossip, Object: "obj", From: "peer-1",
		VVec: vecOf(1, 4, 2, 1),
	})
	if replies := env.takeSent(msg.KindGossipReply); len(replies) != 1 || !replies[0].VVec.CoversWrite(ids.WiD{Client: 1, Seq: 4}) {
		t.Fatalf("a peer ahead of us got gossip replies %+v, want one with our digest", replies)
	}
	if sent := env.takeSent(msg.KindUpdateBatch); len(sent) != 0 {
		t.Fatalf("a peer that has everything was shipped %+v", sent)
	}
}

// TestBatchRelayedAsOneFramePerHop: a mid-hierarchy store receiving an
// aggregated KindUpdateBatch relays everything the batch releases — including
// previously buffered updates it unblocks — to its children as ONE batch
// frame, instead of one KindUpdate frame per released update.
func TestBatchRelayedAsOneFramePerHop(t *testing.T) {
	env := newFakeEnv()
	o := newObj(t, env, RoleObjectInitiated, immediatePushStrategy(), "parent")
	o.Handle(&msg.Message{Kind: msg.KindSubscribe, Object: "obj", From: "child-1"})
	o.Handle(&msg.Message{Kind: msg.KindSubscribe, Object: "obj", From: "child-2"})
	env.sent = nil

	upd := func(seq uint64) msg.BatchUpdate {
		return msg.BatchUpdate{
			Write: ids.WiD{Client: 1, Seq: seq},
			Inv: msg.Invocation{
				Method: webdoc.MethodAppendPage, Page: "p",
				Args: webdoc.EncodeWriteArgs(webdoc.WriteArgs{Content: []byte("x")}),
			},
		}
	}
	// Seq 4 arrives alone and buffers (gap: 1..3 missing); nothing relays.
	one := upd(4)
	o.Handle(&msg.Message{
		Kind: msg.KindUpdate, Object: "obj", From: "parent",
		Write: one.Write, Inv: one.Inv,
	})
	if got := env.takeSent(msg.KindUpdateBatch); len(got) != 0 {
		t.Fatalf("buffered update must not relay: %+v", got)
	}
	env.sent = nil // drop the gap-triggered demand

	// The demanded batch 1..3 arrives and releases 1,2,3 plus buffered 4.
	o.Handle(&msg.Message{
		Kind: msg.KindUpdateBatch, Object: "obj", From: "parent",
		Batch: []msg.BatchUpdate{upd(1), upd(2), upd(3)},
	})
	if singles := env.takeSent(msg.KindUpdate); len(singles) != 0 {
		t.Fatalf("relay de-batched into %d KindUpdate frames", len(singles))
	}
	relays := env.takeSent(msg.KindUpdateBatch)
	if len(relays) != 2 { // one multicast frame recorded per child
		t.Fatalf("want one batch frame to each of 2 children, got %d", len(relays))
	}
	for _, r := range relays {
		if len(r.Batch) != 4 {
			t.Fatalf("relayed batch carries %d updates, want 4 (3 arrived + 1 unblocked)", len(r.Batch))
		}
	}
	if got := o.Stats(); got.BatchesSent != 1 || got.BatchedUpdates != 4 {
		t.Fatalf("batch stats: %+v", got)
	}
}

// immediatePushStrategy is the Table-1 combination used by the relay and
// fault-regression tests: PRAM, immediate push of partial (operation)
// updates, demand reaction.
func immediatePushStrategy() strategy.Strategy {
	return strategy.Strategy{
		Model:             coherence.PRAM,
		Propagation:       strategy.PropagateUpdate,
		Scope:             strategy.ScopeAll,
		Writers:           strategy.SingleWriter,
		Initiative:        strategy.Push,
		Instant:           strategy.Immediate,
		AccessTransfer:    strategy.TransferPartial,
		CoherenceTransfer: strategy.CoherencePartial,
		ObjectOutdate:     strategy.Demand,
		ClientOutdate:     strategy.Demand,
	}
}

// TestTransferFullMissingElementFailsFast is the regression test for the
// TransferFull livelock: a read for a page that exists neither locally nor
// at the parent must fail with not-found once a completed full fetch still
// lacks it, instead of looping fetch → state-reply → reconsiderParked until
// the read times out (~25k demands/s in the original repro).
func TestTransferFullMissingElementFailsFast(t *testing.T) {
	env := newFakeEnv()
	st := immediatePushStrategy()
	st.AccessTransfer = strategy.TransferFull
	o := newObj(t, env, RoleClientInitiated, st, "parent")
	o.Handle(&msg.Message{
		Kind: msg.KindReadRequest, Object: "obj", From: "reader-ep", Client: 9,
		Inv: msg.Invocation{Method: webdoc.MethodGetPage, Page: "ghost"},
	})
	reqs := env.takeSent(msg.KindStateRequest)
	if len(reqs) != 1 || len(reqs[0].Pages) != 0 {
		t.Fatalf("want one full state request, got %+v", reqs)
	}
	if replies := env.takeSent(msg.KindReadReply); len(replies) != 0 {
		t.Fatalf("read answered before the fetch completed: %+v", replies)
	}
	// The parent's full snapshot arrives — and still has no such page.
	snap, err := control.New(webdoc.New()).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	o.Handle(&msg.Message{
		Kind: msg.KindStateReply, Object: "obj", From: "parent", Payload: whole(snap, msg.Vec{}, 0),
	})
	replies := env.takeSent(msg.KindReadReply)
	if len(replies) != 1 || replies[0].Status != msg.StatusNotFound {
		t.Fatalf("want immediate not-found reply, got %+v", replies)
	}
	if again := env.takeSent(msg.KindStateRequest); len(again) != 0 {
		t.Fatalf("livelock: refetched %d times after a complete full fetch", len(again))
	}
	if got := o.Stats(); got.ReadsFailed != 1 || got.DemandsSent != 1 {
		t.Fatalf("stats: %+v", got)
	}
}

// TestDemandRetryAfterLostReply: a demand whose reply frame is lost must be
// re-sent after the bounded retry delay while the gap persists, and the
// retries must stop once the gap is filled.
func TestDemandRetryAfterLostReply(t *testing.T) {
	env := newFakeEnv()
	o := newObj(t, env, RoleClientInitiated, immediatePushStrategy(), "parent")
	appendInv := msg.Invocation{
		Method: webdoc.MethodAppendPage, Page: "p",
		Args: webdoc.EncodeWriteArgs(webdoc.WriteArgs{Content: []byte("x")}),
	}
	// Seq 3 arrives with 1..2 missing: buffered, gap demand sent.
	o.Handle(&msg.Message{
		Kind: msg.KindUpdate, Object: "obj", From: "parent",
		Write: ids.WiD{Client: 1, Seq: 3}, Inv: appendInv,
	})
	if d := env.takeSent(msg.KindDemandUpdate); len(d) != 1 {
		t.Fatalf("want 1 gap demand, got %d", len(d))
	}
	// The replay batch is lost; after the retry delay the store re-asks.
	env.clk.Advance(60 * time.Millisecond)
	if d := env.takeSent(msg.KindDemandUpdate); len(d) != 1 {
		t.Fatalf("want 1 retried demand after the delay, got %d", len(d))
	}
	// The retried replay arrives and fills the gap.
	o.Handle(&msg.Message{
		Kind: msg.KindUpdateBatch, Object: "obj", From: "parent",
		Batch: []msg.BatchUpdate{
			{Write: ids.WiD{Client: 1, Seq: 1}, Inv: appendInv},
			{Write: ids.WiD{Client: 1, Seq: 2}, Inv: appendInv},
		},
	})
	if applied := o.Applied(); !applied.CoversWrite(ids.WiD{Client: 1, Seq: 3}) {
		t.Fatalf("gap not filled: %v", o.Applied())
	}
	// No further retries once recovered.
	env.clk.Advance(time.Second)
	if d := env.takeSent(msg.KindDemandUpdate); len(d) != 0 {
		t.Fatalf("retries continued after recovery: %d", len(d))
	}
}

// TestDemandRetryRecoversAfterExhaustedCycle: exhausting one retry cycle
// against a dead parent must not permanently disable retries — a fresh gap
// opens a fresh cycle.
func TestDemandRetryRecoversAfterExhaustedCycle(t *testing.T) {
	env := newFakeEnv()
	o := newObj(t, env, RoleClientInitiated, immediatePushStrategy(), "parent")
	appendInv := msg.Invocation{
		Method: webdoc.MethodAppendPage, Page: "p",
		Args: webdoc.EncodeWriteArgs(webdoc.WriteArgs{Content: []byte("x")}),
	}
	// Gap with a dead parent: retries run until the cap, then stop.
	o.Handle(&msg.Message{
		Kind: msg.KindUpdate, Object: "obj", From: "parent",
		Write: ids.WiD{Client: 1, Seq: 2}, Inv: appendInv,
	})
	for i := 0; i < maxDemandRetries+5; i++ {
		env.clk.Advance(60 * time.Millisecond)
	}
	if d := env.takeSent(msg.KindDemandUpdate); len(d) != maxDemandRetries+1 {
		t.Fatalf("want initial demand + %d retries, got %d", maxDemandRetries, len(d))
	}
	// The parent heals and fills the gap; a new gap later must retry again.
	o.Handle(&msg.Message{
		Kind: msg.KindUpdate, Object: "obj", From: "parent",
		Write: ids.WiD{Client: 1, Seq: 1}, Inv: appendInv,
	})
	env.sent = nil
	o.Handle(&msg.Message{
		Kind: msg.KindUpdate, Object: "obj", From: "parent",
		Write: ids.WiD{Client: 1, Seq: 4}, Inv: appendInv,
	})
	if d := env.takeSent(msg.KindDemandUpdate); len(d) != 1 {
		t.Fatalf("want fresh gap demand, got %d", len(d))
	}
	env.clk.Advance(60 * time.Millisecond)
	if d := env.takeSent(msg.KindDemandUpdate); len(d) != 1 {
		t.Fatalf("exhausted earlier cycle disabled retries: got %d retried demands, want 1", len(d))
	}
}

// pageTokens reads one page and decodes its content to a string.
func pageTokens(t *testing.T, env *fakeEnv, page string) string {
	t.Helper()
	pg, err := webdoc.DecodePage(pageContent(t, env, page))
	if err != nil {
		t.Fatal(err)
	}
	return string(pg.Content)
}

// TestStalePageStateReplyDoesNotRollBackPage is the regression for the chaos
// suite's rare MW/PRAM flake under sequential consistency: demand retries
// plus link-level duplication mean several per-page StateReply frames can be
// in flight, and a delayed one can land after newer pushes. Before the stale
// guard, ApplyElement overwrote the page with the old snapshot and
// reapplyBeyond could only restore ops present in the update log — ops whose
// effects had arrived inside the subscribe-time full state transfer were
// never logged — leaving the page with a permanent mid-sequence gap (client
// 1's tokens jumping 1 -> 4) that any reader could observe.
func TestStalePageStateReplyDoesNotRollBackPage(t *testing.T) {
	env := newFakeEnv()
	o := newObj(t, env, RoleClientInitiated, strategy.Whiteboard(), "parent-store")

	appendUpd := func(seq uint64) *coherence.Update {
		return &coherence.Update{
			Write: ids.WiD{Client: 1, Seq: seq}, GlobalSeq: seq,
			Inv: msg.Invocation{
				Method: webdoc.MethodAppendPage, Page: "p",
				Args: webdoc.EncodeWriteArgs(webdoc.WriteArgs{
					Content: []byte(fmt.Sprintf("c1.%d;", seq)),
				}),
			},
		}
	}

	// Parent history: token 1 applied, element snapshot taken (the reply
	// that will arrive late), then tokens 2-3 and a full snapshot.
	parent := control.New(webdoc.New())
	if err := parent.ApplyOp(appendUpd(1)); err != nil {
		t.Fatal(err)
	}
	staleEl, err := parent.SnapshotElement("p")
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(2); seq <= 3; seq++ {
		if err := parent.ApplyOp(appendUpd(seq)); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := parent.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Bootstrap: tokens 1-3 arrive via full state transfer (never logged).
	o.Handle(&msg.Message{
		Kind: msg.KindSubscribeAck, Object: "obj", From: "parent-store",
		Payload: whole(snap, vecOf(1, 3), 4),
	})
	// Tokens 4-5 arrive as ordered pushes (these ARE logged).
	for seq := uint64(4); seq <= 5; seq++ {
		u := appendUpd(seq)
		o.Handle(&msg.Message{
			Kind: msg.KindUpdate, Object: "obj", From: "parent-store",
			Write: u.Write, GlobalSeq: u.GlobalSeq, Inv: u.Inv,
		})
	}
	before := pageTokens(t, env, "p")
	for seq := 1; seq <= 5; seq++ {
		if !strings.Contains(before, fmt.Sprintf("c1.%d;", seq)) {
			t.Fatalf("setup: token %d missing from %q", seq, before)
		}
	}

	// The stale per-page reply (vector {1:1}, long since covered) lands.
	o.Handle(&msg.Message{
		Kind: msg.KindStateReply, Object: "obj", From: "parent-store",
		Pages: []string{"p"}, Payload: staleEl,
		VVec: vecOf(1, 1),
	})
	if after := pageTokens(t, env, "p"); after != before {
		t.Fatalf("stale page reply rolled content back:\n before %q\n after  %q", before, after)
	}
}

// TestEmptyVectorSnapshotDoesNotRollBack is the regression for the chaos
// suite's lost update (cache2 holding "c1.2;c1.3;…" against perm's
// "c1.1;c1.2;…"): a snapshot taken before the object's first write carries an
// EMPTY vector, and subscribe retries plus link duplication make a second,
// late copy of it routine. The stale-snapshot guard used to require a
// non-empty vector, so the late copy installed an empty document over newer
// content and reapplyBeyond restored only the logged ops — what had arrived
// inside the earlier snapshot (c1.1) was gone for good, with no digest to
// flag it. Each install path that takes a snapshot from the parent is
// driven: the subscribe ack, the full state reply and the per-page one.
func TestEmptyVectorSnapshotDoesNotRollBack(t *testing.T) {
	appendUpd := func(seq uint64) *coherence.Update {
		return &coherence.Update{
			Write: ids.WiD{Client: 1, Seq: seq}, GlobalSeq: seq,
			Inv: msg.Invocation{
				Method: webdoc.MethodAppendPage, Page: "p",
				Args: webdoc.EncodeWriteArgs(webdoc.WriteArgs{
					Content: []byte(fmt.Sprintf("c1.%d;", seq)),
				}),
			},
		}
	}
	// The parent before its first write: page "p" exists and is empty.
	early := webdoc.New()
	early.Put("p", nil, "text/html", 1)
	parent := control.New(early)
	emptySnap, err := parent.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	emptyEl, err := parent.SnapshotElement("p")
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.ApplyOp(appendUpd(1)); err != nil {
		t.Fatal(err)
	}
	snap1, err := parent.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	late := map[string]*msg.Message{
		"subscribe ack":    {Kind: msg.KindSubscribeAck, Payload: whole(emptySnap, msg.Vec{}, 1)},
		"full state reply": {Kind: msg.KindStateReply, Payload: whole(emptySnap, msg.Vec{}, 1)},
		"page state reply": {Kind: msg.KindStateReply, Payload: emptyEl, Pages: []string{"p"}},
	}
	for name, m := range late {
		t.Run(name, func(t *testing.T) {
			env := newFakeEnv()
			o := newObj(t, env, RoleClientInitiated, strategy.Whiteboard(), "parent-store")
			// The very first bootstrap has an empty vector too — a parent
			// seeded with content and not yet written to — and must install.
			first := *m
			first.Kind, first.Payload, first.Pages = msg.KindSubscribeAck, whole(emptySnap, msg.Vec{}, 1), nil
			first.Object, first.From = "obj", "parent-store"
			o.Handle(&first)
			if _, err := env.ctrl.ServeRead(msg.Invocation{Method: webdoc.MethodGetPage, Page: "p"}); err != nil {
				t.Fatalf("first bootstrap with an empty vector was not installed: %v", err)
			}
			// A retried subscribe's ack brings c1.1 inside a snapshot (never
			// logged here); c1.2 arrives as an ordered push (logged).
			o.Handle(&msg.Message{
				Kind: msg.KindSubscribeAck, Object: "obj", From: "parent-store",
				Payload: whole(snap1, vecOf(1, 1), 2),
			})
			u := appendUpd(2)
			o.Handle(&msg.Message{
				Kind: msg.KindUpdate, Object: "obj", From: "parent-store",
				Write: u.Write, GlobalSeq: u.GlobalSeq, Inv: u.Inv,
			})
			const want = "c1.1;c1.2;"
			if got := pageTokens(t, env, "p"); got != want {
				t.Fatalf("setup: page = %q, want %q", got, want)
			}
			// The duplicate of the pre-first-write snapshot lands last.
			dup := *m
			dup.Object, dup.From = "obj", "parent-store"
			o.Handle(&dup)
			if got := pageTokens(t, env, "p"); got != want {
				t.Fatalf("late empty-vector %s rolled the page back: %q, want %q", name, got, want)
			}
		})
	}
}

// TestEmptyVectorSnapshotAfterPageFetch: a replica that knows a page only
// through a per-page fetch (no ordered applies, no full transfer) has an
// empty applied vector; what it knows lives in that page's own vector. This
// is a cache whose first read fetched the page before its delayed subscribe
// ack arrived: the ack, and a late copy of a pre-first-write page reply,
// carry empty vectors and must not replace the fetched page. The chaos suite
// lost c1.1 at cache2 this way — the page's vector went on claiming the
// write, so the pushed update was skipped as already covered.
func TestEmptyVectorSnapshotAfterPageFetch(t *testing.T) {
	doc := webdoc.New()
	doc.Put("p", nil, "text/html", 1)
	emptyEl, err := doc.AppendElement(nil, "p")
	if err != nil {
		t.Fatal(err)
	}
	emptySnap, err := doc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	doc.Put("p", []byte("c1.1;"), "text/html", 2)
	el1, err := doc.AppendElement(nil, "p")
	if err != nil {
		t.Fatal(err)
	}
	late := map[string]*msg.Message{
		"page state reply": {Kind: msg.KindStateReply, Pages: []string{"p"}, Payload: emptyEl},
		"subscribe ack":    {Kind: msg.KindSubscribeAck, Payload: whole(emptySnap, msg.Vec{}, 1)},
	}
	for name, m := range late {
		t.Run(name, func(t *testing.T) {
			env := newFakeEnv()
			o := newObj(t, env, RoleClientInitiated, strategy.PopularEventPage(), "parent-store")
			o.Handle(&msg.Message{
				Kind: msg.KindStateReply, Object: "obj", From: "parent-store",
				Pages: []string{"p"}, Payload: el1, VVec: vecOf(1, 1),
			})
			dup := *m
			dup.Object, dup.From = "obj", "parent-store"
			o.Handle(&dup)
			if got := pageTokens(t, env, "p"); got != "c1.1;" {
				t.Fatalf("late empty-vector %s replaced the fetched page: %q", name, got)
			}
		})
	}
}

// TestReorderedSnapshotsDoNotRollBackFetchedPage: a page fetched on its own
// is known through that page's vector, not the applied vector. An older
// transfer arriving after it — a jitter-reordered page reply, or a whole
// snapshot taken earlier — whose vector the applied vector does not cover
// must still count as stale, or it replaces the page while the page's vector
// keeps claiming c1.2 and the pushed update is skipped as covered: the chaos
// suite's "saw seq 3, expected 2" at cache2.
func TestReorderedSnapshotsDoNotRollBackFetchedPage(t *testing.T) {
	doc := webdoc.New()
	doc.Append("p", []byte("c1.1;"), 1)
	oldEl, err := doc.AppendElement(nil, "p")
	if err != nil {
		t.Fatal(err)
	}
	oldSnap, err := doc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	doc.Append("p", []byte("c1.2;"), 2)
	newEl, err := doc.AppendElement(nil, "p")
	if err != nil {
		t.Fatal(err)
	}
	// Client 3 wrote another page in between: its component is in both
	// vectors and in nothing this replica has applied.
	oldVec := vecOf(1, 1, 3, 1)
	late := map[string]*msg.Message{
		"page state reply": {Kind: msg.KindStateReply, Pages: []string{"p"}, Payload: oldEl, VVec: oldVec},
		"full state reply": {Kind: msg.KindStateReply, Payload: whole(oldSnap, oldVec, 3)},
		"subscribe ack":    {Kind: msg.KindSubscribeAck, Payload: whole(oldSnap, oldVec, 3)},
	}
	for name, m := range late {
		t.Run(name, func(t *testing.T) {
			env := newFakeEnv()
			o := newObj(t, env, RoleClientInitiated, strategy.Whiteboard(), "parent-store")
			o.Handle(&msg.Message{
				Kind: msg.KindStateReply, Object: "obj", From: "parent-store",
				Pages: []string{"p"}, Payload: newEl, VVec: vecOf(1, 2, 3, 1),
			})
			old := *m
			old.Object, old.From = "obj", "parent-store"
			o.Handle(&old)
			if got := pageTokens(t, env, "p"); got != "c1.1;c1.2;" {
				t.Fatalf("older %s replaced the fetched page: %q", name, got)
			}
		})
	}
}

// TestBufferedBatchDemandsOnce: a batch whose entries all land behind a gap
// buffers every one of them, and must ask the parent for the missing prefix
// once. One demand per buffered entry is what turned a reordering into a
// storm in the chaos suite: every demand is answered with the same replay,
// and each of its already-applied entries asked again while anything was
// still buffered.
func TestBufferedBatchDemandsOnce(t *testing.T) {
	env := newFakeEnv()
	o := newObj(t, env, RoleClientInitiated, strategy.Whiteboard(), "parent-store")
	inv := msg.Invocation{
		Method: webdoc.MethodAppendPage, Page: "p",
		Args: webdoc.EncodeWriteArgs(webdoc.WriteArgs{Content: []byte("x")}),
	}
	batch := &msg.Message{Kind: msg.KindUpdateBatch, Object: "obj", From: "parent-store"}
	for seq := uint64(3); seq <= 6; seq++ {
		batch.Batch = append(batch.Batch, msg.BatchUpdate{Write: ids.WiD{Client: 1, Seq: seq}, GlobalSeq: seq, Inv: inv})
	}
	o.Handle(batch)
	if got := o.Engine().Pending(); got != len(batch.Batch) {
		t.Fatalf("setup: %d updates buffered, want %d", got, len(batch.Batch))
	}
	if d := env.takeSent(msg.KindDemandUpdate); len(d) != 1 {
		t.Fatalf("a batch buffering %d entries sent %d demands, want 1", len(batch.Batch), len(d))
	}
	// The next arrival that still finds a gap asks again: suppression is per
	// arrival, not for as long as the gap stays open.
	o.Handle(&msg.Message{
		Kind: msg.KindUpdate, Object: "obj", From: "parent-store",
		Write: ids.WiD{Client: 1, Seq: 7}, GlobalSeq: 7, Inv: inv,
	})
	if d := env.takeSent(msg.KindDemandUpdate); len(d) != 1 {
		t.Fatalf("a later out-of-order update sent %d demands, want 1", len(d))
	}
}

// vecOf builds a vector from client, seq pairs.
func vecOf(kv ...uint64) msg.Vec {
	var v msg.Vec
	for i := 0; i+1 < len(kv); i += 2 {
		v.Set(ids.ClientID(kv[i]), kv[i+1])
	}
	return v
}
