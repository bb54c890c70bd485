package replication

import (
	"testing"
	"time"

	"repro/internal/coherence"
	"repro/internal/control"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/semantics/webdoc"
	"repro/internal/strategy"
	"repro/internal/vclock"
)

// newDigestObj builds an object with heartbeats enabled at the given
// interval. Jitter adds at most interval/4, so advancing the fake clock by
// 2×interval always fires at least one heartbeat.
func newDigestObj(t *testing.T, env Env, role Role, st strategy.Strategy, parent string, interval time.Duration) *Object {
	t.Helper()
	o, err := New(Config{
		Env: env, Object: "obj", Self: 1, Addr: "self", Role: role,
		Parent: parent, Strat: st,
		Tuning: Tuning{ReadTimeout: time.Second, DigestInterval: interval},
	})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestDigestHeartbeatEmission(t *testing.T) {
	env := newFakeEnv()
	o := newDigestObj(t, env, RolePermanent, strategy.Conference(time.Hour), "", 100*time.Millisecond)

	// No children yet: nothing to heartbeat, no timer churn.
	env.clk.Advance(300 * time.Millisecond)
	if ds := env.takeSent(msg.KindDigest); len(ds) != 0 {
		t.Fatalf("digest sent with no children: %+v", ds)
	}

	o.Handle(&msg.Message{Kind: msg.KindSubscribe, Object: "obj", From: "child-1"})
	env.takeSent(msg.KindSubscribeAck)
	o.Handle(writeMsg(1, 1, "p", "x"))
	env.sent = nil

	env.clk.Advance(200 * time.Millisecond)
	ds := env.takeSent(msg.KindDigest)
	if len(ds) == 0 {
		t.Fatalf("no heartbeat within 2x interval")
	}
	if ds[0].To != "child-1" || ds[0].From != "self" {
		t.Fatalf("digest addressing: %+v", ds[0])
	}
	if !ds[0].VVec.CoversWrite(ids.WiD{Client: 1, Seq: 1}) {
		t.Fatalf("digest vector misses applied write: %+v", ds[0].VVec)
	}

	// The heartbeat re-arms, and the cached snapshot tracks later applies.
	o.Handle(writeMsg(1, 2, "p", "y"))
	env.sent = nil
	env.clk.Advance(200 * time.Millisecond)
	ds = env.takeSent(msg.KindDigest)
	if len(ds) == 0 || !ds[0].VVec.CoversWrite(ids.WiD{Client: 1, Seq: 2}) {
		t.Fatalf("re-armed digest stale: %+v", ds)
	}
}

func TestDigestDisabledByDefault(t *testing.T) {
	env := newFakeEnv()
	o := newObj(t, env, RolePermanent, strategy.Conference(time.Hour), "")
	o.Handle(&msg.Message{Kind: msg.KindSubscribe, Object: "obj", From: "child-1"})
	env.takeSent(msg.KindSubscribeAck)
	o.Handle(writeMsg(1, 1, "p", "x"))
	env.clk.Advance(time.Minute)
	if ds := env.takeSent(msg.KindDigest); len(ds) != 0 {
		t.Fatalf("heartbeats must be off by default, got %+v", ds)
	}
}

func TestDigestGapTriggersDemand(t *testing.T) {
	env := newFakeEnv()
	o := newObj(t, env, RoleClientInitiated, strategy.Conference(time.Hour), "parent-store")

	// A digest announcing writes we lack must trigger exactly one demand.
	o.Handle(&msg.Message{
		Kind: msg.KindDigest, Object: "obj", From: "parent-store",
		VVec: vecOf(1, 3),
	})
	dem := env.takeSent(msg.KindDemandUpdate)
	if len(dem) != 1 || dem[0].To != "parent-store" {
		t.Fatalf("demands after gap digest: %+v", dem)
	}
	if s := o.Stats(); s.DigestsRecv != 1 || s.DigestDemands != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestDigestCoveredStaysQuiet(t *testing.T) {
	env := newFakeEnv()
	o := newObj(t, env, RoleClientInitiated, strategy.Conference(time.Hour), "parent-store")
	o.Handle(&msg.Message{
		Kind: msg.KindUpdate, Object: "obj", From: "parent-store",
		Write: ids.WiD{Client: 1, Seq: 1},
		Inv:   writeMsg(1, 1, "p", "x").Inv,
	})
	env.sent = nil
	o.Handle(&msg.Message{
		Kind: msg.KindDigest, Object: "obj", From: "parent-store",
		VVec: vecOf(1, 1),
	})
	if dem := env.takeSent(msg.KindDemandUpdate); len(dem) != 0 {
		t.Fatalf("covered digest triggered demand: %+v", dem)
	}
	if s := o.Stats(); s.DigestDemands != 0 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestDigestIgnoresNonParentSender(t *testing.T) {
	env := newFakeEnv()
	o := newObj(t, env, RoleClientInitiated, strategy.Conference(time.Hour), "parent-store")
	o.Handle(&msg.Message{
		Kind: msg.KindDigest, Object: "obj", From: "someone-else",
		VVec: vecOf(1, 3),
	})
	if dem := env.takeSent(msg.KindDemandUpdate); len(dem) != 0 {
		t.Fatalf("non-parent digest triggered demand: %+v", dem)
	}
}

// TestDigestDoesNotDuplicateOutstandingDemand pins the integration with the
// demand-retry machinery: while a demand is in flight (retry timer armed, no
// coherence response yet), a heartbeat showing the same gap must not issue a
// second request — the retry timer owns re-requests. Once the parent
// answers, a new gap digest demands again.
func TestDigestDoesNotDuplicateOutstandingDemand(t *testing.T) {
	env := newFakeEnv()
	o := newObj(t, env, RoleClientInitiated, strategy.Conference(time.Hour), "parent-store")

	o.demandFromParent()
	if dem := env.takeSent(msg.KindDemandUpdate); len(dem) != 1 {
		t.Fatalf("setup demand: %+v", dem)
	}
	o.Handle(&msg.Message{
		Kind: msg.KindDigest, Object: "obj", From: "parent-store",
		VVec: vecOf(1, 3),
	})
	if dem := env.takeSent(msg.KindDemandUpdate); len(dem) != 0 {
		t.Fatalf("digest duplicated an outstanding demand: %+v", dem)
	}
	if s := o.Stats(); s.DigestDemands != 0 {
		t.Fatalf("stats counted a suppressed demand: %+v", s)
	}

	// The parent answers ("nothing missing"); the demand cycle completes.
	o.Handle(&msg.Message{Kind: msg.KindUpdateAck, Object: "obj", From: "parent-store"})
	o.Handle(&msg.Message{
		Kind: msg.KindDigest, Object: "obj", From: "parent-store",
		VVec: vecOf(1, 3),
	})
	if dem := env.takeSent(msg.KindDemandUpdate); len(dem) != 1 {
		t.Fatalf("post-answer gap digest should demand: %+v", dem)
	}
	if s := o.Stats(); s.DigestDemands != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestDigestGapDemandIsRetried pins the interplay promised in the README: a
// digest-initiated demand whose frame (or reply) is lost IS re-sent on the
// DemandRetry cadence, even though a silent-tail-loss gap has no buffered
// updates and no parked reads to witness it — recovery must not wait a full
// extra heartbeat.
func TestDigestGapDemandIsRetried(t *testing.T) {
	env := newFakeEnv()
	o := newObj(t, env, RoleClientInitiated, strategy.Conference(time.Hour), "parent-store")

	o.Handle(&msg.Message{
		Kind: msg.KindDigest, Object: "obj", From: "parent-store",
		VVec: vecOf(1, 3),
	})
	if dem := env.takeSent(msg.KindDemandUpdate); len(dem) != 1 {
		t.Fatalf("initial digest demand: %+v", dem)
	}
	if o.engine.Pending() != 0 || len(o.parked) != 0 {
		t.Fatalf("precondition: the gap must be silent (no pending, no parked)")
	}
	// The demand (or its reply) is lost; the retry timer must chase it.
	env.clk.Advance(o.tune.DemandRetry)
	if dem := env.takeSent(msg.KindDemandUpdate); len(dem) != 1 {
		t.Fatalf("lost digest demand not retried: %+v", dem)
	}
	// The parent finally answers; the cycle completes and retries stop.
	o.Handle(&msg.Message{Kind: msg.KindUpdateAck, Object: "obj", From: "parent-store"})
	env.clk.Advance(10 * o.tune.DemandRetry)
	if dem := env.takeSent(msg.KindDemandUpdate); len(dem) != 0 {
		t.Fatalf("retries continued after the parent answered: %+v", dem)
	}
}

// TestDigestAdvertisesLWWLoserComponent: an eventual-model write that loses
// the last-writer-wins race advances the applied vector without releasing an
// update; the heartbeat digest must still advertise that component — a
// cached snapshot that misses it would under-report the store's knowledge.
func TestDigestAdvertisesLWWLoserComponent(t *testing.T) {
	env := newFakeEnv()
	o, err := New(Config{
		Env: env, Object: "obj", Self: 1, Addr: "self", Role: RolePermanent,
		Strat:  strategy.MirroredSite(time.Hour),
		Tuning: Tuning{ReadTimeout: time.Second, DigestInterval: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	winner := writeMsg(2, 1, "p", "winner")
	winner.Stamp = vclock.Stamp{Time: 100, Client: 2}
	o.Handle(winner)
	loser := writeMsg(1, 1, "p", "loser") // same page, older stamp: LWW loses
	loser.Stamp = vclock.Stamp{Time: 10, Client: 1}
	o.Handle(loser)

	v := o.applied()
	if !v.CoversWrite(ids.WiD{Client: 1, Seq: 1}) {
		t.Fatalf("digest misses the LWW loser's component: %+v", v)
	}
}

// TestUpdateAckClosesUndisseminatableGap: a demand answered with "nothing
// missing" carries the parent's applied vector, which may cover writes that
// will never be sent (LWW losers are not logged). The child must fold that
// vector into its knowledge, or every subsequent heartbeat would re-trigger
// the same futile demand forever.
func TestUpdateAckClosesUndisseminatableGap(t *testing.T) {
	env := newFakeEnv()
	o := newObj(t, env, RoleClientInitiated, strategy.Conference(time.Hour), "parent-store")

	gapDigest := &msg.Message{
		Kind: msg.KindDigest, Object: "obj", From: "parent-store",
		VVec: vecOf(1, 3),
	}
	o.Handle(gapDigest)
	if dem := env.takeSent(msg.KindDemandUpdate); len(dem) != 1 {
		t.Fatalf("first gap digest should demand: %+v", dem)
	}
	// The parent has nothing to replay (the covered write was superseded
	// before dissemination) and acks with its applied vector.
	o.Handle(&msg.Message{
		Kind: msg.KindUpdateAck, Object: "obj", From: "parent-store",
		VVec: vecOf(1, 3),
	})
	// The same digest again: the gap is closed, no demand loop.
	o.Handle(gapDigest)
	if dem := env.takeSent(msg.KindDemandUpdate); len(dem) != 0 {
		t.Fatalf("ack-covered gap re-demanded: %+v", dem)
	}
}

// TestDemandFromSeededStoreSendsFullState: a mid-tier store whose knowledge
// arrived by state transfer has nothing in its log for those writes; a
// child's demand must be answered with full state, never with a bare
// "nothing missing" ack — the child would merge the ack's vector and mark
// content it never received as covered, silencing every future heartbeat.
func TestDemandFromSeededStoreSendsFullState(t *testing.T) {
	env := newFakeEnv()
	o := newObj(t, env, RoleObjectInitiated, strategy.Conference(time.Hour), "up")

	// Build a real snapshot carrying one write, and seed the mid-tier with
	// it (subscribe bootstrap): fetchVec/engine advance, the log does not.
	src := control.New(webdoc.New())
	if err := src.ApplyOp(&coherence.Update{
		Write: ids.WiD{Client: 1, Seq: 1},
		Inv: msg.Invocation{
			Method: webdoc.MethodAppendPage, Page: "p",
			Args: webdoc.EncodeWriteArgs(webdoc.WriteArgs{Content: []byte("x")}),
		},
	}); err != nil {
		t.Fatal(err)
	}
	snap, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	o.Handle(&msg.Message{
		Kind: msg.KindSubscribeAck, Object: "obj", From: "up",
		Payload: whole(snap, vecOf(1, 1), 0),
	})
	if applied := o.Applied(); !applied.CoversWrite(ids.WiD{Client: 1, Seq: 1}) {
		t.Fatalf("seed did not take: %+v", o.Applied())
	}

	// A child that missed the relay demands with an empty vector.
	o.Handle(&msg.Message{Kind: msg.KindDemandUpdate, Object: "obj", From: "child-1"})
	if acks := env.takeSent(msg.KindUpdateAck); len(acks) != 0 {
		t.Fatalf("seeded store acked 'nothing missing' for unlogged writes: %+v", acks)
	}
	replies := env.takeSent(msg.KindStateReply)
	if len(replies) != 1 || len(replies[0].Payload) == 0 {
		t.Fatalf("want one full-state reply, got %+v", replies)
	}
	if st, _ := splitWhole(t, replies[0].Payload); !st.Applied.CoversWrite(ids.WiD{Client: 1, Seq: 1}) {
		t.Fatalf("full-state reply misses seeded vector: %+v", st.Applied)
	}
}

func TestDigestTimerStopsOnClose(t *testing.T) {
	env := newFakeEnv()
	o := newDigestObj(t, env, RolePermanent, strategy.Conference(time.Hour), "", 50*time.Millisecond)
	o.Handle(&msg.Message{Kind: msg.KindSubscribe, Object: "obj", From: "child-1"})
	env.takeSent(msg.KindSubscribeAck)
	o.Close()
	env.sent = nil
	env.clk.Advance(time.Second)
	if ds := env.takeSent(msg.KindDigest); len(ds) != 0 {
		t.Fatalf("closed object kept heartbeating: %+v", ds)
	}
}
