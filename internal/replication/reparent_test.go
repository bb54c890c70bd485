package replication

import (
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/strategy"
	"repro/internal/wal"
)

// newReparentObj builds a cache replica with an explicit retry cadence and,
// optionally, a resolver seam and a digest-based parent watch.
func newReparentObj(t *testing.T, env Env, parent string, resolve func() []ParentCandidate, interval time.Duration, after int) *Object {
	t.Helper()
	o, err := New(Config{
		Env: env, Object: "obj", Self: 7, Addr: "self", Role: RoleClientInitiated,
		Parent: parent, Strat: strategy.Conference(time.Hour), ResolveParent: resolve,
		Tuning: Tuning{
			ReadTimeout: time.Second, DemandRetry: 50 * time.Millisecond,
			DigestInterval: interval, ReparentAfter: after,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// exhaustSubscribe drives the retry cycle to its budget: each step fires one
// retry timer until armSubscribeRetry sees maxSubscribeRetries.
func exhaustSubscribe(env *fakeEnv) {
	for i := 0; i <= maxSubscribeRetries; i++ {
		env.clk.Advance(50 * time.Millisecond)
	}
}

// The stranded-child regression: exhausting the subscribe retry budget used
// to leave the replica outside any children set forever, even when the same
// parent came back. Now the cooldown re-dials it and the late ack completes
// a (same-parent) re-parent handshake.
func TestSubscribeExhaustionRecoversSameParentLater(t *testing.T) {
	env := newFakeEnv()
	o := newReparentObj(t, env, "p1", nil, 0, 0)
	defer o.Close()
	o.SubscribeToParent()
	exhaustSubscribe(env)
	env.sent = nil

	// The budget is spent; nothing more is dialled within one retry period.
	env.clk.Advance(50 * time.Millisecond)
	if subs := env.takeSent(msg.KindSubscribe); len(subs) != 0 {
		t.Fatalf("subscribe sent past the budget without cooldown: %+v", subs)
	}

	// After the cooldown the same parent is dialled again...
	env.clk.Advance(50 * time.Millisecond * maxSubscribeRetries / 2)
	subs := env.takeSent(msg.KindSubscribe)
	if len(subs) == 0 || subs[0].To != "p1" {
		t.Fatalf("no same-parent-later re-subscribe: %+v", subs)
	}
	// ...and its ack completes the handshake where the old code stayed
	// stranded forever.
	o.Handle(&msg.Message{Kind: msg.KindSubscribeAck, Object: "obj", From: "p1"})
	if !o.subAcked {
		t.Fatal("late parent ack did not complete the handshake")
	}
	if s := o.Stats(); s.ReparentsDone != 1 {
		t.Fatalf("ReparentsDone = %d, want 1", s.ReparentsDone)
	}
}

func TestSubscribeExhaustionReparentsToResolvedCandidate(t *testing.T) {
	env := newFakeEnv()
	resolve := func() []ParentCandidate {
		return []ParentCandidate{
			{Addr: "p1", Role: RoleObjectInitiated},          // the dead parent
			{Addr: "self", Role: RolePermanent},              // never itself
			{Addr: "other-cache", Role: RoleClientInitiated}, // not closer to the root
			{Addr: "perm", Role: RolePermanent},
		}
	}
	o := newReparentObj(t, env, "p1", resolve, 0, 0)
	defer o.Close()
	o.SubscribeToParent()
	exhaustSubscribe(env)

	subs := env.takeSent(msg.KindSubscribe)
	if len(subs) == 0 || subs[len(subs)-1].To != "perm" {
		t.Fatalf("exhaustion did not re-subscribe at the permanent store: %+v", subs)
	}
	if o.Parent() != "perm" {
		t.Fatalf("parent = %q, want perm", o.Parent())
	}
	// The presumed-dead parent gets a best-effort unsubscribe so it stops
	// pushing here if it was merely slow.
	if us := env.takeSent(msg.KindUnsubscribe); len(us) != 1 || us[0].To != "p1" {
		t.Fatalf("unsubscribe to old parent: %+v", us)
	}
	o.Handle(&msg.Message{Kind: msg.KindSubscribeAck, Object: "obj", From: "perm"})
	if s := o.Stats(); s.ReparentsDone != 1 {
		t.Fatalf("ReparentsDone = %d, want 1", s.ReparentsDone)
	}
}

func TestMissedDigestsTriggerReparent(t *testing.T) {
	env := newFakeEnv()
	resolve := func() []ParentCandidate {
		return []ParentCandidate{{Addr: "perm", Role: RolePermanent}}
	}
	o := newReparentObj(t, env, "mirror", resolve, 100*time.Millisecond, 2)
	defer o.Close()
	o.SubscribeToParent()
	o.Handle(&msg.Message{Kind: msg.KindSubscribeAck, Object: "obj", From: "mirror"})
	env.sent = nil

	// Two full watch periods (1.5 intervals each) of parent silence: the
	// watch declares the mirror dead and adopts the permanent store.
	env.clk.Advance(500 * time.Millisecond)
	subs := env.takeSent(msg.KindSubscribe)
	if len(subs) == 0 || subs[len(subs)-1].To != "perm" {
		t.Fatalf("silent parent did not trigger re-parent: %+v", subs)
	}
	if s := o.Stats(); s.ParentMissedDigests < 2 {
		t.Fatalf("ParentMissedDigests = %d, want >= 2", s.ParentMissedDigests)
	}
	o.Handle(&msg.Message{Kind: msg.KindSubscribeAck, Object: "obj", From: "perm"})
	if o.Parent() != "perm" || o.Stats().ReparentsDone != 1 {
		t.Fatalf("parent %q, stats %+v", o.Parent(), o.Stats())
	}
}

func TestParentDigestsKeepWatchQuiet(t *testing.T) {
	env := newFakeEnv()
	resolve := func() []ParentCandidate {
		return []ParentCandidate{{Addr: "perm", Role: RolePermanent}}
	}
	o := newReparentObj(t, env, "mirror", resolve, 100*time.Millisecond, 2)
	defer o.Close()
	o.SubscribeToParent()
	o.Handle(&msg.Message{Kind: msg.KindSubscribeAck, Object: "obj", From: "mirror"})
	env.sent = nil

	// A healthy parent lands a digest every interval; the watch never fires.
	for i := 0; i < 10; i++ {
		env.clk.Advance(100 * time.Millisecond)
		o.Handle(&msg.Message{Kind: msg.KindDigest, Object: "obj", From: "mirror"})
	}
	if subs := env.takeSent(msg.KindSubscribe); len(subs) != 0 {
		t.Fatalf("healthy parent was re-parented away: %+v", subs)
	}
	if o.Parent() != "mirror" {
		t.Fatalf("parent = %q, want mirror", o.Parent())
	}
	if s := o.Stats(); s.ReparentsDone != 0 {
		t.Fatalf("stats: %+v", s)
	}
}

// Group commit: under the always policy acks park until FlushAcks pays one
// barrier for the whole batch; records are stable before any ack leaves.
func TestGroupCommitBatchesAcks(t *testing.T) {
	dir := t.TempDir()
	env := newFakeEnv()
	wlog, rec, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(Config{
		Env: env, Object: "obj", Self: 1, Addr: "self", Role: RolePermanent,
		Strat: strategy.Conference(time.Hour), WAL: wlog, Recovered: rec,
		Tuning: Tuning{ReadTimeout: time.Second, Durability: Durability{Fsync: wal.SyncAlways}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	o.Handle(writeMsg(1, 1, "p", "a"))
	o.Handle(writeMsg(1, 2, "p", "b"))
	if acks := env.takeSent(msg.KindWriteReply); len(acks) != 0 {
		t.Fatalf("acks escaped before the batch barrier: %+v", acks)
	}
	o.FlushAcks()
	if acks := env.takeSent(msg.KindWriteReply); len(acks) != 2 {
		t.Fatalf("flushed acks: %+v", acks)
	}
	if s := o.Stats(); s.GroupCommits != 1 {
		t.Fatalf("GroupCommits = %d, want 1", s.GroupCommits)
	}

	// A batch of one is a barrier too, but not a group commit.
	o.Handle(writeMsg(1, 3, "p", "c"))
	o.FlushAcks()
	if acks := env.takeSent(msg.KindWriteReply); len(acks) != 1 {
		t.Fatalf("single flushed ack: %+v", acks)
	}
	if s := o.Stats(); s.GroupCommits != 1 || s.WritesAcked != 3 {
		t.Fatalf("after a batch of one: GroupCommits = %d, WritesAcked = %d, want 1 and 3", s.GroupCommits, s.WritesAcked)
	}
}
