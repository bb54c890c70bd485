package replication

import (
	"testing"
	"time"

	"repro/internal/coherence"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/semantics/webdoc"
	"repro/internal/strategy"
)

// newSubscribedCache is a cache below "parent" whose subscription is
// acknowledged, with a 50ms demand retry.
func newSubscribedCache(t *testing.T, env Env, st strategy.Strategy) *Object {
	return newSubscribedCacheRetrying(t, env, st, 50*time.Millisecond)
}

func newSubscribedCacheRetrying(t *testing.T, env Env, st strategy.Strategy, demandRetry time.Duration) *Object {
	t.Helper()
	o, err := New(Config{
		Env: env, Object: "obj", Self: 3, Addr: "self", Role: RoleClientInitiated, Parent: "parent",
		Strat: st, Session: []coherence.ClientModel{coherence.ReadYourWrites},
		Tuning: Tuning{ReadTimeout: time.Second, DemandRetry: demandRetry},
	})
	if err != nil {
		t.Fatal(err)
	}
	o.SubscribeToParent()
	o.Handle(&msg.Message{Kind: msg.KindSubscribeAck, Object: "obj", From: "parent"})
	return o
}

// rywRead is client c's read of page p after its write number seq.
func rywRead(c ids.ClientID, seq uint64) *msg.Message {
	return &msg.Message{
		Kind: msg.KindReadRequest, Object: "obj", From: "client-ep", Client: c,
		VVec: vecOf(uint64(c), seq),
		Inv:  msg.Invocation{Method: webdoc.MethodGetPage, Page: "p"},
	}
}

// pushed is the parent's push of client c's write number seq.
func pushed(c ids.ClientID, seq, global uint64) *msg.Message {
	m := writeMsg(c, seq, "p", "x")
	m.Kind, m.From, m.GlobalSeq = msg.KindUpdate, "parent", global
	return m
}

// The writer's next read reaches the cache before the push of the write the
// cache itself forwarded: under immediate push the read waits for it and no
// demand is sent.
func TestReadOfForwardedWriteWaitsForThePush(t *testing.T) {
	env := newFakeEnv()
	o := newSubscribedCache(t, env, strategy.Whiteboard())
	defer o.Close()
	o.Handle(writeMsg(1, 1, "p", "x"))
	if fwd := env.takeSent(msg.KindWriteRequest); len(fwd) != 1 || fwd[0].To != "parent" {
		t.Fatalf("forward: %+v", fwd)
	}
	o.Handle(rywRead(1, 1))
	if s := o.Stats(); s.ReadsParked != 1 || s.ReqViolations != 1 || s.DemandsSent != 0 {
		t.Fatalf("read of a forwarded write: parked %d, violations %d, demands %d; want 1, 1, 0", s.ReadsParked, s.ReqViolations, s.DemandsSent)
	}
	if d := env.takeSent(msg.KindDemandUpdate); len(d) != 0 {
		t.Fatalf("demand sent for a write whose push is on its way: %+v", d)
	}
	o.Handle(pushed(1, 1, 1))
	if r := env.takeSent(msg.KindReadReply); len(r) != 1 || r[0].Status != msg.StatusOK {
		t.Fatalf("the push did not release the parked read: %+v", r)
	}
	// The retry timer armed for the wait finds the parent answered.
	env.clk.Advance(50 * time.Millisecond)
	if s := o.Stats(); s.DemandsSent != 0 {
		t.Fatalf("DemandsSent = %d after the push landed, want 0", s.DemandsSent)
	}
}

// The same with the push (or the forward) lost: the demand is the fallback,
// sent once when DemandRetry passes with nothing heard from the parent.
func TestReadOfForwardedWriteDemandsAfterRetryWhenPushIsLost(t *testing.T) {
	env := newFakeEnv()
	o := newSubscribedCache(t, env, strategy.Whiteboard())
	defer o.Close()
	o.Handle(writeMsg(1, 1, "p", "x"))
	o.Handle(rywRead(1, 1))
	env.clk.Advance(49 * time.Millisecond)
	if d := env.takeSent(msg.KindDemandUpdate); len(d) != 0 {
		t.Fatalf("demand sent before DemandRetry: %+v", d)
	}
	env.clk.Advance(time.Millisecond)
	d := env.takeSent(msg.KindDemandUpdate)
	if len(d) != 1 || d[0].To != "parent" || o.Stats().DemandsSent != 1 {
		t.Fatalf("after DemandRetry: %d demands (%+v), DemandsSent %d; want exactly one to the parent", len(d), d, o.Stats().DemandsSent)
	}
	// The demand's answer serves the read.
	o.Handle(pushed(1, 1, 1))
	if r := env.takeSent(msg.KindReadReply); len(r) != 1 || r[0].Status != msg.StatusOK {
		t.Fatalf("demanded update did not release the parked read: %+v", r)
	}
}

// The push is lost on a busy board: another client's push lands inside the
// retry window. It says nothing about the write the read waits for, so the
// fallback demand still goes out — once, at DemandRetry.
func TestReadOfForwardedWriteDemandsDespiteUnrelatedPush(t *testing.T) {
	env := newFakeEnv()
	o := newSubscribedCache(t, env, strategy.Whiteboard())
	defer o.Close()
	o.Handle(writeMsg(1, 1, "p", "x"))
	o.Handle(rywRead(1, 1))
	env.clk.Advance(10 * time.Millisecond)
	o.Handle(pushed(2, 1, 1))
	if r := env.takeSent(msg.KindReadReply); len(r) != 0 {
		t.Fatalf("another client's push released the read: %+v", r)
	}
	env.clk.Advance(39 * time.Millisecond)
	if d := env.takeSent(msg.KindDemandUpdate); len(d) != 0 {
		t.Fatalf("demand sent before DemandRetry: %+v", d)
	}
	env.clk.Advance(time.Millisecond)
	d := env.takeSent(msg.KindDemandUpdate)
	if len(d) != 1 || d[0].To != "parent" || o.Stats().DemandsSent != 1 {
		t.Fatalf("after DemandRetry: %d demands (%+v), DemandsSent %d; want exactly one to the parent", len(d), d, o.Stats().DemandsSent)
	}
	o.Handle(pushed(1, 1, 2))
	if r := env.takeSent(msg.KindReadReply); len(r) != 1 || r[0].Status != msg.StatusOK {
		t.Fatalf("demanded update did not release the parked read: %+v", r)
	}
	env.clk.Advance(50 * time.Millisecond)
	if n := o.Stats().DemandsSent; n != 1 {
		t.Fatalf("DemandsSent = %d once the read was served, want 1", n)
	}
}

// With demand retries switched off a wait would have no fallback, so the
// read of a forwarded write demands at once.
func TestReadOfForwardedWriteDemandsAtOnceWithoutRetry(t *testing.T) {
	env := newFakeEnv()
	o := newSubscribedCacheRetrying(t, env, strategy.Whiteboard(), -1)
	defer o.Close()
	o.Handle(writeMsg(1, 1, "p", "x"))
	o.Handle(rywRead(1, 1))
	if d := env.takeSent(msg.KindDemandUpdate); len(d) != 1 || d[0].To != "parent" {
		t.Fatalf("demands: %+v, want one to the parent at once", d)
	}
}

// Whatever does not promise the update by itself demands at once, as before:
// a lazy push (the conference page), a write this replica never forwarded (a
// client that rebound from another cache), a subscription not yet acknowledged.
func TestReadDemandsAtOnceWhenNoPushIsPromised(t *testing.T) {
	for _, tc := range []struct {
		name    string
		strat   strategy.Strategy
		forward bool
		unacked bool
	}{
		{name: "lazy push", strat: strategy.Conference(time.Hour), forward: true},
		{name: "unforwarded write", strat: strategy.Whiteboard()},
		{name: "subscription unacknowledged", strat: strategy.Whiteboard(), forward: true, unacked: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := newFakeEnv()
			o := newSubscribedCache(t, env, tc.strat)
			defer o.Close()
			if tc.unacked {
				o.adoptParent("parent")
			}
			if tc.forward {
				o.Handle(writeMsg(1, 1, "p", "x"))
			}
			o.Handle(rywRead(1, 1))
			if d := env.takeSent(msg.KindDemandUpdate); len(d) != 1 || d[0].To != "parent" {
				t.Fatalf("demands: %+v, want one to the parent at once", d)
			}
			if s := o.Stats(); s.ReadsParked != 1 || s.DemandsSent != 1 {
				t.Fatalf("parked %d, demands %d; want 1, 1", s.ReadsParked, s.DemandsSent)
			}
		})
	}
}

// A read waiting for a forwarded write outlives its parent: the fallback
// demand goes to whoever is the parent when the retry fires.
func TestReadOfForwardedWriteRetriesAtNewParent(t *testing.T) {
	env := newFakeEnv()
	o := newSubscribedCache(t, env, strategy.Whiteboard())
	defer o.Close()
	o.Handle(writeMsg(1, 1, "p", "x"))
	o.Handle(rywRead(1, 1))
	o.adoptParent("new-parent")
	env.clk.Advance(50 * time.Millisecond)
	d := env.takeSent(msg.KindDemandUpdate)
	if len(d) != 1 || d[0].To != "new-parent" {
		t.Fatalf("retry after re-parent: %+v, want one demand to new-parent", d)
	}
}
