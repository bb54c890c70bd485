package replication

import (
	"testing"
	"time"

	"repro/internal/control"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/semantics/webdoc"
	"repro/internal/strategy"
)

// transferredPage decodes what a state transfer frame (per-page or whole)
// would leave in page at a replica that installed it.
func transferredPage(t *testing.T, r *msg.Message, page string) string {
	t.Helper()
	c := control.New(webdoc.New())
	var err error
	if len(r.Pages) > 0 {
		err = c.ApplyElement(page, r.Payload)
	} else {
		err = c.ApplyFull(r.Payload)
	}
	if err != nil {
		t.Fatalf("transfer %v does not install: %v", r.Kind, err)
	}
	b, err := c.ServeRead(msg.Invocation{Method: webdoc.MethodGetPage, Page: page})
	if err != nil {
		t.Fatal(err)
	}
	pg, err := webdoc.DecodePage(b)
	if err != nil {
		t.Fatal(err)
	}
	return string(pg.Content)
}

// TestInvalidatedReplicaNeverServesStaleState is ROADMAP 1(a): a mirror whose
// page was invalidated used to answer a child's state request from that very
// page, and the child cleared its own invalid mark on the old content — one
// version stale for good. Whatever asks for state (a page request, a whole
// request, a demand the log cannot answer) is held behind the mirror's own
// fetch and answered from what that fetch installs; a request still held at
// ReadTimeout is dropped, never answered stale.
func TestInvalidatedReplicaNeverServesStaleState(t *testing.T) {
	doc := webdoc.New()
	doc.Put("p", []byte("v1"), "", 1)
	snap1, err := doc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	doc.Put("p", []byte("v2"), "", 2)
	el2, err := doc.SnapshotElement("p")
	if err != nil {
		t.Fatal(err)
	}
	requests := map[string]*msg.Message{
		"page request":    {Kind: msg.KindStateRequest, Pages: []string{"p"}},
		"whole request":   {Kind: msg.KindStateRequest},
		"demand fallback": {Kind: msg.KindDemandUpdate},
	}
	for name, req := range requests {
		setup := func(t *testing.T) (*fakeEnv, *Object) {
			env := newFakeEnv()
			o := newObj(t, env, RoleObjectInitiated, strategy.PopularEventPage(), "www")
			o.Handle(&msg.Message{
				Kind: msg.KindStateReply, Object: "obj", From: "www",
				Payload: snap1, VVec: msg.VecFrom(ids.VersionVec{1: 1}), GlobalSeq: 2,
			})
			o.Handle(&msg.Message{Kind: msg.KindSubscribe, Object: "obj", From: "cache"})
			if acks := env.takeSent(msg.KindSubscribeAck); len(acks) != 1 || transferredPage(t, acks[0], "p") != "v1" {
				t.Fatalf("setup: bootstrap acks %+v", acks)
			}
			o.Handle(&msg.Message{Kind: msg.KindInvalidate, Object: "obj", From: "www", Pages: []string{"p"}})
			if fetches := env.takeSent(msg.KindStateRequest); len(fetches) != 1 || fetches[0].To != "www" {
				t.Fatalf("setup: the invalidated mirror sent %+v upstream, want one fetch", fetches)
			}
			r := *req
			r.Object, r.From = "obj", "cache"
			o.Handle(&r)
			if early := env.takeSent(msg.KindStateReply); len(early) != 0 {
				t.Fatalf("state left an invalidated replica: %q", transferredPage(t, early[0], "p"))
			}
			return env, o
		}
		t.Run(name+"/answered after the refetch", func(t *testing.T) {
			env, o := setup(t)
			o.Handle(&msg.Message{
				Kind: msg.KindStateReply, Object: "obj", From: "www",
				Pages: []string{"p"}, Payload: el2, VVec: msg.VecFrom(ids.VersionVec{1: 2}),
			})
			replies := env.takeSent(msg.KindStateReply)
			if len(replies) != 1 || replies[0].To != "cache" {
				t.Fatalf("held request got %+v, want one reply to the cache", replies)
			}
			if got := transferredPage(t, replies[0], "p"); got != "v2" {
				t.Fatalf("held request answered with %q, want v2", got)
			}
			if len(o.parked) != 0 {
				t.Fatalf("%d requests still held after the answer", len(o.parked))
			}
		})
		t.Run(name+"/dropped at the deadline", func(t *testing.T) {
			env, o := setup(t)
			env.clk.Advance(2 * time.Second)
			if late := env.takeSent(msg.KindStateReply); len(late) != 0 {
				t.Fatalf("expired request was answered: %q", transferredPage(t, late[0], "p"))
			}
			if len(o.parked) != 0 {
				t.Fatalf("%d requests still held past ReadTimeout", len(o.parked))
			}
		})
	}
}

// TestWholeObjectInstallClearsInvalidMarks pins install's rule for the marks:
// a whole-object transfer replaces every page, so it clears every page's mark
// and the page-less one, whichever frame carried it. (The subscribe ack used
// not to, and its reader refetched content it had just been handed.)
func TestWholeObjectInstallClearsInvalidMarks(t *testing.T) {
	doc := webdoc.New()
	doc.Put("p", []byte("v1"), "", 1)
	snap1, err := doc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	doc.Put("p", []byte("v2"), "", 2)
	snap2, err := doc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for name, kind := range map[string]msg.Kind{
		"pushed snapshot":  msg.KindUpdate,
		"full state reply": msg.KindStateReply,
		"subscribe ack":    msg.KindSubscribeAck,
	} {
		t.Run(name, func(t *testing.T) {
			env := newFakeEnv()
			st := strategy.PopularEventPage()
			st.ObjectOutdate = strategy.Wait // nothing refetches behind the test's back
			o := newObj(t, env, RoleClientInitiated, st, "parent-store")
			o.Handle(&msg.Message{
				Kind: msg.KindSubscribeAck, Object: "obj", From: "parent-store",
				Payload: snap1, VVec: msg.VecFrom(ids.VersionVec{1: 1}), GlobalSeq: 2,
			})
			o.Handle(&msg.Message{Kind: msg.KindInvalidate, Object: "obj", From: "parent-store", Pages: []string{"p"}})
			o.Handle(&msg.Message{Kind: msg.KindNotify, Object: "obj", From: "parent-store"})
			o.Handle(&msg.Message{
				Kind: kind, Object: "obj", From: "parent-store",
				Payload: snap2, VVec: msg.VecFrom(ids.VersionVec{1: 2}), GlobalSeq: 3,
			})
			env.sent = nil
			o.Handle(&msg.Message{
				Kind: msg.KindReadRequest, Object: "obj", From: "reader-ep", Client: 9,
				Inv: msg.Invocation{Method: webdoc.MethodGetPage, Page: "p"},
			})
			if fetches := env.takeSent(msg.KindStateRequest); len(fetches) != 0 {
				t.Fatalf("read refetched what the %s had just installed: %+v", name, fetches)
			}
			replies := env.takeSent(msg.KindReadReply)
			if len(replies) != 1 || replies[0].Status != msg.StatusOK {
				t.Fatalf("read replies: %+v", replies)
			}
			if pg, err := webdoc.DecodePage(replies[0].Payload); err != nil || string(pg.Content) != "v2" {
				t.Fatalf("served %q, %v; want v2", pg.Content, err)
			}
		})
	}
}
