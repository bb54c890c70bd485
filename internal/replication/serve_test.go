package replication

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/coherence"
	"repro/internal/control"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/semantics"
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
		_, snap := splitWhole(t, r.Payload)
		err = c.ApplyFull(snap)
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

// TestInvalidatedReplicaNeverServesStaleState pins the first fix of the
// ROADMAP item "Make invalidation correct, then make state transfer one
// mechanism" (done): a mirror whose page was invalidated used to answer a
// child's state request from that very page, and the child cleared its own
// invalid mark on the old content — one version stale for good. Whatever asks for state (a page request, a whole
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
	el2, err := doc.AppendElement(nil, "p")
	if err != nil {
		t.Fatal(err)
	}
	snap2, err := doc.Snapshot()
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
				Payload: whole(snap1, vecOf(1, 1), 2),
			})
			o.Handle(&msg.Message{Kind: msg.KindSubscribe, Object: "obj", From: "cache"})
			if acks := env.takeSent(msg.KindSubscribeAck); len(acks) != 1 || transferredPage(t, acks[0], "p") != "v1" {
				t.Fatalf("setup: bootstrap acks %+v", acks)
			}
			o.Handle(&msg.Message{Kind: msg.KindInvalidate, Object: "obj", From: "www", Pages: []string{"p"}, Write: ids.WiD{Client: 1, Seq: 2}})
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
				Pages: []string{"p"}, Payload: el2, VVec: vecOf(1, 2),
			})
			if len(req.Pages) == 0 {
				// p alone is now beyond applied(): the whole object waits
				// for the whole fetch the request sent.
				if early := env.takeSent(msg.KindStateReply); len(early) != 0 {
					t.Fatalf("whole state left with p beyond applied(): %+v", early)
				}
				o.Handle(&msg.Message{Kind: msg.KindStateReply, Object: "obj", From: "www", Payload: whole(snap2, vecOf(1, 2), 3)})
			}
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

// TestWholeObjectInstallClearsInvalidMarks: a whole-object transfer taken at
// the marked write replaces every page, so it meets every page's mark and the
// page-less one, whichever frame carried it. (The subscribe ack used not to,
// and its reader refetched content it had just been handed.)
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
				Payload: whole(snap1, vecOf(1, 1), 2),
			})
			w := ids.WiD{Client: 1, Seq: 2}
			o.Handle(&msg.Message{Kind: msg.KindInvalidate, Object: "obj", From: "parent-store", Pages: []string{"p"}, Write: w})
			o.Handle(&msg.Message{Kind: msg.KindNotify, Object: "obj", From: "parent-store", Write: w})
			o.Handle(&msg.Message{
				Kind: kind, Object: "obj", From: "parent-store",
				Payload: whole(snap2, vecOf(1, 2), 3),
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

// readPage reads page at o as a session-less client and returns what it was
// served, with ok false when no read reply went out.
func readPage(t *testing.T, env *fakeEnv, o *Object, page string) (content string, ok bool) {
	t.Helper()
	o.Handle(&msg.Message{
		Kind: msg.KindReadRequest, Object: "obj", From: "reader-ep", Client: 9,
		Inv: msg.Invocation{Method: webdoc.MethodGetPage, Page: page},
	})
	replies := env.takeSent(msg.KindReadReply)
	if len(replies) == 0 {
		return "", false
	}
	if len(replies) != 1 || replies[0].Status != msg.StatusOK {
		t.Fatalf("read replies: %+v", replies)
	}
	pg, err := webdoc.DecodePage(replies[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	return string(pg.Content), true
}

// TestWholeReplyTakenBeforeAMarkKeepsIt: a cache that fetches the whole
// object for c2#1 hears c1#2 invalidate p before that fetch's reply lands.
// The reply was taken before c1#2, so it must not meet p's mark: the cache
// used to clear every mark on any whole install and serve p = v1 with no
// fetch outstanding, stale until the next write.
func TestWholeReplyTakenBeforeAMarkKeepsIt(t *testing.T) {
	doc := webdoc.New()
	doc.Put("p", []byte("v1"), "", 1)
	doc.Put("q", []byte("q0"), "", 1)
	boot, _ := doc.Snapshot()
	doc.Put("q", []byte("q1"), "", 2)
	early, _ := doc.Snapshot()
	doc.Put("p", []byte("v2"), "", 2)
	fresh, _ := doc.Snapshot()

	env := newFakeEnv()
	st := strategy.PopularEventPage()
	st.Writers = strategy.MultipleWriters
	st.AccessTransfer = strategy.TransferFull
	o := newObj(t, env, RoleClientInitiated, st, "www")
	o.Handle(&msg.Message{Kind: msg.KindSubscribeAck, Object: "obj", From: "www", Payload: whole(boot, vecOf(1, 1), 0)})
	o.Handle(&msg.Message{Kind: msg.KindInvalidate, Object: "obj", From: "www", Pages: []string{"q"}, Write: ids.WiD{Client: 2, Seq: 1}})
	if fetches := env.takeSent(msg.KindStateRequest); len(fetches) != 1 {
		t.Fatalf("setup: invalidating q sent %d fetches, want 1", len(fetches))
	}
	o.Handle(&msg.Message{Kind: msg.KindInvalidate, Object: "obj", From: "www", Pages: []string{"p"}, Write: ids.WiD{Client: 1, Seq: 2}})
	o.Handle(&msg.Message{Kind: msg.KindStateReply, Object: "obj", From: "www", Payload: whole(early, vecOf(1, 1, 2, 1), 0)})
	env.sent = nil

	if got, ok := readPage(t, env, o, "p"); ok {
		t.Fatalf("served p = %q from a snapshot taken before c1#2", got)
	}
	if fetches := env.takeSent(msg.KindStateRequest); len(fetches) != 1 {
		t.Fatalf("parked read of stale p sent %d fetches, want 1", len(fetches))
	}
	o.Handle(&msg.Message{Kind: msg.KindStateReply, Object: "obj", From: "www", Payload: whole(fresh, vecOf(1, 2, 2, 1), 0)})
	replies := env.takeSent(msg.KindReadReply)
	if len(replies) != 1 {
		t.Fatalf("parked read got %d replies after the fresh snapshot, want 1", len(replies))
	}
	if pg, err := webdoc.DecodePage(replies[0].Payload); err != nil || string(pg.Content) != "v2" {
		t.Fatalf("served %q, %v; want v2", pg.Content, err)
	}
}

// TestOldPageReplyLeavesMarkSet: under partial transfer with object-outdate
// wait, a page reply taken before the invalidating write but delivered after
// its invalidation is installed and still leaves the page marked: the parked
// read is not served the old content, and the page is fetched again.
func TestOldPageReplyLeavesMarkSet(t *testing.T) {
	doc := webdoc.New()
	doc.Put("p", []byte("v1"), "", 1)
	el1, _ := doc.AppendElement(nil, "p")
	doc.Put("p", []byte("v2"), "", 2)
	el2, _ := doc.AppendElement(nil, "p")

	env := newFakeEnv()
	st := strategy.PopularEventPage()
	st.ObjectOutdate = strategy.Wait
	o := newObj(t, env, RoleClientInitiated, st, "www")
	if got, ok := readPage(t, env, o, "p"); ok {
		t.Fatalf("cold cache served %q", got)
	}
	env.takeSent(msg.KindStateRequest)
	o.Handle(&msg.Message{Kind: msg.KindInvalidate, Object: "obj", From: "www", Pages: []string{"p"}, Write: ids.WiD{Client: 1, Seq: 2}})
	o.Handle(&msg.Message{Kind: msg.KindStateReply, Object: "obj", From: "www", Pages: []string{"p"}, Payload: el1, VVec: vecOf(1, 1)})
	if replies := env.takeSent(msg.KindReadReply); len(replies) != 0 {
		pg, _ := webdoc.DecodePage(replies[0].Payload)
		t.Fatalf("old page reply met the mark: read served %q", pg.Content)
	}
	if fetches := env.takeSent(msg.KindStateRequest); len(fetches) != 1 || fetches[0].Pages[0] != "p" {
		t.Fatalf("old page reply was not followed by a refetch: %+v", fetches)
	}
	o.Handle(&msg.Message{Kind: msg.KindStateReply, Object: "obj", From: "www", Pages: []string{"p"}, Payload: el2, VVec: vecOf(1, 2)})
	replies := env.takeSent(msg.KindReadReply)
	if len(replies) != 1 {
		t.Fatalf("parked read got %d replies after the fresh page, want 1", len(replies))
	}
	if pg, err := webdoc.DecodePage(replies[0].Payload); err != nil || string(pg.Content) != "v2" {
		t.Fatalf("served %q, %v; want v2", pg.Content, err)
	}
}

// appendUpd is client 1's write number seq, an append of "c1.<seq>;" to p.
func appendUpd(seq uint64) *coherence.Update {
	return &coherence.Update{
		Write: ids.WiD{Client: 1, Seq: seq}, GlobalSeq: seq,
		Inv: msg.Invocation{
			Method: webdoc.MethodAppendPage, Page: "p",
			Args: webdoc.EncodeWriteArgs(webdoc.WriteArgs{Content: []byte(fmt.Sprintf("c1.%d;", seq))}),
		},
	}
}

// mirrorAheadOnPage builds www → mirror under the popular-event-page strategy,
// with the mirror bootstrapped at c1#1 and then invalidated and refetched
// page p at c1#2: p holds a write its applied vector does not. It returns the
// mirror and www's whole snapshots at c1#1 and c1#2.
func mirrorAheadOnPage(t *testing.T) (mirror *Object, env *fakeEnv, snap1, snap2 []byte) {
	www := control.New(webdoc.New())
	if err := www.ApplyOp(appendUpd(1)); err != nil {
		t.Fatal(err)
	}
	snap1, _ = www.Snapshot()
	if err := www.ApplyOp(appendUpd(2)); err != nil {
		t.Fatal(err)
	}
	el2, _ := www.SnapshotElement("p")
	snap2, _ = www.Snapshot()
	env = newFakeEnv()
	mirror = newObj(t, env, RoleObjectInitiated, strategy.PopularEventPage(), "www")
	mirror.Handle(&msg.Message{Kind: msg.KindSubscribeAck, Object: "obj", From: "www", Payload: whole(snap1, vecOf(1, 1), 0)})
	mirror.Handle(&msg.Message{Kind: msg.KindInvalidate, Object: "obj", From: "www", Pages: []string{"p"}, Write: ids.WiD{Client: 1, Seq: 2}})
	mirror.Handle(&msg.Message{Kind: msg.KindStateReply, Object: "obj", From: "www", Pages: []string{"p"}, Payload: el2, VVec: vecOf(1, 2)})
	env.sent = nil
	return mirror, env, snap1, snap2
}

// replayed hands cache client 1's write number seq as a pushed op, as a demand
// answered from a log would bring it.
func replayed(cache *Object, seq uint64) {
	u := appendUpd(seq)
	cache.Handle(&msg.Message{Kind: msg.KindUpdate, Object: "obj", From: "mirror", Write: u.Write, GlobalSeq: u.GlobalSeq, Inv: u.Inv})
}

// TestMirrorPageReplyCarriesPageVector: a mirror that fetched p at c1#2 while
// its applied vector stayed at c1#1 must say so in the page reply it hands a
// cache. The reply used to carry only the applied vector, so the cache's
// page vector understated p and the replayed op c1#2 was appended a second
// time — the chaos suite's "c4.14; c4.15; c4.14; c4.15" at cache2.
func TestMirrorPageReplyCarriesPageVector(t *testing.T) {
	mirror, mirrorEnv, snap1, _ := mirrorAheadOnPage(t)
	cacheEnv := newFakeEnv()
	cache := newObj(t, cacheEnv, RoleClientInitiated, strategy.PopularEventPage(), "mirror")
	cache.Handle(&msg.Message{Kind: msg.KindSubscribeAck, Object: "obj", From: "mirror", Payload: whole(snap1, vecOf(1, 1), 0)})
	cache.Handle(&msg.Message{Kind: msg.KindInvalidate, Object: "obj", From: "mirror", Pages: []string{"p"}, Write: ids.WiD{Client: 1, Seq: 2}})
	mirror.Handle(&msg.Message{Kind: msg.KindStateRequest, Object: "obj", From: "cache", Pages: []string{"p"}})
	replies := mirrorEnv.takeSent(msg.KindStateReply)
	if len(replies) != 1 {
		t.Fatalf("mirror sent %d page replies, want 1", len(replies))
	}
	reply := replies[0]
	reply.From = "mirror"
	cache.Handle(reply)
	replayed(cache, 2)
	if got := pageTokens(t, cacheEnv, "p"); got != "c1.1;c1.2;" {
		t.Fatalf("cache page = %q, want c1.1;c1.2;", got)
	}
}

// TestMirrorWholeReplyCoversFetchedPages is the same item's residual for
// whole transfers: a mirror holding p at c1#2 past its applied vector c1#1
// used to answer a cache's subscribe with the whole object under c1#1, so
// the cache took p's c1#2 as state it had not been told of and appended the
// replayed op c1#2 a second time. A whole reply carries no per-page vectors,
// so the mirror fetches the whole object before it serves it whole.
func TestMirrorWholeReplyCoversFetchedPages(t *testing.T) {
	mirror, mirrorEnv, _, snap2 := mirrorAheadOnPage(t)
	mirror.Handle(&msg.Message{Kind: msg.KindSubscribe, Object: "obj", From: "cache"})
	if fetches := mirrorEnv.takeSent(msg.KindStateRequest); len(fetches) == 1 && len(fetches[0].Pages) == 0 {
		mirror.Handle(&msg.Message{Kind: msg.KindStateReply, Object: "obj", From: "www", Payload: whole(snap2, vecOf(1, 2), 0)})
	}
	acks := mirrorEnv.takeSent(msg.KindSubscribeAck)
	if len(acks) != 1 {
		t.Fatalf("mirror sent %d subscribe acks, want 1", len(acks))
	}
	ack := acks[0]
	ack.From = "mirror"
	cacheEnv := newFakeEnv()
	cache := newObj(t, cacheEnv, RoleClientInitiated, strategy.PopularEventPage(), "mirror")
	cache.Handle(ack)
	replayed(cache, 2)
	if got := pageTokens(t, cacheEnv, "p"); got != "c1.1;c1.2;" {
		t.Fatalf("cache page = %q after a whole transfer under %v, want c1.1;c1.2;", got, ack.VVec)
	}
}

// TestCoveredInvalidationFetchesNothing: an invalidation that arrives after a
// transfer already brought its write (the link reordered them) leaves the page
// current — no refetch, and a read is served at once.
func TestCoveredInvalidationFetchesNothing(t *testing.T) {
	doc := webdoc.New()
	doc.Put("p", []byte("v2"), "", 2)
	el2, _ := doc.AppendElement(nil, "p")
	env := newFakeEnv()
	o := newObj(t, env, RoleClientInitiated, strategy.PopularEventPage(), "www")
	o.Handle(&msg.Message{Kind: msg.KindStateReply, Object: "obj", From: "www", Pages: []string{"p"}, Payload: el2, VVec: vecOf(1, 2)})
	env.sent = nil
	o.Handle(&msg.Message{Kind: msg.KindInvalidate, Object: "obj", From: "www", Pages: []string{"p"}, Write: ids.WiD{Client: 1, Seq: 2}})
	if fetches := env.takeSent(msg.KindStateRequest); len(fetches) != 0 {
		t.Fatalf("late invalidation of a covered write fetched: %+v", fetches)
	}
	if got, ok := readPage(t, env, o, "p"); !ok || got != "v2" {
		t.Fatalf("read served %q (ok %v), want v2 at once", got, ok)
	}
}

// TestInvalidatedPageFetchedOnce: an invalidation fetches the page at once
// (object-outdate = demand), and a read that parks on the page before the
// reply lands waits for that fetch instead of sending its own. The read used
// to fetch again, so every invalidated page that was read crossed the link
// twice.
func TestInvalidatedPageFetchedOnce(t *testing.T) {
	doc := webdoc.New()
	doc.Put("p", []byte("v1"), "", 1)
	boot, _ := doc.Snapshot()
	doc.Put("p", []byte("v2"), "", 2)
	el2, _ := doc.AppendElement(nil, "p")
	env := newFakeEnv()
	o := newObj(t, env, RoleClientInitiated, strategy.PopularEventPage(), "www")
	o.Handle(&msg.Message{Kind: msg.KindSubscribeAck, Object: "obj", From: "www", Payload: whole(boot, vecOf(1, 1), 0)})
	env.sent = nil
	o.Handle(&msg.Message{Kind: msg.KindInvalidate, Object: "obj", From: "www", Pages: []string{"p"}, Write: ids.WiD{Client: 1, Seq: 2}})
	if _, ok := readPage(t, env, o, "p"); ok {
		t.Fatal("read of an invalidated page served before its fetch returned")
	}
	o.Handle(&msg.Message{Kind: msg.KindStateReply, Object: "obj", From: "www", Pages: []string{"p"}, Payload: el2, VVec: vecOf(1, 2)})
	if fetches := env.takeSent(msg.KindStateRequest); len(fetches) != 1 {
		t.Fatalf("%d state requests left for one invalidated page, want 1: %+v", len(fetches), fetches)
	}
	replies := env.takeSent(msg.KindReadReply)
	if len(replies) != 1 || replies[0].Status != msg.StatusOK {
		t.Fatalf("parked read got %+v, want one reply", replies)
	}
	if pg, err := webdoc.DecodePage(replies[0].Payload); err != nil || string(pg.Content) != "v2" {
		t.Fatalf("parked read served %q, %v; want v2", pg.Content, err)
	}
}

// TestStaleNotFoundKeepsTheRead: a not-found page reply taken before a write
// the read depends on (a late or duplicated answer to a fetch sent before
// the page existed) says nothing about that write. It used to refuse every
// read parked on the page with not-found and drop the page's mark, so a
// client read its own acked write as an empty page (the chaos suite's "RYW
// violated ... content \"\""). The read stays parked, whether the write
// reached the cache as an invalidation or so far only as the reader's session
// requirement. An invalidated page keeps its mark and is not fetched again at
// once: the invalidation's own fetch is in flight, and a parent that keeps
// answering short must not be asked at link speed. One fetch leaves per
// DemandRetry while a read waits on the page.
func TestStaleNotFoundKeepsTheRead(t *testing.T) {
	for _, invalidated := range []bool{true, false} {
		t.Run(fmt.Sprintf("invalidated=%v", invalidated), func(t *testing.T) {
			env := newFakeEnv()
			o := newObj(t, env, RoleClientInitiated, strategy.PopularEventPage(), "www", coherence.ReadYourWrites)
			o.Handle(&msg.Message{Kind: msg.KindSubscribeAck, Object: "obj", From: "www", VVec: vecOf(1, 1)})
			if invalidated {
				o.Handle(&msg.Message{Kind: msg.KindInvalidate, Object: "obj", From: "www", Pages: []string{"q"}, Write: ids.WiD{Client: 3, Seq: 1}})
			}
			o.Handle(&msg.Message{
				Kind: msg.KindReadRequest, Object: "obj", From: "reader-ep", Client: 3, VVec: vecOf(3, 1),
				Inv: msg.Invocation{Method: webdoc.MethodGetPage, Page: "q"},
			})
			if invalidated {
				// A reader with no requirement waits on q's state alone.
				o.Handle(&msg.Message{
					Kind: msg.KindReadRequest, Object: "obj", From: "other-ep", Client: 5,
					Inv: msg.Invocation{Method: webdoc.MethodGetPage, Page: "q"},
				})
			}
			env.sent = nil
			o.Handle(&msg.Message{
				Kind: msg.KindStateReply, Object: "obj", From: "www", Pages: []string{"q"},
				Status: msg.StatusNotFound, Err: "no element", VVec: vecOf(1, 1),
			})
			if refused := env.takeSent(msg.KindReadReply); len(refused) != 0 {
				t.Fatalf("a reply older than the read's write refused it: %+v", refused)
			}
			if !invalidated {
				return
			}
			if o.invalid["q"] == nil {
				t.Fatal("a reply older than the page's write dropped its mark")
			}
			if fetches := env.takeSent(msg.KindStateRequest); len(fetches) != 0 {
				t.Fatalf("a stale not-found sent %+v at once, want the fetch in flight to be waited for", fetches)
			}
			env.clk.Advance(defaultDemandRetry)
			if fetches := env.takeSent(msg.KindStateRequest); len(fetches) != 1 || len(fetches[0].Pages) != 1 || fetches[0].Pages[0] != "q" {
				t.Fatalf("DemandRetry after a stale not-found the cache sent %+v, want one fetch of q", fetches)
			}
		})
	}
}

// TestMirrorNotFoundCoversTheDelete: a mirror that never held q is told of
// q's deletion (3,1), fetches it, and takes the parent's not-found, whose
// vector covers the delete. Its own not-found to a child must cover the
// delete too: it used to carry only the mirror's applied vector, so a child
// marked with (3,1) found it short, kept its mark and fetched again at once,
// and mirror and child traded fetches and not-founds at link speed while the
// child's read waited out ReadTimeout.
func TestMirrorNotFoundCoversTheDelete(t *testing.T) {
	mirror, mirrorEnv, snap1, _ := mirrorAheadOnPage(t)
	cacheEnv := newFakeEnv()
	cache := newObj(t, cacheEnv, RoleClientInitiated, strategy.PopularEventPage(), "mirror")
	cache.Handle(&msg.Message{Kind: msg.KindSubscribeAck, Object: "obj", From: "mirror", Payload: whole(snap1, vecOf(1, 1), 0)})
	del := ids.WiD{Client: 3, Seq: 1}
	mirror.Handle(&msg.Message{Kind: msg.KindInvalidate, Object: "obj", From: "www", Pages: []string{"q"}, Write: del})
	mirror.Handle(&msg.Message{
		Kind: msg.KindStateReply, Object: "obj", From: "www", Pages: []string{"q"},
		Status: msg.StatusNotFound, Err: "no element", VVec: vecOf(1, 2, 3, 1),
	})
	cache.Handle(&msg.Message{Kind: msg.KindInvalidate, Object: "obj", From: "mirror", Pages: []string{"q"}, Write: del})
	cache.Handle(&msg.Message{
		Kind: msg.KindReadRequest, Object: "obj", From: "reader-ep", Client: 5,
		Inv: msg.Invocation{Method: webdoc.MethodGetPage, Page: "q"},
	})
	fetches := cacheEnv.takeSent(msg.KindStateRequest)
	if len(fetches) != 1 {
		t.Fatalf("cache sent %d fetches for q, want 1", len(fetches))
	}
	mirrorEnv.sent = nil
	mirror.Handle(fetches[0])
	replies := mirrorEnv.takeSent(msg.KindStateReply)
	if len(replies) != 1 || replies[0].Status != msg.StatusNotFound {
		t.Fatalf("mirror answered the child's fetch of q with %+v, want one not-found", replies)
	}
	if !replies[0].VVec.CoversWrite(del) {
		t.Fatalf("mirror's not-found carries %v, which does not cover the delete %v", replies[0].VVec, del)
	}
	cache.Handle(replies[0])
	if again := cacheEnv.takeSent(msg.KindStateRequest); len(again) != 0 {
		t.Fatalf("cache fetched q again after a not-found covering its mark: %+v", again)
	}
	refused := cacheEnv.takeSent(msg.KindReadReply)
	if len(refused) != 1 || refused[0].Status != msg.StatusNotFound {
		t.Fatalf("the read of the deleted page got %+v, want not-found", refused)
	}
}

// countEnv is a fakeEnv whose sends are counted, not kept, so that what the
// replica allocates is all an allocation count sees.
type countEnv struct {
	*fakeEnv
	n int
}

func (e *countEnv) Send(string, *msg.Message) error              { e.n++; return nil }
func (e *countEnv) Multicast(tos []string, _ *msg.Message) error { e.n += len(tos); return nil }

// A write and then a read of the page it wrote, at a permanent replica,
// allocate only the write's update block: the read appends the page into the
// Env's scratch, so serving a page right after it changed copies it into no
// buffer of its own.
func TestServeReadAfterWriteAllocs(t *testing.T) {
	env := &countEnv{fakeEnv: newFakeEnv()}
	o := newObj(t, env, RolePermanent, strategy.Conference(time.Hour), "")
	defer o.Close()
	write := msg.Message{Kind: msg.KindWriteRequest, Object: "obj", From: "client", Client: 1,
		Inv: msg.Invocation{Method: webdoc.MethodPutPage, Page: "p",
			Args: webdoc.EncodeWriteArgs(webdoc.WriteArgs{Content: make([]byte, 4096), ContentType: "text/html"})}}
	read := msg.Message{Kind: msg.KindReadRequest, Object: "obj", From: "client", Client: 2,
		Inv: msg.Invocation{Method: webdoc.MethodGetPage, Page: "p"}}
	var req msg.Message
	var seq uint64
	pair := func() {
		seq++
		req = write
		req.Write = ids.WiD{Client: 1, Seq: seq}
		o.Handle(&req)
		req = read
		o.Handle(&req)
	}
	pair()
	if a := testing.AllocsPerRun(300, pair); a > 1.1 {
		t.Errorf("a write and a read allocate %.2f times, want at most 1.1 (the update's block)", a)
	}
	if env.n != 2*int(seq) || req.Kind != msg.KindReadReply || req.Status != msg.StatusOK || len(req.Payload) < 4096 {
		t.Fatalf("%d pairs drew %d replies, the last %v %v with %d bytes", seq, env.n, req.Kind, req.Status, len(req.Payload))
	}
}

// TestTakenNotFoundRemovesHeldPage: a mirror that holds q is told of q's
// deletion (3,1) and takes the parent's not-found, whose vector covers the
// delete. q goes, and the next read of it fails with not-found at once: the
// mirror knows q is absent, so it asks the parent nothing. The mirror used
// to drop only the mark and keep the page, so the read was answered ok with
// q's deleted content.
func TestTakenNotFoundRemovesHeldPage(t *testing.T) {
	doc := webdoc.New()
	doc.Put("q", []byte("v1"), "text/html", 1)
	boot, err := control.New(doc).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	env := newFakeEnv()
	mirror := newObj(t, env, RoleObjectInitiated, strategy.PopularEventPage(), "www")
	mirror.Handle(&msg.Message{Kind: msg.KindSubscribeAck, Object: "obj", From: "www", Payload: whole(boot, vecOf(1, 1), 0)})
	mirror.Handle(&msg.Message{Kind: msg.KindInvalidate, Object: "obj", From: "www", Pages: []string{"q"}, Write: ids.WiD{Client: 3, Seq: 1}})
	mirror.Handle(&msg.Message{
		Kind: msg.KindStateReply, Object: "obj", From: "www", Pages: []string{"q"},
		Status: msg.StatusNotFound, Err: "no element", VVec: vecOf(1, 1, 3, 1),
	})
	env.sent = nil
	mirror.Handle(&msg.Message{
		Kind: msg.KindReadRequest, Object: "obj", From: "reader-ep", Client: 5,
		Inv: msg.Invocation{Method: webdoc.MethodGetPage, Page: "q"},
	})
	if _, err := env.ctrl.SnapshotElement("q"); !errors.Is(err, semantics.ErrNoElement) {
		t.Fatalf("the mirror still holds q (%v)", err)
	}
	if fetches := env.takeSent(msg.KindStateRequest); len(fetches) != 0 {
		t.Fatalf("the read sent %d fetches for q, want none", len(fetches))
	}
	if replies := env.takeSent(msg.KindReadReply); len(replies) != 1 || replies[0].Status != msg.StatusNotFound {
		t.Fatalf("the read of the deleted page got %+v, want one not-found at once", replies)
	}
}

// TestReadOfKnownAbsentPageDoesNotFetch: a mirror that never held r takes
// the parent's not-found for it, whose vector covers r's deletion (3,1). A
// read of r then fails with not-found at once and sends no fetch: the
// mirror's knowledge of r covers the read. It used to park the read and
// fetch r, to be told again what it already knew.
func TestReadOfKnownAbsentPageDoesNotFetch(t *testing.T) {
	doc := webdoc.New()
	doc.Put("q", []byte("v1"), "text/html", 1)
	boot, err := control.New(doc).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	env := newFakeEnv()
	mirror := newObj(t, env, RoleObjectInitiated, strategy.PopularEventPage(), "www")
	mirror.Handle(&msg.Message{Kind: msg.KindSubscribeAck, Object: "obj", From: "www", Payload: whole(boot, vecOf(1, 1), 0)})
	mirror.Handle(&msg.Message{
		Kind: msg.KindStateReply, Object: "obj", From: "www", Pages: []string{"r"},
		Status: msg.StatusNotFound, Err: "no element", VVec: vecOf(1, 1, 3, 1),
	})
	env.sent = nil
	mirror.Handle(&msg.Message{
		Kind: msg.KindReadRequest, Object: "obj", From: "reader-ep", Client: 5,
		Inv: msg.Invocation{Method: webdoc.MethodGetPage, Page: "r"},
	})
	if fetches := env.takeSent(msg.KindStateRequest); len(fetches) != 0 {
		t.Fatalf("the read of a page known absent sent %+v, want no fetch", fetches)
	}
	if replies := env.takeSent(msg.KindReadReply); len(replies) != 1 || replies[0].Status != msg.StatusNotFound {
		t.Fatalf("the read of a page known absent got %+v, want one not-found", replies)
	}
}
