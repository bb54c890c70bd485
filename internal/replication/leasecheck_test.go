//go:build leasecheck

package replication

import (
	"bytes"
	"testing"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/semantics/webdoc"
	"repro/internal/strategy"
)

// TestInstalledPageKeyOutlivesFrame: install keys a transferred page's
// vector by the page's name, which aliases the state reply's frame. Handle
// releases that frame, and leasecheck poisons it, so the entry must be found
// under the page's name afterwards, and a read of the page, invalidated until
// the install, must be served rather than parked behind another fetch.
func TestInstalledPageKeyOutlivesFrame(t *testing.T) {
	st := strategy.PopularEventPage()
	st.Scope = strategy.ScopeAll
	src := newFakeEnv()
	newObj(t, src, RolePermanent, st, "").Handle(writeMsg(1, 1, "p", "fetched"))
	elem, err := src.SnapshotElement("p")
	if err != nil {
		t.Fatal(err)
	}

	env := newFakeEnv()
	o := newObj(t, env, RoleClientInitiated, st, "parent")
	// The invalidation marks p with write 1.1: p is served again only once
	// what this replica knows of p covers it.
	o.Handle(&msg.Message{
		Kind: msg.KindInvalidate, Object: "obj", From: "parent",
		Pages: []string{"p"}, Write: ids.WiD{Client: 1, Seq: 1},
	})
	reply := leased(t, &msg.Message{
		Kind: msg.KindStateReply, Object: "obj", From: "parent",
		VVec: vecOf(1, 1), Pages: []string{"p"}, Payload: bytes.Clone(elem),
	})
	o.Handle(reply)
	if reply.Kind.Valid() {
		t.Fatal("the state reply is still leased after Handle")
	}
	if pv := o.pageVec["p"]; pv == nil || !pv.CoversWrite(ids.WiD{Client: 1, Seq: 1}) {
		t.Fatalf("pageVec[p] = %v after the frame was released, want it to cover write 1.1", pv)
	}

	env.sent = nil
	o.Handle(&msg.Message{
		Kind: msg.KindReadRequest, Object: "obj", From: "reader", Client: 2,
		Inv: msg.Invocation{Method: webdoc.MethodGetPage, Page: "p"},
	})
	replies := env.takeSent(msg.KindReadReply)
	if len(replies) != 1 || replies[0].Status != msg.StatusOK {
		t.Fatalf("read of the installed page: %d replies %+v, want one served", len(replies), replies)
	}
	pg, err := webdoc.DecodePage(replies[0].Payload)
	if err != nil || string(pg.Content) != "fetched" {
		t.Fatalf("read served %q (%v), want the installed content", pg.Content, err)
	}
}
