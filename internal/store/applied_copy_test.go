package store

import (
	"testing"

	"repro/internal/coherence"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/replication"
	"repro/internal/semantics/webdoc"
	"repro/internal/strategy"
	"repro/internal/transport/memnet"
)

// Every applied vector a replica hands out is the caller's own copy, also once
// the vector has spilled past msg.VecInline entries and a plain copy of it
// would share its map: later writes do not show through a copy, and a change
// to a copy does not reach the engine.
func TestAppliedCopiesAreIndependent(t *testing.T) {
	n := memnet.New()
	defer n.Close()
	ep, err := n.Endpoint("www")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{ID: 1, Role: replication.RolePermanent, Endpoint: ep})
	defer s.Close()
	st := strategy.Whiteboard()
	st.Model = coherence.PRAM
	if err := s.Host(HostConfig{Object: "doc", Semantics: webdoc.New(), Strat: st}); err != nil {
		t.Fatal(err)
	}
	const writers = 3 * msg.VecInline
	writeAll := func(seq uint64) {
		t.Helper()
		for c := ids.ClientID(1); c <= writers; c++ {
			err := s.do("doc", func(r *replica) error {
				r.repl.Handle(&msg.Message{
					Kind: msg.KindWriteRequest, Object: "doc", From: "client", Client: c,
					Write: ids.WiD{Client: c, Seq: seq},
					Inv: msg.Invocation{Method: webdoc.MethodPutPage, Page: "p",
						Args: webdoc.EncodeWriteArgs(webdoc.WriteArgs{Content: []byte("x")})},
				})
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	engineApplied := func() msg.Vec {
		t.Helper()
		v, err := call(s, "doc", func(r *replica) (msg.Vec, error) { return r.repl.Engine().Applied(), nil })
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	writeAll(1)
	copies := map[string]msg.Vec{"Engine.Applied": engineApplied()}
	if copies["Object.Applied"], err = call(s, "doc", func(r *replica) (msg.Vec, error) { return r.repl.Applied(), nil }); err != nil {
		t.Fatal(err)
	}
	if copies["Store.Applied"], err = s.Applied("doc"); err != nil {
		t.Fatal(err)
	}
	writeAll(2)
	for name, v := range copies {
		if v.Len() != writers || v.Get(1) != 1 || v.Get(writers) != 1 {
			t.Fatalf("%s copy changed under later writes: %v", name, v)
		}
	}
	for name, v := range copies {
		v.Set(1, 99)
		v.Set(writers+1, 99)
		if now := engineApplied(); now.Get(1) != 2 || now.Len() != writers {
			t.Fatalf("changing the %s copy reached the engine: %v", name, now)
		}
	}
}
