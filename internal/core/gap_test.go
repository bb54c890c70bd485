package core_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/naming"
	"repro/internal/replication"
	"repro/internal/semantics/webdoc"
	"repro/internal/store"
	"repro/internal/strategy"
	"repro/internal/transport/memnet"
)

// TestWriteGapRepairOnSharedHandle is the regression test for the write-gap
// stall: on a shared proxy handle, a write that fails while a LATER write is
// already in flight cannot roll the session counter back, leaving a hole in
// the client's write sequence. Under ordered models (PRAM here) the stores
// buffer every subsequent write behind the missing predecessor forever —
// the writes are acknowledged (admission acks before release) but their
// content never becomes visible. The proxy must seal the hole with a no-op
// write before its next write departs.
//
// The schedule is deterministic: writer A departs first (writeMu orders
// departure), the partition eats its frames, and writer B succeeds after
// the heal while A is still inside its 2×timeout retry window — so A's
// abort always happens after B's allocation, which is exactly the
// unrollbackable case.
func TestWriteGapRepairOnSharedHandle(t *testing.T) {
	n := memnet.New(memnet.WithSeed(9))
	defer n.Close()
	ns := naming.New()
	const obj = ids.ObjectID("gap-doc")

	serverEP, err := n.Endpoint("store")
	if err != nil {
		t.Fatal(err)
	}
	server := store.New(store.Config{
		ID: ns.NextStore(), Role: replication.RolePermanent,
		Endpoint: serverEP, Tuning: replication.Tuning{ReadTimeout: 2 * time.Second},
	})
	defer server.Close()
	if err := server.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: strategy.Conference(time.Hour)}); err != nil {
		t.Fatal(err)
	}

	clEP, err := n.Endpoint("client")
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Bind(core.BindConfig{
		Object: obj, Endpoint: clEP, StoreAddr: "store",
		Client: ns.NextClient(), Prototype: webdoc.New(),
		Timeout: 600 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	put := func(content string) error {
		args := webdoc.EncodeWriteArgs(webdoc.WriteArgs{Content: []byte(content)})
		_, err := p.Invoke(msg.Invocation{Method: webdoc.MethodPutPage, Page: "p", Args: args})
		return err
	}

	// Writer A departs into the partition: seq 1 is allocated and its
	// frames (original + one transparent retry) are silently dropped.
	n.Partition("client", "store")
	aDone := make(chan error, 1)
	go func() { aDone <- put("from-A") }()

	// Wait until A's write ID is allocated and its frame has left (the
	// writeMu contract: departure follows allocation immediately). Then,
	// midway through A's first timeout window, briefly heal the partition
	// so writer B's seq 2 reaches the store — which buffers it behind the
	// missing seq 1 yet acks it (PRAM admission acknowledges before
	// release) — and re-partition before A's transparent retry fires, so
	// both of A's attempts are eaten. B's memnet round trip is microseconds
	// against a 300ms window, so the schedule holds under -race slowdowns.
	deadline := time.Now().Add(5 * time.Second)
	for p.Session().Seq() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("writer A never allocated its write ID")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(300 * time.Millisecond) // mid-window: A's frame long gone, retry not yet due
	n.Heal("client", "store")
	if err := put("from-B"); err != nil {
		t.Fatalf("writer B (mid-partition heal): %v", err)
	}
	n.Partition("client", "store")

	if err := <-aDone; err == nil {
		t.Fatal("writer A should have timed out inside the partition")
	}
	holes := p.Session().Holes()
	if len(holes) != 1 || holes[0] != 1 {
		t.Fatalf("session holes = %v, want [1]", holes)
	}
	n.Heal("client", "store")

	// The next write must first seal the hole at seq 1; only then can the
	// store release seq 2 and seq 3. Before the repair existed, this write
	// was acked yet — like B's — invisible forever.
	if err := put("final"); err != nil {
		t.Fatalf("write after gap: %v", err)
	}
	if holes := p.Session().Holes(); len(holes) != 0 {
		t.Fatalf("holes not sealed: %v", holes)
	}

	// The permanent store acks a write only after the release sweep, so
	// everything through "final" is applied and readable right away.
	out, err := p.Invoke(msg.Invocation{Method: webdoc.MethodGetPage, Page: "p"})
	if err != nil {
		t.Fatalf("read after repair: %v", err)
	}
	pg, err := webdoc.DecodePage(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(pg.Content) != "final" {
		t.Fatalf("content = %q, want %q (ordered writes stalled behind the gap)", pg.Content, "final")
	}
}
