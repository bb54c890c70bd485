package webobj_test

import (
	"bytes"
	"testing"
	"time"

	"repro/webobj"
)

// Allocation budgets for the two hot operations over memnet, counted for the
// whole process: testing.AllocsPerRun reads the runtime's malloc counter, so
// the store loop's and the transport's allocations are in the figure along
// with the caller's. Each budget is the count measured when it was set plus
// two; a change that allocates more on these paths fails here, in tier-1,
// and not only in bench/'s allocs_per_op.
const (
	// A Get measures 2: the page (its content type inside it) and content
	// copy DecodePage hands the caller. The frames each way are leased: the
	// encode buffer and the decoded message come from memnet's pools and go
	// back when the store loop and the handle release them. The store
	// answers in the request's own struct and serves the page version's one
	// shared encoding.
	getAllocBudget = 2 + 2
	// A Put measures 4: the argument encoding, and at the store the update
	// and its cloned invocation (page name and arguments). The arguments are
	// the stored content; the engine's release slice and the applied vector
	// are reused, the ack is written into the request, and a writer with no
	// session model carries no dependency vector.
	putAllocBudget = 4 + 2
)

// leaseCheck is set under the leasecheck build tag, which poisons released
// frames instead of reusing them, so the budgets above do not apply.
var leaseCheck bool

func TestAllocationBudgets(t *testing.T) {
	if leaseCheck {
		t.Skip("leasecheck never reuses a released frame")
	}
	sys := newSys(t)
	www, err := sys.NewServer("www")
	if err != nil {
		t.Fatal(err)
	}
	// An hour-long lazy period: no dissemination fires inside the measured
	// runs, so what is counted is the request path alone.
	if err := sys.Publish(www, "doc", webobj.WebDoc(), webobj.ConferenceStrategy(time.Hour)); err != nil {
		t.Fatal(err)
	}
	writer, err := sys.Open("doc", webobj.At(www))
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	content := bytes.Repeat([]byte("x"), 4096)
	if err := writer.Put("p", content, "text/html"); err != nil {
		t.Fatal(err)
	}
	cache, err := sys.NewCache("cache", www)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Replicate(cache, "doc"); err != nil {
		t.Fatal(err)
	}
	reader, err := sys.Open("doc", webobj.At(cache), webobj.WithSession(webobj.MonotonicReads))
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()

	get := testing.AllocsPerRun(500, func() {
		pg, err := reader.Get("p")
		if err != nil || len(pg.Content) != len(content) {
			t.Fatalf("Get: %v", err)
		}
	})
	if get > getAllocBudget {
		t.Errorf("Document.Get of a 4 KiB page at a cache: %.1f allocations, budget %d", get, getAllocBudget)
	}
	put := testing.AllocsPerRun(500, func() {
		if err := writer.Put("p", content, "text/html"); err != nil {
			t.Fatalf("Put: %v", err)
		}
	})
	if put > putAllocBudget {
		t.Errorf("Document.Put of a 4 KiB page at the permanent store: %.1f allocations, budget %d", put, putAllocBudget)
	}
	t.Logf("Get %.1f (budget %d), Put %.1f (budget %d)", get, getAllocBudget, put, putAllocBudget)
}
