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
	// A Put measures 1: at the store, the one block the update's page name
	// and arguments are copied into, which the page keeps as its content.
	// The update's struct comes from a slab of 32, and the arguments are
	// encoded into a pooled buffer; the engine's release slice and the
	// applied vector are reused, the ack is written into the request, and a
	// writer with no session model carries no dependency vector.
	putAllocBudget = 1 + 2
	// A Put at www and a Get of the page it invalidated at a cache measure 8
	// together: the update's block at www, the page encoding www builds for
	// its state reply, the one copy of it the cache installs, the parked
	// read's expiry timer (the timer, its callback and the store's wrapper),
	// and DecodePage's two. The invalidation, the state request and the state
	// reply carry their one page name in the message's own slot, and the
	// cache's parked entry and page record are reused. It measured 21 while
	// each of those frames allocated a page list, the install a new record and
	// a clone of the name, and each park a new entry.
	invalidatedAllocBudget = 8 + 2
)

// leaseCheck is set under the leasecheck build tag, which poisons released
// frames instead of reusing them, so the budgets above do not apply.
var leaseCheck bool

// raceEnabled is set under the race detector. Its sync.Pool drops a quarter
// of what is put back, so the invalidated-read cycle, nine pooled frames,
// measures 14 there and not 8.
var raceEnabled bool

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
	if raceEnabled {
		return
	}

	// The popular-event page: each Put at www invalidates the cache's copy,
	// and the Get that follows at the cache waits for the page to be fetched
	// back.
	if err := sys.Publish(www, "event", webobj.WebDoc(), webobj.PopularEventPageStrategy()); err != nil {
		t.Fatal(err)
	}
	if err := sys.Replicate(cache, "event"); err != nil {
		t.Fatal(err)
	}
	eventWriter, err := sys.Open("event", webobj.At(www))
	if err != nil {
		t.Fatal(err)
	}
	defer eventWriter.Close()
	eventReader, err := sys.Open("event", webobj.At(cache), webobj.WithSession(webobj.MonotonicReads))
	if err != nil {
		t.Fatal(err)
	}
	defer eventReader.Close()
	page := content[:512]
	if err := eventWriter.Put("p", page, "text/html"); err != nil {
		t.Fatal(err)
	}
	invalidated := testing.AllocsPerRun(500, func() {
		if err := eventWriter.Put("p", page, "text/html"); err != nil {
			t.Fatalf("Put: %v", err)
		}
		pg, err := eventReader.Get("p")
		if err != nil || len(pg.Content) != len(page) {
			t.Fatalf("Get: %v", err)
		}
	})
	if invalidated > invalidatedAllocBudget {
		t.Errorf("Put at www, then Get of the invalidated page at a cache: %.1f allocations, budget %d", invalidated, invalidatedAllocBudget)
	}
	t.Logf("invalidated Put+Get %.1f (budget %d)", invalidated, invalidatedAllocBudget)
}
