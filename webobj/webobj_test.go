package webobj_test

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/coherence"
	"repro/internal/msg"
	"repro/internal/strategy"
	"repro/internal/transport/memnet"
	"repro/webobj"
)

func newSys(t *testing.T) *webobj.System {
	t.Helper()
	sys := webobj.NewSystem()
	t.Cleanup(func() { _ = sys.Close() })
	return sys
}

func TestPublishOpenPutGet(t *testing.T) {
	sys := newSys(t)
	server, err := sys.NewServer("www")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Publish(server, "doc", webobj.WebDoc(), webobj.ConferenceStrategy(time.Hour)); err != nil {
		t.Fatal(err)
	}
	d, err := sys.Open("doc")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Put("p", []byte("hello"), "text/plain"); err != nil {
		t.Fatal(err)
	}
	pg, err := d.Get("p")
	if err != nil {
		t.Fatal(err)
	}
	if string(pg.Content) != "hello" || pg.ContentType != "text/plain" || pg.Version != 1 {
		t.Fatalf("page = %+v", pg)
	}
	st, err := d.Stat("p")
	if err != nil || st.Version != 1 || st.Content != nil {
		t.Fatalf("stat = %+v, %v", st, err)
	}
	pages, err := d.Pages()
	if err != nil || len(pages) != 1 || pages[0] != "p" {
		t.Fatalf("pages = %v, %v", pages, err)
	}
	if err := d.Delete("p"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get("p"); err == nil {
		t.Fatalf("deleted page still readable")
	}
}

func TestPublishRequiresPermanentStore(t *testing.T) {
	sys := newSys(t)
	server, _ := sys.NewServer("www")
	if err := sys.Publish(server, "doc", webobj.WebDoc(), webobj.ConferenceStrategy(time.Hour)); err != nil {
		t.Fatal(err)
	}
	cache, err := sys.NewCache("c", server)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Publish(cache, "doc2", webobj.WebDoc(), webobj.ConferenceStrategy(time.Hour)); err == nil {
		t.Fatalf("publish at cache accepted")
	}
}

func TestReplicateNeedsParentAndPublication(t *testing.T) {
	sys := newSys(t)
	server, _ := sys.NewServer("www")
	if err := sys.Replicate(server, "doc"); err == nil {
		t.Fatalf("replicate at parentless store accepted")
	}
	cache, _ := sys.NewCache("c", server)
	if err := sys.Replicate(cache, "unpublished"); err == nil {
		t.Fatalf("replicate of unpublished object accepted")
	}
}

func TestDuplicateStoreNames(t *testing.T) {
	sys := newSys(t)
	if _, err := sys.NewServer("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.NewServer("x"); err == nil {
		t.Fatalf("duplicate store name accepted")
	}
}

func TestOpenUnknownObject(t *testing.T) {
	sys := newSys(t)
	if _, err := sys.Open("nothing"); err == nil {
		t.Fatalf("open of unknown object succeeded")
	}
}

func TestAppendAndReplication(t *testing.T) {
	sys := newSys(t)
	server, _ := sys.NewServer("www")
	if err := sys.Publish(server, "doc", webobj.WebDoc(), webobj.ConferenceStrategy(20*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	cache, err := sys.NewCache("proxy", server)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Replicate(cache, "doc", webobj.ReadYourWrites); err != nil {
		t.Fatal(err)
	}
	// Writer through the cache with RYW: reads its own appends immediately.
	w, err := sys.Open("doc", webobj.At(cache), webobj.WithSession(webobj.ReadYourWrites))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append("log", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append("log", []byte("b")); err != nil {
		t.Fatal(err)
	}
	pg, err := w.Get("log")
	if err != nil {
		t.Fatal(err)
	}
	if string(pg.Content) != "ab" {
		t.Fatalf("RYW append read %q", pg.Content)
	}
}

func TestRebindKeepsSession(t *testing.T) {
	sys := newSys(t)
	server, _ := sys.NewServer("www")
	if err := sys.Publish(server, "doc", webobj.WebDoc(), webobj.MirroredSiteStrategy(time.Hour)); err != nil {
		t.Fatal(err)
	}
	mirror, err := sys.NewMirror("mirror", server)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Replicate(mirror, "doc", webobj.MonotonicReads); err != nil {
		t.Fatal(err)
	}
	c, err := sys.Open("doc", webobj.At(server), webobj.WithSession(webobj.MonotonicReads))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put("p", []byte("v1"), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("p"); err != nil {
		t.Fatal(err)
	}
	if err := c.Rebind(mirror); err != nil {
		t.Fatal(err)
	}
	pg, err := c.Get("p")
	if err != nil {
		t.Fatal(err)
	}
	if pg.Version < 1 {
		t.Fatalf("monotonic reads lost after rebind: %+v", pg)
	}
}

func TestNetworkAndNamingAccessors(t *testing.T) {
	sys := newSys(t)
	server, _ := sys.NewServer("www")
	if err := sys.Publish(server, "doc", webobj.WebDoc(), webobj.ConferenceStrategy(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if sys.Network() == nil || sys.Naming() == nil {
		t.Fatalf("accessors nil")
	}
	if server.Name() != "www" {
		t.Fatalf("store name %q", server.Name())
	}
	rec, _ := sys.Naming().Record("doc")
	entries := rec.Entries
	if len(entries) != 1 || !strings.Contains(entries[0].Addr, "www") {
		t.Fatalf("naming entries %+v", entries)
	}
	d, err := sys.Open("doc")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("p", []byte("x"), ""); err != nil {
		t.Fatal(err)
	}
	d.Close()
	if s := sys.Network().Stats(); s.Sent == 0 {
		t.Fatalf("network stats empty")
	}
}

func TestSystemCloseIdempotent(t *testing.T) {
	sys := webobj.NewSystem()
	if _, err := sys.NewServer("a"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if _, err := sys.NewServer("b"); err == nil {
		t.Fatalf("store creation after close accepted")
	}
}

// TestDeepHierarchyPreservesBatches drives a three-level chain (server →
// mirror → cache): a partition makes the mirror miss a burst of writes, the
// next write after healing exposes the gap, the mirror demands, and the
// server replays the burst as one KindUpdateBatch frame. The mirror must
// relay the released updates to the cache as one batch frame too — one frame
// per hop, asserted via msg.EncodeHook.
func TestDeepHierarchyPreservesBatches(t *testing.T) {
	st := webobj.Strategy{
		Model:             coherence.PRAM,
		Propagation:       strategy.PropagateUpdate,
		Scope:             strategy.ScopeAll,
		Writers:           strategy.SingleWriter,
		Initiative:        strategy.Push,
		Instant:           strategy.Immediate,
		AccessTransfer:    strategy.TransferPartial,
		CoherenceTransfer: strategy.CoherencePartial,
		ObjectOutdate:     strategy.Demand,
		ClientOutdate:     strategy.Demand,
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	sys := webobj.NewSystem(webobj.WithFabric(webobj.NewMemFabric(memnet.WithSeed(1))))
	t.Cleanup(func() { _ = sys.Close() })
	server, err := sys.NewServer("www")
	if err != nil {
		t.Fatal(err)
	}
	const obj = webobj.ObjectID("chain-doc")
	if err := sys.Publish(server, obj, webobj.WebDoc(), st); err != nil {
		t.Fatal(err)
	}
	mirror, err := sys.NewMirror("mirror", server)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Replicate(mirror, obj); err != nil {
		t.Fatal(err)
	}
	cache, err := sys.NewCache("proxy", mirror)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Replicate(cache, obj); err != nil {
		t.Fatal(err)
	}
	writer, err := sys.Open(obj, webobj.At(server))
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()

	waitChainCovers := func() {
		t.Helper()
		want, err := server.Applied(obj)
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			got, err := cache.Applied(obj)
			if err == nil && got.Covers(&want) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("cache did not converge: have %v want %v", got, want)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}

	if err := writer.Append("log", []byte("seed")); err != nil {
		t.Fatal(err)
	}
	waitChainCovers()

	// The mirror misses a burst of writes behind a partition.
	const gap = 16
	sys.Network().Partition("store/www", "store/mirror")
	for i := 0; i < gap; i++ {
		if err := writer.Append("log", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	sys.Network().Heal("store/www", "store/mirror")

	var singles, batchFrames, batchedUpdates atomic.Int64
	msg.EncodeHook = func(m *msg.Message) {
		switch m.Kind {
		case msg.KindUpdate:
			singles.Add(1)
		case msg.KindUpdateBatch:
			batchFrames.Add(1)
			batchedUpdates.Add(int64(len(m.Batch)))
		}
	}
	defer func() { msg.EncodeHook = nil }()

	// The next write exposes the gap; demand replay + relay follow.
	if err := writer.Append("log", []byte("trigger")); err != nil {
		t.Fatal(err)
	}
	waitChainCovers()
	msg.EncodeHook = nil

	// One frame per hop: the server→mirror replay batch and the
	// mirror→cache relay batch; the only KindUpdate single is the trigger's
	// immediate push.
	if got := batchFrames.Load(); got != 2 {
		t.Fatalf("want 1 batch frame per hop (2 total), got %d", got)
	}
	if got := batchedUpdates.Load(); got != 2*(gap+1) {
		t.Fatalf("batched updates = %d, want %d per hop", got, 2*(gap+1))
	}
	if got := singles.Load(); got != 1 {
		t.Fatalf("KindUpdate singles = %d, want 1 (the trigger push)", got)
	}
	// The burst content arrived intact at the cache.
	reader, err := sys.Open(obj, webobj.At(cache))
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	pg, err := reader.Get("log")
	if err != nil {
		t.Fatal(err)
	}
	if pg.Version != gap+2 {
		t.Fatalf("cache page version = %d, want %d", pg.Version, gap+2)
	}
}

// TestConcurrentPutsShareOneHandle: goroutines sharing one Document encode
// their arguments into pooled buffers; a buffer goes back only once its write
// was sent (and acked), so every page ends with exactly its own writer's
// bytes. Run it under -race.
func TestConcurrentPutsShareOneHandle(t *testing.T) {
	sys := newSys(t)
	www, err := sys.NewServer("www")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Publish(www, "doc", webobj.WebDoc(), webobj.WhiteboardStrategy()); err != nil {
		t.Fatal(err)
	}
	doc, err := sys.Open("doc", webobj.At(www))
	if err != nil {
		t.Fatal(err)
	}
	defer doc.Close()
	const writers, puts = 8, 20
	content := func(g, i int) []byte {
		return bytes.Repeat([]byte{byte('a' + g)}, 64*(1+(g+i)%writers))
	}
	var wg sync.WaitGroup
	for g := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range puts {
				if err := doc.Put(fmt.Sprintf("page%d", g), content(g, i), "text/plain"); err != nil {
					t.Errorf("writer %d put %d: %v", g, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for g := range writers {
		pg, err := doc.Get(fmt.Sprintf("page%d", g))
		if err != nil {
			t.Fatal(err)
		}
		if want := content(g, puts-1); !bytes.Equal(pg.Content, want) {
			t.Errorf("page%d holds %d bytes starting %q, want %d bytes of %q", g, len(pg.Content), pg.Content[:min(len(pg.Content), 8)], len(want), want[:1])
		}
	}
}
