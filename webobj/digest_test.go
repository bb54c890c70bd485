package webobj_test

import (
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/transport/memnet"
	"repro/webobj"
)

// TestWithDigestIntervalRecoversPartitionedCache drives the anti-entropy
// knob through the public API: a system built with WithDigestInterval heals
// a partitioned cache with no foreground traffic, observed end to end via a
// client read that binds after convergence.
func TestWithDigestIntervalRecoversPartitionedCache(t *testing.T) {
	const interval = 150 * time.Millisecond
	sys := webobj.NewSystem(
		webobj.WithFabric(webobj.NewMemFabric(memnet.WithSeed(11))),
		webobj.WithDigestInterval(interval),
	)
	t.Cleanup(func() { _ = sys.Close() })

	server, err := sys.NewServer("www")
	if err != nil {
		t.Fatal(err)
	}
	const obj = webobj.ObjectID("digest-doc")
	if err := sys.Publish(server, obj, webobj.WebDoc(), webobj.ConferenceStrategy(5*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	cache, err := sys.NewCache("proxy", server)
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
	cid := writer.Client()

	if err := writer.Append("log", []byte("a")); err != nil {
		t.Fatal(err)
	}
	waitCovered := func(seq uint64, what string) {
		t.Helper()
		deadline := time.Now().Add(2 * interval)
		for {
			v, err := cache.Applied(obj)
			if err != nil {
				t.Fatal(err)
			}
			if v.Get(cid) >= seq {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("cache never covered write %d: %s", seq, what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitCovered(1, "pre-partition write")

	net := sys.Network()
	net.Partition("store/www", "store/proxy")
	if err := writer.Append("log", []byte("b")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // flush ships into the partition
	net.Heal("store/www", "store/proxy")

	// No reads, no writes: the 2x-interval deadline inside waitCovered is
	// the acceptance bound, and only a digest can get us there.
	waitCovered(2, "post-heal convergence with zero foreground traffic")
	if s := net.Stats(); s.ByKind[msg.KindDigest] == 0 {
		t.Fatalf("no digest frames on the wire: %+v", s.ByKind)
	}
	cs, err := cache.Stats(obj)
	if err != nil {
		t.Fatal(err)
	}
	if cs.DigestDemands == 0 {
		t.Fatalf("cache never demanded off a digest: %+v", cs)
	}

	// The recovered state is live for ordinary clients.
	reader, err := sys.Open(obj) // picks the cache (lowest layer)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	pg, err := reader.Get("log")
	if err != nil || string(pg.Content) != "ab" {
		t.Fatalf("post-recovery read: %q, %v", pg, err)
	}
}
