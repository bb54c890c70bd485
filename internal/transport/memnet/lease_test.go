package memnet

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/msg"
)

// TestSharedFrameOutlivesEachReceiver: a multicast frame, and the duplicate
// of a delivery, is one pooled buffer that every receiver holds. Receivers on
// their own goroutines check their message and release it at once; each must
// still read its frame intact however the others' releases interleave. Under
// the leasecheck tag a buffer recycled too early is poisoned, and under -race
// the reference count is exercised from every receiver at once.
func TestSharedFrameOutlivesEachReceiver(t *testing.T) {
	n := New()
	defer n.Close()
	src, _ := n.Endpoint("src")
	addrs := []string{"s1", "s2", "s3"}
	n.SetLink("src", "s3", LinkProfile{Latency: 50 * time.Microsecond, Dup: 1})
	const frames = 200
	var wg sync.WaitGroup
	for _, ad := range addrs {
		ep, _ := n.Endpoint(ad)
		want := frames
		if ad == "s3" {
			want = 2 * frames // every frame delivered twice
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < want; i++ {
				select {
				case m := <-ep.Recv():
					if p := string(m.Payload); p != m.Inv.Page || !strings.HasPrefix(p, "frame-") {
						t.Errorf("%s: payload %q, page %q", ad, p, m.Inv.Page)
					}
					m.Release()
				case <-time.After(5 * time.Second):
					t.Errorf("%s: timed out after %d of %d frames", ad, i, want)
					return
				}
			}
		}()
	}
	for i := 0; i < frames; i++ {
		p := fmt.Sprintf("frame-%d", i)
		m := &msg.Message{Kind: msg.KindUpdate, Object: "o", Inv: msg.Invocation{Page: p}, Payload: []byte(p)}
		if err := src.Multicast(addrs, m); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}
