package memnet

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/msg"
	"repro/internal/transport"
)

// deliveryLog is the per-receiver payload sequence observed in one run.
type deliveryLog map[string][]string

// runSeededWorkload drives a fixed seeded workload — 3 senders, 4 receivers,
// lossy/jittery/duplicating links — over a fake clock and returns each
// receiver's delivery sequence. All sends happen on one goroutine before the
// clock advances, so the schedule (delivery times, shard sequence numbers,
// loss/dup decisions) is fully determined by the seed; any run-to-run
// difference in the returned log is a determinism regression.
func runSeededWorkload(t *testing.T) deliveryLog {
	t.Helper()
	fc := clock.NewFake()
	n := New(
		WithSeed(1998),
		WithClock(fc),
		WithDefaultLink(LinkProfile{
			Latency: 2 * time.Millisecond,
			Jitter:  5 * time.Millisecond,
			Loss:    0.15,
			Dup:     0.15,
		}),
	)
	defer n.Close()

	senders := make([]transport.Endpoint, 3)
	receivers := make([]transport.Endpoint, 4)
	for i := range senders {
		ep, err := n.Endpoint(fmt.Sprintf("s%d", i))
		if err != nil {
			t.Fatal(err)
		}
		senders[i] = ep
	}
	for i := range receivers {
		ep, err := n.Endpoint(fmt.Sprintf("r%d", i))
		if err != nil {
			t.Fatal(err)
		}
		receivers[i] = ep
	}

	// One goroutine issues every send while the fake clock stands still:
	// the full delivery schedule exists in the shard heaps before any
	// drainer can act on it.
	const perSender = 60
	for k := 0; k < perSender; k++ {
		for i, s := range senders {
			to := fmt.Sprintf("r%d", (k+i)%len(receivers))
			m := testMsg(msg.KindUpdate, fmt.Sprintf("s%d-%03d", i, k))
			if err := s.Send(to, m); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Loss and duplication were decided at enqueue time, so the exact
	// number of eventual deliveries is already fixed; advance the clock in
	// small steps until the drainers have handed every one of them over.
	want := func() uint64 {
		s := n.Stats()
		return s.Sent - s.Dropped + s.Duplicated
	}()
	deadline := time.Now().Add(10 * time.Second)
	for n.Stats().Delivered < want {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d before deadline", n.Stats().Delivered, want)
		}
		fc.Advance(time.Millisecond)
		time.Sleep(time.Millisecond)
	}

	log := make(deliveryLog)
	for i, r := range receivers {
		addr := fmt.Sprintf("r%d", i)
		for {
			select {
			case m := <-r.Recv():
				log[addr] = append(log[addr], string(m.Payload))
				continue
			default:
			}
			break
		}
	}
	return log
}

// TestDeterministicModeReproducesDeliveryOrder locks in the seeded-run
// contract the chaos harness depends on: the default single-drainer network
// delivers byte-identical per-receiver sequences on every run of the same
// seed, loss, jitter, and duplication included.
func TestDeterministicModeReproducesDeliveryOrder(t *testing.T) {
	first := runSeededWorkload(t)
	if len(first) == 0 {
		t.Fatal("workload delivered nothing")
	}
	for run := 0; run < 2; run++ {
		again := runSeededWorkload(t)
		for addr, seq := range first {
			if got := strings.Join(again[addr], ","); got != strings.Join(seq, ",") {
				t.Fatalf("run %d: %s delivery order diverged:\n got %s\nwant %s",
					run, addr, got, strings.Join(seq, ","))
			}
		}
	}
}
