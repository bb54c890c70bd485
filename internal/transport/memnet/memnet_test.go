package memnet

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/msg"
	"repro/internal/transport"
)

func testMsg(kind msg.Kind, payload string) *msg.Message {
	return &msg.Message{Kind: kind, Object: "o", Payload: []byte(payload)}
}

func recvOne(t *testing.T, ep transport.Endpoint) *msg.Message {
	t.Helper()
	select {
	case m, ok := <-ep.Recv():
		if !ok {
			t.Fatalf("recv channel closed")
		}
		return m
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for message")
		return nil
	}
}

func TestPointToPointDelivery(t *testing.T) {
	n := New()
	defer n.Close()
	a, err := n.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", testMsg(msg.KindUpdate, "hello")); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, b)
	if string(m.Payload) != "hello" {
		t.Fatalf("payload = %q", m.Payload)
	}
	if a.Addr() != "a" || b.Addr() != "b" {
		t.Fatalf("addresses wrong")
	}
}

func TestMessagesAreDeepCopies(t *testing.T) {
	n := New()
	defer n.Close()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	orig := &msg.Message{Kind: msg.KindUpdate, Object: "o", Payload: []byte("x")}
	orig.VVec.Set(1, 1)
	if err := a.Send("b", orig); err != nil {
		t.Fatal(err)
	}
	got := recvOne(t, b)
	got.VVec.Set(1, 99)
	got.Payload[0] = 'y'
	if orig.VVec.Get(1) != 1 || orig.Payload[0] != 'x' {
		t.Fatalf("delivered message aliases sender state")
	}
}

func TestUnknownAddress(t *testing.T) {
	n := New()
	defer n.Close()
	a, _ := n.Endpoint("a")
	err := a.Send("nowhere", testMsg(msg.KindUpdate, ""))
	if err == nil {
		t.Fatalf("want error for unknown address")
	}
}

func TestDuplicateEndpoint(t *testing.T) {
	n := New()
	defer n.Close()
	if _, err := n.Endpoint("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Endpoint("a"); err == nil {
		t.Fatalf("duplicate endpoint should fail")
	}
}

func TestLatencyOrderingFIFOPerLink(t *testing.T) {
	n := New(WithDefaultLink(LinkProfile{Latency: 2 * time.Millisecond}))
	defer n.Close()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	const k = 20
	for i := 0; i < k; i++ {
		if err := a.Send("b", &msg.Message{Kind: msg.KindUpdate, Object: "o", NetSeq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < k; i++ {
		m := recvOne(t, b)
		if m.NetSeq != uint64(i) {
			t.Fatalf("out-of-order delivery on same link: got %d want %d", m.NetSeq, i)
		}
	}
}

func TestLossDropsSomeMessages(t *testing.T) {
	n := New(WithSeed(7), WithDefaultLink(LinkProfile{Loss: 0.5}))
	defer n.Close()
	a, _ := n.Endpoint("a")
	if _, err := n.Endpoint("b"); err != nil {
		t.Fatal(err)
	}
	const k = 200
	for i := 0; i < k; i++ {
		if err := a.Send("b", testMsg(msg.KindUpdate, "x")); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for deliveries to drain.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := n.Stats()
		if s.Delivered+s.Dropped == k {
			if s.Dropped == 0 || s.Delivered == 0 {
				t.Fatalf("50%% loss should drop some and deliver some: %+v", s)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain timeout: %+v", s)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	n := New()
	defer n.Close()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	n.Partition("a", "b")
	if err := a.Send("b", testMsg(msg.KindUpdate, "lost")); err != nil {
		t.Fatal(err)
	}
	s := n.Stats()
	if s.Dropped != 1 {
		t.Fatalf("partitioned send not dropped: %+v", s)
	}
	n.Heal("a", "b")
	if err := a.Send("b", testMsg(msg.KindUpdate, "ok")); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, b)
	if string(m.Payload) != "ok" {
		t.Fatalf("post-heal payload %q", m.Payload)
	}
}

func TestMulticast(t *testing.T) {
	n := New()
	defer n.Close()
	src, _ := n.Endpoint("src")
	var sinks []transport.Endpoint
	addrs := []string{"s1", "s2", "s3"}
	for _, ad := range addrs {
		ep, _ := n.Endpoint(ad)
		sinks = append(sinks, ep)
	}
	if err := src.Multicast(addrs, testMsg(msg.KindUpdate, "all")); err != nil {
		t.Fatal(err)
	}
	for _, s := range sinks {
		if got := recvOne(t, s); string(got.Payload) != "all" {
			t.Fatalf("multicast payload %q", got.Payload)
		}
	}
}

func TestStatsCounters(t *testing.T) {
	n := New()
	defer n.Close()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	m := testMsg(msg.KindInvalidate, "payload")
	size := uint64(len(msg.Encode(m)))
	if err := a.Send("b", m); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b)
	s := n.Stats()
	if s.Sent != 1 || s.Delivered != 1 || s.Dropped != 0 {
		t.Fatalf("counters wrong: %+v", s)
	}
	if s.Bytes != size {
		t.Fatalf("bytes = %d, want %d", s.Bytes, size)
	}
	if s.ByKind[msg.KindInvalidate] != 1 {
		t.Fatalf("by-kind counter wrong: %v", s.ByKind)
	}
	n.ResetStats()
	if s2 := n.Stats(); s2.Sent != 0 || len(s2.ByKind) != 0 {
		t.Fatalf("ResetStats did not clear: %+v", s2)
	}
}

func TestClosedEndpointStopsReceiving(t *testing.T) {
	// The latency must comfortably exceed any plausible scheduling delay
	// between Send and Close, or the in-flight frame lands before the
	// endpoint closes and the Delivered==0 assertion turns flaky.
	n := New(WithDefaultLink(LinkProfile{Latency: 100 * time.Millisecond}))
	defer n.Close()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	// A delivery already in flight when the endpoint closes is discarded.
	if err := a.Send("b", testMsg(msg.KindUpdate, "x")); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	s := n.Stats()
	if s.Delivered != 0 {
		t.Fatalf("message delivered to closed endpoint: %+v", s)
	}
	// The address is gone from the network: new sends fail fast.
	if err := a.Send("b", testMsg(msg.KindUpdate, "x")); !errors.Is(err, transport.ErrUnknownAddr) {
		t.Fatalf("send to closed address: got %v, want ErrUnknownAddr", err)
	}
	if err := b.Send("a", testMsg(msg.KindUpdate, "x")); err == nil {
		t.Fatalf("send from closed endpoint should fail")
	}
	if err := b.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestClosedAddressCanBeRecreated(t *testing.T) {
	n := New()
	defer n.Close()
	a, _ := n.Endpoint("a")
	b, err := n.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2, err := n.Endpoint("b")
	if err != nil {
		t.Fatalf("re-creating a closed address: %v", err)
	}
	if err := a.Send("b", testMsg(msg.KindUpdate, "fresh")); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, b2); string(got.Payload) != "fresh" {
		t.Fatalf("payload %q", got.Payload)
	}
	// The old endpoint's channel still closes when the network closes.
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-b.Recv():
		if ok {
			t.Fatalf("unexpected message on retired endpoint")
		}
	case <-time.After(time.Second):
		t.Fatalf("retired endpoint's recv channel not closed after network close")
	}
}

func TestNetworkCloseClosesRecvChannels(t *testing.T) {
	n := New()
	a, _ := n.Endpoint("a")
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-a.Recv():
		if ok {
			t.Fatalf("unexpected message after close")
		}
	case <-time.After(time.Second):
		t.Fatalf("recv channel not closed after network close")
	}
	if _, err := n.Endpoint("late"); err == nil {
		t.Fatalf("endpoint creation after close should fail")
	}
	if err := n.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestPerLinkProfilesOverrideDefault(t *testing.T) {
	n := New(WithDefaultLink(LinkProfile{Loss: 1.0})) // default loses everything
	defer n.Close()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	n.SetLinkBoth("a", "b", LinkProfile{}) // explicit lossless link
	if err := a.Send("b", testMsg(msg.KindUpdate, "ok")); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, b); string(got.Payload) != "ok" {
		t.Fatalf("payload %q", got.Payload)
	}
}

func TestJitterStillDelivers(t *testing.T) {
	n := New(WithSeed(3), WithDefaultLink(LinkProfile{Latency: time.Millisecond, Jitter: 2 * time.Millisecond}))
	defer n.Close()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	const k = 10
	for i := 0; i < k; i++ {
		if err := a.Send("b", testMsg(msg.KindUpdate, "j")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < k; i++ {
		recvOne(t, b)
	}
}

// TestMulticastEncodesOnce: the fan-out fast path serialises the frame a
// single time and shares the wire bytes across all destinations.
func TestMulticastEncodesOnce(t *testing.T) {
	n := New()
	defer n.Close()
	src, _ := n.Endpoint("src")
	var sinks []transport.Endpoint
	addrs := []string{"s1", "s2", "s3", "s4"}
	for _, ad := range addrs {
		ep, _ := n.Endpoint(ad)
		sinks = append(sinks, ep)
	}
	var encodes atomic.Int64
	msg.EncodeHook = func(*msg.Message) { encodes.Add(1) }
	defer func() { msg.EncodeHook = nil }()
	if err := src.Multicast(addrs, testMsg(msg.KindUpdate, "once")); err != nil {
		t.Fatal(err)
	}
	for _, s := range sinks {
		if got := recvOne(t, s); string(got.Payload) != "once" {
			t.Fatalf("multicast payload %q", got.Payload)
		}
	}
	if got := encodes.Load(); got != 1 {
		t.Fatalf("multicast to %d destinations encoded %d times, want 1", len(addrs), got)
	}
	if s := n.Stats(); s.Sent != uint64(len(addrs)) || s.Delivered != uint64(len(addrs)) {
		t.Fatalf("fan-out counters: %+v", s)
	}
}

// TestConcurrentSendersStats: hammer the network from many goroutines to
// shake out races in the atomic counters and shared encode path (run with
// -race).
func TestConcurrentSendersStats(t *testing.T) {
	n := New()
	defer n.Close()
	const senders = 8
	const per = 50
	sink, _ := n.Endpoint("sink")
	eps := make([]transport.Endpoint, senders)
	for i := range eps {
		eps[i], _ = n.Endpoint(string(rune('a' + i)))
	}
	var wg sync.WaitGroup
	for _, ep := range eps {
		wg.Add(1)
		go func(ep transport.Endpoint) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				_ = ep.Send("sink", testMsg(msg.KindUpdate, "x"))
			}
		}(ep)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < senders*per; i++ {
			recvOne(t, sink)
		}
	}()
	wg.Wait()
	<-done
	if s := n.Stats(); s.Sent != senders*per || s.Delivered != senders*per {
		t.Fatalf("concurrent counters: %+v", s)
	}
}

// TestInFlightDeliveryNotHandedToRecreatedEndpoint: a delivery scheduled to
// an endpoint that closes before it lands is discarded, even if a fresh
// endpoint reuses the address in the meantime — deliveries are pinned to the
// endpoint incarnation that existed at send time.
func TestInFlightDeliveryNotHandedToRecreatedEndpoint(t *testing.T) {
	n := New(WithDefaultLink(LinkProfile{Latency: 20 * time.Millisecond}))
	defer n.Close()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	if err := a.Send("b", testMsg(msg.KindUpdate, "stale")); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2, err := n.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", testMsg(msg.KindUpdate, "fresh")); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, b2); string(got.Payload) != "fresh" {
		t.Fatalf("recreated endpoint received %q; the stale in-flight frame must be discarded", got.Payload)
	}
	select {
	case m := <-b2.Recv():
		t.Fatalf("unexpected second delivery %q on recreated endpoint", m.Payload)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestMulticastBestEffortPastClosedDestination: a destination whose
// endpoint closed (freeing its address) must not starve the remaining
// fan-out targets; the sweep completes and the failure is still reported.
func TestMulticastBestEffortPastClosedDestination(t *testing.T) {
	n := New()
	defer n.Close()
	src, _ := n.Endpoint("src")
	s1, _ := n.Endpoint("s1")
	s2, _ := n.Endpoint("s2")
	s3, _ := n.Endpoint("s3")
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	err := src.Multicast([]string{"s1", "s2", "s3"}, testMsg(msg.KindUpdate, "go"))
	if !errors.Is(err, transport.ErrUnknownAddr) {
		t.Fatalf("multicast error = %v, want ErrUnknownAddr for the closed destination", err)
	}
	for _, s := range []transport.Endpoint{s1, s3} {
		if got := recvOne(t, s); string(got.Payload) != "go" {
			t.Fatalf("live destination starved: %q", got.Payload)
		}
	}
}

// seqMsg is a frame whose NetSeq records its position in a sender's stream.
func seqMsg(i int) *msg.Message {
	return &msg.Message{Kind: msg.KindUpdate, Object: "o", NetSeq: uint64(i)}
}

// TestFIFOAcrossInlineAndScheduledDelivery: on an instant link a sender hands
// frames over itself until the inbox fills, the overflow waits in the
// schedule, and frames sent while the scheduler works that backlog off must
// queue behind it. The receiver sees the sender's order throughout.
func TestFIFOAcrossInlineAndScheduledDelivery(t *testing.T) {
	n := New()
	defer n.Close()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	const k = 300
	next := 0
	send := func(count int) {
		for i := 0; i < count; i++ {
			if err := a.Send("b", seqMsg(next)); err != nil {
				t.Error(err)
				return
			}
			next++
		}
	}
	send(inboxSize) // handed over inline: nobody is reading
	if got := len(b.Recv()); got != inboxSize {
		t.Fatalf("inbox holds %d frames after %d inline sends", got, inboxSize)
	}
	send(k) // the inbox is full: these wait in the schedule
	if got := b.(*endpoint).scheduled.Load(); got != k {
		t.Fatalf("%d frames scheduled behind a full inbox, want %d", got, k)
	}
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		send(k) // races the scheduler draining the backlog
	}()
	for i := 0; i < inboxSize+2*k; i++ {
		if m := recvOne(t, b); m.NetSeq != uint64(i) {
			t.Fatalf("frame %d arrived in position %d", m.NetSeq, i)
		}
	}
	<-sent
}

// TestSendNeverBlocksOnFullInboxes: two endpoints whose inboxes are full send
// to each other at once, as two store loops relaying to each other would.
// Neither Send may wait for the other side to read.
func TestSendNeverBlocksOnFullInboxes(t *testing.T) {
	n := New()
	defer n.Close()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	for i := 0; i < inboxSize; i++ {
		if err := a.Send("b", seqMsg(i)); err != nil {
			t.Fatal(err)
		}
		if err := b.Send("a", seqMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	const k = 100
	var wg sync.WaitGroup
	for _, pair := range [][2]transport.Endpoint{{a, b}, {b, a}} {
		wg.Add(1)
		go func(from, to transport.Endpoint) {
			defer wg.Done()
			for i := 0; i < k; i++ {
				if err := from.Send(to.Addr(), seqMsg(inboxSize+i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(pair[0], pair[1])
	}
	returned := make(chan struct{})
	go func() { wg.Wait(); close(returned) }()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("Send blocked on a full inbox")
	}
	// Both sides read at once: the one scheduler waits on whichever full
	// inbox it reached first, so draining them in turn could starve the
	// second of the frames scheduled for it.
	for _, ep := range []transport.Endpoint{a, b} {
		wg.Add(1)
		go func(ep transport.Endpoint) {
			defer wg.Done()
			for i := 0; i < inboxSize+k; i++ {
				select {
				case m := <-ep.Recv():
					if m.NetSeq != uint64(i) {
						t.Errorf("%s: frame %d arrived in position %d", ep.Addr(), m.NetSeq, i)
						return
					}
				case <-time.After(5 * time.Second):
					t.Errorf("%s: timed out waiting for frame %d", ep.Addr(), i)
					return
				}
			}
		}(ep)
	}
	wg.Wait()
}

// TestCloseRacingInlineDelivery: an endpoint closes while a sender is handing
// frames over inline. Whatever the interleaving, the retired inbox ends up
// empty (no frame pinned until the network closes) and an endpoint created
// at the same address afterwards receives none of the old traffic.
func TestCloseRacingInlineDelivery(t *testing.T) {
	n := New()
	defer n.Close()
	a, _ := n.Endpoint("a")
	for round := 0; round < 200; round++ {
		b, err := n.Endpoint("b")
		if err != nil {
			t.Fatal(err)
		}
		sent := make(chan struct{})
		go func() {
			defer close(sent)
			for i := 0; i < 50; i++ {
				// Unknown-address errors are the close winning the race.
				_ = a.Send("b", seqMsg(i))
			}
		}()
		if round%2 == 1 {
			time.Sleep(time.Duration(round) * time.Microsecond / 8)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		<-sent
		if got := len(b.(*endpoint).inbox); got != 0 {
			t.Fatalf("round %d: %d frames left in the retired inbox", round, got)
		}
		b2, err := n.Endpoint("b")
		if err != nil {
			t.Fatal(err)
		}
		if got := len(b2.Recv()); got != 0 {
			t.Fatalf("round %d: fresh endpoint received %d frames sent to its predecessor", round, got)
		}
		if err := b2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStatsSameInlineAndScheduled: the counters do not depend on which path a
// frame took. The same seeded traffic — unicast, multicast, link loss, a
// partition — is sent over an instant link (inline hand-over) and over a
// 1 µs link on a fake clock (every frame through the scheduler).
func TestStatsSameInlineAndScheduled(t *testing.T) {
	run := func(latency time.Duration) Stats {
		fc := clock.NewFake()
		n := New(WithSeed(42), WithClock(fc), WithDefaultLink(LinkProfile{Latency: latency, Loss: 0.2}))
		defer n.Close()
		a, _ := n.Endpoint("a")
		for _, addr := range []string{"b", "c", "d"} {
			if _, err := n.Endpoint(addr); err != nil {
				t.Fatal(err)
			}
		}
		n.Partition("a", "d")
		kinds := []msg.Kind{msg.KindUpdate, msg.KindInvalidate, msg.KindReadReply}
		for i := 0; i < 120; i++ {
			m := testMsg(kinds[i%len(kinds)], "payload-"+string(rune('a'+i%7)))
			var err error
			if i%4 == 0 {
				err = a.Multicast([]string{"b", "c", "d"}, m)
			} else {
				err = a.Send([]string{"b", "c", "d"}[i%3], m)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		for s := n.Stats(); s.Delivered < s.Sent-s.Dropped; s = n.Stats() {
			if time.Now().After(deadline) {
				t.Fatalf("delivered %d of %d before deadline", s.Delivered, s.Sent-s.Dropped)
			}
			fc.Advance(time.Microsecond)
			time.Sleep(time.Millisecond)
		}
		return n.Stats()
	}
	inline, scheduled := run(0), run(time.Microsecond)
	if inline.Dropped == 0 || inline.Delivered == 0 {
		t.Fatalf("traffic exercised nothing: %+v", inline)
	}
	if !reflect.DeepEqual(inline, scheduled) {
		t.Fatalf("stats differ by delivery path:\n inline    %+v\n scheduled %+v", inline, scheduled)
	}
}
