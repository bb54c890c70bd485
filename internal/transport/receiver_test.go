package transport_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/transport"
	"repro/internal/transport/memnet"
	"repro/internal/transport/tcpnet"
)

// pair is a client endpoint under a Demux and a server endpoint the test
// answers from by hand, on one fabric.
type pair struct {
	client, server transport.Endpoint
	d              *transport.Demux
}

// eachFabric runs f over a memnet and a tcpnet pair. Both hand the client's
// frames to the Demux through its receiver, not through a goroutine reading
// the inbox.
func eachFabric(t *testing.T, f func(t *testing.T, p pair)) {
	t.Run("memnet", func(t *testing.T) {
		n := memnet.New()
		t.Cleanup(func() { _ = n.Close() })
		c, err := n.Endpoint("client")
		if err != nil {
			t.Fatal(err)
		}
		s, err := n.Endpoint("server")
		if err != nil {
			t.Fatal(err)
		}
		f(t, newPair(t, c, s))
	})
	t.Run("tcpnet", func(t *testing.T) {
		c, err := tcpnet.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		s, err := tcpnet.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		f(t, newPair(t, c, s))
	})
}

func newPair(t *testing.T, c, s transport.Endpoint) pair {
	if _, ok := c.(transport.ReceiverSetter); !ok {
		t.Fatalf("%T has no receiver hook", c)
	}
	d := transport.NewDemux(c)
	t.Cleanup(d.Stop)
	return pair{client: c, server: s, d: d}
}

// request sends one call and returns its slot and the request as the server
// received it.
func (p pair) request(t *testing.T) (*transport.Slot, *msg.Message) {
	t.Helper()
	s, err := p.d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	s.Req = msg.Message{Kind: msg.KindReadRequest}
	if err := s.Send(p.server.Addr(), &s.Req); err != nil {
		t.Fatal(err)
	}
	select {
	case req := <-p.server.Recv():
		return s, req
	case <-time.After(5 * time.Second):
		t.Fatal("the server never received the request")
		return nil, nil
	}
}

// answer sends the server's reply to req, tagged so the test can tell
// replies apart.
func (p pair) answer(t *testing.T, req *msg.Message, tag string) {
	t.Helper()
	if err := p.server.Send(req.From, &msg.Message{Kind: msg.KindReadReply, NetSeq: req.NetSeq, Err: tag}); err != nil {
		t.Fatal(err)
	}
}

// wait runs s.Wait(timeout) on its own goroutine.
func wait(s *transport.Slot, timeout time.Duration) <-chan result {
	out := make(chan result, 1)
	go func() {
		r, err := s.Wait(timeout)
		out <- result{r, err}
	}()
	return out
}

type result struct {
	r   *msg.Message
	err error
}

func (r result) tag() string {
	if r.r == nil {
		return "<no reply>"
	}
	return r.r.Err
}

// TestSweepTimesOutShortDeadlineBehindLong: a call with a long deadline arms
// the Demux's one timer; a later call with a short deadline must re-arm it,
// time out on its own deadline, and leave the long call waiting for its
// reply.
func TestSweepTimesOutShortDeadlineBehindLong(t *testing.T) {
	eachFabric(t, func(t *testing.T, p pair) {
		long, longReq := p.request(t)
		longDone := wait(long, time.Minute)
		time.Sleep(10 * time.Millisecond) // let the long call arm the timer first

		short, _ := p.request(t)
		start := time.Now()
		_, err := short.Wait(20 * time.Millisecond)
		if !errors.Is(err, transport.ErrTimeout) {
			t.Fatalf("short call: got %v, want ErrTimeout", err)
		}
		if took := time.Since(start); took > 10*time.Second {
			t.Fatalf("short call timed out after %v, not on its own 20ms deadline", took)
		}

		select {
		case r := <-longDone:
			t.Fatalf("the long call ended with the short one: %q, %v", r.tag(), r.err)
		default:
		}
		p.answer(t, longReq, "long")
		if r := <-longDone; r.err != nil || r.tag() != "long" {
			t.Fatalf("long call: got %q, %v", r.tag(), r.err)
		}
	})
}

// TestDuplicateReplyThroughReceiver: a reply delivered twice completes its
// call once; the copy must not complete the next call, which reuses the
// same slot.
func TestDuplicateReplyThroughReceiver(t *testing.T) {
	eachFabric(t, func(t *testing.T, p pair) {
		first, req := p.request(t)
		p.answer(t, req, "first")
		p.answer(t, req, "first, again")
		r, err := first.Wait(5 * time.Second)
		if err != nil || r.Err != "first" {
			t.Fatalf("first call: got %v, %v", r, err)
		}
		r.Release()

		second, req := p.request(t)
		if second != first {
			t.Fatal("the retired slot was not recycled for the next call")
		}
		p.answer(t, req, "second")
		r, err = second.Wait(5 * time.Second)
		if err != nil || r.Err != "second" {
			t.Fatalf("second call: got %v, %v", r, err)
		}
		r.Release()
	})
}

// TestStopFailsCallsAndReturnsInbox: Stop fails a waiting call with
// ErrClosed at once, and hands the endpoint's receive side back: frames that
// arrive afterwards are in its inbox.
func TestStopFailsCallsAndReturnsInbox(t *testing.T) {
	eachFabric(t, func(t *testing.T, p pair) {
		s, req := p.request(t)
		done := wait(s, time.Minute)
		p.d.Stop()
		if r := <-done; !errors.Is(r.err, transport.ErrClosed) {
			t.Fatalf("call in flight at Stop: got %q, %v, want ErrClosed", r.tag(), r.err)
		}

		p.answer(t, req, "after stop")
		select {
		case m := <-p.client.Recv():
			if m.Err != "after stop" {
				t.Fatalf("inbox got %q", m.Err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a frame sent after Stop never reached the endpoint's inbox")
		}
	})
}
