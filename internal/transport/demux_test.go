package transport

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/msg"
)

// scriptEndpoint is an Endpoint with no network: requests are copied onto
// sent, and the test plays the remote side by putting replies on inbox.
type scriptEndpoint struct {
	sent  chan *msg.Message
	inbox chan *msg.Message
}

func newScriptEndpoint() *scriptEndpoint {
	// Room for every frame a test sends or injects without a reader.
	return &scriptEndpoint{sent: make(chan *msg.Message, 64), inbox: make(chan *msg.Message, 64)}
}

func (e *scriptEndpoint) Addr() string { return "client" }
func (e *scriptEndpoint) Send(_ string, m *msg.Message) error {
	cp := *m
	e.sent <- &cp
	return nil
}
func (e *scriptEndpoint) Multicast([]string, *msg.Message) error { return nil }
func (e *scriptEndpoint) Recv() <-chan *msg.Message              { return e.inbox }
func (e *scriptEndpoint) Close() error                           { return nil }

// reply injects a reply to the request with the given NetSeq.
func (e *scriptEndpoint) reply(seq uint64, tag string) {
	e.inbox <- &msg.Message{Kind: msg.KindReadReply, NetSeq: seq, Err: tag}
}

// TestRecycledSlotIgnoresStaleReplies: call N times out and its slot is
// reused for call N+1. The late reply to N and a duplicate of N+1's reply
// must not complete N+1 in place of its own reply, and a duplicate that
// arrives after N+1 finished must not complete N+2 on the same slot.
func TestRecycledSlotIgnoresStaleReplies(t *testing.T) {
	ep := newScriptEndpoint()
	d := NewDemux(ep)
	defer d.Close()

	begin := func() (*Slot, uint64) {
		t.Helper()
		s, err := d.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Send("store", &msg.Message{Kind: msg.KindReadRequest}); err != nil {
			t.Fatal(err)
		}
		return s, (<-ep.sent).NetSeq
	}
	wait := func(s *Slot, want string) {
		t.Helper()
		r, err := s.Wait(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if r.Err != want {
			t.Fatalf("call completed by reply %q, want %q", r.Err, want)
		}
	}

	first, seqN := begin()
	if _, err := first.Wait(10 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("unanswered call: got %v, want ErrTimeout", err)
	}

	second, seqN1 := begin()
	if second != first {
		t.Fatal("the retired slot was not recycled for the next call")
	}
	ep.reply(seqN, "late reply to N")
	ep.reply(seqN1, "reply to N+1")
	ep.reply(seqN1, "duplicate reply to N+1")
	wait(second, "reply to N+1")

	ep.reply(seqN1, "second duplicate reply to N+1")
	third, seqN2 := begin()
	if third != first {
		t.Fatal("the retired slot was not recycled for the next call")
	}
	ep.reply(seqN2, "reply to N+2")
	wait(third, "reply to N+2")
}

// TestConcurrentCallsGetTheirOwnReplies drives the slot pool from many
// goroutines against an echoing remote; every call must see the reply to its
// own request. Run under -race.
func TestConcurrentCallsGetTheirOwnReplies(t *testing.T) {
	ep := newScriptEndpoint()
	d := NewDemux(ep)
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		for m := range ep.sent {
			ep.reply(m.NetSeq, m.Inv.Page)
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tag := fmt.Sprintf("%d/%d", g, i)
				r, err := d.Call("store", &msg.Message{Kind: msg.KindReadRequest, Inv: msg.Invocation{Page: tag}}, 5*time.Second)
				if err != nil {
					t.Error(err)
					return
				}
				if r.Err != tag {
					t.Errorf("call %s completed by the reply to %s", tag, r.Err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	close(ep.sent)
	<-echoed
	if _, err := d.Call("store", &msg.Message{}, time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("call on a closed demux: got %v, want ErrClosed", err)
	}
}
