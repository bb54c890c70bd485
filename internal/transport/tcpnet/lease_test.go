package tcpnet

import (
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
)

// poolsRecycle is false under the leasecheck tag, which poisons a released
// frame instead of reusing it, and under the race detector, whose sync.Pool
// drops a share of what it is given; allocation counts hold only without
// both.
var poolsRecycle = true

// updateFrame is a typical update frame: a 256-byte invocation and a
// three-entry vector.
func updateFrame(from string) *msg.Message {
	m := &msg.Message{
		Kind:   msg.KindUpdate,
		Object: "bench-doc",
		From:   from,
		Inv:    msg.Invocation{Method: 4, Page: "index.html", Args: make([]byte, 256)},
	}
	m.VVec.Set(1, 7)
	m.VVec.Set(2, 9)
	m.VVec.Set(3, 4)
	return m
}

// TestTCPFrameRoundTripAllocs pins a frame sent, received and released at
// zero allocations once the pools are warm: the pooled encode buffer, the
// writev from the connection's own buffers, the pooled receive chunk and
// the pooled message all go back for the next frame.
func TestTCPFrameRoundTripAllocs(t *testing.T) {
	if !poolsRecycle {
		t.Skip("released frames are not reused under leasecheck or -race")
	}
	src := listen(t)
	dst := listen(t)
	m := updateFrame(src.Addr())
	round := func() {
		if err := src.Send(dst.Addr(), m); err != nil {
			t.Fatal(err)
		}
		got := <-dst.Recv()
		got.Release()
	}
	for i := 0; i < 1000; i++ { // dial, and roll a few chunks through the pool
		round()
	}
	if a := testing.AllocsPerRun(1000, round); a != 0 {
		t.Fatalf("send + receive + Release: %.1f allocations per frame, want 0", a)
	}
}

// TestReplyToDecodedAddressKeepsOneConnection answers each request to its
// From, which aliases the request's receive chunk, and releases the request
// at once. Across several chunk rollovers every reply must arrive over the
// one connection the first reply dialled: the connection cache keys its
// own copy of the address, so a chunk going back to the pool and being
// rewritten (or, under leasecheck, poisoned) cannot change a key under it.
// Requests go one at a time on one P, so each released chunk is the next
// one the reader takes from the pool.
func TestReplyToDecodedAddressKeepsOneConnection(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	server := listen(t)
	client := listen(t)
	const frames = 500
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < frames; i++ {
			req, ok := <-server.Recv()
			if !ok {
				return
			}
			err := server.Send(req.From, &msg.Message{Kind: msg.KindReadReply, Object: "o", NetSeq: req.NetSeq})
			req.Release()
			if err != nil {
				errc <- err
				return
			}
		}
	}()
	payload := make([]byte, 1024) // ~8 chunk rollovers at 64 KiB
	for i := 0; i < frames; i++ {
		// Every chunk starts with a whole frame, so the object name's
		// length varies to move From off the place where the first
		// request's From lay.
		req := &msg.Message{Kind: msg.KindReadRequest, Object: ids.ObjectID(strconv.Itoa(i)), From: client.Addr(), NetSeq: uint64(i), Payload: payload}
		if err := client.Send(server.Addr(), req); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-errc:
			t.Fatalf("reply %d: %v", i, err)
		case rep := <-client.Recv():
			if rep.NetSeq != uint64(i) {
				t.Fatalf("reply %d answers request %d", i, rep.NetSeq)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no reply to request %d", i)
		}
	}
	if d := server.Stats().Dials; d != 1 {
		t.Fatalf("server dialled the client %d times for %d replies, want 1", d, frames)
	}
}
