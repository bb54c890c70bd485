package tcpnet

import (
	"strings"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/transport"
)

func TestFabricEphemeralAndPinnedEndpoints(t *testing.T) {
	f := NewFabric("")
	defer f.Close()

	// A bare name gets an ephemeral loopback port.
	client, err := f.Endpoint("client/1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(client.Addr(), "127.0.0.1:") {
		t.Fatalf("ephemeral endpoint at %q", client.Addr())
	}

	// A host:port suffix pins the listen address.
	pinned, err := f.Endpoint("store/127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(pinned.Addr(), "127.0.0.1:") {
		t.Fatalf("pinned endpoint at %q", pinned.Addr())
	}

	// Fabric endpoints speak to plain endpoints: real traffic flows.
	m := &msg.Message{Kind: msg.KindReadRequest, Object: "o", From: client.Addr()}
	if err := client.Send(pinned.Addr(), m); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-pinned.Recv():
		if got.Kind != msg.KindReadRequest || got.From != client.Addr() {
			t.Fatalf("got %+v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timed out")
	}
}

func TestFabricPinnedAddressConflictFails(t *testing.T) {
	f := NewFabric("")
	defer f.Close()
	a, err := f.Endpoint("store/127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Endpoint("store/" + a.Addr()); err == nil {
		t.Fatalf("second endpoint on %s accepted", a.Addr())
	}
}

func TestFabricCloseClosesEndpoints(t *testing.T) {
	f := NewFabric("")
	ep, err := f.Endpoint("store/x")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-ep.Recv():
		if ok {
			t.Fatal("message after fabric close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("recv channel not closed by fabric close")
	}
	if _, err := f.Endpoint("client/late"); err != transport.ErrClosed {
		t.Fatalf("endpoint after close: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestFabricEndpointCloseDeregisters(t *testing.T) {
	f := NewFabric("")
	defer f.Close()
	ep, err := f.Endpoint("client/1")
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
	f.mu.Lock()
	n := len(f.eps)
	f.mu.Unlock()
	if n != 0 {
		t.Fatalf("fabric still tracks %d endpoints after close", n)
	}
}

// TestInboundHandoffKeepsEarlierFrames drives enough traffic through one
// connection to roll the reader's receive chunk over several times, then
// checks every message still held carries its own payload — the aliasing
// contract: bytes a frame was carved from are never rewritten, so later
// frames cannot corrupt earlier ones. The second leg releases every other
// message as it arrives, so chunks are shared between held and released
// messages; under the leasecheck tag a chunk recycled while a held message
// still aliases it is poisoned, and the check fails.
func TestInboundHandoffKeepsEarlierFrames(t *testing.T) {
	for _, leg := range []struct {
		name         string
		releaseEvery int // release message i when i%releaseEvery == 1; 0 holds all
	}{{"hold all", 0}, {"release every other", 2}} {
		t.Run(leg.name, func(t *testing.T) {
			a := listen(t)
			b := listen(t)
			const frames = 300
			payload := make([]byte, 1024) // ~5 chunk rollovers at 64 KiB
			var got []*msg.Message
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < frames; i++ {
					select {
					case m := <-b.Recv():
						if leg.releaseEvery > 0 && i%leg.releaseEvery == 1 {
							m.Release()
							continue
						}
						got = append(got, m)
					case <-time.After(5 * time.Second):
						return
					}
				}
			}()
			for i := 0; i < frames; i++ {
				for j := range payload {
					payload[j] = byte(i)
				}
				m := &msg.Message{
					Kind:    msg.KindUpdate,
					Object:  "o",
					NetSeq:  uint64(i),
					Payload: payload,
					From:    a.Addr(),
				}
				if err := a.Send(b.Addr(), m); err != nil {
					t.Fatal(err)
				}
			}
			<-done
			want := frames
			if leg.releaseEvery > 0 {
				want -= frames / leg.releaseEvery
			}
			if len(got) != want {
				t.Fatalf("held %d of %d frames, want %d", len(got), frames, want)
			}
			for _, m := range got {
				want := byte(m.NetSeq)
				for _, bb := range m.Payload {
					if bb != want {
						t.Fatalf("frame %d corrupted: byte %d, want %d", m.NetSeq, bb, want)
					}
				}
			}
		})
	}
}

// TestInboundOutsizedFrame checks frames larger than one handoff chunk
// arrive intact through the dedicated-buffer path.
func TestInboundOutsizedFrame(t *testing.T) {
	a := listen(t)
	b := listen(t)
	big := make([]byte, readChunk+4096)
	for i := range big {
		big[i] = byte(i % 251)
	}
	if err := a.Send(b.Addr(), &msg.Message{Kind: msg.KindStateReply, Object: "o", Payload: big, From: a.Addr()}); err != nil {
		t.Fatal(err)
	}
	got := recvOne(t, b)
	if len(got.Payload) != len(big) {
		t.Fatalf("payload %d bytes, want %d", len(got.Payload), len(big))
	}
	for i := range big {
		if got.Payload[i] != big[i] {
			t.Fatalf("byte %d = %d, want %d", i, got.Payload[i], big[i])
		}
	}
	// The stream survives an outsized frame: a small frame follows cleanly.
	if err := a.Send(b.Addr(), &msg.Message{Kind: msg.KindUpdate, Object: "o", From: a.Addr()}); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, b); got.Kind != msg.KindUpdate {
		t.Fatalf("follow-up frame: %+v", got)
	}
}

// BenchmarkTCPInboundAllocs measures the whole send+receive+Release round's
// allocations per delivered frame. Outbound, the frame is encoded into a
// pooled buffer and written with one writev; inbound, it is carved out of a
// pooled receive chunk and decoded into a pooled message, and both go back
// on Release, so steady state allocates nothing
// (TestTCPFrameRoundTripAllocs pins it).
func BenchmarkTCPInboundAllocs(b *testing.B) {
	src, err := Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	dst, err := Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer dst.Close()

	m := updateFrame(src.Addr())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < b.N; i++ {
			m, ok := <-dst.Recv()
			if !ok {
				return
			}
			m.Release()
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.Send(dst.Addr(), m); err != nil {
			b.Fatal(err)
		}
	}
	<-done
}
