package msg

import (
	"sync"
	"sync/atomic"
)

// A received frame is leased, not allocated. memnet encodes into a pooled
// WireBuf and tcpnet reads into a pooled receive chunk (LeaseChunk); both
// decode into a pooled Message (DecodeLeased) that aliases the buffer. The
// consumer calls Release when it is done with the message, and both go
// back to their pools once every message decoded from the buffer is
// released. A message nobody releases is simply collected, buffer and all,
// so only a consumer that knows it keeps nothing of the frame opts in: the
// store loop, through replication.Object.Handle, and the client proxy.
// Whatever such a consumer retains must be cloned first, exactly as under
// the zero-copy contract of DecodeAlias (see the aliasretain analyzer), and
// nothing may touch the message after Release. Built with the leasecheck
// tag, Release poisons the message and the frame instead of reusing them,
// so a use after release reads garbage and fails loudly in tests.

// WireBuf is a pooled, reference-counted frame buffer handed out by
// EncodePooled, or a receive chunk handed out by LeaseChunk. The first
// holder holds the first reference; every holder calls Release exactly
// once, and the buffer returns to its pool with the last. After its Release
// a holder must not touch Bytes again.
type WireBuf struct {
	b     []byte
	refs  atomic.Int32
	chunk bool // a receive chunk, recycled through chunkPool
}

// Bytes returns the encoded frame.
func (w *WireBuf) Bytes() []byte { return w.b }

// Retain adds a reference: one per extra holder, such as each receiver of a
// multicast or a duplicated delivery.
func (w *WireBuf) Retain() { w.refs.Add(1) }

// Release drops one reference and recycles the buffer with the last.
func (w *WireBuf) Release() {
	switch n := w.refs.Add(-1); {
	case n > 0:
		return
	case n < 0:
		panic("msg: WireBuf released more often than retained")
	}
	if leaseCheck {
		poisonBytes(w.b[:cap(w.b)])
		return
	}
	if w.chunk {
		chunkPool.Put(w)
		return
	}
	if cap(w.b) > MaxPooledBuf {
		w.b = nil // let the outsized backing array go
	}
	wirePool.Put(w)
}

// wirePool recycles frame buffers across frames.
var wirePool = sync.Pool{New: func() any { return new(WireBuf) }}

// MaxPooledBuf bounds the capacity retained by the pool so one huge
// snapshot frame does not pin memory forever. A buffer reused outside the
// pool (a replica's reply scratch) keeps to the same bound.
const MaxPooledBuf = 1 << 20

// EncodePooled serialises m into a buffer drawn from the pool, holding one
// reference. It is the transports' zero-steady-state-allocation send path.
func EncodePooled(m *Message) *WireBuf {
	w := wirePool.Get().(*WireBuf)
	w.refs.Store(1)
	need := wireSize(m)
	if cap(w.b) < need {
		w.b = make([]byte, 0, need)
	}
	w.b = AppendEncode(w.b[:0], m)
	return w
}

// ChunkSize is the length of a receive chunk (LeaseChunk).
const ChunkSize = 64 << 10

// chunkPool recycles receive chunks. They are kept apart from wirePool's
// frame-sized encode buffers, so that neither side keeps reallocating at the
// other's size.
var chunkPool = sync.Pool{New: func() any {
	return &WireBuf{b: make([]byte, ChunkSize), chunk: true}
}}

// LeaseChunk returns a pooled receive buffer of ChunkSize bytes, holding one
// reference, with whatever bytes its last holder left. A transport reads
// frames into it and decodes each with DecodeLeased after a Retain, so the
// chunk goes back to the pool once the transport has moved on to the next
// chunk and every message carved from it is released. Bytes that a
// message was carved from must not be rewritten.
func LeaseChunk() *WireBuf {
	w := chunkPool.Get().(*WireBuf)
	w.refs.Store(1)
	return w
}

// msgPool recycles leased messages.
var msgPool = sync.Pool{New: func() any { return new(Message) }}

// DecodeLeased decodes b as DecodeAlias does, into a pooled message. w is
// the pooled buffer b lies in (an encode buffer or a receive chunk), or nil
// when b is a buffer of its own that nothing rewrites (tcpnet's outsized
// frames). On success the message takes over the caller's reference on w
// and gives it back on Release; on error the caller keeps it.
func DecodeLeased(b []byte, w *WireBuf) (*Message, error) {
	m := msgPool.Get().(*Message)
	if err := decodeInto(m, b, true); err != nil {
		*m = Message{}
		msgPool.Put(m)
		return nil, err
	}
	m.leased, m.wire = true, w
	return m, nil
}

// Release ends m's lease: the message goes back to its pool and drops its
// reference on the frame it aliases, so neither m nor anything read out of
// it without a copy may be used afterwards. Each leased message is released
// at most once. On a message that is not leased (built by hand, or by Decode
// or DecodeAlias), or on nil, Release does nothing.
func (m *Message) Release() {
	if m == nil || !m.leased {
		return
	}
	w := m.wire
	if leaseCheck {
		if m.Kind == poisonKind {
			panic("msg: Release of a released message")
		}
		*m = poisoned
	} else {
		*m = Message{}
		msgPool.Put(m)
	}
	if w != nil {
		w.Release()
	}
}

// Overwrite sets m's fields to r's and keeps m's lease, which still ends
// with m's Release: how a handler answers in the request struct it owns. A
// one-name Pages list moves to m's own slot, since r's may point into the
// slot the copy overwrites (a reply naming the request's page).
func (m *Message) Overwrite(r *Message) {
	one := ""
	if len(r.Pages) == 1 {
		one = r.Pages[0]
	}
	leased, wire := m.leased, m.wire
	*m = *r
	m.leased, m.wire = leased, wire
	if len(r.Pages) == 1 {
		m.page[0], m.Pages = one, m.page[:]
	}
}

// poisonKind marks a released message under leasecheck; no frame carries it.
const poisonKind = 0xDB

// poisoned is what a released message reads as under leasecheck: an invalid
// kind, and text and bytes no protocol produces. It stays leased, so a
// second Release is caught.
var poisoned = Message{
	Kind: poisonKind, Object: "\xdbreleased", From: "\xdbreleased", To: "\xdbreleased",
	NetSeq: ^uint64(0), Status: Status(0xDB), Err: "\xdbreleased", leased: true,
	Inv:     Invocation{Method: 0xDBDB, Page: "\xdbreleased", Args: []byte("\xdbreleased")},
	Payload: []byte("\xdbreleased"),
}

// poisonBytes overwrites a released frame, so strings and slices still
// aliasing it read garbage.
func poisonBytes(b []byte) {
	for i := range b {
		b[i] = 0xDB
	}
}
