// Package tcpnet implements the transport.Endpoint communication object
// over real TCP connections with length-prefixed frames. It is the
// counterpart of the paper's prototype configuration ("we have used TCP/IP
// for the sake of simplicity to provide reliable communication") and backs
// cmd/globed and cmd/globectl.
//
// Each endpoint owns one listener plus a cache of outbound connections.
// Frames are a 4-byte big-endian length followed by a msg.Encode body.
// Outbound frames ship as one gathered writev from pooled encode buffers;
// inbound frames are carved out of pooled, reference-counted receive chunks
// (msg.LeaseChunk) and decoded zero-copy into leased messages
// (msg.DecodeLeased), so a frame sent, received and released allocates
// nothing in steady state. Received messages alias their chunk: receivers
// must treat Args/Payload as immutable, exactly as with memnet delivery,
// and may Release a message when done, which returns the chunk to its pool
// once the reader has moved on and every message carved from it is
// released.
package tcpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"

	"repro/internal/msg"
	"repro/internal/transport"
)

// maxFrame is the absolute bound on a single message frame (16 MiB),
// protecting against corrupt length prefixes. Deployments facing
// non-loopback peers should configure a much tighter per-peer budget
// (WithMaxInboundFrame / ListenLimit): the budget is enforced on the
// length prefix before any allocation sized by the announcement, so an
// adversarial or corrupt peer cannot make a daemon allocate gigabytes — the
// connection is dropped instead.
const maxFrame = 16 << 20

// flushHook, when non-nil, is invoked once per connection flush with the
// number of frames the flush carried. Tests use it to assert that a frame
// costs exactly one gathered write (writev) and that concurrent frames
// coalesce; production code leaves it nil.
var flushHook func(frames int)

// writeBatch is one group-commit unit on a connection: the gathered buffers
// of every frame appended since the previous flush. The first appender to
// reach the connection's write lock becomes the leader and flushes the
// whole batch with a single writev; the others wait on done and share the
// leader's error.
type writeBatch struct {
	bufs net.Buffers
	err  error
	done chan struct{}
}

// peerConn is one cached outbound connection with its own write locks, so an
// endpoint with K peer connections admits K concurrent writers.
type peerConn struct {
	c net.Conn

	// qmu guards cur, the batch currently accumulating appended frames.
	qmu sync.Mutex
	cur *writeBatch
	// wmu serialises flushes on the connection; batches are flushed in
	// acquisition order, which preserves the per-connection byte stream.
	wmu sync.Mutex
	// hdr, direct and bufs are scratch for the uncontended single-frame
	// fast path; they may only be touched while holding wmu. bufs is the
	// view of direct that the gathered write consumes; kept here, it costs
	// the frame no allocation.
	hdr    [4]byte
	direct [2][]byte
	bufs   net.Buffers
}

// Endpoint is a TCP-backed communication object.
type Endpoint struct {
	addr  string // resolved listen address; stable across Pause/Resume
	maxIn int    // per-peer inbound frame budget (≤ maxFrame)
	inbox chan *msg.Message
	done  chan struct{} // closed on Close; unblocks readers stuck on a full inbox
	// recv, when set, takes every decoded frame in place of the inbox.
	recv transport.Receiver

	// st receives the traffic counters; endpoints minted by a Fabric share
	// the fabric's set. Always non-nil — bumping an atomic is cheaper than
	// branching on whether anyone will ever scrape it.
	st *stats

	mu      sync.Mutex
	ln      net.Listener         // nil while paused
	conns   map[string]*peerConn // outbound connection cache, keyed by address
	inConns map[net.Conn]bool    // inbound connections, closed on shutdown
	paused  bool
	closed  bool

	wg sync.WaitGroup
}

var _ transport.Endpoint = (*Endpoint)(nil)
var _ transport.ReceiverSetter = (*Endpoint)(nil)

// Listen creates an endpoint bound to addr (e.g. "127.0.0.1:0") with the
// default (absolute-maximum) inbound frame budget.
func Listen(addr string) (*Endpoint, error) { return ListenLimit(addr, 0) }

// ListenLimit creates an endpoint whose inbound frames are budgeted: a
// peer announcing a frame larger than maxInbound bytes is disconnected
// before any allocation sized by the announcement. Zero (or anything above
// the absolute cap) means the 16 MiB default.
func ListenLimit(addr string, maxInbound int) (*Endpoint, error) {
	return listenShared(addr, maxInbound, nil)
}

// listenShared is ListenLimit with an optional externally owned stats set
// (how a Fabric aggregates traffic across the endpoints it mints). The set
// must be fixed before the accept loop starts, hence the parameter rather
// than assignment after construction.
func listenShared(addr string, maxInbound int, st *stats) (*Endpoint, error) {
	if maxInbound <= 0 || maxInbound > maxFrame {
		maxInbound = maxFrame
	}
	if st == nil {
		st = &stats{}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %q: %w", addr, err)
	}
	e := &Endpoint{
		addr:    ln.Addr().String(),
		maxIn:   maxInbound,
		st:      st,
		ln:      ln,
		inbox:   make(chan *msg.Message, 1024),
		done:    make(chan struct{}),
		conns:   make(map[string]*peerConn),
		inConns: make(map[net.Conn]bool),
	}
	e.wg.Add(1)
	go e.acceptLoop(ln)
	return e, nil
}

// Addr returns the bound listen address (with the resolved port).
func (e *Endpoint) Addr() string { return e.addr }

// Pause severs the endpoint from the network without closing it: the
// listener stops, and every live connection — inbound and outbound, possibly
// mid-frame — is killed. Until Resume, outbound sends fail and peers cannot
// reach this endpoint, so the frames they send are lost exactly as across a
// network partition. It exists for fault drills: chaos tests partition a
// TCP deployment the way memnet's Partition cuts a simulated link.
func (e *Endpoint) Pause() error {
	e.mu.Lock()
	if e.closed || e.paused {
		e.mu.Unlock()
		return nil
	}
	e.paused = true
	ln := e.ln
	e.ln = nil
	e.severLocked()
	e.mu.Unlock()
	return ln.Close()
}

// Resume re-listens on the endpoint's original address after a Pause.
// Peers reconnect on their next send; nothing lost during the pause is
// replayed by the transport — recovering it is the coherence protocol's job
// (demand retries and digest heartbeats).
func (e *Endpoint) Resume() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed || !e.paused {
		return nil
	}
	ln, err := net.Listen("tcp", e.addr)
	if err != nil {
		return fmt.Errorf("tcpnet: resume %q: %w", e.addr, err)
	}
	e.paused = false
	e.ln = ln
	e.wg.Add(1)
	go e.acceptLoop(ln)
	return nil
}

// AbortConns kills every live connection — mid-frame if one is in flight —
// while leaving the listener up, so peers redial successfully on their next
// send. It models a transient connection reset (the fault the reconnect +
// heartbeat path must absorb without duplicating or reordering applies).
func (e *Endpoint) AbortConns() {
	e.mu.Lock()
	e.severLocked()
	e.mu.Unlock()
}

// severLocked closes and forgets every inbound and outbound connection.
func (e *Endpoint) severLocked() {
	for to, pc := range e.conns {
		_ = pc.c.Close()
		delete(e.conns, to)
	}
	for c := range e.inConns {
		_ = c.Close()
		delete(e.inConns, c)
	}
}

// Send transmits m to the endpoint listening at to, dialling or reusing a
// cached connection. The frame is encoded into a pooled buffer that is
// recycled once the bytes are on the socket.
func (e *Endpoint) Send(to string, m *msg.Message) error {
	wb := msg.EncodePooled(m)
	defer wb.Release()
	return e.writeFrame(to, wb.Bytes())
}

// Multicast sends m to each address in tos, encoding the frame exactly once
// and fanning the shared wire bytes out over every connection. Fan-out is
// best-effort: one unreachable destination must not starve the rest, so
// every address is attempted and the first failure is reported after the
// sweep.
func (e *Endpoint) Multicast(tos []string, m *msg.Message) error {
	if len(tos) == 0 {
		return nil
	}
	wb := msg.EncodePooled(m)
	defer wb.Release()
	var firstErr error
	for _, to := range tos {
		if err := e.writeFrame(to, wb.Bytes()); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("multicast to %q: %w", to, err)
		}
	}
	return firstErr
}

// writeFrame writes one length-prefixed frame to the connection for to,
// redialling once when a cached connection turns out to be dead.
//
// A cached connection can be long dead — the peer reset or restarted while
// this side was idle — and the first write is how the sender finds out. One
// retry on a fresh dial means a stale connection costs its detection, not
// the frame: without it, the first frame after every reconnect (a healed
// partition's digest heartbeat, typically) would be silently lost and
// recovery would wait a full extra heartbeat. If the frame was in fact
// delivered before the error surfaced, the retry produces a duplicate, which
// the coherence engines deduplicate — the same contract as a duplicated UDP
// datagram.
func (e *Endpoint) writeFrame(to string, body []byte) error {
	if len(body) > maxFrame {
		return fmt.Errorf("tcpnet: frame too large (%d bytes)", len(body))
	}
	pc, err := e.conn(to)
	if err != nil {
		return err
	}
	if err := e.flushFrame(to, pc, body); err != nil {
		pc2, derr := e.conn(to) // flushFrame dropped pc; this dials fresh
		if derr != nil || pc2 == pc {
			return err
		}
		e.st.redials.Add(1)
		if err := e.flushFrame(to, pc2, body); err != nil {
			return err
		}
		e.countSent(body)
		return nil
	}
	e.countSent(body)
	return nil
}

// countSent records one frame put on the wire (body plus length prefix).
func (e *Endpoint) countSent(body []byte) {
	e.st.framesSent.Add(1)
	e.st.bytesSent.Add(uint64(len(body)) + 4)
}

// flushFrame writes one frame to an established connection, dropping the
// connection from the cache on error.
//
// The header and body travel as one gathered write (net.Buffers → writev),
// so a frame costs a single syscall instead of two. Writers only take the
// target connection's locks — frames to different peers proceed fully in
// parallel — and concurrent frames to the same peer group-commit: every
// writer appends its buffers to the connection's open batch, the first to
// acquire the write lock flushes the whole batch with one writev, and the
// rest inherit the result. flushFrame returns only after its bytes are on
// the socket (or the flush failed), so callers may recycle body immediately.
func (e *Endpoint) flushFrame(to string, pc *peerConn, body []byte) error {
	// Uncontended fast path: the write lock is free and no batch is
	// pending, so write this frame directly from the connection's scratch
	// buffers — one writev, zero allocations.
	if pc.wmu.TryLock() {
		pc.qmu.Lock()
		pending := pc.cur != nil
		pc.qmu.Unlock()
		if !pending {
			binary.BigEndian.PutUint32(pc.hdr[:], uint32(len(body)))
			pc.direct = [2][]byte{pc.hdr[:], body}
			pc.bufs = pc.direct[:]
			if flushHook != nil {
				flushHook(1)
			}
			_, werr := pc.bufs.WriteTo(pc.c)
			pc.direct, pc.bufs = [2][]byte{}, nil
			pc.wmu.Unlock()
			if werr != nil {
				e.dropConn(to, pc)
				return fmt.Errorf("tcpnet: send to %q: %w", to, werr)
			}
			return nil
		}
		// Writers are queued behind an open batch; join them instead of
		// jumping the line.
		pc.wmu.Unlock()
	}

	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))

	pc.qmu.Lock()
	b := pc.cur
	if b == nil {
		b = &writeBatch{done: make(chan struct{})}
		pc.cur = b
	}
	b.bufs = append(b.bufs, hdr[:], body)
	pc.qmu.Unlock()

	pc.wmu.Lock()
	pc.qmu.Lock()
	leader := pc.cur == b
	if leader {
		pc.cur = nil
	}
	pc.qmu.Unlock()
	if !leader {
		// A previous lock holder already flushed our batch.
		pc.wmu.Unlock()
		<-b.done
	} else {
		if flushHook != nil {
			flushHook(len(b.bufs) / 2)
		}
		_, err := b.bufs.WriteTo(pc.c)
		b.err = err
		close(b.done)
		pc.wmu.Unlock()
	}
	if b.err != nil {
		e.dropConn(to, pc)
		return fmt.Errorf("tcpnet: send to %q: %w", to, b.err)
	}
	return nil
}

// Recv returns the delivery channel; it closes when the endpoint closes.
func (e *Endpoint) Recv() <-chan *msg.Message { return e.inbox }

// SetReceiver implements transport.ReceiverSetter: each connection's reader
// calls f with the frames it decodes instead of filling the inbox.
func (e *Endpoint) SetReceiver(f func(*msg.Message)) { e.recv.Set(e.inbox, f) }

// Close shuts the listener and all connections and waits for the reader
// goroutines to exit before closing the delivery channel.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.severLocked() // unblock reader goroutines stuck in Read
	ln := e.ln
	e.ln = nil
	e.mu.Unlock()
	close(e.done)
	var err error
	if ln != nil { // nil while paused (listener already closed)
		err = ln.Close()
	}
	e.wg.Wait()
	close(e.inbox)
	return err
}

// conn returns a cached or fresh outbound connection to the given address.
func (e *Endpoint) conn(to string) (*peerConn, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, transport.ErrClosed
	}
	if e.paused {
		e.mu.Unlock()
		return nil, fmt.Errorf("tcpnet: endpoint paused, send to %q dropped", to)
	}
	if pc, ok := e.conns[to]; ok {
		e.mu.Unlock()
		return pc, nil
	}
	e.mu.Unlock()

	c, err := net.Dial("tcp", to)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: dial %q: %w", to, err)
	}
	e.st.dials.Add(1)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed || e.paused {
		_ = c.Close()
		if e.closed {
			return nil, transport.ErrClosed
		}
		return nil, fmt.Errorf("tcpnet: endpoint paused, send to %q dropped", to)
	}
	if existing, ok := e.conns[to]; ok {
		_ = c.Close()
		return existing, nil
	}
	pc := &peerConn{c: c}
	// to is often a received message's From, which aliases a receive
	// chunk that goes back to its pool on Release: the key keeps its own
	// copy.
	e.conns[strings.Clone(to)] = pc
	return pc, nil
}

// dropConn evicts pc from the cache (unless a fresh connection already
// replaced it) and closes the socket.
func (e *Endpoint) dropConn(to string, pc *peerConn) {
	e.mu.Lock()
	if cur, ok := e.conns[to]; ok && cur == pc {
		delete(e.conns, to)
	}
	e.mu.Unlock()
	_ = pc.c.Close()
}

// acceptLoop accepts inbound connections and spawns a framed reader per
// connection; all readers are tracked by the wait group so Close can drain.
// The listener is passed in (rather than read from the endpoint) because
// Pause/Resume cycles replace it, each cycle with its own loop.
func (e *Endpoint) acceptLoop(ln net.Listener) {
	defer e.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		if e.closed || e.paused {
			e.mu.Unlock()
			_ = conn.Close()
			return
		}
		e.inConns[conn] = true
		e.wg.Add(1)
		e.mu.Unlock()
		e.st.accepts.Add(1)
		go e.readLoop(conn)
	}
}

// readChunk is the size of the pooled receive chunk each reader carves
// frames out of; frames larger than a chunk get a dedicated buffer.
const readChunk = msg.ChunkSize

// readLoop decodes frames from one inbound connection and delivers them.
//
// The reader fills a pooled receive chunk with one Read of whatever the
// socket has ready and hands every complete frame in it to
// msg.DecodeLeased without copying: each frame takes a reference on the
// chunk, and its message aliases the chunk's bytes (the same contract
// memnet delivery uses — receivers treat message byte slices as immutable,
// and may Release the message when done). The reader never rewrites bytes
// a frame was carved from. When the next frame does not fit in what is
// left of the chunk, the reader copies the part it has read into a fresh
// chunk and drops its own reference to the old one, which goes back to the
// pool with the last Release of a message carved from it. A frame larger
// than a chunk is read into a buffer of its own. In steady state a frame
// costs no allocation (TestTCPFrameRoundTripAllocs).
func (e *Endpoint) readLoop(conn net.Conn) {
	defer e.wg.Done()
	chunk := msg.LeaseChunk()
	defer func() {
		chunk.Release()
		_ = conn.Close()
		e.mu.Lock()
		delete(e.inConns, conn)
		e.mu.Unlock()
	}()
	buf := chunk.Bytes()
	var start, end int // buf[start:end] is read but not yet delivered
	for {
		want := 4 // bytes from start the next frame needs: its header, at least
		if end-start >= 4 {
			n := binary.BigEndian.Uint32(buf[start:])
			if n > uint32(e.maxIn) {
				// Budget exceeded: drop the connection before any
				// allocation sized by the announcement. A well-behaved
				// peer redials; a misbehaving one costs at most what one
				// read put in the chunk.
				return
			}
			want = 4 + int(n)
			switch {
			case want <= end-start:
				body := buf[start+4 : start+want : start+want]
				start += want
				chunk.Retain()
				if !e.deliver(body, chunk) {
					return
				}
				continue
			case want > len(buf):
				body := make([]byte, want-4) // outsized frame: its own buffer
				got := copy(body, buf[start+4:end])
				start = end
				if _, err := io.ReadFull(conn, body[got:]); err != nil {
					return
				}
				if !e.deliver(body, nil) {
					return
				}
				continue
			}
		}
		if start+want > len(buf) {
			// The frame does not fit what is left: move its start to a
			// fresh chunk, leaving the frames carved from this one intact.
			next := msg.LeaseChunk()
			end = copy(next.Bytes(), buf[start:end])
			start = 0
			chunk.Release()
			chunk, buf = next, next.Bytes()
		}
		n, err := conn.Read(buf[end:])
		end += n
		if err != nil {
			return // peer closed or endpoint shutting down
		}
	}
}

// deliver decodes one frame body and hands it to the endpoint's receiver
// function, or into the inbox when none is set. owner is the chunk body
// lies in, whose reference the message takes over, or nil for a frame with
// a buffer of its own. deliver reports whether the reader should go on: it
// skips a corrupt frame and keeps the stream, and stops on any other decode
// error or when the endpoint closes.
func (e *Endpoint) deliver(body []byte, owner *msg.WireBuf) bool {
	m, err := msg.DecodeLeased(body, owner)
	if err != nil {
		if owner != nil {
			owner.Release()
		}
		return errors.Is(err, msg.ErrShortMessage) || errors.Is(err, msg.ErrBadVersion)
	}
	e.st.framesRecv.Add(1)
	e.st.bytesRecv.Add(uint64(len(body)) + 4)
	if e.recv.Take(m) {
		return true
	}
	select {
	case e.inbox <- m:
	case <-e.done:
		m.Release()
		return false
	}
	e.recv.Settle(e.inbox)
	return true
}
