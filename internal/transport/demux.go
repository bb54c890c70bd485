package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/msg"
)

// ErrTimeout reports a demuxed call that received no reply in time.
var ErrTimeout = errors.New("transport: call timed out")

// Demux is the one request/reply core for RPC-style clients over an
// Endpoint: it assigns each outgoing request a NetSeq, demultiplexes replies
// back to the waiting caller, and bounds each call with a timeout. Client
// proxies, the name-service client and the daemon control client are all
// built on it. Safe for concurrent use; the Demux owns the endpoint's
// receive side, and its lifecycle only through Close (Stop leaves the
// endpoint open).
type Demux struct {
	ep Endpoint

	mu      sync.Mutex
	nextSeq uint64
	pending map[uint64]*Slot
	free    []*Slot // retired slots, reused by the next Begin
	closed  bool
	done    chan struct{}
	wg      sync.WaitGroup
}

// Slot is one call in flight. Slots are recycled: a steady caller reuses the
// same reply channel, timer and request scratch for every call. A slot
// belongs to its caller from Begin until Wait returns or Send fails.
type Slot struct {
	d     *Demux
	seq   uint64
	reply chan *msg.Message // buffered for the one reply; filled under d.mu
	timer *time.Timer
	to    string
	kind  msg.Kind
	// Req is zeroed scratch to stage the request in, so that a call
	// allocates none. Endpoints encode a message before Send returns, so
	// it is free for reuse once the call ends; the slot clears it then.
	Req msg.Message
}

// NewDemux starts the reply loop over ep.
func NewDemux(ep Endpoint) *Demux {
	d := &Demux{
		ep:      ep,
		pending: make(map[uint64]*Slot),
		done:    make(chan struct{}),
	}
	d.wg.Add(1)
	go d.recvLoop()
	return d
}

// recvLoop hands each reply to the slot registered under its NetSeq. Match
// and hand-over happen under the same lock that retires slots, so a late or
// duplicated reply can never complete a slot that has since been recycled
// for another call: its NetSeq is simply no longer pending.
func (d *Demux) recvLoop() {
	defer d.wg.Done()
	for {
		select {
		case <-d.done:
			return
		case m, ok := <-d.ep.Recv():
			if !ok {
				return
			}
			d.mu.Lock()
			if s := d.pending[m.NetSeq]; s != nil {
				select {
				case s.reply <- m:
				default: // duplicate reply; drop
				}
			}
			d.mu.Unlock()
		}
	}
}

// Done exposes the closed-ness channel so callers can abort their own
// retry loops when the demux closes.
func (d *Demux) Done() <-chan struct{} { return d.done }

// Begin reserves a slot and its NetSeq for one call.
func (d *Demux) Begin() (*Slot, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrClosed
	}
	var s *Slot
	if n := len(d.free); n > 0 {
		s, d.free = d.free[n-1], d.free[:n-1]
	} else {
		s = &Slot{d: d, reply: make(chan *msg.Message, 1)}
	}
	d.nextSeq++
	s.seq = d.nextSeq
	d.pending[s.seq] = s
	return s, nil
}

// Send fills m's From and NetSeq and transmits it to addr; m may be &s.Req.
// It returns once the frame has been handed to the transport, which is what
// callers that must order departures wait for. On error the call is over.
func (s *Slot) Send(addr string, m *msg.Message) error {
	m.NetSeq = s.seq
	m.From = s.d.ep.Addr()
	s.to, s.kind = addr, m.Kind
	err := s.d.ep.Send(addr, m)
	if err != nil {
		s.retire()
	}
	return err
}

// Wait awaits the correlated reply for at most timeout and ends the call.
func (s *Slot) Wait(timeout time.Duration) (*msg.Message, error) {
	if s.timer == nil {
		s.timer = time.NewTimer(timeout)
	} else {
		s.timer.Reset(timeout)
	}
	defer s.retire()
	select {
	case r := <-s.reply:
		return r, nil
	case <-s.timer.C:
		return nil, fmt.Errorf("%w after %v (%v to %s)", ErrTimeout, timeout, s.kind, s.to)
	case <-s.d.done:
		return nil, ErrClosed
	}
}

// retire unregisters the slot and returns it to the free list clean: no
// reply can arrive once its NetSeq has left the pending map under the lock,
// so draining the channel here leaves nothing for the next call to mistake
// for its own. A stopped timer delivers no stale tick after Reset.
func (s *Slot) retire() {
	if s.timer != nil {
		s.timer.Stop()
	}
	s.Req = msg.Message{}
	s.to = ""
	d := s.d
	d.mu.Lock()
	delete(d.pending, s.seq)
	select {
	case <-s.reply:
	default:
	}
	d.free = append(d.free, s)
	d.mu.Unlock()
}

// Call sends m to addr (filling From and NetSeq) and awaits the correlated
// reply for at most timeout.
func (d *Demux) Call(addr string, m *msg.Message, timeout time.Duration) (*msg.Message, error) {
	s, err := d.Begin()
	if err != nil {
		return nil, err
	}
	if err := s.Send(addr, m); err != nil {
		return nil, err
	}
	return s.Wait(timeout)
}

// Stop ends the reply loop and fails calls in flight with ErrClosed, leaving
// the endpoint open for its owner. It is idempotent.
func (d *Demux) Stop() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	d.mu.Unlock()
	close(d.done)
	d.wg.Wait()
}

// Close stops the reply loop and closes the endpoint.
func (d *Demux) Close() error {
	d.Stop()
	return d.ep.Close()
}
