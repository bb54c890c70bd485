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
// receive side until Stop, and its lifecycle only through Close (Stop
// leaves the endpoint open).
//
// A reply reaches its caller with no goroutine in between: the Demux
// registers deliver as the endpoint's receiver (ReceiverSetter), so the
// goroutine that received the frame — a memnet sender or scheduler, a
// tcpnet reader — puts it straight into the waiting slot. An endpoint
// without the hook is fed by one goroutine reading its inbox. Deadlines
// share one timer, armed at the earliest deadline of a waiting call, so a
// call waits on its reply channel alone.
type Demux struct {
	ep Endpoint

	mu      sync.Mutex
	nextSeq uint64
	pending map[uint64]*Slot
	free    []*Slot // retired slots, reused by the next Begin
	closed  bool
	done    chan struct{}
	// sweep fails the calls whose deadline has passed. It is armed at
	// armed, the earliest deadline of a waiting call, and armed is zero
	// while it is not.
	sweep *time.Timer
	armed time.Time
	wg    sync.WaitGroup // the inbox feeder, for an endpoint without the hook
}

// Slot is one call in flight. Slots are recycled: a steady caller reuses the
// same reply channel and request scratch for every call. A slot belongs to
// its caller from Begin until Wait returns or Send fails.
type Slot struct {
	d   *Demux
	seq uint64
	// reply holds the one reply, or nil for a call the sweep timed out or
	// Stop failed; it is filled under d.mu.
	reply chan *msg.Message
	// deadline is when the sweep fails the call: zero until Wait, and again
	// once failed. Guarded by d.mu.
	deadline time.Time
	// to and kind are the caller's, written by Send and read by Wait for
	// the timeout's error text.
	to   string
	kind msg.Kind
	// Req is zeroed scratch to stage the request in, so that a call
	// allocates none. Endpoints encode a message before Send returns, so
	// it is free for reuse once the call ends; the slot clears it then.
	Req msg.Message
}

// NewDemux takes over ep's receive side: it registers itself as ep's
// receiver, or starts a goroutine feeding it ep's inbox.
func NewDemux(ep Endpoint) *Demux {
	d := &Demux{
		ep:      ep,
		pending: make(map[uint64]*Slot),
		done:    make(chan struct{}),
	}
	if r, ok := ep.(ReceiverSetter); ok {
		r.SetReceiver(d.deliver)
	} else {
		d.wg.Add(1)
		go d.feed()
	}
	return d
}

// feed delivers an inbox-only endpoint's frames until Stop.
func (d *Demux) feed() {
	defer d.wg.Done()
	for {
		select {
		case <-d.done:
			return
		case m, ok := <-d.ep.Recv():
			if !ok {
				return
			}
			d.deliver(m)
		}
	}
}

// deliver hands a reply to the slot registered under its NetSeq. Match and
// hand-over happen under the same lock that retires slots, so a late or
// duplicated reply can never complete a slot that has since been recycled
// for another call: its NetSeq is simply no longer pending. A reply nobody
// waits for is released here, since nobody else will see it. deliver never
// blocks: it runs on the endpoint's receiving goroutine.
func (d *Demux) deliver(m *msg.Message) {
	d.mu.Lock()
	if s := d.pending[m.NetSeq]; s != nil {
		select {
		case s.reply <- m:
			m = nil
		default: // duplicate reply, or a call already failed; drop
		}
	}
	d.mu.Unlock()
	m.Release()
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
// The reply is the caller's: it may keep it, or Release it once it has
// copied what it keeps (see msg.DecodeLeased).
func (s *Slot) Wait(timeout time.Duration) (*msg.Message, error) {
	d := s.d
	deadline := time.Now().Add(timeout)
	d.mu.Lock()
	s.deadline = deadline
	if !d.closed && (d.armed.IsZero() || deadline.Before(d.armed)) {
		d.arm(deadline)
	}
	d.mu.Unlock()
	r := <-s.reply
	var err error
	if r == nil {
		select {
		case <-d.done: // Stop closes done before it fails the calls
			err = ErrClosed
		default:
			err = fmt.Errorf("%w after %v (%v to %s)", ErrTimeout, timeout, s.kind, s.to)
		}
	}
	s.retire()
	return r, err
}

// arm sets the sweep to fire at at. Callers hold d.mu.
func (d *Demux) arm(at time.Time) {
	d.armed = at
	if d.sweep == nil {
		d.sweep = time.AfterFunc(time.Until(at), d.expire)
	} else {
		d.sweep.Reset(time.Until(at))
	}
}

// expire is the sweep: it fails every waiting call whose deadline has passed
// by handing it a nil reply, and re-arms for the earliest deadline left. It
// touches only the pending map, the deadlines and the reply channels.
func (d *Demux) expire() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.armed = time.Time{}
	if d.closed {
		return
	}
	now := time.Now()
	var next time.Time
	for _, s := range d.pending {
		switch {
		case s.deadline.IsZero():
		case !s.deadline.After(now):
			s.deadline = time.Time{}
			s.fail()
		case next.IsZero() || s.deadline.Before(next):
			next = s.deadline
		}
	}
	if !next.IsZero() {
		d.arm(next)
	}
}

// fail ends the call's wait with a nil reply, unless its reply is already
// there. Callers hold d.mu.
func (s *Slot) fail() {
	select {
	case s.reply <- nil:
	default:
	}
}

// retire unregisters the slot and returns it to the free list clean: no
// reply can arrive once its NetSeq has left the pending map under the lock,
// so draining the channel here leaves nothing for the next call to mistake
// for its own.
func (s *Slot) retire() {
	s.Req = msg.Message{}
	s.to = ""
	d := s.d
	d.mu.Lock()
	delete(d.pending, s.seq)
	s.deadline = time.Time{}
	select {
	case r := <-s.reply:
		r.Release()
	default:
	}
	d.free = append(d.free, s)
	d.mu.Unlock()
}

// Call sends m to addr (filling From and NetSeq) and awaits the correlated
// reply for at most timeout; the reply is the caller's, as from Wait.
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

// Stop fails calls in flight with ErrClosed and hands the endpoint's receive
// side back to its owner, leaving the endpoint open: frames arriving after
// Stop go to its inbox again. It is idempotent.
func (d *Demux) Stop() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	close(d.done)
	for _, s := range d.pending {
		s.fail()
	}
	if d.sweep != nil {
		d.sweep.Stop()
	}
	d.mu.Unlock()
	if r, ok := d.ep.(ReceiverSetter); ok {
		r.SetReceiver(nil)
	}
	d.wg.Wait()
}

// Close stops the demux and closes the endpoint.
func (d *Demux) Close() error {
	d.Stop()
	return d.ep.Close()
}
