// Package transport defines the communication-object abstraction of the
// Globe local-object composition (Figure 1 of the paper): point-to-point
// send, multicast, and receive. Two implementations exist: memnet (an
// in-process simulated network with latency, jitter, loss, partitions, and
// exact traffic accounting) and tcpnet (real TCP with length-prefixed
// frames, the transport the paper's Java prototype used).
package transport

import (
	"errors"
	"sync/atomic"

	"repro/internal/msg"
)

// ErrClosed is returned by operations on a closed endpoint.
var ErrClosed = errors.New("transport: endpoint closed")

// ErrUnknownAddr is returned when sending to an address that does not exist
// on the network.
var ErrUnknownAddr = errors.New("transport: unknown address")

// Fabric is a network substrate that can mint the endpoints of one
// deployment. It is the extension point that lets the same System be built
// either as an in-process simulation (memnet.Network is a Fabric) or as a
// real multi-process TCP deployment (tcpnet.Fabric). Implementations must
// be safe for concurrent use.
type Fabric interface {
	// Endpoint creates the endpoint named name. The name is a
	// fabric-specific hint: memnet uses it verbatim as the simulated
	// address; tcpnet listens on the name's host:port suffix when it has
	// one and on an ephemeral port otherwise.
	Endpoint(name string) (Endpoint, error)
	// Close tears down the fabric and every endpoint it created that has
	// not been closed individually. It is idempotent.
	Close() error
}

// StatsSource is implemented by fabrics that expose transport-level traffic
// counters for the observability bridge: webobj registers every key as a
// scrape-time counter (globe_transport_<key>_total) when metrics are enabled.
// Keys must be valid snake_case metric-name fragments; values are cumulative
// counts read at call time. Both memnet.Network and tcpnet.Fabric implement
// it.
type StatsSource interface {
	StatsMap() map[string]uint64
}

// Endpoint is a communication object: the messaging port of one address
// space participating in a distributed shared object. Implementations must
// be safe for concurrent use.
type Endpoint interface {
	// Addr returns the endpoint's own address.
	Addr() string
	// Send transmits m to the endpoint at address to. Delivery may be
	// delayed, reordered relative to other senders, or dropped, depending
	// on the transport; frames from one sender to one destination that do
	// arrive, arrive in the order sent unless the link itself reorders
	// (memnet jitter). Send itself never blocks on delivery. The most it
	// does on the caller's goroutine is deliver the frame, which memnet
	// does for a frame with no delay to wait out (see its package comment;
	// a full buffer or an earlier frame still in the delivery schedule
	// hands the frame to the scheduler instead): it places the frame in
	// the destination's receive buffer, or runs the receiver function the
	// destination registered (ReceiverSetter), which must not block. m is
	// encoded before Send returns and not retained, so the caller may
	// reuse it. Nothing of to is kept either, so it may alias a received
	// frame (a reply addressed to a request's From) that is released right
	// after.
	Send(to string, m *msg.Message) error
	// Multicast transmits m to every address in tos. It is the multicast
	// facility the paper's Web-server communication object offers in
	// addition to point-to-point messaging. Implementations encode the
	// frame once and fan the wire bytes out best-effort: every address is
	// attempted even if some fail, and the first failure is returned after
	// the sweep. As with Send, neither m nor tos nor its strings are kept.
	Multicast(tos []string, m *msg.Message) error
	// Recv returns the endpoint's delivery channel. After Close no further
	// messages are delivered; the channel itself is closed once the
	// transport's delivery machinery for this endpoint has stopped (for
	// memnet, when the owning Network closes; for tcpnet, when the
	// endpoint closes).
	Recv() <-chan *msg.Message
	// Close releases the endpoint. It is idempotent.
	Close() error
}

// ReceiverSetter is implemented by endpoints that can hand each received
// frame to a function instead of their inbox; memnet's and tcpnet's do.
// Demux registers one, so a reply reaches its caller without a goroutine
// reading the inbox in between.
type ReceiverSetter interface {
	// SetReceiver routes every frame delivered from now on to f, on the
	// goroutine that delivers it: a memnet sender or its scheduler, a
	// tcpnet connection's reader. f must not block. Frames already in the
	// inbox go to f too. A nil f hands delivery back to the inbox. The
	// delivery counters count a frame the same either way.
	SetReceiver(f func(*msg.Message))
}

// Receiver is an endpoint's receiver function, for implementing
// ReceiverSetter; the zero value holds none.
type Receiver struct {
	f atomic.Pointer[func(*msg.Message)]
}

// Set registers f, or unregisters with nil, and hands f every frame already
// waiting in inbox.
func (r *Receiver) Set(inbox <-chan *msg.Message, f func(*msg.Message)) {
	if f == nil {
		r.f.Store(nil)
		return
	}
	r.f.Store(&f)
	r.Settle(inbox)
}

// Take hands m to the receiver function, if one is set, and reports whether
// it did.
func (r *Receiver) Take(m *msg.Message) bool {
	f := r.f.Load()
	if f != nil {
		(*f)(m)
	}
	return f != nil
}

// Settle hands a receiver function every frame waiting in inbox. An endpoint
// calls it after putting a frame in its inbox, which a receiver set at the
// same moment may otherwise never see.
func (r *Receiver) Settle(inbox <-chan *msg.Message) {
	f := r.f.Load()
	for f != nil {
		select {
		case m, ok := <-inbox:
			if !ok {
				return
			}
			(*f)(m)
		default:
			return
		}
	}
}
