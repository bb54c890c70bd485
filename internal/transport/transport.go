// Package transport defines the communication-object abstraction of the
// Globe local-object composition (Figure 1 of the paper): point-to-point
// send, multicast, and receive. Two implementations exist: memnet (an
// in-process simulated network with latency, jitter, loss, partitions, and
// exact traffic accounting) and tcpnet (real TCP with length-prefixed
// frames, the transport the paper's Java prototype used).
package transport

import (
	"errors"

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
	// (memnet jitter). Send itself never blocks on delivery, and never
	// runs the receiver's code: the most it does on the caller's goroutine
	// is place the frame in the destination's receive buffer, which memnet
	// does for a frame with no delay to wait out (see its package comment;
	// a full buffer or an earlier frame still in the delivery schedule
	// hands the frame to the scheduler instead). m is encoded before Send
	// returns and not retained, so the caller may reuse it. Nothing of to
	// is kept either, so it may alias a received frame (a reply addressed
	// to a request's From) that is released right after.
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
