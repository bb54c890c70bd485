package tcpnet

import (
	"strings"
	"sync"

	"repro/internal/transport"
)

// Fabric adapts tcpnet to the transport.Fabric interface, so one webobj
// System can deploy over real TCP exactly as it deploys over memnet.
//
// Endpoint names carry an optional category prefix ("store/www",
// "client/3"); the part after the last '/' is the listen hint. When the
// hint is a host:port ("store/127.0.0.1:7001") the endpoint listens there —
// this is how a daemon pins its advertised address — otherwise the endpoint
// listens on an ephemeral port of the fabric's host (the right choice for
// clients). Closing the fabric closes every endpoint it created that has
// not already been closed individually.
type Fabric struct {
	host  string
	maxIn int   // per-peer inbound frame budget for every endpoint minted
	st    stats // aggregate traffic counters, shared by every minted endpoint

	mu     sync.Mutex
	eps    map[*fabricEndpoint]struct{}
	closed bool
}

var _ transport.Fabric = (*Fabric)(nil)

// FabricOption configures NewFabric.
type FabricOption func(*Fabric)

// WithMaxInboundFrame sets the per-peer inbound frame budget for every
// endpoint the fabric mints: a peer announcing a larger frame is
// disconnected before any allocation sized by the announcement (see
// ListenLimit). Non-loopback
// deployments should set this to a small multiple of their largest
// snapshot.
func WithMaxInboundFrame(n int) FabricOption {
	return func(f *Fabric) { f.maxIn = n }
}

// NewFabric creates a TCP fabric. host is the address ephemeral endpoints
// bind to; "" defaults to 127.0.0.1 (loopback deployments and tests).
func NewFabric(host string, opts ...FabricOption) *Fabric {
	if host == "" {
		host = "127.0.0.1"
	}
	f := &Fabric{host: host, eps: make(map[*fabricEndpoint]struct{})}
	for _, o := range opts {
		o(f)
	}
	return f
}

// Endpoint implements transport.Fabric.
func (f *Fabric) Endpoint(name string) (transport.Endpoint, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, transport.ErrClosed
	}
	f.mu.Unlock()

	hint := name
	if i := strings.LastIndexByte(hint, '/'); i >= 0 {
		hint = hint[i+1:]
	}
	listen := f.host + ":0"
	if strings.ContainsRune(hint, ':') {
		listen = hint
	}
	ep, err := listenShared(listen, f.maxIn, &f.st)
	if err != nil {
		return nil, err
	}
	fe := &fabricEndpoint{Endpoint: ep, fabric: f}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		_ = ep.Close()
		return nil, transport.ErrClosed
	}
	f.eps[fe] = struct{}{}
	f.mu.Unlock()
	return fe, nil
}

// Close implements transport.Fabric: every endpoint still open is closed.
func (f *Fabric) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	eps := make([]*fabricEndpoint, 0, len(f.eps))
	for fe := range f.eps {
		eps = append(eps, fe)
	}
	f.eps = nil
	f.mu.Unlock()
	var firstErr error
	for _, fe := range eps {
		if err := fe.Endpoint.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// fabricEndpoint deregisters itself from the owning fabric on Close, so a
// long-lived fabric does not accumulate entries for short-lived clients.
type fabricEndpoint struct {
	*Endpoint
	fabric *Fabric
}

var _ transport.Endpoint = (*fabricEndpoint)(nil)

// Close implements transport.Endpoint.
func (fe *fabricEndpoint) Close() error {
	fe.fabric.mu.Lock()
	if fe.fabric.eps != nil {
		delete(fe.fabric.eps, fe)
	}
	fe.fabric.mu.Unlock()
	return fe.Endpoint.Close()
}
