// Package core is the client side of the distributed-shared-object runtime
// of §2 of the paper: Bind attaches a client process to whichever replica it
// chose, yielding a Proxy — the client-side local object whose only job is to
// "translate method calls to messages" (§4.2), decorated with the client's
// session-guarantee state. Stores and naming are assembled by webobj.
package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/coherence"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/semantics"
	"repro/internal/transport"
)

// ErrTimeout reports a call that received no reply in time; it is the shared
// call core's error, so one errors.Is covers proxies and every other client.
var ErrTimeout = transport.ErrTimeout

// ErrClosed reports use of a closed proxy.
var ErrClosed = errors.New("core: proxy closed")

// RemoteError carries a non-OK reply status from a store.
type RemoteError struct {
	Status msg.Status
	Text   string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("remote %v: %s", e.Status, e.Text)
}

// BindConfig configures a client binding.
type BindConfig struct {
	// Object to bind to.
	Object ids.ObjectID
	// Endpoint is the client's own communication object.
	Endpoint transport.Endpoint
	// StoreAddr is the chosen contact point (a naming.Entry address).
	StoreAddr string
	// Client is the client's identity (allocate via naming.NextClient).
	Client ids.ClientID
	// Session lists the client-based coherence models to enforce.
	Session []coherence.ClientModel
	// Prototype supplies the method table for read/write classification; it
	// is never invoked.
	Prototype semantics.Object
	// Semantics, when set, names the semantics type the client expects
	// ("webdoc", "kvstore", "applog", ...). It travels in the bind
	// request's Sem field, and stores that host the object under a
	// different semantics type reject the bind — a typed handle fails
	// fast instead of producing unknown-method errors at invoke time.
	Semantics string
	// Timeout bounds each remote call (default 5s). A timed-out write is
	// transparently retried once under the same write identifier (the
	// at-most-once path resolves whether the original was applied), so a
	// failing write can block for up to 2× Timeout before returning
	// ErrTimeout.
	Timeout time.Duration
}

// Proxy is the client-side local object bound to one distributed shared Web
// object. Safe for concurrent use.
type Proxy struct {
	object  ids.ObjectID
	client  ids.ClientID
	session *coherence.Session
	table   *semantics.Table
	demux   *transport.Demux
	sem     string
	timeout time.Duration

	mu      sync.Mutex // guards store and storeID against Rebind
	store   string
	storeID ids.StoreID

	// writeMu serialises write departure: it is held from write-ID
	// allocation until the frame is handed to the transport, so a client's
	// writes reach the wire in sequence order even when the proxy is used
	// concurrently. Stores rely on ordered departure for at-most-once
	// replay detection of unstamped writes.
	writeMu sync.Mutex
}

// Bind contacts the object at the chosen store and returns a proxy. It
// performs the paper's binding step: "binding results in an interface
// belonging to the object being placed in the client's address space".
func Bind(cfg BindConfig) (*Proxy, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	p := &Proxy{
		object:  cfg.Object,
		client:  cfg.Client,
		session: coherence.NewSession(cfg.Client, cfg.Session...),
		table:   semantics.NewTable(cfg.Prototype),
		demux:   transport.NewDemux(cfg.Endpoint),
		store:   cfg.StoreAddr,
		sem:     cfg.Semantics,
		timeout: cfg.Timeout,
	}
	if err := p.bind(); err != nil {
		p.Close()
		return nil, fmt.Errorf("core: bind %q at %q: %w", cfg.Object, cfg.StoreAddr, err)
	}
	return p, nil
}

// bind runs the bind round trip against the current store address.
func (p *Proxy) bind() error {
	reply, err := p.roundTrip(msg.Message{Kind: msg.KindBindRequest, Object: p.object, Client: p.client, Sem: p.sem}, nil)
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.storeID = reply.Store
	p.mu.Unlock()
	// Resume the client's write history: a rebinding process reusing a
	// persistent client ID must not re-issue write IDs the deployment
	// already applied (they would be deduplicated as replays).
	p.session.SeedSeq(reply.VVec.Get(p.client))
	reply.Release()
	return nil
}

// Client returns the proxy's client identity.
func (p *Proxy) Client() ids.ClientID { return p.client }

// Store returns the bound store's ID.
func (p *Proxy) Store() ids.StoreID {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.storeID
}

// StoreAddr returns the bound store's address.
func (p *Proxy) StoreAddr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.store
}

// Session exposes the client's session-guarantee state.
func (p *Proxy) Session() *coherence.Session { return p.session }

// Rebind switches the proxy to a different store (the paper's mobile-client
// scenario for Monotonic Reads: "two subsequent reads, possibly at
// different stores"). Session state is kept.
func (p *Proxy) Rebind(storeAddr string) error {
	p.mu.Lock()
	p.store = storeAddr
	p.mu.Unlock()
	return p.bind()
}

// Invoke performs one marshalled method call on the distributed object,
// transparently attaching and maintaining session-guarantee metadata, and
// returns the reply payload, which the caller may keep.
func (p *Proxy) Invoke(inv msg.Invocation) ([]byte, error) {
	reply, err := p.Call(inv)
	if err != nil {
		return nil, err
	}
	return reply.Payload, nil // never released: the frame stays the payload's
}

// Call is Invoke returning the whole reply. The caller releases it
// (msg.Message.Release) once it has copied what it keeps of the payload, and
// the reply's frame goes back to the transport instead of to the collector.
func (p *Proxy) Call(inv msg.Invocation) (*msg.Message, error) {
	if p.table.IsWrite(inv.Method) {
		return p.invokeWrite(inv)
	}
	return p.invokeRead(inv)
}

func (p *Proxy) invokeRead(inv msg.Invocation) (*msg.Message, error) {
	req, dep := p.session.ReadRequirementVec()
	reply, err := p.roundTrip(msg.Message{
		Kind:    msg.KindReadRequest,
		Object:  p.object,
		Client:  p.client,
		VVec:    req,
		ReadDep: dep,
		Inv:     inv,
	}, nil)
	if err != nil {
		return nil, err
	}
	p.session.ReadDone(reply.VVec)
	return reply, nil
}

func (p *Proxy) invokeWrite(inv msg.Invocation) (*msg.Message, error) {
	// Serialise writes so per-client sequence numbers leave in order: the
	// lock spans write-ID allocation THROUGH transport hand-off (released
	// inside roundTrip), otherwise two concurrent writers could allocate
	// N and N+1 and send them in the opposite order.
	p.writeMu.Lock()
	// Repair first: an aborted write that could not be rolled back (another
	// writer on this shared handle had already allocated a later sequence)
	// left a hole that stalls every subsequent write under ordered models.
	// Seal each hole before this write departs, so its own sequence number
	// is reachable at the stores.
	if err := p.sealHoles(); err != nil {
		p.writeMu.Unlock()
		return nil, err
	}
	w, deps := p.session.NextWrite()
	reply, err := p.write(w, deps, inv, &p.writeMu)
	if err != nil {
		p.session.AbortWrite(w)
		return nil, err
	}
	p.session.WriteDone(w, reply.Store)
	return reply, nil
}

// write sends one write request under identifier w and, when its outcome is
// unknown — the request or only its ack may have been lost — retries the
// identical frame once: the stores' at-most-once admission re-acks it if it
// was applied and admits it if it never arrived, so the ambiguity usually
// resolves without abandoning the write ID (which a subsequent different
// write would reuse and have silently absorbed as a replay).
func (p *Proxy) write(w ids.WiD, deps *msg.Vec, inv msg.Invocation, sent *sync.Mutex) (*msg.Message, error) {
	req := msg.Message{
		Kind:      msg.KindWriteRequest,
		Object:    p.object,
		Client:    p.client,
		Write:     w,
		Deps:      deps,
		Inv:       inv,
		WallNanos: time.Now().UnixNano(),
	}
	reply, err := p.roundTrip(req, sent)
	if errors.Is(err, ErrTimeout) {
		reply, err = p.roundTrip(req, nil)
	}
	return reply, err
}

// sealHoles re-issues every recorded write-sequence hole as a no-op write
// under the hole's original write ID (semantics.MethodNoop), in ascending
// order. The at-most-once admission at the stores makes this safe in both
// timeout outcomes: if the aborted original was actually applied, the seal
// is re-acked as a replay; if it never arrived, the no-op fills the gap and
// releases the client's buffered successors. Callers hold writeMu, so the
// seals depart before any newer write; the round trips happen under the
// lock — gap repair is rare and correctness beats departure latency here.
// On failure the hole stays recorded for the next attempt.
func (p *Proxy) sealHoles() error {
	for _, seq := range p.session.Holes() {
		w, deps := p.session.SealWrite(seq)
		reply, err := p.write(w, deps, msg.Invocation{Method: semantics.MethodNoop}, nil)
		if err != nil {
			return fmt.Errorf("core: sealing write gap %v: %w", w, err)
		}
		reply.Release()
		p.session.SealDone(seq)
	}
	return nil
}

// roundTrip stages req in a call slot (so the request itself is not
// allocated), sends it to the bound store and awaits the correlated reply,
// which the caller releases; a non-OK status comes back as a RemoteError
// instead. sent, when non-nil, is a
// departure lock the caller holds: it is released as soon as the frame has
// been handed to the transport — waiting for the reply happens outside it,
// so ordered departure costs no reply-latency serialisation.
func (p *Proxy) roundTrip(req msg.Message, sent *sync.Mutex) (*msg.Message, error) {
	c, err := p.demux.Begin()
	if err != nil {
		err = ErrClosed // the only way Begin fails
	} else {
		c.Req = req
		err = c.Send(p.StoreAddr(), &c.Req)
	}
	if sent != nil {
		sent.Unlock()
	}
	if err != nil {
		return nil, err
	}
	reply, err := c.Wait(p.timeout)
	if err != nil {
		if errors.Is(err, transport.ErrClosed) {
			err = ErrClosed
		}
		return nil, err
	}
	if reply.Status != msg.StatusOK {
		err := &RemoteError{reply.Status, strings.Clone(reply.Err)}
		reply.Release()
		return nil, err
	}
	return reply, nil
}

// Close releases the proxy (but not the endpoint, which the caller owns).
func (p *Proxy) Close() { p.demux.Stop() }
