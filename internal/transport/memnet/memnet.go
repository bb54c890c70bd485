// Package memnet is the simulated-network substrate: an in-process message
// network with configurable per-link latency, jitter, and loss, dynamic
// partitions, multicast, and exact message/byte accounting.
//
// It substitutes for the Internet testbed of the paper's prototype. Messages
// are fully encoded and re-decoded on every hop, so wire sizes are real and
// senders never share mutable state with receivers. A frame is leased, not
// allocated: it is encoded into a pooled msg.WireBuf, and each delivery
// decodes it into a pooled message aliasing that buffer (msg.DecodeLeased).
// A multicast's receivers and a duplicated delivery share the one buffer,
// each holding a reference, so receivers treat its strings and byte slices
// as read-only. A receiver that calls Release hands its message back, and
// the buffer goes back with the last reference; one that never does leaves
// both to the collector. A lossless network models the paper's TCP
// configuration; setting a loss rate models the UDP configuration of §4.2,
// where reliability is recovered by the coherence protocol rather than the
// transport.
//
// Delivery. Send draws loss, jitter and duplication for the frame from the
// sender's own seeded RNG, in that order. A frame whose drawn delay is zero,
// that was not duplicated, and whose destination has nothing waiting in the
// delivery schedule is decoded and placed in the destination inbox by the
// sender itself, before Send returns: one goroutine wake-up per hop, the
// receiver's. A destination with a receiver function set
// (transport.ReceiverSetter) has the sender run it instead, as a Demux does
// to put a reply in its caller's slot, and its inbox is never full. Every
// other frame — delayed, duplicated, behind a scheduled
// frame for the same destination, or facing a full inbox — goes to the
// schedule, which one scheduler goroutine drains in (time, enqueue order).
// Which path a frame takes follows from the link profile and the state of
// the destination, never from an option. What a seed fixes is therefore the
// per-sender sequence of draws and the order in which delayed frames arrive;
// frames on instant links arrive in the order their senders ran. Per
// (sender, destination) order is FIFO across both paths, and Send never
// blocks on either; the only receiver code it runs is a receiver function,
// which must not block.
//
//globelint:deterministic
package memnet

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/msg"
	"repro/internal/transport"
)

// LinkProfile describes one directed link's behaviour.
type LinkProfile struct {
	// Latency is the base one-way delivery delay.
	Latency time.Duration
	// Jitter, if non-zero, adds a uniform random delay in [0, Jitter).
	Jitter time.Duration
	// Loss is the probability in [0,1] that a message is silently dropped.
	Loss float64
	// Dup is the probability in [0,1] that a message is delivered twice
	// (the second copy after an extra jittered delay) — UDP-style
	// duplication for exercising protocol dedup paths.
	Dup float64
}

// Stats is a snapshot of network traffic counters.
type Stats struct {
	Sent       uint64
	Delivered  uint64
	Dropped    uint64 // lost by link loss or partition
	Duplicated uint64 // extra copies injected by link duplication
	Bytes      uint64 // wire bytes of delivered messages
	ByKind     map[msg.Kind]uint64
}

// counters holds the live traffic counters as atomics, so senders bump them
// without serialising on the network mutex; the per-kind counters are a
// fixed array indexed by msg.Kind rather than a locked map.
type counters struct {
	sent       atomic.Uint64
	delivered  atomic.Uint64
	dropped    atomic.Uint64
	duplicated atomic.Uint64
	bytes      atomic.Uint64
	byKind     [msg.KindCount]atomic.Uint64
}

// snapshot copies the counters into the exported Stats form.
func (c *counters) snapshot() Stats {
	s := Stats{
		Sent:       c.sent.Load(),
		Delivered:  c.delivered.Load(),
		Dropped:    c.dropped.Load(),
		Duplicated: c.duplicated.Load(),
		Bytes:      c.bytes.Load(),
		ByKind:     make(map[msg.Kind]uint64),
	}
	for k := range c.byKind {
		if v := c.byKind[k].Load(); v > 0 {
			s.ByKind[msg.Kind(k)] = v
		}
	}
	return s
}

// reset zeroes every counter.
func (c *counters) reset() {
	c.sent.Store(0)
	c.delivered.Store(0)
	c.dropped.Store(0)
	c.duplicated.Store(0)
	c.bytes.Store(0)
	for k := range c.byKind {
		c.byKind[k].Store(0)
	}
}

// inboxSize is an endpoint's receive buffer, in frames: room for the bursts
// a store fans out (a batch relay to every child, a demand replay) without
// its receivers' loops having to keep pace frame by frame. A frame that finds
// the buffer full waits in the delivery schedule, never in its sender.
const inboxSize = 1024

// numShards is the number of delivery-queue shards. Destinations are hashed
// onto shards, so concurrent senders contend only when they target the same
// shard; 16 comfortably covers the core counts this simulator runs on.
const numShards = 16

// shard is one slice of the delivery schedule: a min-heap of pending
// deliveries with its own lock and FIFO tiebreak sequence. The struct is
// padded out so neighbouring shards do not false-share a cache line.
type shard struct {
	mu    sync.Mutex
	seq   uint64
	queue deliveryQueue
	_     [24]byte
}

// Network is a simulated network. Create endpoints with Endpoint, wire their
// behaviour with SetLink/SetDefaultLink, and tear everything down with
// Close, which waits for the delivery scheduler to stop.
//
// Concurrency model: topology (endpoints, links, partitions) is guarded by a
// read-write mutex that the send path only read-locks; loss/jitter/dup
// randomness comes from per-endpoint RNGs; and scheduled deliveries live in
// per-destination shards, so N concurrent senders to distinct destinations
// share no exclusive lock. One scheduler goroutine (the clock driver) drains
// all shards in timestamp order, which makes seeded runs reproduce the exact
// delivery order of their delayed frames; instant frames skip it (see the
// package comment).
type Network struct {
	mu        sync.RWMutex
	endpoints map[string]*endpoint
	// graveyard holds endpoints closed before the network itself closes:
	// their addresses are free for reuse, but their receive channels still
	// close when the network does (the documented Recv contract).
	graveyard []*endpoint
	links     map[linkKey]LinkProfile
	defProf   LinkProfile
	parts     map[linkKey]bool
	closed    bool

	seed   int64
	clk    clock.Clock
	stats  counters
	shards [numShards]shard
	// sleepUntil is the scheduler's planned wake time (UnixNano); senders
	// skip the wake signal when their delivery is not earlier. While the
	// scheduler is awake (scanning or delivering) it holds MaxInt64, so
	// racing senders always signal and the buffered token forces a rescan.
	sleepUntil atomic.Int64
	wake       chan struct{}
	done       chan struct{}
	wg         sync.WaitGroup
}

type linkKey struct{ from, to string }

// Option configures a Network.
type Option func(*Network)

// WithSeed fixes the base RNG seed. Every endpoint derives its own RNG from
// the base seed and its address, so jitter/loss decisions are deterministic
// per sender regardless of how goroutines interleave across endpoints.
func WithSeed(seed int64) Option {
	return func(n *Network) { n.seed = seed }
}

// WithDefaultLink sets the profile used by links that have no explicit
// SetLink configuration.
func WithDefaultLink(p LinkProfile) Option {
	return func(n *Network) { n.defProf = p }
}

// WithClock injects the clock that times latency and jitter delivery
// (default clock.Real{}); a clock.Fake lets tests step simulated latency
// without wall-clock waits.
func WithClock(c clock.Clock) Option {
	return func(n *Network) { n.clk = c }
}

// New creates a network. By default links are instantaneous and lossless.
func New(opts ...Option) *Network {
	n := &Network{
		seed:      1,
		clk:       clock.Real{},
		endpoints: make(map[string]*endpoint),
		links:     make(map[linkKey]LinkProfile),
		parts:     make(map[linkKey]bool),
		wake:      make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	for _, o := range opts {
		o(n)
	}
	n.sleepUntil.Store(math.MaxInt64)
	n.wg.Add(1)
	go n.run()
	return n
}

// fnv64a hashes s (FNV-1a) for shard selection and per-endpoint RNG seeds.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Endpoint creates (or returns an error for a duplicate) the endpoint at
// addr.
func (n *Network) Endpoint(addr string) (transport.Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, transport.ErrClosed
	}
	if _, ok := n.endpoints[addr]; ok {
		return nil, fmt.Errorf("memnet: duplicate endpoint %q", addr)
	}
	h := fnv64a(addr)
	e := &endpoint{
		net:   n,
		addr:  addr,
		inbox: make(chan *msg.Message, inboxSize),
		shard: &n.shards[h%numShards],
		rng:   rand.New(rand.NewSource(n.seed ^ int64(h))),
	}
	n.endpoints[addr] = e
	return e, nil
}

// SetLink configures the directed link from -> to.
func (n *Network) SetLink(from, to string, p LinkProfile) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[linkKey{from, to}] = p
}

// SetLinkBoth configures both directions between a and b.
func (n *Network) SetLinkBoth(a, b string, p LinkProfile) {
	n.SetLink(a, b, p)
	n.SetLink(b, a, p)
}

// Partition cuts both directions between a and b until Heal.
func (n *Network) Partition(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.parts[linkKey{a, b}] = true
	n.parts[linkKey{b, a}] = true
}

// Heal restores both directions between a and b.
func (n *Network) Heal(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.parts, linkKey{a, b})
	delete(n.parts, linkKey{b, a})
}

// Stats returns a copy of the traffic counters.
func (n *Network) Stats() Stats { return n.stats.snapshot() }

// StatsMap implements transport.StatsSource: the aggregate counters under
// snake_case keys for the observability bridge (per-kind counts stay on
// Stats only).
func (n *Network) StatsMap() map[string]uint64 {
	return map[string]uint64{
		"frames_sent":       n.stats.sent.Load(),
		"frames_delivered":  n.stats.delivered.Load(),
		"frames_dropped":    n.stats.dropped.Load(),
		"frames_duplicated": n.stats.duplicated.Load(),
		"bytes_delivered":   n.stats.bytes.Load(),
	}
}

// ResetStats zeroes the traffic counters (benchmark warm-up support).
func (n *Network) ResetStats() { n.stats.reset() }

// Close shuts down the network: endpoints' receive channels close and the
// delivery scheduler stops. Close blocks until the scheduler exits.
func (n *Network) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	eps := make([]*endpoint, 0, len(n.endpoints)+len(n.graveyard))
	for _, e := range n.endpoints {
		eps = append(eps, e)
	}
	eps = append(eps, n.graveyard...)
	n.graveyard = nil
	n.mu.Unlock()
	close(n.done)
	n.wg.Wait()
	for _, e := range eps {
		e.closeInbox()
	}
	return nil
}

// hop is one resolved destination of a send: the pinned endpoint, the link
// profile to apply, and whether the link is currently partitioned.
type hop struct {
	dst  *endpoint
	prof LinkProfile
	part bool
}

// resolveLocked looks up one destination under the topology read lock.
func (n *Network) resolveLocked(from, to string) (hop, bool) {
	dst, ok := n.endpoints[to]
	if !ok {
		return hop{}, false
	}
	prof, ok := n.links[linkKey{from, to}]
	if !ok {
		prof = n.defProf
	}
	return hop{dst: dst, prof: prof, part: n.parts[linkKey{from, to}]}, true
}

// send enqueues a message for delivery, applying the link profile. The
// topology is only read-locked, so concurrent senders do not serialise; the
// lock is held through enqueue so that an inline hand-over can race neither
// Network.Close closing the inbox nor retire draining it.
func (n *Network) send(src *endpoint, to string, m *msg.Message) error {
	w := msg.EncodePooled(m)
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.closed {
		w.Release()
		return transport.ErrClosed
	}
	h, ok := n.resolveLocked(src.addr, to)
	if !ok {
		w.Release()
		return fmt.Errorf("%w: %q", transport.ErrUnknownAddr, to)
	}
	n.enqueue(src, h, w)
	return nil
}

// multicast is the encode-once fan-out fast path: the frame is serialised a
// single time and the resulting buffer is shared by every delivery, each
// holding its own reference. Receivers each decode their own Message struct
// but alias the shared read-only frame (see the package doc).
//
// Fan-out is best-effort: an unknown destination (e.g. a child whose
// endpoint closed and freed its address) must not starve the remaining
// destinations, so every address is attempted and the first failure is
// reported after the sweep.
func (n *Network) multicast(src *endpoint, tos []string, m *msg.Message) error {
	if len(tos) == 0 {
		return nil
	}
	w := msg.EncodePooled(m)
	defer w.Release() // the encoder's reference
	var firstErr error
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.closed {
		return transport.ErrClosed
	}
	for _, to := range tos {
		h, ok := n.resolveLocked(src.addr, to)
		if !ok {
			if firstErr == nil {
				firstErr = fmt.Errorf("multicast to %q: %w", to, transport.ErrUnknownAddr)
			}
			continue
		}
		w.Retain()
		n.enqueue(src, h, w)
	}
	return firstErr
}

// enqueue applies the link profile and hands the frame over: inline to the
// destination inbox when the frame is instant and nothing is scheduled ahead
// of it, onto the destination's shard otherwise. It takes over one reference
// on w from the caller. Callers hold the topology read lock. The destination
// endpoint is captured by pointer so a delivery in flight when the endpoint
// closes is never handed to a fresh endpoint that reuses the address. Loss,
// jitter, and duplication randomness come from the sender's own RNG, so
// senders never contend on a shared randomness source.
func (n *Network) enqueue(src *endpoint, h hop, w *msg.WireBuf) {
	n.stats.sent.Add(1)
	if h.part {
		n.stats.dropped.Add(1)
		w.Release()
		return // partitions drop silently, like the real network
	}
	prof := h.prof
	delay := prof.Latency
	var extra time.Duration
	dup := false
	if prof.Loss > 0 || prof.Jitter > 0 || prof.Dup > 0 {
		src.rngMu.Lock()
		if prof.Loss > 0 && src.rng.Float64() < prof.Loss {
			src.rngMu.Unlock()
			n.stats.dropped.Add(1)
			w.Release()
			return
		}
		if prof.Jitter > 0 {
			delay += time.Duration(src.rng.Int63n(int64(prof.Jitter)))
		}
		if prof.Dup > 0 && src.rng.Float64() < prof.Dup {
			dup = true
			extra = delay + prof.Latency
			if prof.Jitter > 0 {
				extra += time.Duration(src.rng.Int63n(int64(prof.Jitter)))
			}
		}
		src.rngMu.Unlock()
	}
	dst := h.dst
	// The scheduled count is read without the shard lock: this sender's own
	// earlier frames to dst were counted before their Send returned and are
	// uncounted only once they sit in the inbox, so a zero here means none of
	// them can be overtaken. Other senders' frames carry no order promise.
	if delay == 0 && !dup && dst.scheduled.Load() == 0 && n.deliverOne(dst, w, false) {
		return
	}
	at := n.clk.Now().Add(delay)
	sh := dst.shard
	sh.mu.Lock()
	sh.seq++
	dst.scheduled.Add(1)
	heap.Push(&sh.queue, &delivery{at: at, seq: sh.seq, ep: dst, wire: w})
	if dup {
		n.stats.duplicated.Add(1)
		sh.seq++
		dst.scheduled.Add(1)
		w.Retain()
		heap.Push(&sh.queue, &delivery{at: at.Add(extra - delay), seq: sh.seq, ep: dst, wire: w})
	}
	sh.mu.Unlock()
	// Wake the scheduler only when this delivery is due before its planned
	// wake-up; a sleeping scheduler rescans its queues when it wakes, so
	// later deliveries need no signal.
	if at.UnixNano() < n.sleepUntil.Load() {
		n.wakeScheduler()
	}
}

// wakeScheduler posts a non-blocking wake token; a full buffer already
// guarantees the scheduler's next select returns immediately.
func (n *Network) wakeScheduler() {
	select {
	case n.wake <- struct{}{}:
	default:
	}
}

// run is the delivery scheduler (the clock driver), a timer for the frames
// senders could not hand over themselves: it sleeps until the earliest queued
// delivery across all shards is due, then drains every due delivery into its
// destination inbox.
func (n *Network) run() {
	defer n.wg.Done()
	for {
		// Awake: any concurrent enqueue signals the wake channel, whose
		// buffered token makes the next select return immediately, closing
		// the race with the shard scan below.
		n.sleepUntil.Store(math.MaxInt64)
		next, ok := n.earliest()
		if !ok {
			select {
			case <-n.done:
				return
			case <-n.wake:
				continue
			}
		}
		wait := next.Sub(n.clk.Now())
		if wait > 0 {
			n.sleepUntil.Store(next.UnixNano())
			select {
			case <-n.done:
				return
			case <-n.wake:
				continue // an earlier delivery may have arrived
			case <-n.clk.After(wait):
			}
		}
		n.deliverDue()
	}
}

// drainShard pops and delivers every due message on one shard, in (time,
// seq) order. A delivery stays counted as scheduled until it is in the inbox
// (or discarded), which is what keeps inline senders behind it.
func (n *Network) drainShard(sh *shard) {
	for {
		sh.mu.Lock()
		if sh.queue.Len() == 0 || sh.queue[0].at.After(n.clk.Now()) {
			sh.mu.Unlock()
			return
		}
		d := heap.Pop(&sh.queue).(*delivery)
		sh.mu.Unlock()
		n.deliverOne(d.ep, d.wire, true)
		d.ep.scheduled.Add(-1)
	}
}

// earliest peeks every shard for the soonest pending delivery time.
func (n *Network) earliest() (time.Time, bool) {
	var at time.Time
	found := false
	for i := range n.shards {
		sh := &n.shards[i]
		sh.mu.Lock()
		if sh.queue.Len() > 0 {
			t := sh.queue[0].at
			if !found || t.Before(at) {
				at = t
				found = true
			}
		}
		sh.mu.Unlock()
	}
	return at, found
}

// deliverDue pops and delivers every due message. Within a shard deliveries
// happen in (time, seq) order, which preserves FIFO per destination (each
// destination maps to exactly one shard); deliveries to different
// destinations carry no ordering promise.
func (n *Network) deliverDue() {
	for i := range n.shards {
		n.drainShard(&n.shards[i])
	}
}

// deliverOne decodes one frame into a leased message, which takes over the
// caller's reference on w, and hands it to its destination's receiver
// function or places it in its destination inbox. The
// scheduler passes wait and blocks on a full inbox until there is room or the
// network shuts down; a sender passes false and gets false back, still
// holding its reference, to schedule the frame instead. True means the frame
// needs no further handling: delivered, or discarded because the endpoint
// closed.
func (n *Network) deliverOne(e *endpoint, w *msg.WireBuf, wait bool) bool {
	if e.closed.Load() {
		w.Release()
		return true
	}
	m, err := msg.DecodeLeased(w.Bytes(), w)
	if err != nil {
		// Encode/Decode are inverses; a failure here is a programming
		// error surfaced loudly in tests via the dropped counter.
		n.stats.dropped.Add(1)
		w.Release()
		return true
	}
	// Once m is handed over it is the receiver's, which may answer in it
	// (replication.Object.Handle) or release it: read what the counters need
	// first.
	kind, size := int(m.Kind), len(w.Bytes())
	if !e.recv.Take(m) {
		if wait {
			select {
			case e.inbox <- m:
			case <-n.done:
				m.Release()
				return true
			}
		} else {
			select {
			case e.inbox <- m:
			default:
				w.Retain() // the reference m gives back stays the caller's
				m.Release()
				return false
			}
		}
		if e.closed.Load() {
			// Close raced with the hand-over: retire's drain may already
			// have run, so scoop a buffered message back out rather than
			// pin it (and the frame it aliases) until the network closes.
			select {
			case old := <-e.inbox:
				old.Release()
			default:
			}
			return true
		}
		e.recv.Settle(e.inbox)
	}
	n.stats.delivered.Add(1)
	n.stats.bytes.Add(uint64(size))
	if kind >= 0 && kind < msg.KindCount {
		n.stats.byKind[kind].Add(1)
	}
	return true
}

// delivery is one scheduled message hand-off, pinned to the endpoint that
// existed at send time.
type delivery struct {
	at   time.Time
	seq  uint64
	ep   *endpoint
	wire *msg.WireBuf // one reference, handed to deliverOne
}

// deliveryQueue is a min-heap ordered by (time, enqueue sequence).
type deliveryQueue []*delivery

func (q deliveryQueue) Len() int { return len(q) }
func (q deliveryQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}
func (q deliveryQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *deliveryQueue) Push(x any)   { *q = append(*q, x.(*delivery)) }
func (q *deliveryQueue) Pop() any {
	old := *q
	n := len(old)
	d := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return d
}

// endpoint implements transport.Endpoint on a Network. Each endpoint owns a
// deterministic RNG (derived from the network seed and its address) for the
// link randomness of its outbound sends, and is pinned to the delivery
// shard its inbound traffic is scheduled on.
type endpoint struct {
	net   *Network
	addr  string
	inbox chan *msg.Message
	shard *shard
	// scheduled counts the frames for this endpoint that sit in its shard
	// or are being delivered from it; senders hand over inline only at zero.
	scheduled atomic.Int32
	// recv, when set, takes every delivery in place of the inbox.
	recv transport.Receiver

	rngMu sync.Mutex
	rng   *rand.Rand

	closed atomic.Bool
}

var _ transport.Endpoint = (*endpoint)(nil)
var _ transport.ReceiverSetter = (*endpoint)(nil)

// A Network is a Fabric: webobj systems deploy over it directly.
var _ transport.Fabric = (*Network)(nil)

func (e *endpoint) Addr() string { return e.addr }

func (e *endpoint) Send(to string, m *msg.Message) error {
	if e.closed.Load() {
		return transport.ErrClosed
	}
	return e.net.send(e, to, m)
}

func (e *endpoint) Multicast(tos []string, m *msg.Message) error {
	if e.closed.Load() {
		return transport.ErrClosed
	}
	return e.net.multicast(e, tos, m)
}

func (e *endpoint) Recv() <-chan *msg.Message { return e.inbox }

// SetReceiver implements transport.ReceiverSetter: deliveries, inline or
// scheduled, call f on the delivering goroutine instead of filling the inbox.
func (e *endpoint) SetReceiver(f func(*msg.Message)) { e.recv.Set(e.inbox, f) }

// Close marks the endpoint closed and releases its address for reuse.
// Deliveries already scheduled to the old endpoint are discarded; the
// receive channel stays open (draining nothing) until the network closes,
// per the Recv contract.
func (e *endpoint) Close() error {
	if !e.closed.Swap(true) {
		e.net.retire(e)
	}
	return nil
}

// retire removes a closed endpoint from the address table (freeing the
// address for a fresh endpoint) while remembering it so Network.Close still
// closes its receive channel.
func (n *Network) retire(e *endpoint) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return // Network.Close already owns the endpoint list
	}
	if n.endpoints[e.addr] == e {
		delete(n.endpoints, e.addr)
		n.graveyard = append(n.graveyard, e)
	}
	// Drop the buffered deliveries nobody will read, so churny workloads
	// (create/close many endpoints) retain only the small endpoint shells
	// until the network closes their channels.
	for {
		select {
		case m := <-e.inbox:
			m.Release()
		default:
			return
		}
	}
}

// closeInbox is called exactly once by Network.Close, after the scheduler
// has stopped and with the network marked closed under the topology lock
// senders hand over under, so no further sends into the inbox can occur.
func (e *endpoint) closeInbox() {
	e.closed.Store(true)
	close(e.inbox)
}
