// Package msg defines the wire messages exchanged between the parts of a
// distributed shared Web object, and a compact binary codec for them.
//
// The paper requires that communication and replication objects are unaware
// of the methods and state of the semantics object: "both the communication
// object and the replication object operate only on invocation messages in
// which method identifiers and parameters have been encoded". Invocation is
// exactly that encoding; Message wraps an Invocation (or coherence payload)
// with the replication metadata — write identifiers, version vectors, causal
// dependency vectors, and session-guarantee requirements.
package msg

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/ids"
	"repro/internal/vclock"
)

// Kind discriminates message types.
type Kind uint8

// Message kinds. Binding and subscription manage the store/replica graph;
// read/write carry client invocations; update/invalidate/notify/demand are
// the coherence-transfer messages of Table 1; state request/reply implement
// full state transfer; gossip implements anti-entropy for the eventual
// model; digest is the parent→child applied-vector heartbeat that closes
// the silent tail-loss window on unreliable transports (§4.2).
const (
	KindBindRequest Kind = iota + 1
	KindBindReply
	KindSubscribe
	KindSubscribeAck
	KindUnsubscribe
	KindReadRequest
	KindReadReply
	KindWriteRequest
	KindWriteReply
	KindUpdate
	KindUpdateAck
	KindInvalidate
	KindNotify
	KindDemandUpdate
	KindStateRequest
	KindStateReply
	KindGossip
	KindGossipReply
	KindUpdateBatch
	KindDigest
	// Name-service kinds (wire v5): the networked naming/location protocol
	// of internal/nameserv. Register/Deregister/Resolve/Lease are
	// client→server RPCs answered by KindNameReply. Name servers replicate
	// the directory among themselves with the gossip kinds above; the two
	// retired numbers were the directory's own digest and sync frames.
	KindNameRegister
	KindNameDeregister
	KindNameResolve
	KindNameLease
	KindNameReply
	_
	_
	// Control kinds (wire v5): the daemon control RPC (host/drop a replica
	// at runtime) served by webobj.System.ServeControl.
	KindCtrlRequest
	KindCtrlReply
	kindMax // sentinel, keep last
)

// KindCount is the number of kind values (sentinel included); transports use
// it to size per-kind counter arrays without a map.
const KindCount = int(kindMax)

//globelint:wiresym type=Kind role=names exempt=kindMax
var kindNames = [KindCount]string{
	KindBindRequest:  "bind-request",
	KindBindReply:    "bind-reply",
	KindSubscribe:    "subscribe",
	KindSubscribeAck: "subscribe-ack",
	KindUnsubscribe:  "unsubscribe",
	KindReadRequest:  "read-request",
	KindReadReply:    "read-reply",
	KindWriteRequest: "write-request",
	KindWriteReply:   "write-reply",
	KindUpdate:       "update",
	KindUpdateAck:    "update-ack",
	KindInvalidate:   "invalidate",
	KindNotify:       "notify",
	KindDemandUpdate: "demand-update",
	KindStateRequest: "state-request",
	KindStateReply:   "state-reply",
	KindGossip:       "gossip",
	KindGossipReply:  "gossip-reply",
	KindUpdateBatch:  "update-batch",
	KindDigest:       "digest",

	KindNameRegister:   "name-register",
	KindNameDeregister: "name-deregister",
	KindNameResolve:    "name-resolve",
	KindNameLease:      "name-lease",
	KindNameReply:      "name-reply",
	KindCtrlRequest:    "ctrl-request",
	KindCtrlReply:      "ctrl-reply",
}

// String names the kind.
func (k Kind) String() string {
	if k.Valid() {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Valid reports whether k is a defined message kind: in range, and not a
// retired number.
func (k Kind) Valid() bool { return int(k) < len(kindNames) && kindNames[k] != "" }

// Status codes carried in replies.
type Status uint8

// Reply statuses.
const (
	StatusOK Status = iota + 1
	StatusError
	StatusNotFound
	StatusRetry     // requirement not satisfiable now; client may retry
	StatusForbidden // e.g. write by unregistered writer under write-set=single
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusError:
		return "error"
	case StatusNotFound:
		return "not-found"
	case StatusRetry:
		return "retry"
	case StatusForbidden:
		return "forbidden"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Invocation is a marshalled method call: the method identifier, the page
// (element of the document) it addresses, and the encoded arguments. The
// replication layer never interprets Args.
type Invocation struct {
	Method uint16
	Page   string
	Args   []byte
}

// BatchUpdate is one aggregated operation inside a KindUpdateBatch frame:
// exactly the per-update metadata a standalone KindUpdate carries, so the
// receiver can fan each entry into the ordering engine as if it had arrived
// alone. Batching amortises the envelope (addresses, vectors, framing) over
// N operations.
type BatchUpdate struct {
	Write     ids.WiD
	GlobalSeq uint64
	Stamp     vclock.Stamp
	Deps      *Vec // nil when empty, as Message.Deps
	Inv       Invocation
	WallNanos int64
}

// Message is the single wire envelope used by every protocol in the
// framework. Fields are populated per kind; unused fields stay zero and
// encode compactly.
type Message struct {
	Kind   Kind
	Object ids.ObjectID

	// From / To are transport addresses; From lets the receiver reply.
	From string
	To   string

	// NetSeq is a sender-assigned per-connection sequence used for
	// duplicate suppression on unreliable transports.
	NetSeq uint64

	// Client identifies the originating client (bind, read, write).
	Client ids.ClientID
	// Store identifies the originating store for store-to-store traffic.
	Store ids.StoreID

	// Write is the write identifier (client, seq) this message creates or
	// carries (write requests, updates, invalidations, notifications).
	Write ids.WiD
	// GlobalSeq is the total-order sequence assigned by the permanent store
	// under the sequential coherence model.
	GlobalSeq uint64
	// Stamp is the Lamport stamp used by the eventual model's LWW rule.
	Stamp vclock.Stamp

	// VVec is a version vector: in updates, the sender's applied vector; in
	// demand-update requests, the requester's current vector (the reply
	// fills the gap); in read requests, the session-guarantee requirement.
	// It is carried as a small-vector Vec so frames decode map-free.
	VVec Vec
	// Deps is the causal dependency vector (causal model, WFR guarantee):
	// the update may be applied only at stores whose applied vector covers
	// Deps. It is nil when empty, which it is unless a session asks for
	// Monotonic Writes or Writes Follow Reads, so the vector costs a frame
	// nothing until then.
	Deps *Vec
	// ReadDep is the Read-Your-Writes dependency (last write + store where
	// performed) transmitted with read requests, per §4.2.
	ReadDep ids.Dependency

	// Inv is the marshalled invocation (read/write requests, updates
	// carrying the operation).
	Inv Invocation

	// Payload carries reply data, state snapshots, or page content.
	Payload []byte

	// Pages lists page names (invalidations, notifications, state requests
	// and replies). A decoded list of one name points into page, the
	// message's own slot, so it costs no allocation.
	Pages []string

	// Batch carries the aggregated operations of a KindUpdateBatch frame;
	// nil for every other kind.
	Batch []BatchUpdate

	// WallNanos is the origin wall-clock time (UnixNano) of the write this
	// message carries; used only by metrics to measure staleness.
	WallNanos int64

	// Status and Err report the outcome in replies.
	Status Status
	// leased marks a message decoded into a pooled struct (DecodeLeased).
	// It is not on the wire, and sits beside Status to fill padding.
	leased bool
	Err    string

	// Sem names the semantics type of the object ("webdoc", "kvstore",
	// "applog") in bind requests; stores hosting the object under a
	// different type reject the bind. Empty skips the check.
	Sem string

	// wire is the pooled frame a leased message aliases, if any.
	wire *WireBuf

	// page is the slot a decoded one-name Pages list points into; only
	// Pages is on the wire. Pointing a message's Pages at its own slot moves
	// a message on the stack to the heap.
	page [1]string
}

// Reply constructs a reply envelope of kind k addressed back to m's sender,
// copying the object and correlation fields.
func (m *Message) Reply(k Kind) *Message {
	return &Message{
		Kind:   k,
		Object: m.Object,
		From:   m.To,
		To:     m.From,
		NetSeq: m.NetSeq,
		Client: m.Client,
		Store:  m.Store,
		Write:  m.Write,
		Status: StatusOK,
	}
}

// ErrShortMessage reports a truncated or corrupt wire message.
var ErrShortMessage = errors.New("msg: short or corrupt message")

// ErrBadVersion reports an unsupported codec version byte.
var ErrBadVersion = errors.New("msg: unsupported wire version")

// wireVersion is the current codec version. Version 5 added the name-service
// kinds (KindName*) and the daemon control kinds (KindCtrl*) — the networked
// naming/location subsystem and runtime replica management; no layout
// change, but a v4 receiver would reject the unknown kinds, so both ends
// must agree on the kind table. Version 4 added the KindDigest
// kind (anti-entropy heartbeats carrying a store's applied vector in VVec;
// no layout change, but a v3 receiver would reject the unknown kind, so both
// ends must agree on the kind table). Version 3 appended the Sem field
// (bind-time semantics type checking). Version 2 appended the
// KindUpdateBatch kind and the trailing batch section to the frame layout.
// Older frames are rejected (no live deployments to stay compatible with —
// the experiment harness always upgrades both ends together).
const wireVersion = 5

// EncodeHook, when non-nil, is invoked once per frame encoding. It exists
// for tests that assert how many times a message was serialised (e.g. that
// multicast encodes exactly once per fan-out); production code leaves it
// nil and pays only a nil check.
var EncodeHook func(*Message)

// wireSize returns the exact encoded length of m, mirroring AppendEncode
// field for field (including its truncation caps). The exempt list below
// names the fixed-size fields whose bytes appear as constant terms rather
// than field references.
//
//globelint:wiresym fields=Message role=size exempt=Kind,NetSeq,Client,Store,Write,GlobalSeq,Stamp,ReadDep,WallNanos,Status,leased,wire,page
func wireSize(m *Message) int {
	n := 2 // version, kind
	n += 2 + strLen(string(m.Object))
	n += 2 + strLen(m.From)
	n += 2 + strLen(m.To)
	n += 8     // NetSeq
	n += 4 + 4 // Client, Store
	n += 4 + 8 // Write
	n += 8     // GlobalSeq
	n += 8 + 4 // Stamp
	n += 2 + 12*m.VVec.Len()
	n += 2 + 12*m.Deps.Len()
	n += 4 + 8 + 4 // ReadDep
	n += invSize(&m.Inv)
	n += 4 + len(m.Payload)
	n += 2
	for _, p := range capPages(m.Pages) {
		n += 2 + strLen(p)
	}
	n += 8 // WallNanos
	n += 1 // Status
	n += 2 + strLen(m.Err)
	n += 2 + strLen(m.Sem)
	n += 2
	for i := range capBatch(m.Batch) {
		e := &m.Batch[i]
		n += 4 + 8 // Write
		n += 8     // GlobalSeq
		n += 8 + 4 // Stamp
		n += 2 + 12*e.Deps.Len()
		n += invSize(&e.Inv)
		n += 8 // WallNanos
	}
	return n
}

func invSize(inv *Invocation) int {
	return 2 + 2 + strLen(inv.Page) + 4 + len(inv.Args)
}

func strLen(s string) int {
	if len(s) > math.MaxUint16 {
		return math.MaxUint16
	}
	return len(s)
}

// capPages bounds the page list to the u16 count the frame can carry.
func capPages(pages []string) []string {
	if len(pages) > math.MaxUint16 {
		return pages[:math.MaxUint16]
	}
	return pages
}

// MaxBatch is the largest number of entries one KindUpdateBatch frame can
// carry (u16 count on the wire). Senders must split larger flushes across
// frames; capBatch below is a last-resort guard, not a splitting mechanism.
const MaxBatch = math.MaxUint16

// capBatch bounds the batch to the u16 count the frame can carry.
func capBatch(batch []BatchUpdate) []BatchUpdate {
	if len(batch) > MaxBatch {
		return batch[:MaxBatch]
	}
	return batch
}

// AppendEncode serialises m onto dst and returns the extended slice. Callers
// that know the target buffer (pooled or pre-sized) avoid every intermediate
// allocation; Encode and EncodePooled are both built on it.
//
//globelint:wiresym fields=Message role=encode exempt=leased,wire,page
func AppendEncode(dst []byte, m *Message) []byte {
	if EncodeHook != nil {
		EncodeHook(m)
	}
	w := writer{buf: dst}
	w.u8(wireVersion)
	w.u8(uint8(m.Kind))
	w.str(string(m.Object))
	w.str(m.From)
	w.str(m.To)
	w.u64(m.NetSeq)
	w.u32(uint32(m.Client))
	w.u32(uint32(m.Store))
	w.u32(uint32(m.Write.Client))
	w.u64(m.Write.Seq)
	w.u64(m.GlobalSeq)
	w.u64(m.Stamp.Time)
	w.u32(uint32(m.Stamp.Client))
	w.vecV(&m.VVec)
	w.vecV(m.Deps)
	w.u32(uint32(m.ReadDep.Write.Client))
	w.u64(m.ReadDep.Write.Seq)
	w.u32(uint32(m.ReadDep.Store))
	w.inv(&m.Inv)
	w.bytes(m.Payload)
	pages := capPages(m.Pages)
	w.u16(uint16(len(pages)))
	for _, p := range pages {
		w.str(p)
	}
	w.u64(uint64(m.WallNanos))
	w.u8(uint8(m.Status))
	w.str(m.Err)
	w.str(m.Sem)
	batch := capBatch(m.Batch)
	w.u16(uint16(len(batch)))
	for i := range batch {
		e := &batch[i]
		w.u32(uint32(e.Write.Client))
		w.u64(e.Write.Seq)
		w.u64(e.GlobalSeq)
		w.u64(e.Stamp.Time)
		w.u32(uint32(e.Stamp.Client))
		w.vecV(e.Deps)
		w.inv(&e.Inv)
		w.u64(uint64(e.WallNanos))
	}
	return w.buf
}

// Encode serialises m into a fresh exact-size buffer: one allocation per
// frame.
func Encode(m *Message) []byte {
	return AppendEncode(make([]byte, 0, wireSize(m)), m)
}

// Decode parses a wire message produced by Encode. Variable-length content
// (Args, Payload) is copied out of b, so the caller may reuse b afterwards.
func Decode(b []byte) (*Message, error) {
	return decode(b, false)
}

// DecodeAlias parses like Decode but aliases b for Args and Payload instead
// of copying. It is safe only when the frame is immutable for the lifetime
// of the message. The transports decode with DecodeLeased instead, whose
// lease says when that lifetime ends.
func DecodeAlias(b []byte) (*Message, error) {
	return decode(b, true)
}

func decode(b []byte, alias bool) (*Message, error) {
	m := &Message{}
	if err := decodeInto(m, b, alias); err != nil {
		return nil, err
	}
	return m, nil
}

// decodeInto parses frame b into m, which must be zero. On error m holds a
// partial decode.
//
//globelint:wiresym fields=Message role=decode exempt=leased,wire
func decodeInto(m *Message, b []byte, alias bool) error {
	r := reader{buf: b, alias: alias}
	v, err := r.u8()
	if err != nil {
		return err
	}
	if v != wireVersion {
		return fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	k, err := r.u8()
	if err != nil {
		return err
	}
	m.Kind = Kind(k)
	if !m.Kind.Valid() {
		return fmt.Errorf("%w: invalid kind %d", ErrShortMessage, k)
	}
	obj, err := r.str()
	if err != nil {
		return err
	}
	m.Object = ids.ObjectID(obj)
	if m.From, err = r.str(); err != nil {
		return err
	}
	if m.To, err = r.str(); err != nil {
		return err
	}
	if m.NetSeq, err = r.u64(); err != nil {
		return err
	}
	cl, err := r.u32()
	if err != nil {
		return err
	}
	m.Client = ids.ClientID(cl)
	st, err := r.u32()
	if err != nil {
		return err
	}
	m.Store = ids.StoreID(st)
	wc, err := r.u32()
	if err != nil {
		return err
	}
	ws, err := r.u64()
	if err != nil {
		return err
	}
	m.Write = ids.WiD{Client: ids.ClientID(wc), Seq: ws}
	if m.GlobalSeq, err = r.u64(); err != nil {
		return err
	}
	stime, err := r.u64()
	if err != nil {
		return err
	}
	sclient, err := r.u32()
	if err != nil {
		return err
	}
	m.Stamp = vclock.Stamp{Time: stime, Client: ids.ClientID(sclient)}
	if err := r.vecInto(&m.VVec); err != nil {
		return err
	}
	if m.Deps, err = r.vecPtr(); err != nil {
		return err
	}
	rdc, err := r.u32()
	if err != nil {
		return err
	}
	rds, err := r.u64()
	if err != nil {
		return err
	}
	rdst, err := r.u32()
	if err != nil {
		return err
	}
	m.ReadDep = ids.Dependency{
		Write: ids.WiD{Client: ids.ClientID(rdc), Seq: rds},
		Store: ids.StoreID(rdst),
	}
	if m.Inv.Method, err = r.u16(); err != nil {
		return err
	}
	if m.Inv.Page, err = r.str(); err != nil {
		return err
	}
	if m.Inv.Args, err = r.bytes(); err != nil {
		return err
	}
	if m.Payload, err = r.bytes(); err != nil {
		return err
	}
	np, err := r.u16()
	if err != nil {
		return err
	}
	if np > 0 {
		// One name goes in the message's own slot. A longer list is capped by
		// what the frame could hold, 2 bytes of length prefix per name, so a
		// corrupt count cannot amplify into a huge allocation.
		m.Pages = m.page[:0]
		if np > 1 {
			m.Pages = make([]string, 0, min(int(np), r.remaining()/2))
		}
		for range np {
			p, err := r.str()
			if err != nil {
				return err
			}
			m.Pages = append(m.Pages, p)
		}
	}
	wn, err := r.u64()
	if err != nil {
		return err
	}
	m.WallNanos = int64(wn)
	sb, err := r.u8()
	if err != nil {
		return err
	}
	m.Status = Status(sb)
	if m.Err, err = r.str(); err != nil {
		return err
	}
	if m.Sem, err = r.str(); err != nil {
		return err
	}
	nb, err := r.u16()
	if err != nil {
		return err
	}
	if nb > 0 {
		// Don't let a corrupt count amplify into a huge allocation: every
		// entry occupies at least minBatchEntry wire bytes, so cap the
		// pre-allocation by what the remaining frame could actually hold
		// (a short frame then fails on the first missing entry).
		const minBatchEntry = 50
		capHint := int(nb)
		if max := r.remaining() / minBatchEntry; capHint > max {
			capHint = max
		}
		m.Batch = make([]BatchUpdate, 0, capHint)
		for i := 0; i < int(nb); i++ {
			m.Batch = append(m.Batch, BatchUpdate{})
			e := &m.Batch[len(m.Batch)-1]
			bc, err := r.u32()
			if err != nil {
				return err
			}
			if e.Write.Seq, err = r.u64(); err != nil {
				return err
			}
			e.Write.Client = ids.ClientID(bc)
			if e.GlobalSeq, err = r.u64(); err != nil {
				return err
			}
			bst, err := r.u64()
			if err != nil {
				return err
			}
			bsc, err := r.u32()
			if err != nil {
				return err
			}
			e.Stamp = vclock.Stamp{Time: bst, Client: ids.ClientID(bsc)}
			if e.Deps, err = r.vecPtr(); err != nil {
				return err
			}
			if e.Inv.Method, err = r.u16(); err != nil {
				return err
			}
			if e.Inv.Page, err = r.str(); err != nil {
				return err
			}
			if e.Inv.Args, err = r.bytes(); err != nil {
				return err
			}
			bwn, err := r.u64()
			if err != nil {
				return err
			}
			e.WallNanos = int64(bwn)
		}
	}
	if !r.empty() {
		return fmt.Errorf("%w: %d trailing bytes", ErrShortMessage, r.remaining())
	}
	return nil
}
