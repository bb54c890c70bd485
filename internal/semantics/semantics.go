// Package semantics defines the semantics-object abstraction of the Globe
// local-object composition: the part of a distributed shared Web object that
// actually holds document state and implements its methods.
//
// The paper requires that the replication and communication sub-objects
// never see semantics internals — they handle only marshalled invocations.
// The only semantic knowledge the framework needs is the read/write
// classification of each method (§3.1: "we distinguish only general read and
// write operations") and a way to transfer state, either whole (access /
// coherence transfer type "full") or per named element such as a single page
// ("partial").
package semantics

import (
	"errors"
	"fmt"

	"repro/internal/msg"
)

// MethodKind classifies a method as reading or mutating object state.
type MethodKind int

// Method kinds.
const (
	Read MethodKind = iota + 1
	Write
)

// String names the kind.
func (k MethodKind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("MethodKind(%d)", int(k))
	}
}

// MethodInfo describes one entry of a semantics object's method table.
type MethodInfo struct {
	ID   uint16
	Name string
	Kind MethodKind
}

// ErrUnknownMethod reports an invocation of a method not in the table.
var ErrUnknownMethod = errors.New("semantics: unknown method")

// MethodNoop is a reserved method ID (outside any semantics object's table)
// for a write that deliberately changes nothing. Client proxies issue it to
// seal a hole in their write sequence after an aborted write (see
// core.Proxy); it travels the full ordering/replication path like any write
// — filling the per-client gap at every replica — but the control object
// applies it without invoking the semantics object. The table classifies it
// as a write by the unknown-method rule, so no semantics object may claim
// the ID for a real method.
const MethodNoop uint16 = 0xFFFF

// ErrNoElement reports access to a missing element (page, key, ...).
var ErrNoElement = errors.New("semantics: no such element")

// Object is a semantics sub-object. Implementations must be safe for
// concurrent use: the control object may invoke reads concurrently with
// replicated writes.
//
// A read's result is appended to a buffer the caller supplies (AppendRead,
// AppendElement), so a replica can marshal every reply it sends into one
// buffer it reuses. Nothing the object returns aliases its state: a write
// never changes a result already handed out.
type Object interface {
	// Methods returns the object's method table.
	Methods() []MethodInfo
	// Invoke executes a marshalled invocation and returns the marshalled
	// result. A write's Args pass to the object, which may keep them as
	// state: the caller neither changes nor reuses them afterwards. A read
	// returns AppendRead(nil, inv), a result of the caller's own.
	Invoke(inv msg.Invocation) ([]byte, error)
	// AppendRead executes a read invocation and appends its marshalled
	// result to dst, returning the extended buffer. It knows only the read
	// methods: any other, a write included, is an ErrUnknownMethod error.
	AppendRead(dst []byte, inv msg.Invocation) ([]byte, error)

	// Snapshot returns the full marshalled state (transfer type "full").
	Snapshot() ([]byte, error)
	// Restore replaces the state from a Snapshot.
	Restore(data []byte) error

	// Elements lists the names of independently transferable state parts
	// (the pages of a Web document; transfer type "partial").
	Elements() []string
	// AppendElement appends the marshalled element to dst, returning the
	// extended buffer.
	AppendElement(dst []byte, name string) ([]byte, error)
	// RestoreElement replaces one element from AppendElement data.
	RestoreElement(name string, data []byte) error
	// RemoveElement deletes one element, as a delete write of it would; an
	// element that is not there is no error.
	RemoveElement(name string) error
}

// Factory creates a fresh, empty semantics object; stores use it to install
// new replicas of a distributed object.
type Factory func() Object

// Table is a precomputed method-table index used by control and replication
// objects to classify invocations without touching semantics internals.
type Table struct {
	byID map[uint16]MethodInfo
}

// NewTable indexes the method table of o.
func NewTable(o Object) *Table {
	ms := o.Methods()
	t := &Table{byID: make(map[uint16]MethodInfo, len(ms))}
	for _, m := range ms {
		t.byID[m.ID] = m
	}
	return t
}

// IsWrite reports whether method is a state-mutating method. Unknown
// methods are treated as writes (the conservative choice: they will be
// ordered and replicated rather than served from a possibly stale replica).
func (t *Table) IsWrite(method uint16) bool {
	m, ok := t.byID[method]
	if !ok {
		return true
	}
	return m.Kind == Write
}

// Lookup returns the method info and whether it exists.
func (t *Table) Lookup(method uint16) (MethodInfo, bool) {
	m, ok := t.byID[method]
	return m, ok
}
