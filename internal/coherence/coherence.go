// Package coherence implements the coherence models of §3.2 of the paper.
//
// Object-based models (§3.2.1) are realised as ordering engines: a store
// feeds every arriving write (local or remote) to its engine, which decides
// whether the write is applicable now, must be buffered until its
// predecessors arrive, or must be dropped (FIFO supersession, eventual LWW).
// The four engines — sequential, PRAM, FIFO, eventual — and DepGuard, which
// holds a write until its dependencies are applied, share one interface so
// replication objects can host any model, which is exactly the paper's
// "standard interfaces for all replication objects" requirement. Causal is
// DepGuard over PRAM: per-client order plus applied dependencies. Clients
// accumulate their dependency vectors from the stores they read (see
// Session), which realises the paper's Web-forum example: a reaction is
// applied only after the message that triggered it.
//
// Client-based models (§3.2.2) — Read Your Writes, Monotonic Reads,
// client-PRAM (Monotonic Writes), client-causal (Writes Follow Reads) — are
// realised by Session, the client-side tracker that computes the requirement
// vector attached to reads and the dependency vector attached to writes, and
// by DepGuard, the store-side engine wrapper that enforces write
// dependencies on top of models too weak to order them.
//
//globelint:deterministic
package coherence

import (
	"fmt"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/vclock"
)

// Model enumerates the object-based coherence models of §3.2.1.
type Model int

// Object-based coherence models, strongest first.
const (
	Sequential Model = iota + 1
	PRAM
	FIFO
	Causal
	Eventual
)

var modelNames = [...]string{Sequential: "sequential", PRAM: "pram", FIFO: "fifo", Causal: "causal", Eventual: "eventual"}

// String names the model.
func (m Model) String() string { return enumName(modelNames[:], int(m), "Model") }

// ClientModel enumerates the client-based coherence models of §3.2.2.
type ClientModel int

// Client-based coherence models and their Bayou session-guarantee
// equivalents.
const (
	ReadYourWrites    ClientModel = iota + 1 // Bayou: Read Your Writes
	MonotonicReads                           // Bayou: Monotonic Reads
	MonotonicWrites                          // client-PRAM
	WritesFollowReads                        // client-causal
)

var clientModelNames = [...]string{
	ReadYourWrites: "read-your-writes", MonotonicReads: "monotonic-reads",
	MonotonicWrites: "monotonic-writes", WritesFollowReads: "writes-follow-reads",
}

// String names the client model.
func (m ClientModel) String() string { return enumName(clientModelNames[:], int(m), "ClientModel") }

// enumName is names[i], or kind(i) for a value names does not hold.
func enumName(names []string, i int, kind string) string {
	if i > 0 && i < len(names) {
		return names[i]
	}
	return fmt.Sprintf("%s(%d)", kind, i)
}

// Update is one write operation as seen by an ordering engine: the
// marshalled invocation plus all replication metadata. Engines never look
// inside Inv.Args.
type Update struct {
	// Write identifies the update: (client, per-client sequence).
	Write ids.WiD
	// GlobalSeq is the total-order position assigned by the permanent
	// store; meaningful only under the sequential model.
	GlobalSeq uint64
	// Deps is the causal/session dependency vector: the update may be
	// applied only at stores whose applied vector covers it. Nil when the
	// write carries none, which keeps Update in its size class; never
	// changed once the update is built.
	Deps *msg.Vec
	// Stamp is the Lamport stamp used by the eventual model's
	// last-writer-wins rule.
	Stamp vclock.Stamp
	// Inv is the marshalled write invocation.
	Inv msg.Invocation
	// WallNanos is the origin wall-clock time of the write (metrics only).
	WallNanos int64
}

// Engine orders updates at one store according to one object-based model.
// Implementations are not safe for concurrent use; the owning store
// serialises access (stores are single-event-loop actors).
type Engine interface {
	// Model identifies the engine's coherence model.
	Model() Model
	// Submit offers an update. It returns the updates that became
	// applicable, in application order: nil if the update was buffered,
	// dropped, or a duplicate; possibly several if it unblocked buffered
	// predecessors' successors. The slice is the engine's own and good
	// until the next Submit: the caller applies or copies it before then.
	Submit(u *Update) []*Update
	// Applied returns a copy of the version vector of writes applied so
	// far, the caller's to keep or change. Under FIFO and eventual models
	// the vector records the newest write per client (earlier ones may
	// have been superseded), which still upper-bounds what a session
	// guarantee can demand.
	Applied() msg.Vec
	// Covers reports whether the applied vector covers write w, without
	// copying the vector.
	Covers(w ids.WiD) bool
	// Pending reports how many updates are buffered awaiting predecessors.
	Pending() int
	// State returns the engine's state, the caller's to keep or change: the
	// applied vector, the sequencer position and, under the eventual model,
	// every page's winning stamp. A whole state a replica sends, and each WAL
	// snapshot it writes, carry it ahead of the content (State.Append).
	State() *State
	// Seed fast-forwards the engine past writes whose effects arrived inside
	// a whole state rather than as ordered updates: s is that state's engine
	// state. Updates the seed covers are treated as already applied, and
	// under the eventual model a seeded page stamp beats every older write to
	// its page, a tombstone's included.
	Seed(s *State)
}

// DepsOf is the Deps of an update whose frame carries dependency vector v: a
// copy of v, or nil when v is empty.
func DepsOf(v *msg.Vec) *msg.Vec {
	if v.Len() == 0 {
		return nil
	}
	d := v.Clone()
	return &d
}

// NewEngine constructs the ordering engine for a model.
func NewEngine(m Model) (Engine, error) {
	switch m {
	case Sequential:
		return newSequentialEngine(), nil
	case PRAM:
		return newPRAMEngine(), nil
	case FIFO:
		return newFIFOEngine(), nil
	case Causal:
		return &DepGuard{inner: newPRAMEngine(), model: Causal}, nil
	case Eventual:
		return newEventualEngine(), nil
	default:
		return nil, fmt.Errorf("coherence: unknown model %v", m)
	}
}

// Implies reports whether object-based model m makes client model c hold
// automatically for every client. The paper: "if the object offers
// sequential consistency, then it automatically offers every client-based
// model as well."
func (m Model) Implies(c ClientModel) bool {
	switch m {
	case Sequential:
		return true
	case PRAM, FIFO:
		// Per-client write order is preserved (FIFO by supersession), so a
		// client's own writes are monotonic; reads/mixed guarantees still
		// need session support.
		return c == MonotonicWrites
	case Causal:
		// Causal ordering covers write/write dependencies.
		return c == MonotonicWrites || c == WritesFollowReads
	default:
		return false
	}
}
