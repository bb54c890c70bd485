package coherence

import (
	"sync"

	"repro/internal/ids"
	"repro/internal/msg"
)

// Session is the client-side state for the client-based coherence models of
// §3.2.2. It tracks the client's own writes and the store state it has
// observed, and derives (a) the requirement vector a read must attach so the
// serving store can check — and enforce — the enabled guarantees, and (b)
// the dependency vector a write must carry. Safe for concurrent use.
type Session struct {
	mu     sync.Mutex
	client ids.ClientID
	models map[ClientModel]bool

	// seq is the client's write counter; WiDs are (client, seq).
	seq uint64
	// lastWrite is the paper's RYW dependency: the last write's WiD and the
	// store it was performed on.
	lastWrite ids.Dependency
	// readVec is the merged applied vector of every store state this client
	// has read: a read's requirement under Monotonic Reads and a write's
	// dependencies under Writes Follow Reads. The client's own entry in it
	// is never consulted for a write: the engines and DepGuard order a
	// writer's own writes themselves.
	readVec msg.Vec
	// holes records sequence numbers of aborted writes that could NOT be
	// rolled back (a newer allocation already existed): permanent gaps in
	// the client's write order until sealed. Under ordered models such a
	// gap stalls every later write at the stores, so the proxy must seal
	// each hole (a no-op write under the hole's WiD) before issuing new
	// writes. Nil until the first unrollbackable abort.
	holes map[uint64]bool
}

// NewSession creates a session for client c with the given client-based
// models enabled.
func NewSession(c ids.ClientID, models ...ClientModel) *Session {
	s := &Session{client: c, models: make(map[ClientModel]bool, len(models))}
	for _, m := range models {
		s.models[m] = true
	}
	return s
}

// Client returns the session's client ID.
func (s *Session) Client() ids.ClientID { return s.client }

// SeedSeq advances the write counter to at least seq. Binds call it with
// the store's applied sequence for this client, so a returning client (a
// new process reusing a persistent client identity) resumes after its last
// acknowledged write instead of re-issuing WiDs the deployment has already
// applied — which would be silently deduplicated as replays.
func (s *Session) SeedSeq(seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq > s.seq {
		s.seq = seq
	}
}

// NextWrite allocates the next write identifier and returns it together
// with the dependency vector the write must carry: under Writes Follow
// Reads, everything the client has read; under Monotonic Writes, the
// client's own previous write. The causal object model composes both
// automatically; for weaker models a DepGuard at the store enforces them.
func (s *Session) NextWrite() (ids.WiD, *msg.Vec) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	// A rolled-back abort can shrink the counter below a recorded hole; if
	// this allocation lands on one, the new write itself fills the gap.
	delete(s.holes, s.seq)
	w := ids.WiD{Client: s.client, Seq: s.seq}
	return w, s.depsForLocked(s.seq)
}

// depsForLocked builds the dependency vector a write with sequence seq must
// carry under the enabled models: nil when none asks for one, so a write
// under RYW or MR alone allocates no vector. Callers hold s.mu.
func (s *Session) depsForLocked(seq uint64) *msg.Vec {
	wfr := s.models[WritesFollowReads]
	own := seq > 1 && (wfr || s.models[MonotonicWrites])
	if !own && (!wfr || s.readVec.Len() == 0) {
		return nil
	}
	deps := new(msg.Vec)
	if wfr {
		*deps = s.readVec.Clone()
	}
	if own {
		deps.Set(s.client, seq-1)
	}
	return deps
}

// AbortWrite rolls back the sequence counter after a failed write call, so
// the client's next write does not leave a permanent gap in per-client
// ordering. Only the most recent allocation can be aborted.
//
// A timed-out write's true outcome is unknown — the request or only its ack
// may have been lost. Rolling back means the next write REUSES the WiD; the
// stores resolve the ambiguity with at-most-once admission: if the original
// was applied, the reissued WiD is re-acked without applying. The caller's
// side of that contract is to retry the SAME invocation after a timeout
// before issuing different writes (retrying different content under a
// reused WiD is silently deduplicated, exactly like rebinding a reused
// client identity at a lagging replica — see webobj.AsClient).
//
// When the failed write is NOT the most recent allocation — a concurrent
// writer on the same shared handle already allocated a later sequence — the
// counter cannot move, so the abandoned sequence number is recorded as a
// hole instead. Under ordered models that hole would stall every subsequent
// write from this client forever (stores buffer writes until the
// predecessor arrives); the proxy seals recorded holes with no-op writes
// before its next write departs (see Holes/SealWrite/SealDone).
func (s *Session) AbortWrite(w ids.WiD) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if w.Client != s.client {
		return
	}
	if w.Seq == s.seq {
		s.seq--
		return
	}
	if w.Seq < s.seq {
		if s.holes == nil {
			s.holes = make(map[uint64]bool)
		}
		s.holes[w.Seq] = true
	}
}

// Holes returns the recorded write-sequence gaps in ascending order (nil
// when the client's write history is contiguous).
func (s *Session) Holes() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.holes) == 0 {
		return nil
	}
	hs := make([]uint64, 0, len(s.holes))
	for h := range s.holes {
		hs = append(hs, h)
	}
	for i := 1; i < len(hs); i++ { // insertion sort; hole counts are tiny
		for j := i; j > 0 && hs[j] < hs[j-1]; j-- {
			hs[j], hs[j-1] = hs[j-1], hs[j]
		}
	}
	return hs
}

// SealWrite returns the write identifier and dependency vector for a no-op
// write that seals the recorded hole at seq. It does not touch the write
// counter: the hole's number is already allocated.
func (s *Session) SealWrite(seq uint64) (ids.WiD, *msg.Vec) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ids.WiD{Client: s.client, Seq: seq}, s.depsForLocked(seq)
}

// SealDone removes a hole once its seal write has been acknowledged.
func (s *Session) SealDone(seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.holes, seq)
}

// WriteDone records a successfully acknowledged write performed at store st.
func (s *Session) WriteDone(w ids.WiD, st ids.StoreID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastWrite = ids.Dependency{Write: w, Store: st}
}

// ReadRequirementVec returns the requirement vector and RYW dependency a read
// must attach: under Read Your Writes, the client's own last write; under
// Monotonic Reads, everything previously read. An empty vector means the
// read is unconstrained. The vector is built in wire form, so the read path
// allocates nothing for it while it fits msg.VecInline.
func (s *Session) ReadRequirementVec() (msg.Vec, ids.Dependency) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var req msg.Vec
	var dep ids.Dependency
	if s.models[ReadYourWrites] && !s.lastWrite.Zero() {
		req.Set(s.lastWrite.Write.Client, s.lastWrite.Write.Seq)
		dep = s.lastWrite
	}
	if s.models[MonotonicReads] {
		req.Merge(&s.readVec)
	}
	return req, dep
}

// ReadRequirement is ReadRequirementVec with the vector as a map.
//
// Deprecated: bench/ladder.go only; goes with the ROADMAP item "The
// benchmark PR, part 1".
func (s *Session) ReadRequirement() (map[ids.ClientID]uint64, ids.Dependency) {
	req, dep := s.ReadRequirementVec()
	out := make(map[ids.ClientID]uint64, req.Len())
	req.Each(func(c ids.ClientID, q uint64) bool {
		out[c] = q
		return true
	})
	return out, dep
}

// ReadDone folds the applied vector returned by the serving store into the
// session's read state.
func (s *Session) ReadDone(storeApplied msg.Vec) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.readVec.Merge(&storeApplied)
}

// Seq returns the number of writes issued so far.
func (s *Session) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}
