package coherence

import (
	"slices"
	"strings"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/vclock"
)

// appliedSet is the applied vector every engine keeps, and the two ways the
// Engine interface reads it.
type appliedSet struct{ applied msg.Vec }

// Applied implements Engine: a copy the caller may keep or change.
func (a *appliedSet) Applied() msg.Vec { return a.applied.Clone() }

// Covers implements Engine: a direct lookup on the live vector, no copy.
func (a *appliedSet) Covers(w ids.WiD) bool { return a.applied.CoversWrite(w) }

// Pending implements Engine for the models that buffer nothing.
func (a *appliedSet) Pending() int { return 0 }

// State implements Engine for the models whose state is the vector alone.
func (a *appliedSet) State() *State { return &State{Applied: a.applied.Clone()} }

// pramEngine applies each client's writes in per-client sequence order,
// buffering out-of-order arrivals. This is exactly the protocol of §4.2:
// "the sequence number of the incoming update's WiD is compared to the
// [store's] version number (expected_write[client]). If they are equal,
// then all previous updates have been performed and the new update is
// performed as well. Otherwise, the update request is buffered and the
// store waits until the next one."
type pramEngine struct {
	appliedSet
	buffer map[ids.WiD]*Update
	// ready names buffered writes a Seed made next in line; the next
	// release releases them too.
	ready []ids.WiD
	out   []*Update // Submit's result, reused
}

func newPRAMEngine() *pramEngine {
	return &pramEngine{buffer: make(map[ids.WiD]*Update)}
}

func (e *pramEngine) Model() Model { return PRAM }

func (e *pramEngine) Submit(u *Update) []*Update {
	switch next := e.applied.Get(u.Write.Client) + 1; {
	case u.Write.Seq < next:
		return nil // duplicate or already superseded by contiguous apply
	case u.Write.Seq > next:
		e.buffer[u.Write] = u
		return nil
	}
	e.out = e.out[:0]
	e.release(u)
	for _, w := range e.ready {
		if r := e.buffer[w]; r != nil {
			e.release(r)
		}
	}
	e.ready = e.ready[:0]
	return e.out
}

// release hands out u, then walks its client's buffered writes from u's
// successor on, handing out each until the first gap.
func (e *pramEngine) release(u *Update) {
	for w := u.Write; u != nil; u = e.buffer[w] {
		delete(e.buffer, w)
		e.applied.Set(w.Client, w.Seq)
		e.out = append(e.out, u)
		w.Seq++
	}
}

func (e *pramEngine) Pending() int { return len(e.buffer) }

// fifoEngine is the paper's FIFO optimisation of PRAM: "a write request
// from a client is honored if it is more recent than the latest write from
// that same client. Otherwise, the request is simply ignored." Later writes
// supersede missing intermediates, so nothing is ever buffered — suited to
// clients that overwrite a document rather than update it incrementally.
type fifoEngine struct {
	appliedSet
	out [1]*Update // Submit's result, reused
}

func newFIFOEngine() *fifoEngine { return &fifoEngine{} }

func (e *fifoEngine) Model() Model { return FIFO }

func (e *fifoEngine) Submit(u *Update) []*Update {
	if u.Write.Seq <= e.applied.Get(u.Write.Client) {
		return nil // stale: superseded by a newer write from the same client
	}
	e.applied.Set(u.Write.Client, u.Write.Seq)
	e.out[0] = u
	return e.out[:]
}

// sequentialEngine applies updates in the single total order chosen by the
// object's permanent store (which assigns GlobalSeq when it first accepts
// the write). Every replica applies the identical sequence, giving
// Lamport's sequential consistency; gaps are buffered.
type sequentialEngine struct {
	appliedSet
	nextGlobal uint64 // next expected GlobalSeq (starts at 1)
	buffer     map[uint64]*Update
	out        []*Update // Submit's result, reused
}

func newSequentialEngine() *sequentialEngine {
	return &sequentialEngine{
		nextGlobal: 1,
		buffer:     make(map[uint64]*Update),
	}
}

func (e *sequentialEngine) Model() Model { return Sequential }

func (e *sequentialEngine) Submit(u *Update) []*Update {
	switch {
	case u.GlobalSeq == 0:
		return nil // unsequenced update: a bug upstream; refuse silently
	case u.GlobalSeq < e.nextGlobal:
		return nil // duplicate
	case u.GlobalSeq > e.nextGlobal:
		e.buffer[u.GlobalSeq] = u
		return nil
	}
	// Release u, then walk the buffer from its successor on. Each released
	// key is deleted, u's own too: a Seed can move nextGlobal onto a write
	// still buffered, and its redelivery is what releases it.
	e.out = e.out[:0]
	for ; u != nil; u = e.buffer[e.nextGlobal] {
		delete(e.buffer, u.GlobalSeq)
		e.nextGlobal = u.GlobalSeq + 1
		e.applied.Bump(u.Write.Client, u.Write.Seq)
		e.out = append(e.out, u)
	}
	return e.out
}

func (e *sequentialEngine) Pending() int { return len(e.buffer) }

// eventualEngine is the weakest model: updates are applied immediately with
// no ordering constraint beyond convergence, implemented as per-element
// last-writer-wins on the (Lamport stamp, client) total order. Replicas that
// receive the same update set in any order converge to identical state.
type eventualEngine struct {
	appliedSet
	// stamps records the winning stamp per element (invocation page).
	stamps map[string]vclock.Stamp
	out    [1]*Update // Submit's result, reused
}

func newEventualEngine() *eventualEngine {
	return &eventualEngine{stamps: make(map[string]vclock.Stamp)}
}

func (e *eventualEngine) Model() Model { return Eventual }

func (e *eventualEngine) Submit(u *Update) []*Update {
	// Track the newest write seen per client regardless of LWW outcome, so
	// session guarantees can be answered.
	if u.Write.Seq <= e.applied.Get(u.Write.Client) && !e.newerStamp(u) {
		return nil // duplicate (gossip redelivery)
	}
	e.applied.Bump(u.Write.Client, u.Write.Seq)
	if !e.newerStamp(u) {
		return nil // lost the LWW race for this element
	}
	e.stamps[u.Inv.Page] = u.Stamp
	e.out[0] = u
	return e.out[:]
}

// newerStamp reports whether u's stamp beats the current winner for its
// element.
func (e *eventualEngine) newerStamp(u *Update) bool {
	cur, ok := e.stamps[u.Inv.Page]
	if !ok {
		return true
	}
	return cur.Less(u.Stamp)
}

// --- state-transfer seeding ---------------------------------------------------

// Seed implements Engine: contiguous models merge the vector (state covers
// every write up to it) and drop buffered updates the seed covers.
// A buffered write the seed makes next in line waits in ready for the next
// release: releasing it here would bypass the caller's apply path.
func (e *pramEngine) Seed(s *State) {
	s.Applied.Each(func(c ids.ClientID, seq uint64) bool {
		if w := (ids.WiD{Client: c, Seq: seq + 1}); seq > e.applied.Get(c) && e.buffer[w] != nil {
			e.ready = append(e.ready, w)
		}
		return true
	})
	e.applied.Merge(&s.Applied)
	for w := range e.buffer {
		if e.applied.CoversWrite(w) {
			delete(e.buffer, w)
		}
	}
}

// Seed implements Engine.
func (e *fifoEngine) Seed(s *State) { e.applied.Merge(&s.Applied) }

// State implements Engine: the vector and the sequencer position.
func (e *sequentialEngine) State() *State {
	s := e.appliedSet.State()
	s.Global = e.nextGlobal
	return s
}

// Seed implements Engine: fast-forward both the applied vector and the
// total-order position.
func (e *sequentialEngine) Seed(s *State) {
	e.applied.Merge(&s.Applied)
	e.nextGlobal = max(e.nextGlobal, s.Global)
	for g := range e.buffer {
		if g < e.nextGlobal {
			delete(e.buffer, g)
		}
	}
}

// State implements Engine: the vector and every page's winning stamp, in
// page order.
func (e *eventualEngine) State() *State {
	s := e.appliedSet.State()
	for page, st := range e.stamps {
		s.Stamps = append(s.Stamps, PageStamp{Page: page, Stamp: st})
	}
	slices.SortFunc(s.Stamps, func(x, y PageStamp) int { return strings.Compare(x.Page, y.Page) })
	return s
}

// Seed implements Engine: the vector merges, and each page keeps the newer
// of its own stamp and the seed's, so a late duplicate of a write the state
// already beat loses here too.
func (e *eventualEngine) Seed(s *State) {
	e.applied.Merge(&s.Applied)
	for _, p := range s.Stamps {
		if cur, ok := e.stamps[p.Page]; !ok || cur.Less(p.Stamp) {
			e.stamps[p.Page] = p.Stamp
		}
	}
}
