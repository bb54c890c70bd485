package coherence

import (
	"sort"

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
	out    []*Update // Submit's result, reused
}

func newPRAMEngine() *pramEngine {
	return &pramEngine{buffer: make(map[ids.WiD]*Update)}
}

func (e *pramEngine) Model() Model { return PRAM }

func (e *pramEngine) Submit(u *Update) []*Update {
	c := u.Write.Client
	switch {
	case u.Write.Seq <= e.applied.Get(c):
		return nil // duplicate or already superseded by contiguous apply
	case u.Write.Seq == e.applied.Get(c)+1:
		e.applied.Set(c, u.Write.Seq)
		e.out = e.drain(append(e.out[:0], u))
		return e.out
	default:
		e.buffer[u.Write] = u
		return nil
	}
}

// drain appends to out the buffered updates that have become contiguous,
// repeatedly.
func (e *pramEngine) drain(out []*Update) []*Update {
	first := len(out)
	for progress := true; progress; {
		progress = false
		for w, u := range e.buffer {
			if w.Seq == e.applied.Get(w.Client)+1 {
				e.applied.Set(w.Client, w.Seq)
				delete(e.buffer, w)
				out = append(out, u)
				progress = true
			}
		}
	}
	// Map iteration above is nondeterministic across clients (legal: PRAM
	// orders only per-client), but tests want stable output: sort released
	// updates by (client, seq) — per-client order is preserved by Seq.
	if drained := out[first:]; len(drained) > 1 {
		sort.Slice(drained, func(i, j int) bool { return drained[i].Write.Less(drained[j].Write) })
	}
	return out
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

func (e *fifoEngine) Pending() int { return 0 }

// causalEngine delivers updates respecting happens-before: an update from
// client c with dependency vector D is applicable when D[c] == applied[c]+1
// and D[j] <= applied[j] for every other client j (the standard causal
// broadcast condition). Clients accumulate their dependency vectors from
// the stores they read (see Session), which realises the paper's Web-forum
// example: a reaction is applied only after the message that triggered it.
type causalEngine struct {
	appliedSet
	buffer []*Update
	out    []*Update // Submit's result, reused
}

func newCausalEngine() *causalEngine { return &causalEngine{} }

func (e *causalEngine) Model() Model { return Causal }

func (e *causalEngine) Submit(u *Update) []*Update {
	if u.Write.Seq <= e.applied.Get(u.Write.Client) {
		return nil // duplicate
	}
	if !e.deliverable(u) {
		e.buffer = append(e.buffer, u)
		return nil
	}
	e.applied.Set(u.Write.Client, u.Write.Seq)
	e.out = e.drain(append(e.out[:0], u))
	return e.out
}

// deliverable checks the causal delivery condition for u.
func (e *causalEngine) deliverable(u *Update) bool {
	c := u.Write.Client
	if u.Write.Seq != e.applied.Get(c)+1 {
		return false
	}
	ok := true
	u.Deps.Each(func(j ids.ClientID, s uint64) bool {
		ok = j == c || e.applied.Get(j) >= s
		return ok
	})
	return ok
}

// drain appends to out the buffered updates that have become deliverable.
func (e *causalEngine) drain(out []*Update) []*Update {
	for progress := true; progress; {
		progress = false
		rest := e.buffer[:0]
		for _, u := range e.buffer {
			switch {
			case u.Write.Seq <= e.applied.Get(u.Write.Client):
				progress = true // duplicate flushed
			case e.deliverable(u):
				e.applied.Set(u.Write.Client, u.Write.Seq)
				out = append(out, u)
				progress = true
			default:
				rest = append(rest, u)
			}
		}
		e.buffer = rest
	}
	return out
}

func (e *causalEngine) Pending() int { return len(e.buffer) }

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
	e.out = append(e.out[:0], u)
	e.apply(u)
	for {
		nxt, ok := e.buffer[e.nextGlobal]
		if !ok {
			break
		}
		delete(e.buffer, e.nextGlobal)
		e.apply(nxt)
		e.out = append(e.out, nxt)
	}
	return e.out
}

func (e *sequentialEngine) apply(u *Update) {
	e.nextGlobal = u.GlobalSeq + 1
	e.applied.Bump(u.Write.Client, u.Write.Seq)
}

func (e *sequentialEngine) Pending() int { return len(e.buffer) }

// NextGlobal exposes the sequencer position; the permanent store's
// replication object uses it to assign GlobalSeq to fresh writes.
func (e *sequentialEngine) NextGlobal() uint64 { return e.nextGlobal }

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

func (e *eventualEngine) Pending() int { return 0 }

// Stamps returns a copy of the per-element winning stamps (used by
// anti-entropy digests).
func (e *eventualEngine) Stamps() map[string]vclock.Stamp {
	out := make(map[string]vclock.Stamp, len(e.stamps))
	for k, v := range e.stamps {
		out[k] = v
	}
	return out
}

// --- state-transfer seeding ---------------------------------------------------

// Seed implements Engine: contiguous models merge the vector (state covers
// every write up to it) and drop buffered updates the seed covers.
func (e *pramEngine) Seed(v *msg.Vec, _ uint64) {
	e.applied.Merge(v)
	for w := range e.buffer {
		if e.applied.CoversWrite(w) {
			delete(e.buffer, w)
		}
	}
}

// Global implements Engine.
func (e *pramEngine) Global() uint64 { return 0 }

// Seed implements Engine.
func (e *fifoEngine) Seed(v *msg.Vec, _ uint64) { e.applied.Merge(v) }

// Global implements Engine.
func (e *fifoEngine) Global() uint64 { return 0 }

// Seed implements Engine.
func (e *causalEngine) Seed(v *msg.Vec, _ uint64) {
	e.applied.Merge(v)
	rest := e.buffer[:0]
	for _, u := range e.buffer {
		if u.Write.Seq > e.applied.Get(u.Write.Client) {
			rest = append(rest, u)
		}
	}
	e.buffer = rest
}

// Global implements Engine.
func (e *causalEngine) Global() uint64 { return 0 }

// Seed implements Engine: fast-forward both the applied vector and the
// total-order position.
func (e *sequentialEngine) Seed(v *msg.Vec, global uint64) {
	e.applied.Merge(v)
	if global > e.nextGlobal {
		e.nextGlobal = global
	}
	for g := range e.buffer {
		if g < e.nextGlobal {
			delete(e.buffer, g)
		}
	}
}

// Global implements Engine.
func (e *sequentialEngine) Global() uint64 { return e.nextGlobal }

// Seed implements Engine. Snapshot state is authoritative for its vector;
// per-element stamps are unknown, so LWW continues from the stamps seen in
// subsequent updates.
func (e *eventualEngine) Seed(v *msg.Vec, _ uint64) { e.applied.Merge(v) }

// Global implements Engine.
func (e *eventualEngine) Global() uint64 { return 0 }
