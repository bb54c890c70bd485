package coherence

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ids"
	"repro/internal/msg"
)

// refCausal is the causal engine as it stood before Causal became a DepGuard
// over PRAM, kept as the reference the composition must match: one buffer
// for every undeliverable update, rescanned whole after each delivery.
type refCausal struct {
	appliedSet
	buffer []*Update
	out    []*Update
}

func (e *refCausal) Model() Model { return Causal }

func (e *refCausal) Submit(u *Update) []*Update {
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

// deliverable checks the causal delivery condition for u: D[c] == applied[c]+1
// for the writer c and D[j] <= applied[j] for every other client j.
func (e *refCausal) deliverable(u *Update) bool {
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

func (e *refCausal) drain(out []*Update) []*Update {
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

func (e *refCausal) Pending() int { return len(e.buffer) }

func (e *refCausal) Seed(s *State) {
	e.applied.Merge(&s.Applied)
	rest := e.buffer[:0]
	for _, u := range e.buffer {
		if u.Write.Seq > e.applied.Get(u.Write.Client) {
			rest = append(rest, u)
		}
	}
	e.buffer = rest
}

// causalMatchesReference builds a causal history from pick's choices and
// delivers it, shuffled and with duplicates, to both NewEngine(Causal) and
// refCausal, seeding both part way through. pick(n) returns a choice in
// [0, n).
//
// The history: 2–4 clients take turns to write; before a write the client
// may read, merging what another client has seen into its own dependency
// vector. The seed is what a state transfer carries: the applied vector of a
// third, reference, replica that took the history in another order and
// stopped at a random point. Such a vector is closed under Deps. One that is
// not could come from no causal replica, and on it the two engines differ
// in Pending() alone: the guard holds a duplicate of a seeded write until
// the write's dependencies are applied, where the reference drops it at once.
//
// Checked at every step: each write the engine releases comes in
// per-client order with its Deps applied first, and the engine has released
// everything the reference has. Until the seed both release the same set and
// (Pending() > 0) agrees. After it the engine may run ahead: a seed can
// cover the dependencies of buffered writes, and the guard forwards them with
// the next write it forwards, where the reference waits for a write it can
// deliver itself. So after the seed the engine holds nothing back unless the
// reference does too. A last write, from a client of its own and depending on
// nothing, drains both; then the applied vectors are equal and (Pending() >
// 0) agrees. The first difference is returned.
func causalMatchesReference(pick func(n int) int, steps int) error {
	clients := 2 + pick(3)
	seen := make([]msg.Vec, clients+1)
	seqs := make([]uint64, clients+1)
	var history []*Update
	for i := 0; i < steps; i++ {
		c := 1 + pick(clients)
		if pick(2) == 0 {
			seen[c].Merge(&seen[1+pick(clients)])
		}
		seqs[c]++
		history = append(history, causalUpd(ids.ClientID(c), seqs[c], seen[c].Clone()))
		seen[c].Set(ids.ClientID(c), seqs[c])
	}
	shuffle := func(us []*Update) {
		for i := len(us) - 1; i > 0; i-- {
			j := pick(i + 1)
			us[i], us[j] = us[j], us[i]
		}
	}

	third := &refCausal{}
	other := append([]*Update(nil), history...)
	shuffle(other)
	for _, u := range other[:pick(len(other)+1)] {
		third.Submit(u)
	}
	seed := third.State()

	delivery := append([]*Update(nil), history...)
	for n := pick(len(history) + 1); n > 0; n-- {
		delivery = append(delivery, history[pick(len(history))])
	}
	shuffle(delivery)
	seedAt := pick(len(delivery) + 1)
	delivery = append(delivery, causalUpd(ids.ClientID(clients+1), 1, msg.Vec{}))

	e, err := NewEngine(Causal)
	if err != nil {
		return err
	}
	ref := &refCausal{}
	var have msg.Vec // what the engine under test has released, plus the seed
	for i, u := range delivery {
		seeded := i >= seedAt
		if i == seedAt {
			e.Seed(seed)
			ref.Seed(seed)
			have.Merge(&seed.Applied)
		}
		want := map[ids.WiD]bool{}
		for _, r := range ref.Submit(u) {
			want[r.Write] = true
		}
		for _, r := range e.Submit(u) {
			if r.Write.Seq != have.Get(r.Write.Client)+1 {
				return fmt.Errorf("step %d (%v): released %v after %v, out of per-client order", i, u.Write, r.Write, have)
			}
			if !have.Covers(depsBut(r)) {
				return fmt.Errorf("step %d (%v): released %v before its Deps %v", i, u.Write, r.Write, *r.Deps)
			}
			have.Set(r.Write.Client, r.Write.Seq)
			if !want[r.Write] && !seeded {
				return fmt.Errorf("step %d (%v): released %v, which the reference did not", i, u.Write, r.Write)
			}
		}
		if a := ref.Applied(); !have.Covers(&a) {
			return fmt.Errorf("step %d (%v): released %v, reference %v", i, u.Write, have, a)
		}
		pending, refPending := e.Pending() > 0, ref.Pending() > 0
		if pending != refPending && (!seeded || pending) {
			return fmt.Errorf("step %d (%v): Pending() = %d, reference %d", i, u.Write, e.Pending(), ref.Pending())
		}
	}
	if got, want := e.Applied(), ref.Applied(); !got.Equal(&want) {
		return fmt.Errorf("applied %v, reference %v", got, want)
	}
	if (e.Pending() > 0) != (ref.Pending() > 0) {
		return fmt.Errorf("Pending() = %d at the end, reference %d", e.Pending(), ref.Pending())
	}
	return nil
}

// depsBut is r's Deps without the writer's own component.
func depsBut(r *Update) *msg.Vec {
	d := r.Deps.Clone()
	d.Set(r.Write.Client, 0)
	return &d
}

// The Causal model is a DepGuard over PRAM, and releases what the causal
// engine it replaced released, step by step, or, after a seed, sooner.
func TestCausalIsDepGuardOverPRAM(t *testing.T) {
	e, err := NewEngine(Causal)
	if err != nil {
		t.Fatal(err)
	}
	if g, ok := e.(*DepGuard); !ok || g.Model() != Causal {
		t.Fatalf("NewEngine(Causal) = %T reporting %v, want *DepGuard reporting causal", e, e.Model())
	}
	if _, ok := e.(*DepGuard).inner.(*pramEngine); !ok {
		t.Fatalf("causal guard wraps %T, want *pramEngine", e.(*DepGuard).inner)
	}
	for seed := int64(1); seed <= 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		if err := causalMatchesReference(rng.Intn, 1+rng.Intn(30)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// FuzzCausalMatchesReference lets the fuzzer choose the clients, the reads,
// the delivery order, the duplicates and the seed point.
func FuzzCausalMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 1, 1, 0, 2, 1, 0, 2, 0, 0, 1, 3, 5, 2, 7, 1, 1, 4})
	f.Add([]byte{2, 3, 0, 0, 1, 1, 2, 0, 3, 1, 1, 0, 2, 2, 9, 4, 8, 6, 3, 1, 0, 5, 2, 7, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		pick := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		}
		if err := causalMatchesReference(pick, min(len(data)/4, 64)); err != nil {
			t.Fatal(err)
		}
	})
}
