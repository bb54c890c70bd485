package coherence

import (
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/vclock"
)

func upd(c ids.ClientID, seq uint64) *Update {
	return &Update{
		Write: ids.WiD{Client: c, Seq: seq},
		Inv:   msg.Invocation{Method: 1, Page: "p"},
	}
}

func collectWiDs(us []*Update) []ids.WiD {
	out := make([]ids.WiD, len(us))
	for i, u := range us {
		out[i] = u.Write
	}
	return out
}

func TestNewEngineAllModels(t *testing.T) {
	for _, m := range []Model{Sequential, PRAM, FIFO, Causal, Eventual} {
		e, err := NewEngine(m)
		if err != nil {
			t.Fatalf("NewEngine(%v): %v", m, err)
		}
		if e.Model() != m {
			t.Fatalf("engine model = %v, want %v", e.Model(), m)
		}
	}
	if _, err := NewEngine(Model(99)); err == nil {
		t.Fatalf("unknown model accepted")
	}
}

func TestModelStrings(t *testing.T) {
	names := map[Model]string{
		Sequential: "sequential", PRAM: "pram", FIFO: "fifo", Causal: "causal", Eventual: "eventual",
	}
	for m, want := range names {
		if got := m.String(); got != want {
			t.Fatalf("%v String = %q", int(m), got)
		}
	}
	if Model(42).String() != "Model(42)" {
		t.Fatalf("unknown model string")
	}
	cnames := map[ClientModel]string{
		ReadYourWrites: "read-your-writes", MonotonicReads: "monotonic-reads",
		MonotonicWrites: "monotonic-writes", WritesFollowReads: "writes-follow-reads",
	}
	for m, want := range cnames {
		if got := m.String(); got != want {
			t.Fatalf("%v String = %q", int(m), got)
		}
	}
	if ClientModel(42).String() != "ClientModel(42)" {
		t.Fatalf("unknown client model string")
	}
}

func TestModelImplies(t *testing.T) {
	for _, c := range []ClientModel{ReadYourWrites, MonotonicReads, MonotonicWrites, WritesFollowReads} {
		if !Sequential.Implies(c) {
			t.Fatalf("sequential must imply %v", c)
		}
	}
	if !PRAM.Implies(MonotonicWrites) || PRAM.Implies(MonotonicReads) {
		t.Fatalf("PRAM implication wrong")
	}
	if !Causal.Implies(WritesFollowReads) || Causal.Implies(ReadYourWrites) {
		t.Fatalf("causal implication wrong")
	}
	if Eventual.Implies(MonotonicWrites) {
		t.Fatalf("eventual implies nothing")
	}
}

func TestPRAMInOrderApply(t *testing.T) {
	e := newPRAMEngine()
	for s := uint64(1); s <= 3; s++ {
		got := e.Submit(upd(1, s))
		if len(got) != 1 || got[0].Write.Seq != s {
			t.Fatalf("in-order submit %d returned %v", s, collectWiDs(got))
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d", e.Pending())
	}
}

func TestPRAMBuffersGap(t *testing.T) {
	e := newPRAMEngine()
	if got := e.Submit(upd(1, 2)); got != nil {
		t.Fatalf("gap applied: %v", collectWiDs(got))
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d", e.Pending())
	}
	got := e.Submit(upd(1, 1))
	if len(got) != 2 || got[0].Write.Seq != 1 || got[1].Write.Seq != 2 {
		t.Fatalf("fill-gap released %v", collectWiDs(got))
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after drain", e.Pending())
	}
}

// Closing one client's gap releases that client's run, in order, and
// nothing of another client's.
func TestPRAMReleasesOnlyTheClosedRun(t *testing.T) {
	e := newPRAMEngine()
	e.Submit(upd(1, 1))
	for _, u := range []*Update{upd(1, 3), upd(1, 4), upd(2, 2)} {
		if got := e.Submit(u); got != nil {
			t.Fatalf("gap applied: %v", collectWiDs(got))
		}
	}
	got := collectWiDs(e.Submit(upd(1, 2)))
	want := []ids.WiD{{Client: 1, Seq: 2}, {Client: 1, Seq: 3}, {Client: 1, Seq: 4}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("released %v, want %v", got, want)
	}
	if e.Pending() != 1 || e.buffer[ids.WiD{Client: 2, Seq: 2}] == nil {
		t.Fatalf("pending = %d, want client 2's write 2 still buffered", e.Pending())
	}
}

// A write a Seed makes next in line is released with the next release, as
// Seed itself releases nothing.
func TestPRAMSeedReleasesNextInLineWithNextRelease(t *testing.T) {
	e := newPRAMEngine()
	e.Submit(upd(1, 3))
	e.Submit(upd(1, 4))
	e.Seed(&State{Applied: vecOf(1, 2)})
	if e.Pending() != 2 {
		t.Fatalf("pending = %d after seed, want 2", e.Pending())
	}
	got := collectWiDs(e.Submit(upd(2, 1)))
	want := []ids.WiD{{Client: 2, Seq: 1}, {Client: 1, Seq: 3}, {Client: 1, Seq: 4}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("released %v, want %v", got, want)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", e.Pending())
	}
}

// browse and flashcrowd run PRAM: an in-order write costs the engine no
// allocation.
func TestPRAMInOrderSubmitAllocatesNothing(t *testing.T) {
	e := newPRAMEngine()
	u := upd(1, 0)
	allocs := testing.AllocsPerRun(100, func() {
		u.Write.Seq++
		if len(e.Submit(u)) != 1 {
			t.Fatalf("in-order write %v not released", u.Write)
		}
	})
	if allocs != 0 {
		t.Fatalf("in-order Submit allocates %v times, want 0", allocs)
	}
}

func TestPRAMDuplicateDropped(t *testing.T) {
	e := newPRAMEngine()
	e.Submit(upd(1, 1))
	if got := e.Submit(upd(1, 1)); got != nil {
		t.Fatalf("duplicate applied")
	}
	if got := e.Applied(); got.Get(1) != 1 {
		t.Fatalf("applied = %v", got)
	}
}

func TestPRAMIndependentClients(t *testing.T) {
	e := newPRAMEngine()
	// Client 2's writes must not wait for client 1's.
	if got := e.Submit(upd(2, 1)); len(got) != 1 {
		t.Fatalf("client 2 blocked by client 1")
	}
	if got := e.Submit(upd(1, 1)); len(got) != 1 {
		t.Fatalf("client 1 blocked")
	}
}

// Property: under random per-update delivery orders (with duplicates), a
// PRAM engine applies each client's writes in exactly seq order, and applies
// all of them.
func TestPRAMRandomDeliveryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		clients := 1 + rng.Intn(4)
		perClient := 1 + rng.Intn(10)
		var pool []*Update
		for c := 1; c <= clients; c++ {
			for s := 1; s <= perClient; s++ {
				pool = append(pool, upd(ids.ClientID(c), uint64(s)))
			}
		}
		// Shuffle and inject duplicates.
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		if len(pool) > 2 {
			pool = append(pool, pool[rng.Intn(len(pool))])
		}
		e := newPRAMEngine()
		lastSeq := make(map[ids.ClientID]uint64)
		applied := 0
		for _, u := range pool {
			for _, a := range e.Submit(u) {
				if a.Write.Seq != lastSeq[a.Write.Client]+1 {
					t.Fatalf("trial %d: client %d applied seq %d after %d",
						trial, a.Write.Client, a.Write.Seq, lastSeq[a.Write.Client])
				}
				lastSeq[a.Write.Client] = a.Write.Seq
				applied++
			}
		}
		if applied != clients*perClient {
			t.Fatalf("trial %d: applied %d of %d updates", trial, applied, clients*perClient)
		}
		if e.Pending() != 0 {
			t.Fatalf("trial %d: %d stuck in buffer", trial, e.Pending())
		}
	}
}

func TestFIFOSupersedes(t *testing.T) {
	e := newFIFOEngine()
	if got := e.Submit(upd(1, 3)); len(got) != 1 {
		t.Fatalf("newest write not applied")
	}
	// Older writes from the same client are ignored, not buffered.
	if got := e.Submit(upd(1, 1)); got != nil {
		t.Fatalf("stale write applied")
	}
	if got := e.Submit(upd(1, 2)); got != nil {
		t.Fatalf("stale write applied")
	}
	if got := e.Submit(upd(1, 4)); len(got) != 1 {
		t.Fatalf("newer write rejected")
	}
	if e.Pending() != 0 {
		t.Fatalf("FIFO must never buffer")
	}
}

// Property: FIFO applies exactly the prefix-maxima of the delivery order per
// client — equivalent to "ignore anything not newer than the latest".
func TestFIFOPrefixMaximaProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var order []uint64
		n := 1 + rng.Intn(20)
		for i := 0; i < n; i++ {
			order = append(order, uint64(1+rng.Intn(10)))
		}
		e := newFIFOEngine()
		var max uint64
		for _, s := range order {
			got := e.Submit(upd(1, s))
			wantApply := s > max
			if wantApply {
				max = s
			}
			if wantApply != (len(got) == 1) {
				t.Fatalf("trial %d: seq %d (max %d) applied=%v", trial, s, max, len(got) == 1)
			}
		}
	}
}

func causalUpd(c ids.ClientID, seq uint64, deps msg.Vec) *Update {
	u := upd(c, seq)
	u.Deps = &deps
	u.Deps.Set(c, seq)
	return u
}

func TestCausalWaitsForDependency(t *testing.T) {
	e, _ := NewEngine(Causal)
	// Client 2 reacts to client 1's first post.
	reaction := causalUpd(2, 1, vecOf(1, 1))
	if got := e.Submit(reaction); got != nil {
		t.Fatalf("reaction applied before trigger: %v", collectWiDs(got))
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d", e.Pending())
	}
	trigger := causalUpd(1, 1, vecOf())
	got := e.Submit(trigger)
	if len(got) != 2 {
		t.Fatalf("apply after trigger: %v", collectWiDs(got))
	}
	if got[0].Write.Client != 1 || got[1].Write.Client != 2 {
		t.Fatalf("wrong causal order: %v", collectWiDs(got))
	}
}

func TestCausalIndependentConcurrent(t *testing.T) {
	e, _ := NewEngine(Causal)
	// Two concurrent posts: no mutual dependency, either order fine.
	if got := e.Submit(causalUpd(2, 1, vecOf())); len(got) != 1 {
		t.Fatalf("concurrent write blocked")
	}
	if got := e.Submit(causalUpd(1, 1, vecOf())); len(got) != 1 {
		t.Fatalf("concurrent write blocked")
	}
}

func TestCausalDuplicateDropped(t *testing.T) {
	e, _ := NewEngine(Causal)
	u := causalUpd(1, 1, vecOf())
	e.Submit(u)
	if got := e.Submit(u); got != nil {
		t.Fatalf("duplicate applied")
	}
}

// Property: under random delivery, causal delivery order at the store always
// respects each update's dependency vector, and everything is eventually
// applied.
func TestCausalRandomDeliveryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		// Build a causal history: clients alternate writing; each write
		// depends on everything its client has "seen" (its own VC snapshot).
		clients := 2 + rng.Intn(3)
		steps := 5 + rng.Intn(15)
		seen := make([]msg.Vec, clients+1)
		seqs := make([]uint64, clients+1)
		var pool []*Update
		for i := 0; i < steps; i++ {
			c := 1 + rng.Intn(clients)
			// Sometimes client c observes another client's state first
			// (models a read), creating a cross-client dependency.
			if rng.Intn(2) == 0 {
				o := 1 + rng.Intn(clients)
				seen[c].Merge(&seen[o])
			}
			seqs[c]++
			u := causalUpd(ids.ClientID(c), seqs[c], seen[c].Clone())
			seen[c].Set(ids.ClientID(c), seqs[c])
			pool = append(pool, u)
		}
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })

		e, _ := NewEngine(Causal)
		var applied msg.Vec
		count := 0
		for _, u := range pool {
			for _, a := range e.Submit(u) {
				// Dependency check: everything a depends on (other than its
				// own entry) must already be applied.
				a.Deps.Each(func(c ids.ClientID, s uint64) bool {
					if c != a.Write.Client && applied.Get(c) < s {
						t.Fatalf("trial %d: %v applied before dep c%d:%d", trial, a.Write, c, s)
					}
					return true
				})
				if a.Write.Seq != applied.Get(a.Write.Client)+1 {
					t.Fatalf("trial %d: per-client order violated for %v", trial, a.Write)
				}
				applied.Set(a.Write.Client, a.Write.Seq)
				count++
			}
		}
		if count != steps {
			t.Fatalf("trial %d: applied %d of %d", trial, count, steps)
		}
		if e.Pending() != 0 {
			t.Fatalf("trial %d: %d stuck", trial, e.Pending())
		}
	}
}

func seqUpd(c ids.ClientID, seq, global uint64) *Update {
	u := upd(c, seq)
	u.GlobalSeq = global
	return u
}

func TestSequentialTotalOrder(t *testing.T) {
	e := newSequentialEngine()
	if got := e.Submit(seqUpd(1, 1, 2)); got != nil {
		t.Fatalf("gap applied")
	}
	got := e.Submit(seqUpd(2, 1, 1))
	if len(got) != 2 || got[0].GlobalSeq != 1 || got[1].GlobalSeq != 2 {
		t.Fatalf("order: %v", collectWiDs(got))
	}
	if g := e.State().Global; g != 3 {
		t.Fatalf("State().Global = %d", g)
	}
	if got := e.Submit(seqUpd(2, 1, 1)); got != nil {
		t.Fatalf("duplicate applied")
	}
	if got := e.Submit(seqUpd(9, 9, 0)); got != nil {
		t.Fatalf("unsequenced update applied")
	}
}

// A Seed that moves the sequencer position onto a buffered write leaves that
// write waiting for its redelivery; the redelivery releases it, and the
// buffered copy goes with it, so nothing stays pending.
func TestSequentialSeedOntoBufferedWriteDrains(t *testing.T) {
	e := newSequentialEngine()
	e.Submit(seqUpd(1, 2, 2))
	e.Seed(&State{Applied: vecOf(1, 1), Global: 2})
	if got := collectWiDs(e.Submit(seqUpd(1, 2, 2))); len(got) != 1 || got[0] != (ids.WiD{Client: 1, Seq: 2}) {
		t.Fatalf("redelivery released %v, want c1:2", got)
	}
	if got := collectWiDs(e.Submit(seqUpd(1, 3, 3))); len(got) != 1 || got[0] != (ids.WiD{Client: 1, Seq: 3}) {
		t.Fatalf("next write released %v, want c1:3", got)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", e.Pending())
	}
}

// Property: all sequential replicas apply the identical total order no
// matter the delivery permutation.
func TestSequentialSameOrderEverywhereProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(20)
		var pool []*Update
		for g := 1; g <= n; g++ {
			pool = append(pool, seqUpd(ids.ClientID(1+g%3), uint64(g), uint64(g)))
		}
		var orders [][]uint64
		for replica := 0; replica < 3; replica++ {
			p := append([]*Update(nil), pool...)
			rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
			e := newSequentialEngine()
			var order []uint64
			for _, u := range p {
				for _, a := range e.Submit(u) {
					order = append(order, a.GlobalSeq)
				}
			}
			if len(order) != n || e.Pending() != 0 {
				t.Fatalf("trial %d: replica %d incomplete", trial, replica)
			}
			orders = append(orders, order)
		}
		for r := 1; r < len(orders); r++ {
			for i := range orders[0] {
				if orders[r][i] != orders[0][i] {
					t.Fatalf("trial %d: replica %d diverged at %d", trial, r, i)
				}
			}
		}
	}
}

func stampUpd(c ids.ClientID, seq, time uint64, page string) *Update {
	u := upd(c, seq)
	u.Stamp = vclock.Stamp{Time: time, Client: c}
	u.Inv.Page = page
	return u
}

func TestEventualLWW(t *testing.T) {
	e := newEventualEngine()
	if got := e.Submit(stampUpd(1, 1, 10, "p")); len(got) != 1 {
		t.Fatalf("first write dropped")
	}
	// Older stamp for the same page loses.
	if got := e.Submit(stampUpd(2, 1, 5, "p")); got != nil {
		t.Fatalf("older stamp won LWW")
	}
	// Newer stamp wins.
	if got := e.Submit(stampUpd(2, 2, 20, "p")); len(got) != 1 {
		t.Fatalf("newer stamp lost")
	}
	// Different page is independent.
	if got := e.Submit(stampUpd(3, 1, 1, "q")); len(got) != 1 {
		t.Fatalf("independent page blocked")
	}
	if e.Pending() != 0 {
		t.Fatalf("eventual must never buffer")
	}
	st := e.stamps
	if st["p"].Time != 20 || st["q"].Time != 1 {
		t.Fatalf("stamps = %v", st)
	}
}

func TestEventualDuplicateDropped(t *testing.T) {
	e := newEventualEngine()
	u := stampUpd(1, 1, 10, "p")
	e.Submit(u)
	if got := e.Submit(u); got != nil {
		t.Fatalf("duplicate applied")
	}
	if got := e.Applied(); got.Get(1) != 1 {
		t.Fatalf("applied = %v", got)
	}
}

// Property: replicas receiving the same update set in different orders
// converge to the same per-page winning stamps.
func TestEventualConvergenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pages := []string{"a", "b", "c"}
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(20)
		var pool []*Update
		seqs := map[ids.ClientID]uint64{}
		for i := 0; i < n; i++ {
			c := ids.ClientID(1 + rng.Intn(3))
			seqs[c]++
			pool = append(pool, stampUpd(c, seqs[c], uint64(1+rng.Intn(30)), pages[rng.Intn(len(pages))]))
		}
		var results []map[string]vclock.Stamp
		for replica := 0; replica < 3; replica++ {
			p := append([]*Update(nil), pool...)
			rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
			e := newEventualEngine()
			for _, u := range p {
				e.Submit(u)
			}
			results = append(results, e.stamps)
		}
		for r := 1; r < len(results); r++ {
			if len(results[r]) != len(results[0]) {
				t.Fatalf("trial %d: stamp sets differ", trial)
			}
			for p, s := range results[0] {
				if results[r][p] != s {
					t.Fatalf("trial %d: page %q diverged: %v vs %v", trial, p, results[r][p], s)
				}
			}
		}
	}
}

func TestDepGuardBuffersUntilCovered(t *testing.T) {
	inner := newEventualEngine()
	g := NewDepGuard(inner)
	if g.Model() != Eventual {
		t.Fatalf("model = %v", g.Model())
	}
	// Write by client 2 depends on client 1's write 1 (WFR).
	dep := stampUpd(2, 1, 20, "p")
	dep.Deps = &msg.Vec{}
	dep.Deps.Set(1, 1)
	if got := g.Submit(dep); got != nil {
		t.Fatalf("dependent write applied early")
	}
	if g.Pending() != 1 {
		t.Fatalf("pending = %d", g.Pending())
	}
	trigger := stampUpd(1, 1, 10, "q")
	got := g.Submit(trigger)
	if len(got) != 2 {
		t.Fatalf("release: %v", collectWiDs(got))
	}
	if got[0].Write.Client != 1 || got[1].Write.Client != 2 {
		t.Fatalf("order: %v", collectWiDs(got))
	}
	if g.Pending() != 0 {
		t.Fatalf("pending after drain = %d", g.Pending())
	}
}

// An eventual write that loses its LWW race is applied without being
// released; it still covers the writes that depend on it.
func TestDepGuardReleasesOnLWWLoss(t *testing.T) {
	g := NewDepGuard(newEventualEngine())
	if got := g.Submit(stampUpd(3, 1, 100, "p")); len(got) != 1 {
		t.Fatalf("first write: %v", collectWiDs(got))
	}
	dep := stampUpd(2, 1, 20, "q")
	dep.Deps = &msg.Vec{}
	dep.Deps.Set(1, 1)
	if got := g.Submit(dep); got != nil {
		t.Fatalf("dependent write applied early")
	}
	got := g.Submit(stampUpd(1, 1, 10, "p")) // older than c3#1 on p: loses
	if len(got) != 1 || got[0] != dep {
		t.Fatalf("release: %v, want [c2#1]", collectWiDs(got))
	}
	if g.Pending() != 0 {
		t.Fatalf("pending = %d", g.Pending())
	}
}

// A seed that covers a buffered write's dependencies lets the next forwarded
// write release it, even one the inner engine only buffers.
func TestDepGuardSeedThenSubmitReleasesBuffered(t *testing.T) {
	g := NewDepGuard(newPRAMEngine())
	u5 := upd(1, 5)
	u5.Deps = &msg.Vec{}
	u5.Deps.Set(2, 3)
	if got := g.Submit(u5); got != nil {
		t.Fatalf("dependent write applied early")
	}
	g.Seed(&State{Applied: vecOf(1, 4, 2, 3)})
	got := g.Submit(upd(1, 6))
	if ws := collectWiDs(got); len(ws) != 2 || ws[0] != (ids.WiD{Client: 1, Seq: 5}) || ws[1] != (ids.WiD{Client: 1, Seq: 6}) {
		t.Fatalf("release: %v, want [c1#5 c1#6]", ws)
	}
	if g.Pending() != 0 {
		t.Fatalf("pending = %d", g.Pending())
	}
}

func TestDepGuardIgnoresSelfDependency(t *testing.T) {
	g := NewDepGuard(newPRAMEngine())
	u := upd(1, 1)
	u.Deps = &msg.Vec{}
	u.Deps.Set(1, 1) // own component: inner engine's business
	if got := g.Submit(u); len(got) != 1 {
		t.Fatalf("self-dependency blocked the write")
	}
	if applied := g.Applied(); !applied.CoversWrite(u.Write) {
		t.Fatalf("applied vector missing write")
	}
}

// An Update is allocated per applied write on every replica, and kept in the
// retained log: Deps stays a pointer, so the struct stays in the 112-byte
// size class instead of carrying an inline vector.
func TestUpdateSize(t *testing.T) {
	if got := unsafe.Sizeof(Update{}); got != 104 {
		t.Fatalf("unsafe.Sizeof(Update{}) = %d, want 104", got)
	}
}
