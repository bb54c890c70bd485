package replication

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/coherence"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/semantics/webdoc"
	"repro/internal/strategy"
	"repro/internal/vclock"
)

// refLog is the retained log as it was before updateLog: a pruned slice and
// the two whole-log scans, bodies kept as they were, for the property test to
// hold the index against.
type refLog struct{ log []*coherence.Update }

func (r *refLog) append(u *coherence.Update) {
	r.log = append(r.log, u)
	if len(r.log) > logLimit {
		r.log = r.log[len(r.log)-logLimit:]
	}
}

func (r *refLog) logCovers(applied msg.Vec, v *msg.Vec) bool {
	minSeq := make(map[ids.ClientID]uint64, 4)
	for _, u := range r.log {
		if s, ok := minSeq[u.Write.Client]; !ok || u.Write.Seq < s {
			minSeq[u.Write.Client] = u.Write.Seq
		}
	}
	ok := true
	applied.Each(func(c ids.ClientID, need uint64) bool { // need: client absent from log, requester must know it all
		if s, logged := minSeq[c]; logged {
			need = s - 1
		}
		ok = v.Get(c) >= need
		return ok
	})
	return ok
}

func (r *refLog) missingFrom(v *msg.Vec, buf []*coherence.Update) []*coherence.Update {
	for _, u := range r.log {
		if !v.CoversWrite(u.Write) {
			buf = append(buf, u)
		}
	}
	return buf
}

func (r *refLog) loggedWrite(w ids.WiD) *coherence.Update {
	for i := len(r.log) - 1; i >= 0; i-- {
		if r.log[i].Write == w {
			return r.log[i]
		}
	}
	return nil
}

// logHistory feeds one mirror replica the traffic its parent would send it —
// pushed updates from 1–4 writers, now and then a whole-object snapshot that
// runs ahead of them (state transfer: writes the log never sees) and a
// nothing-missing ack (fetch knowledge that overlaps the log) — and keeps the
// reference log beside the replica's own.
type logHistory struct {
	t       *testing.T
	rng     *rand.Rand
	model   coherence.Model
	env     *fakeEnv
	o       *Object
	ref     refLog
	seq     map[ids.ClientID]uint64 // last sequence the parent has of each writer
	writers []ids.ClientID
	global  uint64
	lamport uint64
	// probes counts requester vectors tried, refused those where the index
	// said no and the (unsound) scan yes.
	probes, refused int
}

func newLogHistory(t *testing.T, model coherence.Model, seed int64) *logHistory {
	st := strategy.Whiteboard()
	st.Model = model
	maxWriters := 4
	switch model {
	case coherence.FIFO: // the strategy refuses it several writers
		st.Writers, maxWriters = strategy.SingleWriter, 1
	case coherence.Eventual: // and this one a demand on gaps it cannot see
		st.ObjectOutdate = strategy.Wait
	}
	env := newFakeEnv()
	h := &logHistory{
		t: t, rng: rand.New(rand.NewSource(seed)), model: model, env: env,
		o:   newObj(t, env, RoleObjectInitiated, st, "www"),
		seq: make(map[ids.ClientID]uint64),
	}
	for c, n := 1, 1+h.rng.Intn(maxWriters); c <= n; c++ {
		h.writers = append(h.writers, ids.ClientID(c))
	}
	return h
}

func (h *logHistory) handle(m *msg.Message) {
	m.Object, m.From = "obj", "www"
	h.o.Handle(m)
	h.env.sent = nil
}

// write pushes the next write of a random writer and mirrors what the
// replica logs of it.
func (h *logHistory) write() {
	c := h.writers[h.rng.Intn(len(h.writers))]
	h.seq[c]++
	h.global++
	h.lamport++
	before := h.o.Stats().UpdatesApplied
	m := &msg.Message{
		Kind: msg.KindUpdate, Write: ids.WiD{Client: c, Seq: h.seq[c]},
		Stamp: vclock.Stamp{Time: h.lamport, Client: c},
		Inv: msg.Invocation{Method: webdoc.MethodPutPage, Page: fmt.Sprintf("p%d", h.rng.Intn(4)),
			Args: webdoc.EncodeWriteArgs(webdoc.WriteArgs{Content: []byte("x")})},
	}
	if h.model == coherence.Sequential {
		m.GlobalSeq = h.global
	}
	h.handle(m)
	if h.o.Stats().UpdatesApplied != before+1 {
		h.t.Fatalf("%v: in-order write %v was not applied", h.model, m.Write)
	}
	h.ref.append(h.o.log.entries[len(h.o.log.entries)-1])
}

// seed pushes a snapshot that is a few writes ahead for some writers: the
// replica takes them as state, and the log has a hole there.
func (h *logHistory) seed() {
	for _, c := range h.writers {
		k := uint64(h.rng.Intn(3))
		h.seq[c] += k
		h.global += k
	}
	snap, err := webdoc.New().Snapshot()
	if err != nil {
		h.t.Fatal(err)
	}
	h.handle(&msg.Message{Kind: msg.KindUpdate, Payload: whole(snap, vecFromMap(h.seq), h.global+1)})
}

// caughtUp replays missing over a requester that holds every write up to v,
// as the contiguous engines would, and reports whether it ends where the
// replica is: what a sound "the log covers v" promises.
func (h *logHistory) caughtUp(v *msg.Vec, missing []*coherence.Update) bool {
	have, applied := v.Clone(), h.o.applied()
	for _, u := range missing {
		if u.Write.Seq == have.Get(u.Write.Client)+1 {
			have.Set(u.Write.Client, u.Write.Seq)
		}
	}
	return have.Covers(&applied)
}

// probe asks both logs about one requester vector.
func (h *logHistory) probe(v msg.Vec) {
	h.t.Helper()
	want := h.ref.missingFrom(&v, nil)
	got := h.o.log.since(&v, nil)
	if len(got) != len(want) {
		h.t.Fatalf("%v: since(%v) = %d updates, the scan finds %d", h.model, v, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			h.t.Fatalf("%v: since(%v)[%d] = %v, the scan has %v", h.model, v, i, got[i].Write, want[i].Write)
		}
	}
	known := h.o.applied()
	covers, ref := h.o.log.covers(&v, &known), h.ref.logCovers(h.o.applied(), &v)
	sound := h.caughtUp(&v, want)
	// The index may differ from the scan in one way only: refusing a
	// requester the scan would have left short. (The scan looks at the oldest
	// retained write per client; a hole that state transfer left above it —
	// or knowledge beyond the client's newest logged write — escapes it.)
	h.probes++
	if covers != ref {
		h.refused++
	}
	if covers != ref && (covers || sound) {
		h.t.Fatalf("%v: covers(%v) = %v, the scan says %v, replay catches up: %v (applied %v)",
			h.model, v, covers, ref, sound, h.o.applied())
	}
	if covers && !sound {
		h.t.Fatalf("%v: covers(%v) but the replay leaves the requester short of %v", h.model, v, h.o.applied())
	}
}

// requester draws a vector the way children are: mostly a few writes behind,
// now and then far behind, at the log's edge, ahead, or without the client.
func (h *logHistory) requester() msg.Vec {
	var v msg.Vec
	applied := h.o.applied()
	for _, c := range h.writers { // in a fixed order: a seed replays exactly
		s := applied.Get(c)
		switch r := h.rng.Intn(10); {
		case r < 5:
			v.Set(c, s-min(s, uint64(h.rng.Intn(4))))
		case r < 7:
			v.Set(c, uint64(h.rng.Int63n(int64(s)+1)))
		case r < 8: // at the edge of what the log still holds of c
			e := h.o.log.runs[c].floor + uint64(h.rng.Intn(3))
			v.Set(c, e-min(e, 1))
		case r < 9:
			v.Set(c, s+1)
		}
	}
	return v
}

// TestUpdateLogMatchesWholeLogScans is the equivalence the rewrite rests on:
// over seeded histories of every coherence model, since returns exactly what
// the old scan of the whole log returned, find what the old newest-first
// search found, and covers what the old per-call min-sequence map decided —
// except where that decision was unsound.
func TestUpdateLogMatchesWholeLogScans(t *testing.T) {
	models := []coherence.Model{coherence.Sequential, coherence.PRAM, coherence.FIFO, coherence.Causal, coherence.Eventual}
	probes, refused := 0, 0
	for _, model := range models {
		for seed := int64(1); seed <= 3; seed++ {
			h := newLogHistory(t, model, seed)
			seeds := seed > 1 // the first history of each model is pure pushes
			for i := 0; i < logLimit+700; i++ {
				switch r := h.rng.Intn(400); {
				case r == 0 && seeds:
					h.seed()
				case r == 1:
					h.handle(&msg.Message{Kind: msg.KindUpdateAck, VVec: h.o.applied()})
				default:
					h.write()
				}
				if i%61 == 0 || i > logLimit+690 {
					for j := 0; j < 6; j++ {
						h.probe(h.requester())
					}
					w := ids.WiD{Client: h.writers[0], Seq: uint64(h.rng.Int63n(int64(h.seq[h.writers[0]]) + 2))}
					if got, want := h.o.log.find(w), h.ref.loggedWrite(w); got != want {
						t.Fatalf("%v: find(%v) = %v, the search finds %v", model, w, got, want)
					}
				}
			}
			probes, refused = probes+h.probes, refused+h.refused
			if !seeds && h.refused != 0 {
				t.Errorf("%v: without state transfer the index and the scan must agree; they differed on %d of %d probes", model, h.refused, h.probes)
			}
			if len(h.o.log.entries) != logLimit {
				t.Fatalf("%v: log holds %d entries after %d writes, want %d", model, len(h.o.log.entries), h.o.Stats().UpdatesApplied, logLimit)
			}
		}
	}
	if refused == 0 {
		t.Error("no history put a state-transfer hole in the log: the seeding case went unexercised")
	}
	t.Logf("%d probes; on %d the index refused a requester the scan would have left short", probes, refused)
}

// TestUpdateLogOutOfOrderIsConservative pins the one shape the histories above
// cannot produce: a client's writes logged out of sequence (reordered before
// the sequencer). The index then stops vouching for that client below its
// newest write; since still returns what the scan returns.
func TestUpdateLogOutOfOrderIsConservative(t *testing.T) {
	var l updateLog
	var ref refLog
	for _, w := range []ids.WiD{{Client: 1, Seq: 1}, {Client: 1, Seq: 3}, {Client: 2, Seq: 1}, {Client: 1, Seq: 2}, {Client: 1, Seq: 4}} {
		u := &coherence.Update{Write: w}
		l.append(u)
		ref.append(u)
	}
	known := vecOf(1, 4, 2, 1)
	for _, tc := range []struct {
		v      msg.Vec
		covers bool
	}{
		{vecOf(1, 4, 2, 1), true},
		{vecOf(1, 3, 2, 0), true},  // above the reordering: the run (3, 4] is whole
		{vecOf(1, 2, 2, 1), false}, // the scan would say yes; the index no longer can
		{msg.Vec{}, false},
	} {
		v := tc.v
		if got := l.covers(&v, &known); got != tc.covers {
			t.Errorf("covers(%v) = %v, want %v", tc.v, got, tc.covers)
		}
		got, want := l.since(&v, nil), ref.missingFrom(&v, nil)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("since(%v) = %v, the scan finds %v", tc.v, got, want)
		}
	}
}

// demandObj is a permanent replica that applied n writes from three writers,
// and the demand of a child two updates behind.
func demandObj(t testing.TB, n int) (*Object, *fakeEnv, *msg.Message) {
	env := newFakeEnv()
	o, err := New(Config{Env: env, Object: "obj", Self: 1, Addr: "self", Role: RolePermanent, Strat: strategy.Whiteboard()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		m := writeMsg(ids.ClientID(1+i%3), uint64(1+i/3), "p", "x")
		m.Inv.Method = webdoc.MethodPutPage
		o.Handle(m)
	}
	behind := o.applied()
	for _, c := range []ids.ClientID{ids.ClientID(1 + (n-1)%3), ids.ClientID(1 + (n-2)%3)} {
		behind.Set(c, behind.Get(c)-1)
	}
	env.sent = nil
	return o, env, &msg.Message{Kind: msg.KindDemandUpdate, Object: "obj", From: "child", VVec: behind}
}

// TestDemandCostIndependentOfLogLength is the scaling claim: a child two
// updates behind costs the same to answer whether the log holds 64 entries or
// 4 096 — within 4×, where the whole-log scans were about 20× apart — and
// judging and collecting the answer allocates nothing, no map in particular.
func TestDemandCostIndependentOfLogLength(t *testing.T) {
	cost := func(n int) time.Duration {
		o, env, demand := demandObj(t, n)
		defer o.Close()
		o.Handle(demand)
		if ups := env.takeSent(msg.KindUpdateBatch); len(ups) != 1 || len(ups[0].Batch) != 2 {
			t.Fatalf("log of %d: demand answered with %+v, want one batch of 2", n, env.sent)
		}
		known := o.applied()
		var few [8]*coherence.Update
		if a := testing.AllocsPerRun(100, func() {
			if !o.log.covers(&demand.VVec, &known) || len(o.log.since(&demand.VVec, few[:0])) != 2 {
				t.Fatal("index lost the two missing updates")
			}
		}); a != 0 {
			t.Errorf("log of %d: judging and collecting a demand allocates %.0f times, want 0", n, a)
		}
		// The minimum of several timed batches: box weather only ever adds.
		best := time.Duration(1 << 62)
		for run := 0; run < 9; run++ {
			start := time.Now()
			for i := 0; i < 2000; i++ {
				o.Handle(demand)
				env.sent = env.sent[:0]
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	small, large := cost(64), cost(logLimit)
	t.Logf("2000 demands: log of 64 %v, log of %d %v (%.2fx)", small, logLimit, large, float64(large)/float64(small))
	if large > 4*small {
		t.Errorf("demand against a log of %d costs %v, %.1fx the %v against a log of 64; want within 4x",
			logLimit, large, float64(large)/float64(small), small)
	}
}

func vecFromMap(m map[ids.ClientID]uint64) msg.Vec {
	var v msg.Vec
	for c, s := range m {
		v.Set(c, s)
	}
	return v
}
