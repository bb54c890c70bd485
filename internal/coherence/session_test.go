package coherence

import (
	"testing"

	"repro/internal/ids"
	"repro/internal/msg"
)

func TestSessionWiDsAreSequential(t *testing.T) {
	s := NewSession(7)
	w1, _ := s.NextWrite()
	w2, _ := s.NextWrite()
	if w1 != (ids.WiD{Client: 7, Seq: 1}) || w2 != (ids.WiD{Client: 7, Seq: 2}) {
		t.Fatalf("WiDs = %v, %v", w1, w2)
	}
	if s.Seq() != 2 || s.Client() != 7 {
		t.Fatalf("session counters wrong")
	}
}

func TestSessionNoModelsNoConstraints(t *testing.T) {
	s := NewSession(1)
	_, deps := s.NextWrite()
	if deps != nil {
		t.Fatalf("unrequested deps: %v", deps)
	}
	req, dep := s.ReadRequirementVec()
	if req.Len() != 0 || !dep.Zero() {
		t.Fatalf("unrequested requirement: %v %v", req, dep)
	}
}

func TestSessionRYWRequirement(t *testing.T) {
	s := NewSession(3, ReadYourWrites)
	// Before any write, reads are unconstrained.
	req, dep := s.ReadRequirementVec()
	if req.Len() != 0 || !dep.Zero() {
		t.Fatalf("requirement before write: %v", req)
	}
	w, _ := s.NextWrite()
	s.WriteDone(w, 9)
	req, dep = s.ReadRequirementVec()
	if req.Get(3) != 1 {
		t.Fatalf("RYW requirement = %v", req)
	}
	if dep.Write != w || dep.Store != 9 {
		t.Fatalf("RYW dependency = %v (paper's (WiD, store) pair)", dep)
	}
}

func TestSessionMonotonicReads(t *testing.T) {
	s := NewSession(2, MonotonicReads)
	s.ReadDone(vecOf(1, 5, 4, 2))
	s.ReadDone(vecOf(1, 3, 6, 1)) // older component must not regress
	req, _ := s.ReadRequirementVec()
	want := vecOf(1, 5, 4, 2, 6, 1)
	if !req.Equal(&want) {
		t.Fatalf("MR requirement = %v, want %v", req, want)
	}
}

func TestSessionMonotonicWritesDeps(t *testing.T) {
	s := NewSession(5, MonotonicWrites)
	_, deps1 := s.NextWrite()
	if deps1 != nil {
		t.Fatalf("first write has deps: %v", deps1)
	}
	_, deps2 := s.NextWrite()
	if deps2.Get(5) != 1 {
		t.Fatalf("second write deps = %v, want own previous write", deps2)
	}
}

func TestSessionWritesFollowReadsDeps(t *testing.T) {
	s := NewSession(4, WritesFollowReads)
	s.ReadDone(vecOf(1, 7)) // read someone's post
	w, deps := s.NextWrite()
	if deps.Get(1) != 7 {
		t.Fatalf("WFR deps = %v, want read history", deps)
	}
	s.WriteDone(w, 2)
	// The next write depends on both the read and the own earlier write.
	_, deps2 := s.NextWrite()
	if deps2.Get(1) != 7 || deps2.Get(4) != 1 {
		t.Fatalf("chained WFR deps = %v", deps2)
	}
}

func TestSessionCombinedRYWAndMR(t *testing.T) {
	s := NewSession(2, ReadYourWrites, MonotonicReads)
	w, _ := s.NextWrite()
	s.WriteDone(w, 1)
	s.ReadDone(vecOf(9, 3))
	req, dep := s.ReadRequirementVec()
	if req.Get(2) != 1 || req.Get(9) != 3 {
		t.Fatalf("combined requirement = %v", req)
	}
	if dep.Write != w {
		t.Fatalf("dep = %v", dep)
	}
}

// The paper's §4 master scenario: PRAM object model + RYW client model.
// Simulate the master's cache store with a PRAM engine and verify that the
// requirement vector correctly detects the missing write, and that after
// the demanded update arrives the read is satisfiable.
func TestSessionRYWAgainstPRAMStore(t *testing.T) {
	master := NewSession(1, ReadYourWrites)
	cacheEngine := newPRAMEngine()

	// Master writes twice directly to the Web server (not via the cache).
	w1, _ := master.NextWrite()
	master.WriteDone(w1, 100)
	w2, _ := master.NextWrite()
	master.WriteDone(w2, 100)

	// Server pushed only the first update to the cache so far.
	cacheEngine.Submit(upd(1, 1))

	req, _ := master.ReadRequirementVec()
	if applied := cacheEngine.Applied(); applied.Covers(&req) {
		t.Fatalf("RYW violation undetected: cache %v, requirement %v", applied, req)
	}

	// Cache demands the missing update (client-outdate reaction = demand).
	cacheEngine.Submit(upd(1, 2))
	if applied := cacheEngine.Applied(); !applied.Covers(&req) {
		t.Fatalf("requirement still unsatisfied after demand")
	}
}

// TestSessionAbortRollsBackOnlyMostRecent covers both abort outcomes: the
// newest allocation rolls the counter back; an older one — overtaken by a
// concurrent writer on the shared handle — becomes a recorded hole the
// proxy must seal before later writes can apply under ordered models.
func TestSessionAbortRollsBackOnlyMostRecent(t *testing.T) {
	s := NewSession(8, MonotonicWrites)
	w1, _ := s.NextWrite()
	w2, _ := s.NextWrite()
	s.AbortWrite(w1) // older than the newest allocation: hole, no rollback
	if s.Seq() != 2 {
		t.Fatalf("seq = %d after overtaken abort, want 2", s.Seq())
	}
	if hs := s.Holes(); len(hs) != 1 || hs[0] != 1 {
		t.Fatalf("holes = %v, want [1]", hs)
	}
	s.AbortWrite(w2) // newest: plain rollback, no hole
	if s.Seq() != 1 {
		t.Fatalf("seq = %d after rollback, want 1", s.Seq())
	}
	if hs := s.Holes(); len(hs) != 1 || hs[0] != 1 {
		t.Fatalf("holes = %v after rollback, want [1]", hs)
	}
	s.AbortWrite(ids.WiD{Client: 99, Seq: 1}) // foreign client: ignored
	if s.Seq() != 1 || len(s.Holes()) != 1 {
		t.Fatalf("foreign abort mutated session")
	}
}

// TestSessionSealWriteFillsHole covers the seal flow: SealWrite reuses the
// hole's WiD with the model-appropriate deps and SealDone retires it.
func TestSessionSealWriteFillsHole(t *testing.T) {
	s := NewSession(6, MonotonicWrites)
	s.NextWrite()
	s.NextWrite()
	w2, _ := s.NextWrite()
	s.AbortWrite(ids.WiD{Client: 6, Seq: 2}) // hole at 2
	s.AbortWrite(w2)                         // rollback to 2... then to seq=2
	w, deps := s.SealWrite(2)
	if w != (ids.WiD{Client: 6, Seq: 2}) {
		t.Fatalf("seal WiD = %v", w)
	}
	if deps.Get(6) != 1 {
		t.Fatalf("seal deps = %v, want own seq-1 under MW", deps)
	}
	s.SealDone(2)
	if len(s.Holes()) != 0 {
		t.Fatalf("holes after SealDone: %v", s.Holes())
	}
}

// TestSessionReallocationAbsorbsHole: after a rollback shrinks the counter
// below a recorded hole, a fresh allocation landing on the hole's number
// fills the gap itself — the hole must vanish, not get sealed twice.
func TestSessionReallocationAbsorbsHole(t *testing.T) {
	s := NewSession(9)
	s.NextWrite()                            // seq 1
	w2, _ := s.NextWrite()                   // seq 2
	s.AbortWrite(ids.WiD{Client: 9, Seq: 1}) // hole at 1
	s.AbortWrite(w2)                         // rollback: counter back to 1
	if s.Seq() != 1 {
		t.Fatalf("seq = %d, want 1", s.Seq())
	}
	s.AbortWrite(ids.WiD{Client: 9, Seq: 1}) // newest again: rollback to 0
	if s.Seq() != 0 {
		t.Fatalf("seq = %d, want 0", s.Seq())
	}
	w, _ := s.NextWrite() // reallocates 1, absorbing the stale hole record
	if w.Seq != 1 {
		t.Fatalf("reallocated seq = %d", w.Seq)
	}
	if hs := s.Holes(); len(hs) != 0 {
		t.Fatalf("stale hole survived reallocation: %v", hs)
	}
}

// A write carries a dependency vector only when Monotonic Writes or Writes
// Follow Reads asks for one: under Read Your Writes and Monotonic Reads alone
// NextWrite allocates nothing, while the MW and WFR vectors stay as they were.
func TestSessionDepsOnlyWhenAModelAsks(t *testing.T) {
	s := NewSession(3, ReadYourWrites, MonotonicReads)
	s.ReadDone(vecOf(1, 4))
	if a := testing.AllocsPerRun(100, func() {
		if _, deps := s.NextWrite(); deps != nil {
			t.Fatalf("RYW+MR write carries deps %v", deps)
		}
	}); a != 0 {
		t.Fatalf("NextWrite under RYW+MR allocates %.0f times, want 0", a)
	}

	mw := NewSession(5, MonotonicWrites)
	mw.ReadDone(vecOf(1, 4))
	if _, deps := mw.NextWrite(); deps != nil {
		t.Fatalf("first MW write carries deps %v", deps)
	}
	if _, deps := mw.NextWrite(); deps.String() != "{c5:1}" {
		t.Fatalf("second MW write deps = %v, want own previous write only", deps)
	}

	wfr := NewSession(4, WritesFollowReads)
	wfr.ReadDone(vecOf(1, 7))
	if _, deps := wfr.NextWrite(); deps.String() != "{c1:7}" {
		t.Fatalf("first WFR write deps = %v, want read history", deps)
	}
	if _, deps := wfr.SealWrite(2); deps.String() != "{c1:7 c4:1}" {
		t.Fatalf("WFR seal deps = %v, want read history and own previous write", deps)
	}
}

// vecOf builds a vector from client, seq pairs.
func vecOf(kv ...uint64) msg.Vec {
	var v msg.Vec
	for i := 0; i+1 < len(kv); i += 2 {
		v.Set(ids.ClientID(kv[i]), kv[i+1])
	}
	return v
}
