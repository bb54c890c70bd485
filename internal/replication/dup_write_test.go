package replication

import (
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/semantics/webdoc"
	"repro/internal/strategy"
	"repro/internal/vclock"
)

// TestDuplicateWriteRequestNotResequenced pins the at-most-once admission
// found by the chaos harness: a write request duplicated in flight (or
// retried after a lost ack) must be re-acked, not assigned a second
// GlobalSeq and applied twice. Before the fix, the sequential permanent
// store minted a fresh GlobalSeq for the replay, so the engine's
// duplicate-detection (keyed on GlobalSeq) never saw a duplicate.
func TestDuplicateWriteRequestNotResequenced(t *testing.T) {
	env := newFakeEnv()
	st := strategy.Whiteboard() // sequential model, the vulnerable sequencer
	o := newObj(t, env, RolePermanent, st, "")

	w := writeMsg(1, 1, "p", "x")
	o.Handle(w)
	// The link re-delivers the identical frame: a wire replay decodes with
	// the stamp it carried on the wire — zero, since the client sent it
	// before the sequencer stamped its copy. (Handle stamps the in-memory
	// struct in place, so rebuild rather than copy.)
	o.Handle(writeMsg(1, 1, "p", "x"))

	acks := env.takeSent(msg.KindWriteReply)
	if len(acks) != 2 {
		t.Fatalf("want 2 acks (original + replay), got %d", len(acks))
	}
	for _, a := range acks {
		if a.Status != msg.StatusOK {
			t.Fatalf("ack status: %+v", a)
		}
	}
	if got := o.Stats(); got.WritesAccepted != 1 || got.UpdatesApplied != 1 {
		t.Fatalf("replay was re-applied: %+v", got)
	}
	if g := o.Engine().State().Global; g != 2 {
		t.Fatalf("sequencer advanced for the replay: next global = %d, want 2", g)
	}

	// A later write still sequences normally behind the original.
	o.Handle(writeMsg(1, 2, "p", "y"))
	if got := o.Stats(); got.WritesAccepted != 2 || got.UpdatesApplied != 2 {
		t.Fatalf("post-replay write mishandled: %+v", got)
	}
}

// TestReorderedWritesBothApplySequential: a genuinely new write overtaken in
// flight (concurrent writers on one proxy over a jittered link) must be
// admitted at the sequencer, not dropped as a duplicate — the sequential
// engine's applied vector jumps per-client gaps, so it cannot make the
// distinction; the admission record's holes can.
func TestReorderedWritesBothApplySequential(t *testing.T) {
	env := newFakeEnv()
	o := newObj(t, env, RolePermanent, strategy.Whiteboard(), "")
	o.Handle(writeMsg(1, 2, "b", "second")) // overtook seq 1 in flight
	o.Handle(writeMsg(1, 1, "a", "first"))
	if got := o.Stats(); got.WritesAccepted != 2 || got.UpdatesApplied != 2 {
		t.Fatalf("overtaken write dropped at the sequencer: %+v", got)
	}
	// And a replay of either is still suppressed.
	o.Handle(writeMsg(1, 1, "a", "first"))
	if got := o.Stats(); got.UpdatesApplied != 2 {
		t.Fatalf("replay re-applied: %+v", got)
	}
}

// TestDuplicateWriteRequestPRAM: the same replay under PRAM (where the
// engine itself dedups by WiD) keeps working — two acks, one apply.
func TestDuplicateWriteRequestPRAM(t *testing.T) {
	env := newFakeEnv()
	o := newObj(t, env, RolePermanent, strategy.Conference(time.Hour), "")
	w := writeMsg(1, 1, "p", "x")
	dup := *w // Handle owns w and answers in it
	o.Handle(w)
	o.Handle(&dup)
	if acks := env.takeSent(msg.KindWriteReply); len(acks) != 2 {
		t.Fatalf("want 2 acks, got %d", len(acks))
	}
	if got := o.Stats(); got.UpdatesApplied != 1 {
		t.Fatalf("replay re-applied under PRAM: %+v", got)
	}
}

// TestDuplicateWriteRequestEventual: a link-duplicated unstamped request at
// an eventual-model store must not be stamped twice — the replay would get a
// fresh (newer) Lamport stamp, win the LWW race against itself, and apply
// the operation a second time. Exercised at both a permanent store and a
// mirror (which stamps and applies locally before forwarding).
func TestDuplicateWriteRequestEventual(t *testing.T) {
	for _, role := range []Role{RolePermanent, RoleObjectInitiated} {
		env := newFakeEnv()
		st := strategy.MirroredSite(time.Hour)
		parent := ""
		if role != RolePermanent {
			parent = "parent-store"
		}
		o := newObj(t, env, role, st, parent)
		w := writeMsg(1, 1, "p", "x")
		dup := *w // Handle owns w and answers in it
		o.Handle(w)
		dup.Stamp = vclock.Stamp{} // the wire replay is identical: unstamped
		o.Handle(&dup)
		if acks := env.takeSent(msg.KindWriteReply); len(acks) != 2 {
			t.Fatalf("%v: want 2 acks, got %d", role, len(acks))
		}
		if got := o.Stats(); got.UpdatesApplied != 1 {
			t.Fatalf("%v: replay re-applied under eventual: %+v", role, got)
		}
		if role != RolePermanent {
			// The mirror forwards the original AND re-forwards on replay —
			// the retry may exist because the first forward was lost — but
			// the re-forward must carry the ORIGINAL stamp (from the log),
			// so the parent deduplicates it by LWW instead of double-
			// applying a freshly-stamped copy.
			fwd := env.takeSent(msg.KindWriteRequest)
			if len(fwd) != 2 {
				t.Fatalf("want original forward + replay re-forward, got %d", len(fwd))
			}
			if fwd[0].Stamp.Zero() || fwd[0].Stamp != fwd[1].Stamp {
				t.Fatalf("replay re-forward not the original stamped form: %v vs %v", fwd[0].Stamp, fwd[1].Stamp)
			}
		}
	}
}

// TestResumedIdentityFirstContactIsNotAHole: a reused client identity whose
// session was seeded past its prior writes (coherence.SeedSeq) makes first
// contact at a high sequence; the admission record must not synthesize
// holes below it, or floating duplicates of the previous life's writes
// would be re-admitted and double-applied.
func TestResumedIdentityFirstContactIsNotAHole(t *testing.T) {
	env := newFakeEnv()
	o := newObj(t, env, RolePermanent, strategy.MirroredSite(time.Hour), "")
	o.Handle(writeMsg(1, 1000, "p", "resumed"))
	if got := o.Stats(); got.UpdatesApplied != 1 {
		t.Fatalf("resumed write not applied: %+v", got)
	}
	// A stale duplicate from the previous life must classify as a replay.
	o.Handle(writeMsg(1, 500, "p", "ghost"))
	if got := o.Stats(); got.UpdatesApplied != 1 {
		t.Fatalf("previous-life duplicate re-applied: %+v", got)
	}
	if acks := env.takeSent(msg.KindWriteReply); len(acks) != 2 {
		t.Fatalf("want 2 acks, got %d", len(acks))
	}
}

// TestReorderedUnstampedWritesBothApplyEventual: two unstamped writes from
// one client overtake each other on a jittered link (departure is ordered
// by the proxy, arrival need not be). The admission guard must recognise
// the late-arriving earlier write as a hole — a new write — not a replay,
// and a subsequent true replay of either must still be suppressed.
func TestReorderedUnstampedWritesBothApplyEventual(t *testing.T) {
	env := newFakeEnv()
	o := newObj(t, env, RolePermanent, strategy.MirroredSite(time.Hour), "")

	w2 := writeMsg(1, 2, "b", "second")
	o.Handle(w2)
	w1 := writeMsg(1, 1, "a", "first") // overtaken in flight, arrives late
	o.Handle(w1)
	if got := o.Stats(); got.UpdatesApplied != 2 {
		t.Fatalf("reordered unstamped write dropped as replay: %+v", got)
	}
	out, err := env.ctrl.ServeRead(msg.Invocation{Method: webdoc.MethodGetPage, Page: "a"})
	if err != nil {
		t.Fatalf("overtaken write's page lost: %v", err)
	}
	if pg, err := webdoc.DecodePage(out); err != nil || string(pg.Content) != "first" {
		t.Fatalf("page a content: %q, %v", pg.Content, err)
	}

	// Now genuine replays of both frames: re-acked, never re-applied.
	for _, replay := range []*msg.Message{writeMsg(1, 1, "a", "first"), writeMsg(1, 2, "b", "second")} {
		o.Handle(replay)
	}
	if got := o.Stats(); got.UpdatesApplied != 2 {
		t.Fatalf("replay re-applied after hole was consumed: %+v", got)
	}
	if acks := env.takeSent(msg.KindWriteReply); len(acks) != 4 {
		t.Fatalf("want 4 acks total, got %d", len(acks))
	}
}

// TestReorderedStampedWritesStillApplyEventual pins the non-regression the
// chaos-derived admission guard must preserve: under the eventual model the
// applied vector jumps gaps, so a write covered by it can be a REORDERED
// earlier write (different page, older stamp) that last-writer-wins must
// still apply — not a duplicate to drop.
func TestReorderedStampedWritesStillApplyEventual(t *testing.T) {
	env := newFakeEnv()
	st := strategy.MirroredSite(time.Hour)
	o := newObj(t, env, RolePermanent, st, "")

	// w2 (seq 2, page b) arrives before w1 (seq 1, page a) — stamped
	// upstream, reordered in flight.
	w2 := writeMsg(1, 2, "b", "late")
	w2.Stamp = vclock.Stamp{Time: 20, Client: 1}
	o.Handle(w2)
	w1 := writeMsg(1, 1, "a", "early")
	w1.Stamp = vclock.Stamp{Time: 10, Client: 1}
	o.Handle(w1)

	if got := o.Stats(); got.UpdatesApplied != 2 {
		t.Fatalf("reordered eventual write dropped as a duplicate: %+v", got)
	}
	out, err := env.ctrl.ServeRead(msg.Invocation{Method: webdoc.MethodGetPage, Page: "a"})
	if err != nil {
		t.Fatalf("page a lost: %v", err)
	}
	if pg, err := webdoc.DecodePage(out); err != nil || string(pg.Content) != "early" {
		t.Fatalf("page a content: %q, %v", pg.Content, err)
	}
}
