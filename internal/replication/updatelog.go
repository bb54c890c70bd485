package replication

import (
	"slices"

	"repro/internal/coherence"
	"repro/internal/ids"
	"repro/internal/msg"
)

// logLimit caps the retained log; a demand that reaches further back is
// answered with full state.
const logLimit = 4096

// updateLog is the retained update log: the updates this replica's ordering
// engine released, in application order, oldest pruned first beyond logLimit.
// It answers demands and gossip digests (since), write replays (find) and the
// re-apply after a state transfer (since again).
//
// Retention contract. The log can bring a requester up to date only if the
// requester already knows every write this replica knows and the log does not
// hold: what was pruned, and what arrived by state transfer and so was never
// logged. The index keeps that per writing client as a run (floor, top]: the
// log holds exactly one entry for every sequence in it, top is the highest
// sequence ever appended, and at or below floor the log proves nothing. floor
// rises to a pruned entry's sequence, to the sequence before an append that
// skips ahead (the skipped writes came by state transfer, or were superseded
// under a gap-jumping model — either way the log cannot supply them), and to
// top when an append arrives out of order (the eventual model's late loser of
// an old page, a client's writes reordered before the sequencer). Knowledge
// above top — state taken after the client's last logged write — is read from
// the replica's applied vector when the question is asked (covers).
//
// So a demand costs O(writers) to judge and O(entries behind) to answer,
// whatever the log's length; only a requester older than some floor pays the
// full walk, and then covers has already sent a demand to serveState.
type updateLog struct {
	entries []*coherence.Update
	runs    map[ids.ClientID]logRun
	// arena is the one backing array of 2×logLimit that entries slides
	// within once the log has filled (append).
	arena []*coherence.Update
}

// logRun is one client's indexed span of the log; see updateLog.
type logRun struct{ floor, top uint64 }

// append adds an update the engine released and prunes past logLimit.
func (l *updateLog) append(u *coherence.Update) {
	if l.runs == nil {
		l.runs = make(map[ids.ClientID]logRun, 4)
	}
	c, s := u.Write.Client, u.Write.Seq
	r := l.runs[c]
	switch {
	case s == r.top+1:
		r.top = s
	case s > r.top:
		r.floor, r.top = s-1, s
	default:
		r.floor = r.top
	}
	l.runs[c] = r
	if n := len(l.entries); n == logLimit && (n == cap(l.entries) || l.arena == nil) {
		// The log is full and entries is at the end of its array, or not yet
		// in the arena: move the live window to the arena's front, so append
		// never reallocates and a full log costs one copy of it every
		// logLimit updates.
		if l.arena == nil {
			l.arena = make([]*coherence.Update, 2*logLimit)
		}
		copy(l.arena, l.entries)
		clear(l.arena[n:])
		l.entries = l.arena[:n]
	}
	l.entries = append(l.entries, u)
	if len(l.entries) > logLimit {
		old := l.entries[0].Write
		if r := l.runs[old.Client]; old.Seq > r.floor {
			r.floor = old.Seq
			l.runs[old.Client] = r
		}
		l.entries[0] = nil
		l.entries = l.entries[1:]
	}
}

// covers reports whether replaying since(v) brings a requester with vector v
// up to known, this replica's applied vector.
func (l *updateLog) covers(v, known *msg.Vec) bool {
	ok := true
	known.Each(func(c ids.ClientID, k uint64) bool {
		r := l.runs[c]
		need := r.floor
		if k > r.top {
			need = k
		}
		ok = v.Get(c) >= need
		return ok
	})
	return ok
}

// since appends to buf, in application order, the logged updates a replica
// with vector v lacks. Callers pass a small array of their own: the usual
// answer is none or a few, and then nothing is allocated.
func (l *updateLog) since(v *msg.Vec, buf []*coherence.Update) []*coherence.Update {
	// The runs tell how many entries v lacks, unless v is older than one of
	// them: then only the whole walk does.
	want, all := uint64(0), false
	for c, r := range l.runs {
		have := v.Get(c)
		all = all || have < r.floor
		want += r.top - min(have, r.top)
	}
	if all {
		want = uint64(len(l.entries))
	}
	start := len(buf)
	for i := len(l.entries) - 1; i >= 0 && want > 0; i-- {
		if u := l.entries[i]; !v.CoversWrite(u.Write) {
			buf = append(buf, u)
			want--
		}
	}
	slices.Reverse(buf[start:])
	return buf
}

// find returns the logged update with write ID w, or nil (newest first —
// replays chase recent writes).
func (l *updateLog) find(w ids.WiD) *coherence.Update {
	for i := len(l.entries) - 1; i >= 0; i-- {
		if l.entries[i].Write == w {
			return l.entries[i]
		}
	}
	return nil
}
