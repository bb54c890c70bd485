// Package vclock implements vector clocks and Lamport clocks.
//
// Vector clocks drive the causal coherence model (§3.2.1 of the paper) and
// the Writes-Follow-Reads session guarantee: an update is applicable at a
// store only when the store's applied vector covers the update's dependency
// vector. Lamport clocks provide the total tiebreak used by the eventual
// model's last-writer-wins convergence rule.
//
//globelint:deterministic
package vclock

import (
	"sync"

	"repro/internal/ids"
)

// VC is a vector clock: one logical-event counter per client. It is the same
// type as ids.VersionVec, which declares everything a clock needs (Get, Set,
// Clone, Merge, Covers and String). The zero value (nil map) is a valid,
// empty clock for read operations; use New or Clone before mutating.
type VC = ids.VersionVec

// New returns an empty vector clock.
func New() VC { return make(VC) }

// Lamport is a thread-safe Lamport clock. The zero value is ready to use.
type Lamport struct {
	mu  sync.Mutex
	now uint64
}

// Next advances the clock for a local event and returns the new time.
func (l *Lamport) Next() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.now++
	return l.now
}

// Witness folds an observed remote timestamp into the clock and returns the
// new local time (max(local, remote) + 1).
func (l *Lamport) Witness(remote uint64) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if remote > l.now {
		l.now = remote
	}
	l.now++
	return l.now
}

// Now returns the current time without advancing it.
func (l *Lamport) Now() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.now
}

// Stamp is a totally ordered (Lamport time, client) pair used for
// last-writer-wins resolution in the eventual coherence model.
type Stamp struct {
	Time   uint64
	Client ids.ClientID
}

// Less orders stamps by time, breaking ties by client ID, yielding the total
// order required for convergent LWW resolution.
func (s Stamp) Less(o Stamp) bool {
	if s.Time != o.Time {
		return s.Time < o.Time
	}
	return s.Client < o.Client
}

// Zero reports whether the stamp is unset.
func (s Stamp) Zero() bool { return s.Time == 0 && s.Client == 0 }
