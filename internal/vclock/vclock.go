// Package vclock implements Lamport clocks and stamps: the total tiebreak used
// by the eventual model's last-writer-wins convergence rule. The vector clock
// that drives the causal model and the session guarantees is msg.Vec.
//
//globelint:deterministic
package vclock

import (
	"sync"

	"repro/internal/ids"
)

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
