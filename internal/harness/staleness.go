package harness

import (
	"sync"

	"repro/internal/obs"
)

// Staleness tracks how far reads lag behind writes, in versions: it compares
// versions read against an oracle of versions written. The harness bumps the
// oracle on every write and observes on every read.
// Safe for concurrent use.
type Staleness struct {
	mu     sync.Mutex
	latest map[string]uint64 // page -> newest version written anywhere
	reads  int
	stale  int
	lagSum uint64
	lagMax uint64

	lagHist obs.Hist // version-lag distribution (powers the P99 column)
}

// NewStaleness creates a tracker.
func NewStaleness() *Staleness {
	return &Staleness{latest: make(map[string]uint64)}
}

// Wrote records one more write to the page (version = count of writes).
func (s *Staleness) Wrote(page string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.latest[page]++
}

// ReadVersion records a read that observed the given version of the page
// and returns the version lag.
func (s *Staleness) ReadVersion(page string, version uint64) uint64 {
	s.mu.Lock()
	lat := s.latest[page]
	s.reads++
	var lag uint64
	if lat > version {
		lag = lat - version
		s.stale++
		s.lagSum += lag
		if lag > s.lagMax {
			s.lagMax = lag
		}
	}
	s.mu.Unlock()
	s.lagHist.Observe(int64(lag))
	return lag
}

// Report summarises the tracker.
type Report struct {
	Reads         int
	StaleReads    int
	StaleFraction float64
	MeanLag       float64
	MaxLag        uint64
	// P99Lag is the 99th-percentile version lag across all reads (fresh
	// reads count as lag 0), from the HDR histogram — within its ~3%
	// relative bucket error.
	P99Lag uint64
}

// Report returns the summary.
func (s *Staleness) Report() Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := Report{Reads: s.reads, StaleReads: s.stale, MaxLag: s.lagMax}
	if s.reads > 0 {
		r.StaleFraction = float64(s.stale) / float64(s.reads)
		r.MeanLag = float64(s.lagSum) / float64(s.reads)
		r.P99Lag = uint64(s.lagHist.Quantile(0.99))
	}
	return r
}
