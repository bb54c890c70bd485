package harness

import (
	"testing"
)

func TestStalenessTracking(t *testing.T) {
	s := NewStaleness()
	s.Wrote("p") // version 1
	s.Wrote("p") // version 2
	if lag := s.ReadVersion("p", 2); lag != 0 {
		t.Fatalf("fresh read lag = %d", lag)
	}
	if lag := s.ReadVersion("p", 1); lag != 1 {
		t.Fatalf("stale read lag = %d", lag)
	}
	if lag := s.ReadVersion("p", 0); lag != 2 {
		t.Fatalf("very stale read lag = %d", lag)
	}
	r := s.Report()
	if r.Reads != 3 || r.StaleReads != 2 {
		t.Fatalf("report %+v", r)
	}
	if r.StaleFraction < 0.66 || r.StaleFraction > 0.67 {
		t.Fatalf("fraction %f", r.StaleFraction)
	}
	if r.MaxLag != 2 {
		t.Fatalf("max lag %d", r.MaxLag)
	}
	if r.MeanLag != 1 {
		t.Fatalf("mean lag %f", r.MeanLag)
	}
	// Small exact-bucket values: the HDR histogram is precise here.
	if r.P99Lag != 2 {
		t.Fatalf("p99 lag %d", r.P99Lag)
	}
}

func TestStalenessEmptyReport(t *testing.T) {
	r := NewStaleness().Report()
	if r.Reads != 0 || r.StaleFraction != 0 || r.P99Lag != 0 {
		t.Fatalf("empty report %+v", r)
	}
}
