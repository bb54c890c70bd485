package main

import (
	"math"
	"testing"
	"time"
)

func filled(n int, v func(i int) time.Duration) hist {
	var h hist
	for i := 0; i < n; i++ {
		h.observe(v(i))
	}
	return h
}

func TestHistQuantileInterpolatesWithinOnePercent(t *testing.T) {
	h := filled(100000, func(i int) time.Duration { return time.Duration(i + 1) })
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got, ok := h.quantile(q)
		want := q * 100000
		if !ok || math.Abs(got-want)/want > 0.01 {
			t.Errorf("q%.2f = %.1f (ok=%v), want %.1f within 1%%", q, got, ok, want)
		}
	}
	if histBucket(1<<40) != histBuckets-1 || histBucket(-5) != 0 {
		t.Errorf("out-of-range values must clamp to the end buckets")
	}
}

func TestHistRefusesPercentileWithFewerThanTenSamplesBeyond(t *testing.T) {
	one := func(int) time.Duration { return time.Microsecond }
	cases := []struct {
		n    int
		q    float64
		want bool
	}{{19, 0.5, false}, {20, 0.5, true}, {999, 0.99, false}, {1000, 0.99, true}, {99, 0.9, false}, {100, 0.9, true}}
	for _, c := range cases {
		h := filled(c.n, one)
		if _, ok := h.quantile(c.q); ok != c.want {
			t.Errorf("n=%d q=%.2f: ok=%v, want %v", c.n, c.q, ok, c.want)
		}
	}
	var empty hist
	if v, ok := empty.quantile(0.5); v != 0 || ok {
		t.Errorf("empty hist: %v %v", v, ok)
	}
}

func constant(n int, d time.Duration) *hist {
	h := filled(n, func(int) time.Duration { return d })
	return &h
}

func TestWindowedQuantileIsMedianAcrossWindows(t *testing.T) {
	// Four healthy windows near 10-13 us and one spoiled by a stall.
	wins := []*hist{
		constant(100, 10*time.Microsecond), constant(100, 11*time.Microsecond),
		constant(100, 900*time.Microsecond),
		constant(100, 12*time.Microsecond), constant(100, 13*time.Microsecond),
		constant(5, time.Second), // too few samples: left out, not trusted
	}
	s := windowedQuantile(wins, 0.5)
	if s.windows != 5 || s.n != 505 || s.low {
		t.Fatalf("stat %+v, want 5 windows over 505 samples", s)
	}
	if s.value < 11.9e3 || s.value > 12.2e3 {
		t.Fatalf("median across windows %.0f ns, want the middle window's ~12000", s.value)
	}
}

func TestWindowedQuantileFallsBackToWholePhase(t *testing.T) {
	wins := []*hist{constant(40, 20*time.Millisecond), constant(40, 20*time.Millisecond), constant(40, 20*time.Millisecond)}
	s := windowedQuantile(wins, 0.9) // 4 beyond per window, 12 beyond overall
	if s.windows != 0 || s.low || s.n != 120 {
		t.Fatalf("stat %+v, want the whole phase as one window, not low", s)
	}
	s = windowedQuantile(wins[:1], 0.9)
	if !s.low {
		t.Fatalf("stat %+v, want low: 4 samples beyond p90", s)
	}
}

func TestSpreadOf(t *testing.T) {
	s := spreadOf([]float64{10, 12, 11, 9, 13})
	if s.min != 9 || s.max != 13 || s.median != 11 || math.Abs(s.rel-4.0/11) > 1e-12 {
		t.Fatalf("spread %+v", s)
	}
	if (spreadOf(nil) != spread{}) {
		t.Fatalf("empty spread not zero")
	}
}
