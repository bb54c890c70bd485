package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram sub-bucket resolution: 2^subBits linear sub-buckets per power of
// two gives a worst-case relative quantile error of 2^-subBits (~3.1%), the
// HDR-histogram trade: fixed memory, no locks, full dynamic range.
const (
	subBits    = 5
	subBuckets = 1 << subBits
	numBuckets = (64 - subBits + 1) * subBuckets
)

// Hist is a lock-free log-linear histogram over non-negative int64 values
// (nanoseconds for latency series, plain counts for value series). Observe
// is safe for concurrent use and safe on a nil receiver (no-op), so
// instrumented code can hold nil handles when observability is disabled and
// pay only a predictable branch. Quantile reads see a consistent-enough
// snapshot under concurrent writes, which live scrapes exploit.
type Hist struct {
	counts [numBuckets]atomic.Uint64
	n      atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
}

// bucketOf maps a value onto its log-linear bucket.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < subBuckets {
		return int(u) // exact buckets below the linear/log boundary
	}
	exp := bits.Len64(u) - 1 // position of the highest set bit, >= subBits
	sub := (u >> uint(exp-subBits)) - subBuckets
	return (exp-subBits+1)*subBuckets + int(sub)
}

// bucketValue is the lower bound of a bucket — the value Quantile reports,
// so quantiles are never over-stated by more than the bucket width.
func bucketValue(b int) int64 {
	if b < subBuckets {
		return int64(b)
	}
	block := b / subBuckets
	sub := b % subBuckets
	return int64(subBuckets+sub) << uint(block-1)
}

// Observe adds one observation. Negative values clamp to zero.
func (h *Hist) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)].Add(1)
	h.n.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Record adds one latency observation in nanoseconds.
func (h *Hist) Record(d time.Duration) { h.Observe(int64(d)) }

// Count returns the number of recorded observations.
func (h *Hist) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of all recorded observations.
func (h *Hist) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Max returns the largest recorded observation exactly.
func (h *Hist) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Quantile returns the q-quantile (q in [0,1]) with <=3.1% relative error.
func (h *Hist) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	target := uint64(q * float64(n))
	if target >= n {
		return h.Max()
	}
	var seen uint64
	for b := 0; b < numBuckets; b++ {
		seen += h.counts[b].Load()
		if seen > target {
			return bucketValue(b)
		}
	}
	return h.Max()
}

// CountAtMost returns the number of observations whose bucket lies entirely
// at or below bound — the cumulative count backing a Prometheus `le` bucket.
// Observations in the bucket that starts exactly at a power-of-two bound are
// attributed to the next bound, keeping the cumulative counts conservative
// and deterministic (golden-testable).
func (h *Hist) CountAtMost(bound int64) uint64 {
	if h == nil {
		return 0
	}
	var seen uint64
	for b := 0; b < numBuckets; b++ {
		if bucketValue(b) > bound {
			break
		}
		// Include the bucket only when its entire value range is <= bound.
		if b+1 < numBuckets && bucketValue(b+1)-1 > bound {
			break
		}
		seen += h.counts[b].Load()
	}
	return seen
}

// HistSnapshot is a point-in-time summary of a Hist, scaled to the metric's
// exposition unit (seconds for duration series, raw for value series).
type HistSnapshot struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
}

func (h *Hist) snapshot(scale float64) HistSnapshot {
	return HistSnapshot{
		Count: h.Count(),
		Sum:   float64(h.Sum()) * scale,
		Max:   float64(h.Max()) * scale,
		P50:   float64(h.Quantile(0.50)) * scale,
		P99:   float64(h.Quantile(0.99)) * scale,
		P999:  float64(h.Quantile(0.999)) * scale,
	}
}
