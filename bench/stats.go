package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// hist is a log-linear latency histogram in nanoseconds: 128 linear
// sub-buckets per power of two (0.8% steps), quantiles interpolated inside
// the bucket. obs.Hist is not used here on purpose: it reports a bucket's
// lower bound in 3.1% steps, so two runs of the same code print the same
// p50 to the last digit, and a 10% gate with a 3% spread target needs finer
// values than that. One goroutine owns a hist; merge with add.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histMaxBits = 32 // values clamp at 2^32 ns ≈ 4.3 s; op timeouts are 1 s
	histBuckets = (histMaxBits - histSubBits + 1) * histSub
)

func histBucket(v int64) int {
	if v < 0 {
		v = 0
	}
	if v >= 1<<histMaxBits {
		v = 1<<histMaxBits - 1
	}
	u := uint64(v)
	if u < histSub {
		return int(u)
	}
	exp := bits.Len64(u) - 1
	return (exp-histSubBits+1)*histSub + int(u>>uint(exp-histSubBits)) - histSub
}

// histLower is the smallest value that lands in bucket b.
func histLower(b int) float64 {
	if b < histSub {
		return float64(b)
	}
	return float64(uint64(histSub+b%histSub) << uint(b/histSub-1))
}

func (h *hist) observe(d time.Duration) {
	h.counts[histBucket(int64(d))]++
	h.n++
}

func (h *hist) add(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported (choosing-metrics §1).
const minBeyond = 10

// quantile returns the q-quantile in ns. ok is false when fewer than
// minBeyond samples lie beyond it; the value is still the best estimate.
func (h *hist) quantile(q float64) (ns float64, ok bool) {
	if h.n == 0 {
		return 0, false
	}
	rank := q * float64(h.n)
	ok = float64(h.n)-math.Ceil(rank) >= minBeyond
	var seen float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) > rank {
			lo, hi := histLower(b), histLower(b+1)
			return lo + (rank-seen)/float64(c)*(hi-lo), ok
		}
		seen += float64(c)
	}
	return histLower(histBuckets), ok
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// stat is one reported timing: the value, how many samples it rests on and
// over how many windows the median was taken. windows == 0 means no single
// window had minBeyond samples beyond the percentile and the whole phase was
// used as one window; low means even that fell short.
type stat struct {
	value   float64
	n       uint64
	windows int
	low     bool
}

// windowedQuantile is the benchmark's robust percentile: the q-quantile of
// every window that can support it, then the median across those windows. A
// 100-200 ms stall of the box spoils one window, not the metric.
func windowedQuantile(wins []*hist, q float64) stat {
	var whole hist
	var vals []float64
	for _, h := range wins {
		whole.add(h)
		if v, ok := h.quantile(q); ok {
			vals = append(vals, v)
		}
	}
	if len(vals) > 0 {
		return stat{value: median(vals), n: whole.n, windows: len(vals)}
	}
	v, ok := whole.quantile(q)
	return stat{value: v, n: whole.n, low: !ok}
}

// spread summarises repeated runs of one metric (-repeat).
type spread struct {
	min, median, max, rel float64
}

// spreadOf gives min/median/max and (max-min)/median of the values.
func spreadOf(vals []float64) spread {
	if len(vals) == 0 {
		return spread{}
	}
	s := spread{min: vals[0], max: vals[0], median: median(vals)}
	for _, v := range vals {
		s.min = math.Min(s.min, v)
		s.max = math.Max(s.max, v)
	}
	if s.median != 0 {
		s.rel = (s.max - s.min) / math.Abs(s.median)
	}
	return s
}
