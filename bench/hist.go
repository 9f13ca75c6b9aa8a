package main

import (
	"math"
	"math/bits"
	"time"
)

// Histogram geometry: 128 linear sub-buckets per power of two of
// nanoseconds, so every bucket is at most 1/128 (0.8%) of its lower
// edge wide. Durations outside [histMin, histMax] are clamped to the
// edge buckets.
const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histMin     = time.Microsecond
	histMax     = 60 * time.Second
	// histMinExp and histMaxExp are floor(log2) of histMin and histMax
	// in nanoseconds (2^9 ≤ 1000 < 2^10, 2^35 ≤ 6e10 < 2^36).
	histMinExp  = 9
	histMaxExp  = 35
	histBuckets = (histMaxExp - histMinExp + 1) * histSub
)

// hist is a fixed log-bucketed latency histogram. Record never
// allocates, so it can sit inside a timed loop; a hist is not safe for
// concurrent use, so each client keeps its own and they are merged
// after the run.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

func histBucket(d time.Duration) int {
	if d < histMin {
		d = histMin
	}
	if d > histMax {
		d = histMax
	}
	v := uint64(d)
	e := bits.Len64(v) - 1
	sub := (v >> (e - histSubBits)) & (histSub - 1)
	return (e-histMinExp)<<histSubBits + int(sub)
}

// histBounds returns bucket i's half-open range [lo, hi).
func histBounds(i int) (lo, hi time.Duration) {
	e := i>>histSubBits + histMinExp
	sub := uint64(i & (histSub - 1))
	width := uint64(1) << (e - histSubBits)
	l := (histSub + sub) * width
	return time.Duration(l), time.Duration(l + width)
}

// Record adds one sample.
func (h *hist) Record(d time.Duration) {
	h.counts[histBucket(d)]++
	h.n++
}

// Merge adds o's samples to h.
func (h *hist) Merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// Count returns the number of samples.
func (h *hist) Count() uint64 { return h.n }

// Quantile estimates the sample of rank ceil(q·n), or returns 0 when
// the histogram is empty. The estimate stays inside that sample's
// bucket, placed by the rank's position among the bucket's samples as
// if they were spread evenly, so it moves continuously between runs
// instead of snapping to bucket edges.
func (h *hist) Quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := max(uint64(math.Ceil(q*float64(h.n))), 1)
	var seen uint64
	for i, c := range h.counts {
		if seen+c >= rank {
			lo, hi := histBounds(i)
			frac := (float64(rank-seen) - 0.5) / float64(c)
			return lo + time.Duration(frac*float64(hi-lo))
		}
		seen += c
	}
	panic("hist: rank beyond the sample count") // counts sum to n
}
