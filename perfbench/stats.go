package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count). It does not reorder xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points that split xs into four equal
// groups, by the same "exclusive" rule as Python's
// statistics.quantiles(xs, n=4), so the spread the benchmark reports is
// the spread a reader recomputes from the printed values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// minBeyond is how many samples must lie beyond a reported percentile:
// with fewer, the tail value is one or two samples' noise.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and
// whether it may be reported: at least minBeyond samples must lie beyond
// it, so p99 needs 1000 samples and p50 needs 20.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), false
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	v := sortedCopy(xs)[rank-1]
	return v, n-rank >= minBeyond
}

// minSamplesFor is the smallest sample count at which percentile(p) may be
// reported.
func minSamplesFor(p float64) int {
	return int(math.Ceil(minBeyond/(1-p) - 1e-9)) // 1-0.9 is not exactly 0.1
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// interval is a closed-open stretch of wall-clock time.
type interval struct{ start, end time.Time }

// unionDuration is the length of the union of the intervals: overlapping
// spans (concurrent folds, forest trees, CNN batches) count once, so it is
// the wall time the intervals occupied, never more than their extent.
func unionDuration(ivs []interval) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start.Before(s[j].start) })
	var total time.Duration
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.start.After(cur.end) {
			total += cur.end.Sub(cur.start)
			cur = iv
			continue
		}
		if iv.end.After(cur.end) {
			cur.end = iv.end
		}
	}
	return total + cur.end.Sub(cur.start)
}

// selfTime is the part of parent that none of the children cover: the
// parent's duration minus the union of its children clipped to it.
func selfTime(parent interval, children []interval) time.Duration {
	var clipped []interval
	for _, c := range children {
		if c.start.Before(parent.start) {
			c.start = parent.start
		}
		if c.end.After(parent.end) {
			c.end = parent.end
		}
		if c.end.After(c.start) {
			clipped = append(clipped, c)
		}
	}
	return parent.end.Sub(parent.start) - unionDuration(clipped)
}

// openLoop describes one open-loop send: when the schedule said it was due,
// when the generator actually sent it, and when its result appeared.
type openLoop struct{ due, sent, done time.Time }

// openLoopLatency times every completed send from its due time, not its
// send time, so a stalled generator's wait counts against the system the
// way a real user's would; it also returns how late the generator ran at
// worst.
func openLoopLatency(sends []openLoop) (latencies []float64, lateMax time.Duration) {
	latencies = make([]float64, 0, len(sends))
	for _, s := range sends {
		if late := s.sent.Sub(s.due); late > lateMax {
			lateMax = late
		}
		latencies = append(latencies, ms(s.done.Sub(s.due)))
	}
	return latencies, lateMax
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// mean is the arithmetic mean (NaN for no values).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}
