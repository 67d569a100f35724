package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a p99 needs at least 1000 samples, a p50 at least 20. Below that the
// percentile is unresolved and is not reported as a number.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted and whether
// it is supported (at least minBeyond samples lie above its rank).
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// minSamples is the fewest samples that support the q-percentile.
func minSamples(q float64) int {
	for n := minBeyond + 1; ; n++ {
		rank := int(math.Ceil(q * float64(n)))
		if rank < 1 {
			rank = 1
		}
		if n-rank >= minBeyond {
			return n
		}
	}
}

// slicedPercentile splits time-ordered samples into up to k contiguous
// slices of equal count, each large enough to support the q-percentile,
// and returns the median of the slices' percentiles: a stall in one
// stretch of a run moves one slice, not the reported value. ok is false
// when the samples cannot fill even one supported slice.
func slicedPercentile(samples []float64, q float64, k int) (v float64, slices int, ok bool) {
	n := len(samples)
	if m := n / minSamples(q); m < k {
		k = m
	}
	if k < 1 {
		return 0, 0, false
	}
	vals := make([]float64, k)
	for i := range vals {
		vals[i], _ = percentile(sortedCopy(samples[i*n/k:(i+1)*n/k]), q)
	}
	return median(vals), k, true
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first quartile, median and third quartile of xs
// by the exclusive method (Python's statistics.quantiles(xs, n=4)), the
// rule the spread of repeated runs is judged by. With one value all
// three are that value.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// median of xs (any order).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// interval is a closed-open span [Start, End) on one clock (ns).
type interval struct{ Start, End int64 }

// selfTime is a span's duration minus the union of its children's
// intervals, each clipped to the span. Overlapping children count once.
func selfTime(span interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.Start < span.Start {
			c.Start = span.Start
		}
		if c.End > span.End {
			c.End = span.End
		}
		if c.End > c.Start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].Start < clipped[j].Start })
	var covered int64
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.Start <= cur.End:
			if c.End > cur.End {
				cur.End = c.End
			}
		default:
			covered += cur.End - cur.Start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.End - cur.Start
	}
	return span.End - span.Start - covered
}

// completingSecond joins an alarm to the pushed second that completed
// its window. The alarm's StreamTime is its window index times the hop
// on the patient's admitted stream (the seconds that reached the
// feature extractor); window k spans admitted seconds k … k+winHops−1,
// so the push of admitted second k+winHops−1 completes it. admitted maps
// admitted-stream positions to the patient's generator seconds; nil
// means every generated second was admitted (no prefilter). ok is false
// when the alarm lies beyond the admitted stream.
func completingSecond(streamTime, hop float64, winHops int, admitted []int32) (int, bool) {
	k := int(math.Round(streamTime / hop))
	a := k + winHops - 1
	if k < 0 {
		return 0, false
	}
	if admitted == nil {
		return a, true
	}
	if a >= len(admitted) {
		return 0, false
	}
	return int(admitted[a]), true
}

// ledger accounts operations and failures for failed_frac. Every
// operation attempted against the system (pushes, confirms, digests,
// audit samples, declarations) and every correctness check is one
// attempt; every error other than retried backpressure, every batch or
// confirm the system lost, every dropped event, every retrain, store or
// stream error and every correctness mismatch is one failure.
type ledger struct {
	attempted, failed uint64
	reasons           map[string]uint64
}

func (l *ledger) ops(n uint64) { l.attempted += n }

// fail records n failures of one kind that were already attempted.
func (l *ledger) fail(reason string, n uint64) {
	if n == 0 {
		return
	}
	if l.reasons == nil {
		l.reasons = map[string]uint64{}
	}
	l.failed += n
	l.reasons[reason] += n
}

// check records one correctness check: one attempt, and one failure
// when it does not hold.
func (l *ledger) check(ok bool, reason string) {
	l.attempted++
	if !ok {
		l.fail(reason, 1)
	}
}

func (l *ledger) frac() float64 {
	if l.attempted == 0 {
		return 0
	}
	return float64(l.failed) / float64(l.attempted)
}

// slope is the least-squares slope of ys over xs (units of y per unit
// of x); 0 with fewer than two distinct xs.
func slope(xs, ys []float64) float64 {
	n := float64(len(xs))
	if len(xs) < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}
