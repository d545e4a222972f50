package main

import (
	"math"
	"sort"
)

// minBeyond is the sample-count rule for a reported tail: a percentile is
// only supported when at least this many samples lie beyond it.
const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the p-th percentile (0..100) of an ascending slice,
// interpolating linearly between ranks; 0 for an empty slice.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return asc[lo] + (asc[hi]-asc[lo])*(pos-float64(lo))
}

// median is the 50th percentile of xs in any order.
func median(xs []float64) float64 { return percentile(sorted(xs), 50) }

// supportedTail returns the highest whole percentile with at least
// minBeyond of n samples beyond it, or 0 when even the median lacks them.
func supportedTail(n int) int {
	if n < 2*minBeyond {
		return 0
	}
	return min(99, int(100*float64(n-minBeyond)/float64(n)))
}

// quartiles returns the first quartile, median and third quartile of xs
// by the exclusive method Python's statistics.quantiles(xs, n=4) uses,
// so spreads printed here match the acceptance rule. Fewer than two
// values repeat the single value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	asc := sorted(xs)
	n := len(asc)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return asc[0], asc[0], asc[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(pos)
		j = max(1, min(j, n-1))
		frac := pos - float64(j)
		return asc[j-1] + (asc[j]-asc[j-1])*frac
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
