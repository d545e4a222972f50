package stats

import (
	"math"
	"sort"
)

// Welford is a streaming mean/variance estimator (Welford's algorithm).
// Detector thresholds of the form μ + kσ over training windows use it, as
// does the Q-statistic computation in the PCA detector.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add feeds one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (0 before any observation).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance (0 for fewer than 2 samples).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation on a sorted copy. It returns NaN for an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// MeanStd returns the mean and sample standard deviation of xs.
func MeanStd(xs []float64) (mean, std float64) {
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	return w.Mean(), w.Std()
}
