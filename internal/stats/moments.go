package stats

import "math"

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
