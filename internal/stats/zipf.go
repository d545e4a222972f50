package stats

import (
	"fmt"
	"math"
	"sort"
)

// Zipf samples ranks 1..N with probability proportional to 1/rank^s.
// Address and port popularity in backbone traffic is classically Zipfian;
// the generator draws client/server addresses and service ports from
// bounded Zipf distributions.
//
// The implementation precomputes the cumulative distribution and samples by
// binary search: exact, allocation-free per draw, and O(log N) — the
// population sizes used by the generator (≤ a few hundred thousand) make
// the precomputed table cheap.
type Zipf struct {
	cdf []float64 // cdf[i] = P(rank <= i+1)
}

// NewZipf builds a bounded Zipf sampler over n ranks with exponent s.
// It returns an error when n < 1 or s < 0.
func NewZipf(n int, s float64) (*Zipf, error) {
	if n < 1 {
		return nil, fmt.Errorf("stats: Zipf needs n >= 1, got %d", n)
	}
	if s < 0 || math.IsNaN(s) {
		return nil, fmt.Errorf("stats: Zipf needs s >= 0, got %v", s)
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[n-1] = 1 // guard against rounding
	return &Zipf{cdf: cdf}, nil
}

// MustZipf is NewZipf that panics on invalid parameters; for use with
// compile-time-constant parameters in generators and tests.
func MustZipf(n int, s float64) *Zipf {
	z, err := NewZipf(n, s)
	if err != nil {
		panic(err)
	}
	return z
}

// Rank draws a rank in [0, N), rank 0 being the most popular.
func (z *Zipf) Rank(r *RNG) int {
	u := r.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}
