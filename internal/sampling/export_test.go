package sampling

import "repro/internal/stats"

// MustNew is New that panics on invalid rate.
func MustNew(rate uint32, rng *stats.RNG) *Sampler {
	s, err := New(rate, rng)
	if err != nil {
		panic(err)
	}
	return s
}
