package stats

// Prob returns the empirical probability of a value.
func (d *Dist) Prob(value uint32) float64 {
	if d.total == 0 {
		return 0
	}
	return d.w[value] / d.total
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cdf) }

// Prob returns the probability of rank i (0-based): the oracle
// TestZipfRankDistribution holds the sampler to.
func (z *Zipf) Prob(i int) float64 {
	if i < 0 || i >= len(z.cdf) {
		return 0
	}
	if i == 0 {
		return z.cdf[0]
	}
	return z.cdf[i] - z.cdf[i-1]
}
