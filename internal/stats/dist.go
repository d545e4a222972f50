package stats

import (
	"math"
	"sort"
)

// Dist is an empirical distribution over discrete uint32 values (addresses,
// ports, protocol numbers) with float64 weights. Both entropy detectors
// build one Dist per traffic feature per time bin; weights are flow counts
// (Lakhina'05 style) or packet counts.
type Dist struct {
	w     map[uint32]float64
	total float64
}

// NewDist returns an empty distribution.
func NewDist() *Dist {
	return &Dist{w: make(map[uint32]float64)}
}

// Add accumulates weight for a value. Negative weights are ignored: the
// detectors only ever add counts, and silently absorbing a bad weight is
// preferable to corrupting the entropy of an entire bin.
func (d *Dist) Add(value uint32, weight float64) {
	if weight <= 0 {
		return
	}
	d.w[value] += weight
	d.total += weight
}

// Total returns the summed weight.
func (d *Dist) Total() float64 { return d.total }

// Weight returns the accumulated weight of a value.
func (d *Dist) Weight(value uint32) float64 { return d.w[value] }

// Entropy returns the Shannon entropy H = -Σ p log2 p in bits.
// An empty distribution has zero entropy. Summation runs in sorted value
// order so the result is bit-for-bit reproducible across runs (map
// iteration order would otherwise reorder the floating-point sum).
func (d *Dist) Entropy() float64 {
	if d.total == 0 {
		return 0
	}
	h := 0.0
	for _, v := range d.sortedValues() {
		p := d.w[v] / d.total
		h -= p * math.Log2(p)
	}
	return h
}

// sortedValues returns the support in ascending value order.
func (d *Dist) sortedValues() []uint32 {
	vals := make([]uint32, 0, len(d.w))
	for v := range d.w {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals
}

// NormEntropy returns the entropy normalized to [0, 1] by log2 of the
// support size, the form Lakhina et al. feed to the subspace method so that
// features with different alphabet sizes are comparable. A distribution
// with a single value has normalized entropy 0.
func (d *Dist) NormEntropy() float64 {
	n := len(d.w)
	if n <= 1 {
		return 0
	}
	return d.Entropy() / math.Log2(float64(n))
}

// ValueWeight pairs a value with its accumulated weight, as returned by Top.
type ValueWeight struct {
	Value  uint32
	Weight float64
}

// Top returns the k heaviest values in descending weight order (ties broken
// by ascending value for determinism). It is used for meta-data drill-down:
// "which addresses dominate the bins that moved".
func (d *Dist) Top(k int) []ValueWeight {
	if k <= 0 {
		return nil
	}
	all := make([]ValueWeight, 0, len(d.w))
	for v, w := range d.w {
		all = append(all, ValueWeight{Value: v, Weight: w})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Weight != all[j].Weight {
			return all[i].Weight > all[j].Weight
		}
		return all[i].Value < all[j].Value
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// KL returns the Kullback-Leibler divergence D(d || ref) in bits, with
// additive smoothing so that values present in d but absent from ref do not
// produce infinities. This is the distance the histogram detector (Kind et
// al., TNSM'09) thresholds: eps is the smoothing pseudo-weight given to
// every value in the union of supports.
func (d *Dist) KL(ref *Dist, eps float64) float64 {
	if d.total == 0 {
		return 0
	}
	if eps <= 0 {
		eps = 1e-9
	}
	// Union of supports, iterated in sorted order for reproducible sums.
	union := make(map[uint32]struct{}, len(d.w)+len(ref.w))
	for v := range d.w {
		union[v] = struct{}{}
	}
	for v := range ref.w {
		union[v] = struct{}{}
	}
	vals := make([]uint32, 0, len(union))
	for v := range union {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	n := float64(len(union))
	dTot := d.total + eps*n
	rTot := ref.total + eps*n
	kl := 0.0
	for _, v := range vals {
		p := (d.w[v] + eps) / dTot
		q := (ref.w[v] + eps) / rTot
		kl += p * math.Log2(p/q)
	}
	if kl < 0 {
		// Smoothing can introduce tiny negative rounding; clamp.
		kl = 0
	}
	return kl
}

// Merge adds every value of other into d with a multiplier. The histogram
// detector uses Merge with fractional multipliers to maintain an EWMA
// reference distribution.
func (d *Dist) Merge(other *Dist, mult float64) {
	if mult <= 0 {
		return
	}
	for v, w := range other.w {
		d.Add(v, w*mult)
	}
}

// Scale multiplies every weight by mult (> 0).
func (d *Dist) Scale(mult float64) {
	if mult <= 0 {
		return
	}
	for v := range d.w {
		d.w[v] *= mult
	}
	d.total *= mult
}

// Values iterates over all (value, weight) pairs in unspecified order.
func (d *Dist) Values(fn func(value uint32, weight float64)) {
	for v, w := range d.w {
		fn(v, w)
	}
}
