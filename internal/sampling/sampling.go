package sampling

import (
	"fmt"

	"repro/internal/flow"
	"repro/internal/stats"
)

// Sampler thins flow records by simulated 1-in-N packet sampling.
type Sampler struct {
	rate uint32 // N; 1 means no sampling
	rng  *stats.RNG
}

// New returns a Sampler with the given rate ("1 in rate" packets kept),
// drawing from the given RNG. rate 0 is rejected; rate 1 passes traffic
// unchanged.
func New(rate uint32, rng *stats.RNG) (*Sampler, error) {
	if rate == 0 {
		return nil, fmt.Errorf("sampling: rate must be >= 1, got 0")
	}
	if rng == nil {
		rng = stats.NewRNG(1)
	}
	return &Sampler{rate: rate, rng: rng}, nil
}

// MustNew is New that panics on invalid rate.
func MustNew(rate uint32, rng *stats.RNG) *Sampler {
	s, err := New(rate, rng)
	if err != nil {
		panic(err)
	}
	return s
}

// Rate returns the sampling denominator N.
func (s *Sampler) Rate() uint32 { return s.rate }

// Apply samples one record. It returns the thinned-and-renormalized record
// and true when at least one packet survived, or a zero record and false
// when the flow vanished. The input record is not modified.
func (s *Sampler) Apply(r *flow.Record) (flow.Record, bool) {
	if s.rate == 1 {
		return *r, true
	}
	p := 1 / float64(s.rate)
	kept := s.rng.Binomial(r.Packets, p)
	if kept == 0 {
		return flow.Record{}, false
	}
	out := *r
	// Renormalize: the collector multiplies sampled counters by N.
	out.Packets = kept * uint64(s.rate)
	// Bytes scale with the same survival ratio, preserving the record's
	// average packet size.
	avg := float64(r.Bytes) / float64(r.Packets)
	out.Bytes = uint64(avg*float64(kept)) * uint64(s.rate)
	if out.Bytes < out.Packets {
		out.Bytes = out.Packets // keep the store's validity invariant
	}
	return out, true
}

// ApplyAll samples a batch, returning only the surviving records.
func (s *Sampler) ApplyAll(rs []flow.Record) []flow.Record {
	out := make([]flow.Record, 0, len(rs)/int(s.rate)+1)
	for i := range rs {
		if sampled, ok := s.Apply(&rs[i]); ok {
			out = append(out, sampled)
		}
	}
	return out
}

// SurvivalProb returns the probability that a flow with the given packet
// count survives 1-in-N sampling: 1 - (1 - 1/N)^packets. Useful for
// analytical assertions in tests.
func (s *Sampler) SurvivalProb(packets uint64) float64 {
	if s.rate == 1 {
		return 1
	}
	q := 1 - 1/float64(s.rate)
	prob := 1.0
	// pow by squaring on the integer exponent.
	base := q
	e := packets
	for e > 0 {
		if e&1 == 1 {
			prob *= base
		}
		base *= base
		e >>= 1
	}
	return 1 - prob
}
