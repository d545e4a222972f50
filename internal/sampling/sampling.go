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
