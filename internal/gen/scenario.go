package gen

import (
	"bytes"
	"fmt"

	"repro/internal/detector"
	"repro/internal/flow"
	"repro/internal/sampling"
	"repro/internal/stats"
)

// Placement schedules one anomaly into a scenario bin. The Annotation is
// assigned by Generate (1 + placement index).
type Placement struct {
	Anomaly Anomaly
	// Bin is the zero-based measurement bin index the anomaly occupies.
	Bin int
}

// Scenario is a complete synthetic trace specification.
type Scenario struct {
	Background Background
	// Bins is the number of measurement bins to generate.
	Bins int
	// StartTime is the Unix-seconds start, aligned down to the store's
	// bin width at generation time.
	StartTime uint32
	// Seed drives all randomness.
	Seed uint64
	// SampleRate, when > 1, applies 1-in-N packet sampling to every
	// record before storage (the GEANT condition; SWITCH traces were
	// unsampled, i.e. 1).
	SampleRate uint32
	Placements []Placement
	// Composite marks the placements as phases of one event (see
	// Def.Composite); carried into the Truth for joint scoring.
	Composite bool
	// Trace, when non-empty, replaces the synthetic background with a
	// replayed flow trace in either ReadTrace format (NFTR binary or
	// CSV). The records are rebased under the scenario clock: the first
	// record lands at the aligned StartTime and every later record shifts
	// by the same offset; rebased records falling past the generated span
	// are dropped and counted in Truth.TraceDropped. Sampling, background
	// suppressors and anomaly placements apply exactly as over a
	// synthetic background, so anomalies inject on top of the replayed
	// traffic.
	Trace []byte
}

// TruthEntry records the ground truth of one placed anomaly.
type TruthEntry struct {
	Anno     flow.Annotation
	Kind     detector.Kind
	Describe string
	Interval flow.Interval
	// Signature is the anomaly's expected root-cause itemset (the
	// Table-1-style conjunction an ideal extraction reports).
	Signature []ExpectedItem
	// Injected counts the anomaly's records before sampling; Stored after
	// sampling (what the store and therefore the miner can see).
	InjectedFlows uint64
	InjectedPkts  uint64
	StoredFlows   uint64
	StoredPkts    uint64
	// SuppressedFlows counts background records a BackgroundSuppressor
	// anomaly (link outage, blackout) removed from its bin.
	SuppressedFlows uint64
}

// Truth is the scenario ground truth: one entry per placement, in
// placement order, plus totals.
type Truth struct {
	Entries []TruthEntry
	// Span is the full generated interval.
	Span flow.Interval
	// BackgroundFlows counts stored background records.
	BackgroundFlows uint64
	// TraceDropped counts replayed trace records that fell outside the
	// generated span after rebasing (trace longer than the scenario).
	TraceDropped uint64
	// Composite marks the entries as phases of one event: incident-mode
	// evaluation scores them jointly (one extraction must recover every
	// entry) instead of entry-by-entry.
	Composite bool
}

// Entry returns the truth entry with the given annotation, or nil.
func (t *Truth) Entry(anno flow.Annotation) *TruthEntry {
	i := int(anno) - 1
	if i < 0 || i >= len(t.Entries) {
		return nil
	}
	return &t.Entries[i]
}

// sink is what Generate writes into: any nfstore.Engine, or a capture
// such as stream.Collector.
type sink interface {
	BinSeconds() uint32
	Add(r *flow.Record) error
	Flush() error
}

// Generate writes the scenario into store — an nfstore.Engine or any
// other sink with BinSeconds, Add and Flush — and returns the ground
// truth. The store's bin width defines the measurement bin; StartTime is
// aligned down to it.
func (s *Scenario) Generate(store sink) (*Truth, error) {
	if s.Bins <= 0 {
		return nil, fmt.Errorf("gen: scenario needs Bins > 0")
	}
	if err := s.Background.validate(); err != nil {
		return nil, err
	}
	for i, p := range s.Placements {
		if p.Anomaly == nil {
			return nil, fmt.Errorf("gen: placement %d has nil anomaly", i)
		}
		if p.Bin < 0 || p.Bin >= s.Bins {
			return nil, fmt.Errorf("gen: placement %d bin %d outside [0,%d)", i, p.Bin, s.Bins)
		}
	}
	binSec := store.BinSeconds()
	start := s.StartTime - s.StartTime%binSec
	truth := &Truth{
		Span:      flow.Interval{Start: start, End: start + uint32(s.Bins)*binSec},
		Composite: s.Composite,
	}

	rng := stats.NewRNG(s.Seed)
	var sampler *sampling.Sampler
	if s.SampleRate > 1 {
		var err error
		sampler, err = sampling.New(s.SampleRate, rng.Fork(0xface))
		if err != nil {
			return nil, err
		}
	}

	// store-side emit with optional sampling; counters per current sink.
	var storedFlows, storedPkts *uint64
	emit := func(r *flow.Record) error {
		if sampler != nil {
			sampled, ok := sampler.Apply(r)
			if !ok {
				return nil
			}
			r = &sampled
		}
		if storedFlows != nil {
			*storedFlows++
			*storedPkts += r.Packets
		}
		return store.Add(r)
	}

	// Truth entries are created up front so subtractive anomalies
	// (BackgroundSuppressor) can count their drops while the background is
	// generated.
	for i, p := range s.Placements {
		iv := flow.Interval{Start: start + uint32(p.Bin)*binSec, End: start + uint32(p.Bin+1)*binSec}
		truth.Entries = append(truth.Entries, TruthEntry{
			Anno:      flow.Annotation(i + 1),
			Kind:      p.Anomaly.Kind(),
			Describe:  p.Anomaly.Describe(),
			Interval:  iv,
			Signature: p.Anomaly.Signature(),
		})
	}

	// Per-bin suppressors: placements that remove background traffic from
	// their bin (link outages, blackouts).
	type suppressor struct {
		entry *TruthEntry
		s     BackgroundSuppressor
	}
	suppressorsIn := make(map[int][]suppressor)
	for i, p := range s.Placements {
		if bs, ok := p.Anomaly.(BackgroundSuppressor); ok {
			suppressorsIn[p.Bin] = append(suppressorsIn[p.Bin], suppressor{&truth.Entries[i], bs})
		}
	}

	// suppressedEmit routes one background record through the bin's
	// suppressors (if any) before the store-side emit.
	suppressedEmit := func(bin int, r *flow.Record) error {
		for _, sup := range suppressorsIn[bin] {
			if sup.s.SuppressBackground(r) {
				sup.entry.SuppressedFlows++
				return nil
			}
		}
		return emit(r)
	}

	if len(s.Trace) > 0 {
		// Replayed background: rebase the trace under the scenario clock
		// so its first record lands at the aligned start.
		tr, err := ReadTrace(bytes.NewReader(s.Trace))
		if err != nil {
			return nil, err
		}
		offset := int64(start) - int64(tr.Records[0].Start)
		storedFlows, storedPkts = &truth.BackgroundFlows, new(uint64)
		for i := range tr.Records {
			r := tr.Records[i]
			rebased := int64(r.Start) + offset
			if rebased < int64(start) || rebased >= int64(truth.Span.End) {
				truth.TraceDropped++
				continue
			}
			r.Start = uint32(rebased)
			r.Anno = flow.AnnoBackground
			if err := suppressedEmit(int((r.Start-start)/binSec), &r); err != nil {
				return nil, err
			}
		}
	} else {
		bg := newBackgroundGen(s.Background)
		for b := 0; b < s.Bins; b++ {
			iv := flow.Interval{Start: start + uint32(b)*binSec, End: start + uint32(b+1)*binSec}
			binEmit := func(r *flow.Record) error { return suppressedEmit(b, r) }
			for pop := 0; pop < s.Background.NumPoPs; pop++ {
				storedFlows, storedPkts = &truth.BackgroundFlows, new(uint64)
				binRng := rng.Fork(uint64(b)<<16 | uint64(pop))
				if err := bg.emitBin(binRng, iv, pop, b, binEmit); err != nil {
					return nil, err
				}
			}
		}
	}

	for i, p := range s.Placements {
		entry := &truth.Entries[i]
		storedFlows, storedPkts = &entry.StoredFlows, &entry.StoredPkts
		countingEmit := func(r *flow.Record) error {
			entry.InjectedFlows++
			entry.InjectedPkts += r.Packets
			return emit(r)
		}
		anomalyRng := rng.Fork(0xa0000 | uint64(i))
		if err := p.Anomaly.Emit(anomalyRng, entry.Interval, entry.Anno, countingEmit); err != nil {
			return nil, err
		}
	}
	if err := store.Flush(); err != nil {
		return nil, err
	}
	return truth, nil
}
