package stream

import (
	"context"
	"sort"

	"repro/internal/detector"
	"repro/internal/flow"
	"repro/internal/nfstore"
)

// SketchName is the registry name of the online heavy-hitter detector.
const SketchName = "sketch"

// The heavy-hitter detector's one configuration; the package doc gives
// the reason for each value.
const (
	sketchWindow    = 300 // seconds
	sketchRows      = 4
	sketchCols      = 2048 // a power of two: row indexing is a mask
	sketchRatio     = 0.25
	sketchMinFlows  = 100
	sketchMaxAlarms = 4
)

// mix64 is the SplitMix64 finalizer — full-avalanche, so one 64-bit
// hash sliced per row indexes a count-min sketch without a murmur
// dependency.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// cmSketch is a sketchRows × sketchCols count-min sketch over uint32
// keys with uint64 weights.
type cmSketch struct {
	cnt []uint64 // row-major
}

func newCMSketch() *cmSketch {
	return &cmSketch{cnt: make([]uint64, sketchRows*sketchCols)}
}

// cell returns the counter of key in row r.
func (s *cmSketch) cell(key uint32, r int) *uint64 {
	h := mix64(uint64(key) ^ (uint64(r+1) * 0x9e3779b97f4a7c15))
	return &s.cnt[r*sketchCols+int(h&(sketchCols-1))]
}

// add folds weight w into the key's counters and returns the updated
// point estimate (the minimum across rows — the classic CM bound).
func (s *cmSketch) add(key uint32, w uint64) uint64 {
	est := ^uint64(0)
	for r := 0; r < sketchRows; r++ {
		c := s.cell(key, r)
		*c += w
		if *c < est {
			est = *c
		}
	}
	return est
}

// estimate returns the key's point estimate without updating.
func (s *cmSketch) estimate(key uint32) uint64 {
	est := ^uint64(0)
	for r := 0; r < sketchRows; r++ {
		if c := *s.cell(key, r); c < est {
			est = c
		}
	}
	return est
}

// reset zeroes the counters for the next window.
func (s *cmSketch) reset() {
	clear(s.cnt)
}

// sketchDim is one monitored dimension (source or destination address):
// two sketches (flow- and packet-weighted) plus the candidate set of
// keys whose running estimate ever crossed the heavy-hitter ratio.
type sketchDim struct {
	feature    flow.Feature
	kind       detector.Kind
	byFlows    *cmSketch
	byPackets  *cmSketch
	candidates map[uint32]bool
}

// Sketch is the online large-flow detector: per window it maintains
// count-min sketches of flow and packet volume by source and by
// destination address, and alarms on keys owning at least sketchRatio
// of the window's total — a destination-heavy key labeled as a DoS
// target, a source-heavy key as a scanner. Memory is fixed (sketchRows ×
// sketchCols counters per sketch) regardless of key cardinality; the point estimates
// overcount only under hash collisions, and the final share check uses
// the window's exact totals.
type Sketch struct {
	win windower

	totalFlows, totalPackets uint64
	dims                     [2]sketchDim
}

// NewSketch builds the detector.
func NewSketch() *Sketch {
	s := &Sketch{win: windower{width: sketchWindow}}
	s.dims[0] = sketchDim{
		feature:    flow.FeatSrcIP,
		kind:       detector.KindNetScan,
		byFlows:    newCMSketch(),
		byPackets:  newCMSketch(),
		candidates: map[uint32]bool{},
	}
	s.dims[1] = sketchDim{
		feature:    flow.FeatDstIP,
		kind:       detector.KindDoS,
		byFlows:    newCMSketch(),
		byPackets:  newCMSketch(),
		candidates: map[uint32]bool{},
	}
	return s
}

// Observe implements Online.
func (s *Sketch) Observe(r *flow.Record) []detector.Alarm {
	var out []detector.Alarm
	s.win.stepTo(r.Start, func(start uint32) {
		out = append(out, s.closeWindow(start)...)
	})
	s.totalFlows++
	s.totalPackets += r.Packets
	keys := [2]uint32{uint32(r.SrcIP), uint32(r.DstIP)}
	for i := range s.dims {
		d := &s.dims[i]
		ef := d.byFlows.add(keys[i], 1)
		ep := d.byPackets.add(keys[i], r.Packets)
		// Track a candidate once its running share crosses the ratio; the
		// window close re-checks against the final totals, so an early
		// over-trigger costs a map entry, not a false alarm.
		if s.totalFlows >= 32 &&
			(float64(ef) >= sketchRatio*float64(s.totalFlows) ||
				float64(ep) >= sketchRatio*float64(s.totalPackets)) {
			d.candidates[keys[i]] = true
		}
	}
	return out
}

// Advance implements Online.
func (s *Sketch) Advance(now uint32) []detector.Alarm {
	var out []detector.Alarm
	s.win.advance(now, func(start uint32) {
		out = append(out, s.closeWindow(start)...)
	})
	return out
}

// closeWindow re-checks every candidate against the window's final
// totals, emits the surviving heavy hitters (strongest share first,
// capped at sketchMaxAlarms per dimension), and resets for the next window.
func (s *Sketch) closeWindow(start uint32) []detector.Alarm {
	var out []detector.Alarm
	if s.totalFlows >= sketchMinFlows {
		for i := range s.dims {
			out = append(out, s.dimAlarms(&s.dims[i], start)...)
		}
	}
	s.totalFlows, s.totalPackets = 0, 0
	for i := range s.dims {
		s.dims[i].byFlows.reset()
		s.dims[i].byPackets.reset()
		clear(s.dims[i].candidates)
	}
	return out
}

// dimAlarms scores one dimension's candidates for a closing window.
func (s *Sketch) dimAlarms(d *sketchDim, start uint32) []detector.Alarm {
	type hh struct {
		key   uint32
		share float64
	}
	var hits []hh
	for key := range d.candidates {
		fShare := float64(d.byFlows.estimate(key)) / float64(s.totalFlows)
		var pShare float64
		if s.totalPackets > 0 {
			pShare = float64(d.byPackets.estimate(key)) / float64(s.totalPackets)
		}
		if share := max(fShare, pShare); share >= sketchRatio {
			hits = append(hits, hh{key, share})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].share != hits[j].share {
			return hits[i].share > hits[j].share
		}
		return hits[i].key < hits[j].key
	})
	if len(hits) > sketchMaxAlarms {
		hits = hits[:sketchMaxAlarms]
	}
	out := make([]detector.Alarm, 0, len(hits))
	for _, h := range hits {
		out = append(out, detector.Alarm{
			Detector: SketchName,
			Interval: alignedInterval(start),
			Kind:     d.kind,
			Score:    h.share,
			Meta:     []detector.MetaItem{{Feature: d.feature, Value: h.key}},
		})
	}
	return out
}

// Detect implements detector.Detector by replaying the span through a
// fresh instance (see CUSUM.Detect).
func (s *Sketch) Detect(ctx context.Context, store nfstore.Engine, span flow.Interval) ([]detector.Alarm, error) {
	return replayDetect(ctx, NewSketch(), store, span)
}

func init() {
	detector.MustRegister(SketchName, func() (detector.Detector, error) {
		return NewSketch(), nil
	})
}
