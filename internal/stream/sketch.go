package stream

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/detector"
	"repro/internal/flow"
	"repro/internal/nfstore"
)

// SketchName is the registry name of the online heavy-hitter detector.
const SketchName = "sketch"

// SketchConfig tunes the count-min heavy-hitter detector.
type SketchConfig struct {
	// WindowSeconds is the sketch window (default 300, one measurement
	// bin); counts reset at every window boundary. Share thresholds need
	// enough flows to be meaningful: sub-bin windows over moderate links
	// get lumpy (a single busy client-server session can own half of one
	// minute), so the default matches the bin width and sub-bin windows
	// are an explicit opt-in for high-rate links.
	WindowSeconds uint32
	// AlignSeconds widens alarm intervals to enclosing bins (default 300).
	AlignSeconds uint32
	// Rows and Cols size each count-min sketch (defaults 4 × 2048; Cols
	// rounds up to a power of two). Four sketches per detector: src/dst
	// dimension × flow/packet weight.
	Rows, Cols int
	// Ratio is the heavy-hitter fraction (default 0.25): a key owning at
	// least this share of the window's flows or packets alarms. The
	// default sits above the ~15% share the most popular background
	// server naturally draws (Zipf s=1.0 over 300 servers) at bin
	// granularity.
	Ratio float64
	// MinFlows gates alarming on window volume (default 100): a nearly
	// empty window has no meaningful shares.
	MinFlows uint64
	// MaxAlarms caps per-window alarms per dimension (default 4),
	// strongest shares first.
	MaxAlarms int
}

// DefaultSketchConfig returns the detector defaults.
func DefaultSketchConfig() SketchConfig {
	return SketchConfig{
		WindowSeconds: 300,
		AlignSeconds:  300,
		Rows:          4,
		Cols:          2048,
		Ratio:         0.25,
		MinFlows:      100,
		MaxAlarms:     4,
	}
}

func (c *SketchConfig) validate() error {
	if c.WindowSeconds == 0 {
		c.WindowSeconds = 300
	}
	if c.AlignSeconds == 0 {
		c.AlignSeconds = 300
	}
	if c.Rows <= 0 {
		c.Rows = 4
	}
	if c.Cols <= 0 {
		c.Cols = 2048
	}
	// Round Cols up to a power of two so row indexing is a mask.
	n := 1
	for n < c.Cols {
		n <<= 1
	}
	c.Cols = n
	if c.Ratio <= 0 || c.Ratio > 1 {
		c.Ratio = 0.25
	}
	if c.MinFlows == 0 {
		c.MinFlows = 100
	}
	if c.MaxAlarms <= 0 {
		c.MaxAlarms = 4
	}
	if c.AlignSeconds < c.WindowSeconds {
		return fmt.Errorf("sketch: AlignSeconds %d < WindowSeconds %d", c.AlignSeconds, c.WindowSeconds)
	}
	return nil
}

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

// cmSketch is a count-min sketch over uint32 keys with uint64 weights.
type cmSketch struct {
	rows int
	mask uint64
	cnt  []uint64 // rows × cols, row-major
}

func newCMSketch(rows, cols int) *cmSketch {
	return &cmSketch{rows: rows, mask: uint64(cols - 1), cnt: make([]uint64, rows*cols)}
}

// add folds weight w into the key's counters and returns the updated
// point estimate (the minimum across rows — the classic CM bound).
func (s *cmSketch) add(key uint32, w uint64) uint64 {
	cols := int(s.mask) + 1
	est := ^uint64(0)
	for r := 0; r < s.rows; r++ {
		h := mix64(uint64(key) ^ (uint64(r+1) * 0x9e3779b97f4a7c15))
		c := &s.cnt[r*cols+int(h&s.mask)]
		*c += w
		if *c < est {
			est = *c
		}
	}
	return est
}

// estimate returns the key's point estimate without updating.
func (s *cmSketch) estimate(key uint32) uint64 {
	cols := int(s.mask) + 1
	est := ^uint64(0)
	for r := 0; r < s.rows; r++ {
		h := mix64(uint64(key) ^ (uint64(r+1) * 0x9e3779b97f4a7c15))
		if c := s.cnt[r*cols+int(h&s.mask)]; c < est {
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
// destination address, and alarms on keys owning at least Ratio of the
// window's total — a destination-heavy key labeled as a DoS target, a
// source-heavy key as a scanner. Memory is fixed (Rows × Cols counters
// per sketch) regardless of key cardinality; the point estimates
// overcount only under hash collisions, and the final share check uses
// the window's exact totals.
type Sketch struct {
	cfg SketchConfig
	win windower

	totalFlows, totalPackets uint64
	dims                     [2]sketchDim
}

// NewSketch builds the detector; zero config fields take defaults.
func NewSketch(cfg SketchConfig) (*Sketch, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Sketch{cfg: cfg, win: windower{width: cfg.WindowSeconds}}
	s.dims[0] = sketchDim{
		feature:    flow.FeatSrcIP,
		kind:       detector.KindNetScan,
		byFlows:    newCMSketch(cfg.Rows, cfg.Cols),
		byPackets:  newCMSketch(cfg.Rows, cfg.Cols),
		candidates: map[uint32]bool{},
	}
	s.dims[1] = sketchDim{
		feature:    flow.FeatDstIP,
		kind:       detector.KindDoS,
		byFlows:    newCMSketch(cfg.Rows, cfg.Cols),
		byPackets:  newCMSketch(cfg.Rows, cfg.Cols),
		candidates: map[uint32]bool{},
	}
	return s, nil
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
			(float64(ef) >= s.cfg.Ratio*float64(s.totalFlows) ||
				float64(ep) >= s.cfg.Ratio*float64(s.totalPackets)) {
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
// capped at MaxAlarms per dimension), and resets for the next window.
func (s *Sketch) closeWindow(start uint32) []detector.Alarm {
	var out []detector.Alarm
	if s.totalFlows >= s.cfg.MinFlows {
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
		if share := max(fShare, pShare); share >= s.cfg.Ratio {
			hits = append(hits, hh{key, share})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].share != hits[j].share {
			return hits[i].share > hits[j].share
		}
		return hits[i].key < hits[j].key
	})
	if len(hits) > s.cfg.MaxAlarms {
		hits = hits[:s.cfg.MaxAlarms]
	}
	out := make([]detector.Alarm, 0, len(hits))
	for _, h := range hits {
		out = append(out, detector.Alarm{
			Detector: SketchName,
			Interval: alignedInterval(start, s.cfg.AlignSeconds),
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
	fresh, err := NewSketch(s.cfg)
	if err != nil {
		return nil, err
	}
	return replayDetect(ctx, fresh, store, span)
}

func init() {
	detector.MustRegister(SketchName, func() (detector.Detector, error) {
		return NewSketch(DefaultSketchConfig())
	})
}
