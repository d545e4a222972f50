package histogram

import (
	"context"
	"math"
	"sort"

	"repro/internal/detector"
	"repro/internal/flow"
	"repro/internal/nfstore"
	"repro/internal/stats"
)

// The detector's one configuration; doc.go gives the reason for each
// value.
const (
	hashBins  = 256
	trainBins = 12
	alpha     = 0.2
	kSigma    = 3
	topBins   = 3
	topValues = 3
)

// Detector is the histogram/KL detector. Create with New; safe for
// repeated Detect calls (state is rebuilt per call, so runs are
// independent and deterministic).
type Detector struct{}

// New returns a Detector.
func New() *Detector { return &Detector{} }

// init registers the detector under its public name.
func init() {
	detector.MustRegister("histogram", func() (detector.Detector, error) {
		return New(), nil
	})
}

// Name is the detector name its alarms carry.
func (d *Detector) Name() string { return "histogram-kl" }

// hashBin maps a feature value to one of the hashBins histogram bins.
func hashBin(value uint32) uint32 {
	x := uint64(value) * 0x9e3779b97f4a7c15
	x ^= x >> 29
	return uint32(x % hashBins)
}

// featState is the rolling per-feature detector state.
type featState struct {
	ref *stats.Dist // EWMA reference histogram over bins
	kl  stats.Welford
}

// Detect implements detector.Detector. It walks the store's measurement
// bins inside span in time order, maintaining reference histograms, and
// returns one alarm per (bin, feature) whose KL distance exceeds the
// adaptive threshold.
func (d *Detector) Detect(ctx context.Context, store nfstore.Engine, span flow.Interval) ([]detector.Alarm, error) {
	bins, err := store.Bins()
	if err != nil {
		return nil, err
	}
	features := flow.EntropyFeatures()
	state := make(map[flow.Feature]*featState, len(features))
	for _, f := range features {
		state[f] = &featState{ref: stats.NewDist()}
	}
	var alarms []detector.Alarm
	seen := 0
	for _, bin := range bins {
		iv := flow.Interval{Start: bin, End: bin + store.BinSeconds()}
		if !iv.Overlaps(span) {
			continue
		}
		// One store pass builds all feature histograms plus the raw value
		// distributions used for meta-data drill-down.
		hists := make(map[flow.Feature]*stats.Dist, len(features))
		values := make(map[flow.Feature]map[uint32]*stats.Dist, len(features))
		for _, f := range features {
			hists[f] = stats.NewDist()
			values[f] = make(map[uint32]*stats.Dist)
		}
		err := store.Query(ctx, iv, nil, func(r *flow.Record) error {
			for _, f := range features {
				v := f.Value(r)
				b := hashBin(v)
				hists[f].Add(b, 1)
				vd := values[f][b]
				if vd == nil {
					vd = stats.NewDist()
					values[f][b] = vd
				}
				vd.Add(v, 1)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		seen++
		// Features alarming in the same measurement bin describe one
		// traffic event; merge them into a single alarm whose meta-data
		// spans all deviating features, as the paper's detectors do.
		var binAlarm *detector.Alarm
		for _, f := range features {
			st := state[f]
			cur := hists[f]
			if !st.refPrimed() {
				st.ref.Merge(cur, 1)
				continue
			}
			kl := cur.KL(st.ref, 1e-6)
			training := seen <= trainBins
			alarm := false
			if !training && st.kl.N() >= 2 {
				thresh := st.kl.Mean() + kSigma*st.kl.Std()
				alarm = kl > thresh
			}
			if alarm {
				meta := d.drillDown(f, cur, st.ref, values[f])
				if binAlarm == nil {
					binAlarm = &detector.Alarm{
						Detector: d.Name(),
						Interval: iv,
						Kind:     detector.KindUnknown,
					}
				}
				if kl > binAlarm.Score {
					binAlarm.Score = kl
				}
				binAlarm.Meta = append(binAlarm.Meta, meta...)
				// Anomalous bins do not update the reference or the KL
				// statistics: poisoning the baseline would mask repeats.
				continue
			}
			st.kl.Add(kl)
			// EWMA reference update with the clean histogram.
			st.ref.Scale(1 - alpha)
			st.ref.Merge(cur, alpha)
		}
		if binAlarm != nil {
			alarms = append(alarms, *binAlarm)
		}
	}
	return alarms, nil
}

// refPrimed reports whether the reference has absorbed at least one bin.
func (s *featState) refPrimed() bool { return s.ref.Total() > 0 }

// binContribution is a histogram bin with its share of the KL divergence.
type binContribution struct {
	bin  uint32
	cont float64
}

// drillDown identifies the histogram bins contributing most to the
// divergence and maps them back to the dominant concrete values, producing
// alarm meta-data for feature f.
func (d *Detector) drillDown(f flow.Feature, cur, ref *stats.Dist, values map[uint32]*stats.Dist) []detector.MetaItem {
	// Per-bin KL contribution: p*log2(p/q) with the same smoothing KL uses.
	const eps = 1e-6
	var conts []binContribution
	cur.Values(func(bin uint32, w float64) {
		p := (w + eps) / (cur.Total() + eps)
		q := (ref.Weight(bin) + eps) / (ref.Total() + eps)
		c := p * math.Log2(p/q)
		if c > 0 {
			conts = append(conts, binContribution{bin: bin, cont: c})
		}
	})
	sort.Slice(conts, func(i, j int) bool {
		if conts[i].cont != conts[j].cont {
			return conts[i].cont > conts[j].cont
		}
		return conts[i].bin < conts[j].bin
	})
	if len(conts) > topBins {
		conts = conts[:topBins]
	}
	var meta []detector.MetaItem
	for _, c := range conts {
		vd := values[c.bin]
		if vd == nil {
			continue
		}
		for _, vw := range vd.Top(topValues) {
			meta = append(meta, detector.MetaItem{Feature: f, Value: vw.Value})
		}
	}
	return meta
}
