package histogram

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/detector"
	"repro/internal/flow"
	"repro/internal/nfstore"
	"repro/internal/stats"
)

// Config parameterizes the detector. The zero value is not usable; use
// DefaultConfig as a starting point.
type Config struct {
	// Features to monitor; defaults to the four entropy features.
	Features []flow.Feature
	// Bins is the histogram width (values are hashed into Bins buckets).
	Bins int
	// TrainBins is the number of leading measurement bins used purely for
	// training the reference and the KL statistics; no alarms are raised
	// inside the training prefix.
	TrainBins int
	// Alpha is the EWMA factor for the reference histogram update.
	Alpha float64
	// K is the alarm threshold in standard deviations above the trailing
	// mean KL distance.
	K float64
	// TopBins is how many top-contributing histogram bins are drilled into
	// for meta-data; TopValues how many values are reported per bin.
	TopBins   int
	TopValues int
	// Weight selects the histogram weighting (flows or packets).
	Weight nfstore.Weight
}

// DefaultConfig returns the configuration used throughout the evaluation:
// 256 hash bins, 12 training bins (one hour of 5-minute bins), EWMA 0.2,
// 3-sigma thresholding, flow weighting.
func DefaultConfig() Config {
	return Config{
		Features:  flow.EntropyFeatures(),
		Bins:      256,
		TrainBins: 12,
		Alpha:     0.2,
		K:         3,
		TopBins:   3,
		TopValues: 3,
		Weight:    nfstore.ByFlows,
	}
}

// Detector is the histogram/KL detector. Create with New; safe for
// repeated Detect calls (state is rebuilt per call, so runs are
// independent and deterministic).
type Detector struct {
	cfg Config
}

// New validates the configuration and returns a Detector.
func New(cfg Config) (*Detector, error) {
	if len(cfg.Features) == 0 {
		cfg.Features = flow.EntropyFeatures()
	}
	if cfg.Bins < 2 {
		return nil, fmt.Errorf("histogram: Bins must be >= 2, got %d", cfg.Bins)
	}
	if cfg.TrainBins < 2 {
		return nil, fmt.Errorf("histogram: TrainBins must be >= 2, got %d", cfg.TrainBins)
	}
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		return nil, fmt.Errorf("histogram: Alpha must be in (0,1], got %v", cfg.Alpha)
	}
	if cfg.K <= 0 {
		return nil, fmt.Errorf("histogram: K must be > 0, got %v", cfg.K)
	}
	if cfg.TopBins <= 0 {
		cfg.TopBins = 3
	}
	if cfg.TopValues <= 0 {
		cfg.TopValues = 3
	}
	return &Detector{cfg: cfg}, nil
}

// init registers the detector under its public name, built with its
// defaults.
func init() {
	detector.MustRegister("histogram", func() (detector.Detector, error) {
		return New(DefaultConfig())
	})
}

// MustNew is New that panics on configuration errors.
func MustNew(cfg Config) *Detector {
	d, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Name implements detector.Detector.
func (d *Detector) Name() string { return "histogram-kl" }

// hashBin maps a feature value to a histogram bin.
func hashBin(value uint32, bins int) uint32 {
	x := uint64(value) * 0x9e3779b97f4a7c15
	x ^= x >> 29
	return uint32(x % uint64(bins))
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
	state := make(map[flow.Feature]*featState, len(d.cfg.Features))
	for _, f := range d.cfg.Features {
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
		hists := make(map[flow.Feature]*stats.Dist, len(d.cfg.Features))
		values := make(map[flow.Feature]map[uint32]*stats.Dist, len(d.cfg.Features))
		for _, f := range d.cfg.Features {
			hists[f] = stats.NewDist()
			values[f] = make(map[uint32]*stats.Dist)
		}
		err := store.Query(ctx, iv, nil, func(r *flow.Record) error {
			w := float64(d.cfg.Weight.Of(r))
			for _, f := range d.cfg.Features {
				v := f.Value(r)
				b := hashBin(v, d.cfg.Bins)
				hists[f].Add(b, w)
				vd := values[f][b]
				if vd == nil {
					vd = stats.NewDist()
					values[f][b] = vd
				}
				vd.Add(v, w)
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
		for _, f := range d.cfg.Features {
			st := state[f]
			cur := hists[f]
			if !st.refPrimed() {
				st.ref.Merge(cur, 1)
				continue
			}
			kl := cur.KL(st.ref, 1e-6)
			training := seen <= d.cfg.TrainBins
			alarm := false
			if !training && st.kl.N() >= 2 {
				thresh := st.kl.Mean() + d.cfg.K*st.kl.Std()
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
			st.ref.Scale(1 - d.cfg.Alpha)
			st.ref.Merge(cur, d.cfg.Alpha)
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
	if len(conts) > d.cfg.TopBins {
		conts = conts[:d.cfg.TopBins]
	}
	var meta []detector.MetaItem
	for _, c := range conts {
		vd := values[c.bin]
		if vd == nil {
			continue
		}
		for _, vw := range vd.Top(d.cfg.TopValues) {
			meta = append(meta, detector.MetaItem{Feature: f, Value: vw.Value})
		}
	}
	return meta
}
