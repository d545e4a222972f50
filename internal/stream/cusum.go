package stream

import (
	"context"
	"fmt"
	"math"

	"repro/internal/detector"
	"repro/internal/flow"
	"repro/internal/nfstore"
	"repro/internal/stats"
)

// CUSUMName is the registry name of the online change-point detector.
const CUSUMName = "cusum"

// CUSUMConfig tunes the online CUSUM change-point detector.
type CUSUMConfig struct {
	// WindowSeconds is the volume-accumulation window (default 60 — five
	// observations per standard 300 s bin, so a change surfaces well
	// before the bin seals).
	WindowSeconds uint32
	// AlignSeconds widens alarm intervals to enclosing bins (default
	// 300) so extraction mines the whole bin, like batch detectors.
	AlignSeconds uint32
	// Drift is the CUSUM slack k in baseline standard deviations
	// (default 0.5): deviations below mean + k·σ never accumulate.
	Drift float64
	// Threshold is the decision threshold h in baseline standard
	// deviations (default 6): an alarm fires when the cumulative sum
	// exceeds h·σ.
	Threshold float64
	// MinWindows is the baseline warm-up (default 8): no alarms until
	// this many windows seeded the mean/variance estimate.
	MinWindows int
}

// DefaultCUSUMConfig returns the detector defaults.
func DefaultCUSUMConfig() CUSUMConfig {
	return CUSUMConfig{
		WindowSeconds: 60,
		AlignSeconds:  300,
		Drift:         0.5,
		Threshold:     6,
		MinWindows:    8,
	}
}

func (c *CUSUMConfig) validate() error {
	if c.WindowSeconds == 0 {
		c.WindowSeconds = 60
	}
	if c.AlignSeconds == 0 {
		c.AlignSeconds = 300
	}
	if c.Drift <= 0 {
		c.Drift = 0.5
	}
	if c.Threshold <= 0 {
		c.Threshold = 6
	}
	if c.MinWindows <= 0 {
		c.MinWindows = 8
	}
	if c.AlignSeconds < c.WindowSeconds {
		return fmt.Errorf("cusum: AlignSeconds %d < WindowSeconds %d", c.AlignSeconds, c.WindowSeconds)
	}
	return nil
}

// cusumChannel is one one-sided CUSUM accumulator over a volume series.
type cusumChannel struct {
	base stats.Welford
	sum  float64
}

// step folds one closed window's volume x into the channel: it returns
// the alarm score (cumulative deviation in σ units) when the sum crosses
// the threshold. Alarmed windows do not contaminate the baseline — a
// sustained anomaly keeps alarming against the pre-change mean instead
// of teaching the detector that floods are normal — and the sum resets
// after an alarm so each window re-earns the threshold.
func (c *cusumChannel) step(x float64, cfg *CUSUMConfig) (score float64, alarmed bool) {
	if c.base.N() >= cfg.MinWindows {
		std := c.base.Std()
		// Variance floor: Poisson-ish counts have σ ≈ √mean; a freakishly
		// stable warm-up must not make every later window an alarm.
		if f := math.Sqrt(math.Abs(c.base.Mean())); std < f {
			std = f
		}
		if std < 1 {
			std = 1
		}
		c.sum += x - c.base.Mean() - cfg.Drift*std
		if c.sum < 0 {
			c.sum = 0
		}
		if c.sum > cfg.Threshold*std {
			score = c.sum / std
			c.sum = 0
			return score, true
		}
	}
	c.base.Add(x)
	return 0, false
}

// CUSUM is the online change-point detector: per-window flow and packet
// volumes each feed a one-sided CUSUM accumulator against a Welford
// baseline, and a window whose cumulative deviation crosses the
// threshold raises one alarm for its enclosing bin. It carries no
// meta-data — exactly the under-reporting the paper's extraction engine
// exists to repair.
type CUSUM struct {
	cfg CUSUMConfig
	win windower

	flows, packets float64 // current-window accumulation
	chFlows        cusumChannel
	chPackets      cusumChannel
}

// NewCUSUM builds the detector; zero config fields take defaults.
func NewCUSUM(cfg CUSUMConfig) (*CUSUM, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &CUSUM{cfg: cfg, win: windower{width: cfg.WindowSeconds}}, nil
}

// Observe implements Online.
func (c *CUSUM) Observe(r *flow.Record) []detector.Alarm {
	var out []detector.Alarm
	c.win.stepTo(r.Start, func(start uint32) {
		out = append(out, c.closeWindow(start)...)
	})
	c.flows++
	c.packets += float64(r.Packets)
	return out
}

// Advance implements Online.
func (c *CUSUM) Advance(now uint32) []detector.Alarm {
	var out []detector.Alarm
	c.win.advance(now, func(start uint32) {
		out = append(out, c.closeWindow(start)...)
	})
	return out
}

// closeWindow steps both channels with the closed window's volumes and
// emits at most one alarm (the stronger channel's score).
func (c *CUSUM) closeWindow(start uint32) []detector.Alarm {
	fScore, fAlarm := c.chFlows.step(c.flows, &c.cfg)
	pScore, pAlarm := c.chPackets.step(c.packets, &c.cfg)
	c.flows, c.packets = 0, 0
	if !fAlarm && !pAlarm {
		return nil
	}
	score := math.Max(fScore, pScore)
	return []detector.Alarm{{
		Detector: CUSUMName,
		Interval: alignedInterval(start, c.cfg.AlignSeconds),
		Kind:     detector.KindUnknown,
		Score:    score,
	}}
}

// Detect implements detector.Detector by replaying the span through a
// fresh instance, so a streaming CUSUM can also be invoked batch-style
// over sealed bins without disturbing its live window state.
func (c *CUSUM) Detect(ctx context.Context, store nfstore.Engine, span flow.Interval) ([]detector.Alarm, error) {
	fresh, err := NewCUSUM(c.cfg)
	if err != nil {
		return nil, err
	}
	return replayDetect(ctx, fresh, store, span)
}

func init() {
	detector.MustRegister(CUSUMName, func() (detector.Detector, error) {
		return NewCUSUM(DefaultCUSUMConfig())
	})
}
