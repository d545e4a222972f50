package stream

import (
	"context"
	"math"

	"repro/internal/detector"
	"repro/internal/flow"
	"repro/internal/nfstore"
	"repro/internal/stats"
)

// CUSUMName is the registry name of the online change-point detector.
const CUSUMName = "cusum"

// The CUSUM detector's one configuration; the package doc gives the
// reason for each value.
const (
	cusumWindow     = 60 // seconds
	cusumDrift      = 0.5
	cusumThreshold  = 6
	cusumMinWindows = 8
)

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
func (c *cusumChannel) step(x float64) (score float64, alarmed bool) {
	if c.base.N() >= cusumMinWindows {
		std := c.base.Std()
		// Variance floor: Poisson-ish counts have σ ≈ √mean; a freakishly
		// stable warm-up must not make every later window an alarm.
		if f := math.Sqrt(math.Abs(c.base.Mean())); std < f {
			std = f
		}
		if std < 1 {
			std = 1
		}
		c.sum += x - c.base.Mean() - cusumDrift*std
		if c.sum < 0 {
			c.sum = 0
		}
		if c.sum > cusumThreshold*std {
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
	win windower

	flows, packets float64 // current-window accumulation
	chFlows        cusumChannel
	chPackets      cusumChannel
}

// NewCUSUM builds the detector.
func NewCUSUM() *CUSUM {
	return &CUSUM{win: windower{width: cusumWindow}}
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
	fScore, fAlarm := c.chFlows.step(c.flows)
	pScore, pAlarm := c.chPackets.step(c.packets)
	c.flows, c.packets = 0, 0
	if !fAlarm && !pAlarm {
		return nil
	}
	score := math.Max(fScore, pScore)
	return []detector.Alarm{{
		Detector: CUSUMName,
		Interval: alignedInterval(start),
		Kind:     detector.KindUnknown,
		Score:    score,
	}}
}

// Detect implements detector.Detector by replaying the span through a
// fresh instance, so a streaming CUSUM can also be invoked batch-style
// over sealed bins without disturbing its live window state.
func (c *CUSUM) Detect(ctx context.Context, store nfstore.Engine, span flow.Interval) ([]detector.Alarm, error) {
	return replayDetect(ctx, NewCUSUM(), store, span)
}

func init() {
	detector.MustRegister(CUSUMName, func() (detector.Detector, error) {
		return NewCUSUM(), nil
	})
}
