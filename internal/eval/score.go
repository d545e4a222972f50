package eval

import (
	"context"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/nfstore"
)

// ScoreOptions tunes the scoring of one extraction result.
type ScoreOptions struct {
	// UsefulPurity is the minimum anomalous fraction (in flows or in
	// packets) of an itemset's matched traffic for the itemset to count
	// as useful evidence.
	UsefulPurity float64
	// AdditionalFraction is the minimum fraction of a useful itemset's
	// anomalous flows that must fall OUTSIDE the alarm's meta-data filter
	// for the itemset to count as additional evidence the detector did
	// not provide.
	AdditionalFraction float64
}

// DefaultScoreOptions returns the scoring the paper suites, the eval
// matrix and the benchmark use.
func DefaultScoreOptions() ScoreOptions {
	return ScoreOptions{UsefulPurity: 0.8, AdditionalFraction: 0.5}
}

// ItemsetScore is the ground-truth evaluation of one reported itemset.
type ItemsetScore struct {
	Report core.ItemsetReport
	// Matched/Anomalous count flows (and packets) the itemset's filter
	// matches inside the alarm interval.
	MatchedFlows  uint64
	AnomalousFlws uint64
	MatchedPkts   uint64
	AnomalousPkts uint64
	// FlowPurity/PktPurity are the anomalous fractions.
	FlowPurity float64
	PktPurity  float64
	// Useful reports whether either purity clears the threshold.
	Useful bool
	// Additional reports whether this useful itemset mostly evidences
	// flows the alarm meta-data did not cover.
	Additional bool
}

// AlarmScore is the ground-truth evaluation of one alarm's extraction.
type AlarmScore struct {
	// Useful: at least one reported itemset is useful evidence.
	Useful bool
	// Additional: at least one useful itemset evidences flows beyond the
	// detector's meta-data (the paper's 26-28% statistic).
	Additional bool
	// FlowRecall / PktRecall: fraction of the interval's anomalous
	// traffic covered by the union of useful itemsets.
	FlowRecall float64
	PktRecall  float64
	Itemsets   []ItemsetScore
}

// ScoreResult evaluates an extraction result against the annotations
// stored in the trace.
func ScoreResult(store nfstore.Engine, alarm *detector.Alarm, res *core.Result, opts ScoreOptions) (*AlarmScore, error) {
	if opts.UsefulPurity <= 0 {
		opts.UsefulPurity = 0.8
	}
	if opts.AdditionalFraction <= 0 {
		opts.AdditionalFraction = 0.5
	}
	score := &AlarmScore{}
	// The meta signature (conjunction) is what the detector actually
	// reported; anomalous flows outside it are "flows not provided by the
	// anomaly detector" (the paper's additional-evidence statistic).
	metaSig := alarm.MetaSignature()

	// Total anomalous traffic in the interval (recall denominator).
	var totalAnoFlows, totalAnoPkts uint64
	err := store.Query(context.Background(), alarm.Interval, nil, func(r *flow.Record) error {
		if r.IsAnomalous() {
			totalAnoFlows++
			totalAnoPkts += r.Packets
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Per-itemset matching; union coverage for recall.
	usefulFilters := make([]*core.ItemsetReport, 0, len(res.Itemsets))
	for i := range res.Itemsets {
		rep := res.Itemsets[i]
		is := ItemsetScore{Report: rep}
		filter := rep.Filter()
		var outsideMetaAno uint64
		err := store.Query(context.Background(), alarm.Interval, filter, func(r *flow.Record) error {
			is.MatchedFlows++
			is.MatchedPkts += r.Packets
			if r.IsAnomalous() {
				is.AnomalousFlws++
				is.AnomalousPkts += r.Packets
				if metaSig != nil && !metaSig.Match(r) {
					outsideMetaAno++
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if is.MatchedFlows > 0 {
			is.FlowPurity = float64(is.AnomalousFlws) / float64(is.MatchedFlows)
		}
		if is.MatchedPkts > 0 {
			is.PktPurity = float64(is.AnomalousPkts) / float64(is.MatchedPkts)
		}
		is.Useful = is.FlowPurity >= opts.UsefulPurity || is.PktPurity >= opts.UsefulPurity
		if is.Useful {
			score.Useful = true
			usefulFilters = append(usefulFilters, &res.Itemsets[i])
			if is.AnomalousFlws > 0 && metaSig != nil &&
				float64(outsideMetaAno) >= opts.AdditionalFraction*float64(is.AnomalousFlws) {
				is.Additional = true
				score.Additional = true
			}
		}
		score.Itemsets = append(score.Itemsets, is)
	}

	// Recall: anomalous traffic covered by the union of useful itemsets.
	if totalAnoFlows > 0 && len(usefulFilters) > 0 {
		var covFlows, covPkts uint64
		err := store.Query(context.Background(), alarm.Interval, nil, func(r *flow.Record) error {
			if !r.IsAnomalous() {
				return nil
			}
			for _, rep := range usefulFilters {
				if rep.Filter().Match(r) {
					covFlows++
					covPkts += r.Packets
					break
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		score.FlowRecall = float64(covFlows) / float64(totalAnoFlows)
		if totalAnoPkts > 0 {
			score.PktRecall = float64(covPkts) / float64(totalAnoPkts)
		}
	}
	return score, nil
}

// SynthesizeAlarm builds the NetReflex-style narrow alarm for a placed
// anomaly directly from ground truth: the anomaly's interval plus the
// fine-grained meta-data of its root-cause signature (Anomaly.Signature).
// Suites use it when the detector under test did not flag the anomaly's
// bin, so that every scenario still contributes one alarm — the paper's
// evaluations also start from a fixed set of alarms, not from detector
// recall.
func SynthesizeAlarm(entry *gen.TruthEntry) detector.Alarm {
	a := detector.Alarm{
		Detector: "synthesized",
		Interval: entry.Interval,
		Kind:     entry.Kind,
		Score:    1,
	}
	for _, it := range entry.Signature {
		a.Meta = append(a.Meta, detector.MetaItem{Feature: it.Feature, Value: it.Value})
	}
	return a
}
