package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/detector"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/itemset"
	"repro/internal/miner"
)

// TestExtractReportsProgress: a full extraction with an observer
// attached reports the phases in engine order, the mining phases carry
// tuning rounds, and the reported values match the final result.
func TestExtractReportsProgress(t *testing.T) {
	scanner := flow.MustParseIP("10.191.64.165")
	victim := flow.MustParseIP("198.18.137.129")
	s := gen.Scenario{
		Background: gen.Background{NumPoPs: 2, FlowsPerBin: 300},
		Bins:       4, StartTime: coreBase, Seed: 5,
		Placements: []gen.Placement{
			{Anomaly: gen.PortScan{Scanner: scanner, Victim: victim, SrcPort: 55548, Ports: 2000, FlowsPerPort: 1, Router: 1}, Bin: 2},
		},
	}
	store, truth := buildScenario(t, s)

	var samples []Progress
	opts := DefaultOptions()
	opts.Progress = func(p Progress) { samples = append(samples, p) }
	ex := MustNew(store, opts)
	alarm := &detector.Alarm{
		Detector: "netreflex", Kind: detector.KindPortScan,
		Interval: truth.Entries[0].Interval,
		Meta: []detector.MetaItem{
			{Feature: flow.FeatSrcIP, Value: uint32(scanner)},
		},
	}
	res, err := ex.Extract(t.Context(), alarm)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no progress reported")
	}

	// Phase order: candidates strictly before mining, mining before the
	// supports pass, supports before rank.
	first := map[string]int{}
	for i, p := range samples {
		if _, ok := first[p.Phase]; !ok {
			first[p.Phase] = i
		}
	}
	for _, want := range []string{PhaseCandidates, PhaseMineFlows, PhaseSupports, PhaseRank} {
		if _, ok := first[want]; !ok {
			t.Fatalf("phase %q never reported (phases %v)", want, first)
		}
	}
	if !(first[PhaseCandidates] < first[PhaseMineFlows] &&
		first[PhaseMineFlows] < first[PhaseSupports] &&
		first[PhaseSupports] < first[PhaseRank]) {
		t.Fatalf("phases out of order: %v", first)
	}

	// Mining samples carry 1-based tuning rounds matching the recorded
	// trajectory.
	maxRound := 0
	for _, p := range samples {
		if p.Phase == PhaseMineFlows && p.TuningRound > maxRound {
			maxRound = p.TuningRound
		}
	}
	if maxRound != res.Tuning[0].Rounds {
		t.Fatalf("max reported round = %d, tuning recorded %d", maxRound, res.Tuning[0].Rounds)
	}
}

// TestProgressNilIsFree: extraction without an observer behaves exactly
// as before (the seam is a nil check, not a behavior change).
func TestProgressNilIsFree(t *testing.T) {
	store, truth := buildScenario(t, gen.Scenario{
		Background: gen.Background{NumPoPs: 1, FlowsPerBin: 200},
		Bins:       2, StartTime: coreBase, Seed: 9,
	})
	ex := MustNew(store, DefaultOptions())
	alarm := &detector.Alarm{Detector: "t", Interval: truth.Span}
	if _, err := ex.Extract(t.Context(), alarm); err != nil {
		t.Fatal(err)
	}
}

// TestFillSamplesEveryStride: a streaming phase over more than
// progressStride records reports intermediate candidate counts.
func TestFillSamplesEveryStride(t *testing.T) {
	store, truth := buildScenario(t, gen.Scenario{
		Background: gen.Background{NumPoPs: 2, FlowsPerBin: progressStride + 2048},
		Bins:       2, StartTime: coreBase, Seed: 11,
	})
	var streamed []uint64
	opts := DefaultOptions()
	opts.UsePrefilter = false
	opts.BaselineFilter = false
	opts.Progress = func(p Progress) {
		if p.Phase == PhaseCandidates && p.CandidateFlows > 0 {
			streamed = append(streamed, p.CandidateFlows)
		}
	}
	ex := MustNew(store, opts)
	alarm := &detector.Alarm{Detector: "t", Interval: truth.Span}
	if _, err := ex.Extract(t.Context(), alarm); err != nil {
		t.Fatal(err)
	}
	if len(streamed) == 0 {
		t.Fatalf("no sampled candidate counts over a %d-record scan", 2*(progressStride+2048))
	}
	for i := 1; i < len(streamed); i++ {
		if streamed[i] < streamed[i-1] {
			t.Fatalf("candidate counts must be non-decreasing: %v", streamed)
		}
	}
}

// countingPreparer wraps a Preparer miner and records, per Prepare call,
// the progress sample the engine reported last, and counts MineAt calls.
type countingPreparer struct {
	inner    miner.Miner // implements miner.Preparer
	last     *Progress
	prepares []Progress
	mineAts  int
}

func (c *countingPreparer) Mine(ctx context.Context, ds *itemset.Dataset, opts miner.Options) ([]itemset.Frequent, error) {
	return c.inner.Mine(ctx, ds, opts)
}

func (c *countingPreparer) Prepare(ctx context.Context, ds *itemset.Dataset, opts miner.Options) (miner.Prepared, error) {
	c.prepares = append(c.prepares, *c.last)
	p, err := c.inner.(miner.Preparer).Prepare(ctx, ds, opts)
	if err != nil {
		return nil, err
	}
	return countingPrepared{p, c}, nil
}

type countingPrepared struct {
	miner.Prepared
	c *countingPreparer
}

func (p countingPrepared) MineAt(ctx context.Context, minSup uint64) ([]itemset.Frequent, error) {
	p.c.mineAts++
	return p.Prepared.MineAt(ctx, minSup)
}

// plainMiner hides a miner's Prepare method: only Mine is promoted.
type plainMiner struct{ miner.Miner }

// TestPrepareOncePerDimension: the tuning loop prepares each dimension
// once, after reporting that dimension's round 1 (so the preparation
// counts toward its own phase), mines every round from the Prepared, and
// tunes exactly as when the same engine is only a plain Miner.
func TestPrepareOncePerDimension(t *testing.T) {
	victim := flow.MustParseIP("198.18.137.129")
	store, truth := buildScenario(t, gen.Scenario{
		Background: gen.Background{NumPoPs: 2, FlowsPerBin: 300},
		Bins:       4, StartTime: coreBase, Seed: 44,
		Placements: []gen.Placement{
			{Anomaly: gen.PortScan{Scanner: flow.MustParseIP("10.191.64.165"), Victim: victim, SrcPort: 55548,
				Ports: 1500, FlowsPerPort: 2, Router: 1}, Bin: 2},
			{Anomaly: gen.SYNFlood{Victim: victim, DstPort: 80, Sources: 400,
				SourceNet: flow.MustParsePrefix("172.16.0.0/12"), FlowsPerSource: 2, Router: 0}, Bin: 2},
		},
	})
	alarm := &detector.Alarm{Interval: truth.Entries[0].Interval}
	for _, name := range []string{"fpgrowth", "fda"} {
		opts := DefaultOptions()
		opts.Miner = name
		var last Progress
		opts.Progress = func(p Progress) { last = p }
		ex := MustNew(store, opts)
		counting := &countingPreparer{inner: ex.m, last: &last}
		ex.m = counting
		res, err := ex.Extract(t.Context(), alarm)
		if err != nil {
			t.Fatal(err)
		}

		want := []Progress{{Phase: PhaseMineFlows, TuningRound: 1}, {Phase: PhaseMinePackets, TuningRound: 1}}
		if !reflect.DeepEqual(counting.prepares, want) {
			t.Fatalf("%s: Prepare ran after progress %+v, want %+v", name, counting.prepares, want)
		}
		rounds := 0
		for _, dt := range res.Tuning {
			rounds += dt.Rounds
		}
		if counting.mineAts != rounds || rounds <= len(want) {
			t.Fatalf("%s: %d MineAt calls for %d tuning rounds (want equal, and more rounds than dimensions)",
				name, counting.mineAts, rounds)
		}

		plain := MustNew(store, opts)
		plain.m = plainMiner{plain.m}
		ref, err := plain.Extract(t.Context(), alarm)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Tuning, ref.Tuning) || !reflect.DeepEqual(res.Itemsets, ref.Itemsets) {
			t.Fatalf("%s: prepared tuning %+v, plain Miner %+v (or the itemsets differ)", name, res.Tuning, ref.Tuning)
		}
	}
}
