package core

import (
	"context"
	"iter"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/detector"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/itemset"
	"repro/internal/nffilter"
	"repro/internal/nfstore"
	"repro/internal/stats"
)

// tinyExtractor builds an extractor over a throwaway store (mineTuned
// only touches the dataset, not the store).
func tinyExtractor(t *testing.T, opts Options) *Extractor {
	t.Helper()
	store, _ := buildScenario(t, gen.Scenario{Bins: 1, StartTime: coreBase, Seed: 1,
		Background: gen.Background{NumPoPs: 1, FlowsPerBin: 10}})
	ex, err := New(store, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// uniformDataset builds n distinct single-flow transactions (every
// itemset is weak) — the shape that exhausts tuning rounds.
func uniformDataset(seed uint64, n int) *itemset.Dataset {
	rng := stats.NewRNG(seed)
	txs := make([]itemset.Tx, n)
	for i := range txs {
		r := flow.Record{
			SrcIP:   flow.IP(rng.Intn(1 << 20)),
			DstIP:   flow.IP(rng.Intn(1 << 20)),
			SrcPort: uint16(i),
			DstPort: uint16(rng.Intn(1 << 14)),
			Proto:   flow.ProtoTCP,
		}
		txs[i] = itemset.Tx{Items: itemset.ItemsOf(&r), Flows: 1, Packets: 10}
	}
	return itemset.FromTxs(txs)
}

// dominantDataset is one transaction carrying all the weight: a single
// maximal itemset covers 100% of the traffic.
func dominantDataset(totalFlows uint64) *itemset.Dataset {
	r := flow.Record{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: flow.ProtoTCP}
	return itemset.FromTxs([]itemset.Tx{
		{Items: itemset.ItemsOf(&r), Flows: totalFlows, Packets: totalFlows * 10},
	})
}

// TestTuningFloorReachedRoundOne: when the initial support already sits
// at the floor, the loop must record exactly one round and stop.
func TestTuningFloorReachedRoundOne(t *testing.T) {
	opts := DefaultOptions()
	ex := tinyExtractor(t, opts)

	// 20 flows: 0.2 × 20 = 4 < floor 10, so InitialMin clamps to the floor.
	ds := uniformDataset(1, 20)
	_, tuning, err := ex.mineTuned(t.Context(), ds, false)
	if err != nil {
		t.Fatal(err)
	}
	if tuning.Rounds != 1 {
		t.Fatalf("Rounds = %d, want 1 (floor reached immediately)", tuning.Rounds)
	}
	if tuning.InitialMin != opts.SupportFloor || tuning.FinalMin != opts.SupportFloor {
		t.Fatalf("trajectory %d -> %d, want pinned at floor %d",
			tuning.InitialMin, tuning.FinalMin, opts.SupportFloor)
	}
}

// TestTuningCoverageSatisfiedButBandNot: one dominant itemset covers all
// traffic (coverageTarget satisfied from round 1) but the MinItemsets
// band is not — the loop must keep halving all the way to the floor
// rather than stop at "coverage explained".
func TestTuningCoverageSatisfiedButBandNot(t *testing.T) {
	opts := DefaultOptions()
	opts.SupportFloor = 1
	opts.MinItemsets = 2
	opts.MaxTuningRounds = 20
	ex := tinyExtractor(t, opts)

	// 0.2 × 2560 = 512 flows: the first round's support.
	ds := dominantDataset(2560)
	res, tuning, err := ex.mineTuned(t.Context(), ds, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := ds.Coverage([]itemset.Set{res[0].Items}, false, 0); got < coverageTarget {
		t.Fatalf("test premise broken: coverage %v < target %v", got, coverageTarget)
	}
	if tuning.ItemsetsSeen >= opts.MinItemsets {
		t.Fatalf("test premise broken: %d itemsets reached the band", tuning.ItemsetsSeen)
	}
	// InitialMin 512 halves to the floor: rounds 0..9 mine at
	// 512,256,...,1 — ten rounds, final support 1.
	if tuning.InitialMin != 512 {
		t.Fatalf("InitialMin = %d, want 512", tuning.InitialMin)
	}
	if tuning.FinalMin != 1 {
		t.Fatalf("FinalMin = %d, want 1 (halved to the floor)", tuning.FinalMin)
	}
	if tuning.Rounds != 10 {
		t.Fatalf("Rounds = %d, want 10", tuning.Rounds)
	}
}

// TestTuningMaxRoundsExhaustion: a uniform dataset never reaches the
// band, so the loop must stop at MaxTuningRounds with the support halved
// exactly Rounds-1 times.
func TestTuningMaxRoundsExhaustion(t *testing.T) {
	opts := DefaultOptions()
	opts.SupportFloor = 1
	opts.MaxTuningRounds = 3
	ex := tinyExtractor(t, opts)

	// 0.2 × 20480 = 4096 flows: the first round's support.
	ds := uniformDataset(2, 20480)
	_, tuning, err := ex.mineTuned(t.Context(), ds, false)
	if err != nil {
		t.Fatal(err)
	}
	if tuning.Rounds != opts.MaxTuningRounds {
		t.Fatalf("Rounds = %d, want %d (exhaustion)", tuning.Rounds, opts.MaxTuningRounds)
	}
	if tuning.InitialMin != 4096 {
		t.Fatalf("InitialMin = %d, want 4096", tuning.InitialMin)
	}
	// No stop condition is ever met, so the support halves after every
	// round (4096 -> 2048 -> 1024 -> 512): FinalMin records the support a
	// fourth round would have mined at.
	if tuning.FinalMin != 512 {
		t.Fatalf("FinalMin = %d, want 512 after three halvings", tuning.FinalMin)
	}
}

func TestShareGuardsZeroTotal(t *testing.T) {
	if got := share(5, 0); got != 0 {
		t.Fatalf("share(5,0) = %v, want 0 (not NaN/Inf)", got)
	}
	if got := share(0, 0); got != 0 {
		t.Fatalf("share(0,0) = %v, want 0", got)
	}
	if got := share(3, 4); got != 0.75 {
		t.Fatalf("share(3,4) = %v, want 0.75", got)
	}
}

// TestScoresNeverNaN runs a full extraction and asserts the ranking
// never produces NaN scores (the latent pShare division bug).
func TestScoresNeverNaN(t *testing.T) {
	scanner := flow.MustParseIP("10.9.9.9")
	victim := flow.MustParseIP("198.19.0.9")
	s := gen.Scenario{
		Background: gen.Background{NumPoPs: 2, FlowsPerBin: 200},
		Bins:       4, StartTime: coreBase, Seed: 33,
		Placements: []gen.Placement{
			{Anomaly: gen.PortScan{Scanner: scanner, Victim: victim, SrcPort: 55548,
				Ports: 800, FlowsPerPort: 1, Router: 0}, Bin: 2},
		},
	}
	store, truth := buildScenario(t, s)
	ex := MustNew(store, DefaultOptions())
	res, err := ex.Extract(t.Context(), &detector.Alarm{Interval: truth.Entries[0].Interval})
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range res.Itemsets {
		if math.IsNaN(rep.Score) || math.IsInf(rep.Score, 0) {
			t.Fatalf("itemset %v has score %v", rep.Items, rep.Score)
		}
	}
}

// TestExtractMinerEquivalence runs the same extraction through every
// registered miner and requires identical results — the engine-level
// restatement of the cross-miner property tests.
func TestExtractMinerEquivalence(t *testing.T) {
	scannerA := flow.MustParseIP("10.191.64.165")
	victim := flow.MustParseIP("198.18.137.129")
	s := gen.Scenario{
		Background: gen.Background{NumPoPs: 2, FlowsPerBin: 300},
		Bins:       4, StartTime: coreBase, Seed: 44,
		Placements: []gen.Placement{
			{Anomaly: gen.PortScan{Scanner: scannerA, Victim: victim, SrcPort: 55548,
				Ports: 1500, FlowsPerPort: 2, Router: 1}, Bin: 2},
			{Anomaly: gen.SYNFlood{Victim: victim, DstPort: 80, Sources: 400,
				SourceNet: flow.MustParsePrefix("172.16.0.0/12"), FlowsPerSource: 2, Router: 0}, Bin: 2},
		},
	}
	store, truth := buildScenario(t, s)
	alarm := &detector.Alarm{Interval: truth.Entries[0].Interval}

	apOpts := DefaultOptions()
	apOpts.Miner = "apriori"
	apRes, err := MustNew(store, apOpts).Extract(t.Context(), alarm)
	if err != nil {
		t.Fatal(err)
	}
	if len(apRes.Itemsets) == 0 {
		t.Fatal("no itemsets extracted")
	}

	fpOpts := DefaultOptions()
	fpOpts.Miner = "fpgrowth"
	fpRes, err := MustNew(store, fpOpts).Extract(t.Context(), alarm)
	if err != nil {
		t.Fatal(err)
	}
	if len(apRes.Itemsets) != len(fpRes.Itemsets) {
		t.Fatalf("apriori found %d itemsets, fpgrowth %d", len(apRes.Itemsets), len(fpRes.Itemsets))
	}
	for i := range apRes.Itemsets {
		a, f := &apRes.Itemsets[i], &fpRes.Itemsets[i]
		if !slices.Equal(a.Items, f.Items) || a.FlowSupport != f.FlowSupport ||
			a.PacketSupport != f.PacketSupport || a.Score != f.Score {
			t.Fatalf("row %d differs: %v vs %v", i, a, f)
		}
	}
}

// oracleBaseline is the dataset-building baseline filter: the baseline
// bin aggregated into an itemset.Dataset, its supports read with one
// SupportAll pass, and the same keep rule applied.
func oracleBaseline(t *testing.T, ex *Extractor, iv flow.Interval, ds *itemset.Dataset, list []*ItemsetReport) (kept []*ItemsetReport, dropped int) {
	t.Helper()
	span := iv.End - iv.Start
	if span == 0 || iv.Start < span {
		return list, 0
	}
	b := itemset.NewBuilder()
	for r, err := range ex.store.Iter(t.Context(), flow.Interval{Start: iv.Start - span, End: iv.Start}, nil) {
		if err != nil {
			t.Fatal(err)
		}
		b.Add(r)
	}
	base := b.Dataset()
	if base.TotalFlows() == 0 {
		return list, 0
	}
	sups := base.SupportAll(reportSets(list), 1)
	const ratio = baselineRatio
	for i, r := range list {
		keep := share(r.FlowSupport, ds.TotalFlows()) >= ratio*share(sups[i].Flows, base.TotalFlows())
		if !keep && ds.TotalPackets() > 0 && base.TotalPackets() > 0 {
			keep = share(r.PacketSupport, ds.TotalPackets()) >= ratio*share(sups[i].Packets, base.TotalPackets())
		}
		if keep {
			kept = append(kept, r)
		} else {
			dropped++
		}
	}
	return kept, dropped
}

// TestBaselineFilterMatchesOracle: counting the baseline bin in place
// keeps and drops exactly what aggregating it into a dataset did — on a
// scan over background, with an empty baseline bin, with an alarm that
// starts before one span has elapsed, and with a zero-packet baseline
// that must not get a packet vote.
func TestBaselineFilterMatchesOracle(t *testing.T) {
	scanner := flow.MustParseIP("10.9.9.9")
	victim := flow.MustParseIP("198.19.0.9")
	store, truth := buildScenario(t, gen.Scenario{
		Background: gen.Background{NumPoPs: 2, FlowsPerBin: 400},
		Bins:       4, StartTime: coreBase, Seed: 9,
		Placements: []gen.Placement{
			{Anomaly: gen.PortScan{Scanner: scanner, Victim: victim, SrcPort: 55548,
				Ports: 600, FlowsPerPort: 1, Router: 0}, Bin: 2},
		},
	})

	// Zero-packet baseline: dstPort 80 and 443 carry the same flow share
	// in both bins, so only a (wrong) packet vote could keep them. The
	// store rejects zero-packet records, so an engine wrapper zeroes the
	// baseline bin's packets on the way out.
	twoBins, err := nfstore.CreateFormat(t.TempDir(), 300, nfstore.DefaultSegmentFormat)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { twoBins.Close() })
	alarmRows := itemset.NewBuilder()
	for i := range 400 {
		r := flow.Record{Start: coreBase + uint32(300*(i%2)), SrcIP: flow.IP(1000 + i), DstIP: victim,
			SrcPort: uint16(2000 + i), DstPort: uint16(80 + 363*(i/2%2)), Proto: flow.ProtoTCP, Packets: 10, Bytes: 400}
		if err := twoBins.Add(&r); err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			alarmRows.Add(&r)
		}
	}
	if err := twoBins.Flush(); err != nil {
		t.Fatal(err)
	}
	zeroStore := zeroPacketsBefore{Engine: twoBins, before: coreBase + 300}
	zeroDs := alarmRows.Dataset()
	var zeroList []*ItemsetReport
	for _, port := range []uint32{80, 443} {
		s := itemset.Set{itemset.NewItem(flow.FeatDstPort, port)}
		sup := zeroDs.SupportAll([]itemset.Set{s}, 1)[0]
		zeroList = append(zeroList, &ItemsetReport{Items: s, FlowSupport: sup.Flows, PacketSupport: sup.Packets})
	}

	binIv := func(bin uint32) flow.Interval {
		return flow.Interval{Start: truth.Span.Start + 300*bin, End: truth.Span.Start + 300*(bin+1)}
	}
	cases := []struct {
		name        string
		store       nfstore.Engine
		iv          flow.Interval
		list        []*ItemsetReport // nil: mine the interval unfiltered
		ds          *itemset.Dataset
		wantDropped bool
	}{
		{name: "scan over background", store: store, iv: binIv(2), wantDropped: true},
		{name: "quiet bin", store: store, iv: binIv(1), wantDropped: true},
		{name: "empty baseline bin", store: store, iv: binIv(0)},
		{name: "starts before one span", store: store, iv: flow.Interval{Start: 100, End: 400},
			list: zeroList, ds: zeroDs},
		{name: "zero-packet baseline", store: zeroStore, iv: flow.Interval{Start: coreBase + 300, End: coreBase + 600},
			list: zeroList, ds: zeroDs, wantDropped: true},
	}
	for _, tc := range cases {
		opts := DefaultOptions()
		// No ranking cut: Extract reports every row the filter keeps.
		opts.MaxItemsets = 1000
		ex, err := New(tc.store, opts)
		if err != nil {
			t.Fatal(err)
		}
		list, ds := tc.list, tc.ds
		var alarm *detector.Alarm
		if list == nil {
			// The unfiltered report: the list the filter sees inside
			// Extract.
			alarm = &detector.Alarm{Interval: tc.iv}
			if ds, _, err = ex.candidates(t.Context(), alarm); err != nil {
				t.Fatal(err)
			}
			if list, _, err = ex.mine(t.Context(), ds); err != nil {
				t.Fatal(err)
			}
		}
		kept, dropped, err := ex.baselineFilter(t.Context(), tc.iv, ds, list)
		if err != nil {
			t.Fatal(err)
		}
		wantKept, wantDropped := oracleBaseline(t, ex, tc.iv, ds, list)
		if dropped != wantDropped || !reflect.DeepEqual(kept, wantKept) {
			t.Fatalf("%s: kept %v dropped %d, oracle kept %v dropped %d", tc.name, kept, dropped, wantKept, wantDropped)
		}
		if tc.wantDropped != (dropped > 0) || len(kept)+dropped != len(list) {
			t.Fatalf("%s: dropped %d of %d itemsets (want some dropped: %v)", tc.name, dropped, len(list), tc.wantDropped)
		}
		if alarm != nil {
			res, err := ex.Extract(t.Context(), alarm)
			if err != nil {
				t.Fatal(err)
			}
			if res.BaselineDropped != wantDropped || len(res.Itemsets) != len(wantKept) {
				t.Fatalf("%s: Extract dropped %d and kept %d, oracle %d and %d",
					tc.name, res.BaselineDropped, len(res.Itemsets), wantDropped, len(wantKept))
			}
		}
	}
}

// zeroPacketsBefore serves its engine's records with the packet count of
// every record starting before the cut set to zero, through Iter (the
// oracle's scan) and Scan (the engine's).
type zeroPacketsBefore struct {
	nfstore.Engine
	before uint32
}

func (z zeroPacketsBefore) Iter(ctx context.Context, iv flow.Interval, f *nffilter.Filter) iter.Seq2[*flow.Record, error] {
	return func(yield func(*flow.Record, error) bool) {
		for r, err := range z.Engine.Iter(ctx, iv, f) {
			if err == nil && r.Start < z.before {
				c := *r
				c.Packets = 0
				r = &c
			}
			if !yield(r, err) {
				return
			}
		}
	}
}

func (z zeroPacketsBefore) Scan(ctx context.Context, iv flow.Interval, f *nffilter.Filter, cols nffilter.ColumnSet, fn func(*nfstore.Batch) error) error {
	return z.Engine.Scan(ctx, iv, f, cols.With(nffilter.ColStart), func(b *nfstore.Batch) error {
		for i, start := range b.Start {
			if start < z.before {
				b.Packets[i] = 0
			}
		}
		return fn(b)
	})
}
