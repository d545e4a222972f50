package core

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/detector"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/itemset"
	"repro/internal/nfstore"
)

const coreBase = uint32(1_200_000_000)

// buildScenario generates a trace and returns store + truth.
func buildScenario(t *testing.T, s gen.Scenario) (*nfstore.Store, *gen.Truth) {
	t.Helper()
	store, err := nfstore.CreateFormat(t.TempDir(), 300, nfstore.DefaultSegmentFormat)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	truth, err := s.Generate(store)
	if err != nil {
		t.Fatal(err)
	}
	return store, truth
}

// hasItem reports whether any reported itemset contains the item.
func hasItem(res *Result, f flow.Feature, v uint32) bool {
	want := itemset.NewItem(f, v)
	for _, r := range res.Itemsets {
		if r.Items.Contains(want) {
			return true
		}
	}
	return false
}

func TestOptionsValidation(t *testing.T) {
	store, _ := buildScenario(t, gen.Scenario{Bins: 1, StartTime: coreBase, Seed: 1,
		Background: gen.Background{NumPoPs: 1, FlowsPerBin: 10}})
	// Explicitly invalid values are errors, uniformly across fields.
	bad := []Options{
		{MinItemsets: 5, MaxItemsets: 2},
		{MinItemsets: -1},
		{MaxItemsets: -1},
		{MaxTuningRounds: -1},
		{MinCandidates: -3},
		{Miner: "no-such-miner"},
		{Ranking: "no-such-ranking"},
	}
	for i, o := range bad {
		if _, err := New(store, o); err == nil {
			t.Errorf("options %d (%+v) must be rejected", i, o)
		}
	}
	if _, err := New(nil, DefaultOptions()); err == nil {
		t.Error("nil store must be rejected")
	}
	if _, err := New(store, DefaultOptions()); err != nil {
		t.Errorf("default options rejected: %v", err)
	}
}

func TestOptionsZeroValuesInheritDefaults(t *testing.T) {
	// The zero value of every field inherits the default (never an
	// error, never a surprising rewrite of an explicit value).
	var o Options
	if err := o.validate(); err != nil {
		t.Fatalf("zero options must validate: %v", err)
	}
	def := DefaultOptions()
	if o.MinItemsets != def.MinItemsets || o.MaxItemsets != def.MaxItemsets {
		t.Errorf("band = [%d,%d], want [%d,%d]", o.MinItemsets, o.MaxItemsets, def.MinItemsets, def.MaxItemsets)
	}
	if o.SupportFloor != def.SupportFloor {
		t.Errorf("SupportFloor = %d, want %d", o.SupportFloor, def.SupportFloor)
	}
	if o.MaxTuningRounds != def.MaxTuningRounds {
		t.Errorf("MaxTuningRounds = %d, want %d", o.MaxTuningRounds, def.MaxTuningRounds)
	}
	if o.MinCandidates != def.MinCandidates {
		t.Errorf("MinCandidates = %d, want %d", o.MinCandidates, def.MinCandidates)
	}
	if o.Ranking != def.Ranking {
		t.Errorf("Ranking = %q, want %q", o.Ranking, def.Ranking)
	}
}

// TestZeroOptionsArePaperDefaults: Options{} runs the paper's
// configuration — the meta pre-filter, the packet pass and the baseline
// filter included — so it extracts exactly what DefaultOptions does.
func TestZeroOptionsArePaperDefaults(t *testing.T) {
	def, ok := gen.Lookup("dns-amplification")
	if !ok {
		t.Fatal("catalog scenario dns-amplification missing")
	}
	store, truth := buildScenario(t, *def.Scenario(1))
	entry := &truth.Entries[0]
	alarm := &detector.Alarm{Interval: entry.Interval}
	for _, it := range entry.Signature {
		alarm.Meta = append(alarm.Meta, detector.MetaItem{Feature: it.Feature, Value: it.Value})
	}
	zero, err := MustNew(store, Options{}).Extract(t.Context(), alarm)
	if err != nil {
		t.Fatal(err)
	}
	paper, err := MustNew(store, DefaultOptions()).Extract(t.Context(), alarm)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(zero, paper) {
		t.Fatalf("Options{} extracted %+v,\nDefaultOptions %+v", zero, paper)
	}
	if !zero.Prefiltered || len(zero.Tuning) != 2 || zero.BaselineDropped == 0 {
		t.Fatalf("test premise broken: prefiltered=%v, %d tuned dimensions, %d baseline drops (want true, 2, > 0)",
			zero.Prefiltered, len(zero.Tuning), zero.BaselineDropped)
	}
}

func TestExtractPortScan(t *testing.T) {
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
	ex := MustNew(store, DefaultOptions())
	alarm := &detector.Alarm{
		Detector: "netreflex", Kind: detector.KindPortScan,
		Interval: truth.Entries[0].Interval,
		Meta: []detector.MetaItem{
			{Feature: flow.FeatSrcIP, Value: uint32(scanner)},
			{Feature: flow.FeatDstIP, Value: uint32(victim)},
		},
	}
	res, err := ex.Extract(t.Context(), alarm)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Itemsets) == 0 {
		t.Fatal("no itemsets extracted")
	}
	top := res.Itemsets[0]
	if !top.Items.Contains(itemset.NewItem(flow.FeatSrcIP, uint32(scanner))) {
		t.Fatalf("top itemset %v does not name the scanner", top.Items)
	}
	if !top.Items.Contains(itemset.NewItem(flow.FeatSrcPort, 55548)) {
		t.Fatalf("top itemset %v does not pin the scan source port", top.Items)
	}
	if top.FlowSupport != 2000 {
		t.Fatalf("scan flow support = %d, want 2000", top.FlowSupport)
	}
	if !res.Prefiltered {
		t.Fatal("meta pre-filter should have been applied")
	}
}

func TestExtractFindsCoOccurringAnomalies(t *testing.T) {
	// Table 1 situation: detector meta names only scanner A; extraction
	// must also surface scanner B and the DDoS itemsets against the same
	// target.
	scannerA := flow.MustParseIP("10.191.64.165")
	scannerB := flow.MustParseIP("10.22.33.44")
	victim := flow.MustParseIP("198.18.137.129")
	s := gen.Scenario{
		Background: gen.Background{NumPoPs: 2, FlowsPerBin: 300},
		Bins:       4, StartTime: coreBase, Seed: 6,
		Placements: []gen.Placement{
			{Anomaly: gen.PortScan{Scanner: scannerA, Victim: victim, SrcPort: 55548, Ports: 1500, FlowsPerPort: 2, Router: 1}, Bin: 2},
			{Anomaly: gen.PortScan{Scanner: scannerB, Victim: victim, SrcPort: 55548, Ports: 1300, FlowsPerPort: 2, Router: 1}, Bin: 2},
			{Anomaly: gen.SYNFlood{Victim: victim, DstPort: 80, Sources: 400, SourceNet: flow.MustParsePrefix("172.16.0.0/12"), FlowsPerSource: 2, Router: 0}, Bin: 2},
		},
	}
	store, truth := buildScenario(t, s)
	ex := MustNew(store, DefaultOptions())
	// NetReflex-style narrow meta: scanner A only.
	alarm := &detector.Alarm{
		Interval: truth.Entries[0].Interval,
		Meta: []detector.MetaItem{
			{Feature: flow.FeatSrcIP, Value: uint32(scannerA)},
			{Feature: flow.FeatDstIP, Value: uint32(victim)},
			{Feature: flow.FeatSrcPort, Value: 55548},
		},
	}
	res, err := ex.Extract(t.Context(), alarm)
	if err != nil {
		t.Fatal(err)
	}
	if !hasItem(res, flow.FeatSrcIP, uint32(scannerA)) {
		t.Fatal("flagged scanner missing from extraction")
	}
	if !hasItem(res, flow.FeatSrcIP, uint32(scannerB)) {
		t.Fatalf("second scanner not discovered; itemsets: %v", res.Itemsets)
	}
	if !hasItem(res, flow.FeatDstPort, 80) {
		t.Fatalf("DDoS on port 80 not discovered; itemsets: %v", res.Itemsets)
	}
}

func TestExtractUDPFloodNeedsPacketSupport(t *testing.T) {
	src := flow.MustParseIP("10.55.55.55")
	dst := flow.MustParseIP("198.18.0.77")
	s := gen.Scenario{
		Background: gen.Background{NumPoPs: 2, FlowsPerBin: 400},
		Bins:       4, StartTime: coreBase, Seed: 7,
		Placements: []gen.Placement{
			{Anomaly: gen.UDPFlood{Src: src, Dst: dst, DstPort: 9999, Flows: 4, PacketsPerFlow: 2_000_000, Router: 1}, Bin: 2},
		},
	}
	store, truth := buildScenario(t, s)

	// With dual support (default): the flood itemset must surface.
	ex := MustNew(store, DefaultOptions())
	alarm := &detector.Alarm{Interval: truth.Entries[0].Interval}
	res, err := ex.Extract(t.Context(), alarm)
	if err != nil {
		t.Fatal(err)
	}
	if !hasItem(res, flow.FeatSrcIP, uint32(src)) {
		t.Fatalf("flood source not extracted; itemsets: %v", res.Itemsets)
	}
	// The flood itemset must have been found via packet support.
	foundViaPackets := false
	for _, r := range res.Itemsets {
		if r.Items.Contains(itemset.NewItem(flow.FeatSrcIP, uint32(src))) {
			for _, d := range r.Dimensions {
				if d == nfstore.ByPackets {
					foundViaPackets = true
				}
			}
		}
	}
	if !foundViaPackets {
		t.Fatal("flood itemset should carry the packets dimension")
	}

	// Flow-support only (classic Apriori): the 4-flow flood is invisible.
	opts := DefaultOptions()
	opts.FlowOnly = true
	exFlow := MustNew(store, opts)
	resFlow, err := exFlow.Extract(t.Context(), alarm)
	if err != nil {
		t.Fatal(err)
	}
	if hasItem(resFlow, flow.FeatSrcIP, uint32(src)) {
		t.Fatal("4-flow flood should be invisible to flow-only support (the paper's motivation)")
	}
}

func TestSelfTuningLowersSupport(t *testing.T) {
	// A weak anomaly: the initial 20% support is far above its footprint,
	// so the tuning loop must halve down until itemsets appear.
	scanner := flow.MustParseIP("10.9.9.9")
	victim := flow.MustParseIP("198.18.0.50")
	s := gen.Scenario{
		Background: gen.Background{NumPoPs: 2, FlowsPerBin: 400},
		Bins:       4, StartTime: coreBase, Seed: 8,
		Placements: []gen.Placement{
			{Anomaly: gen.PortScan{Scanner: scanner, Victim: victim, SrcPort: 40000, Ports: 120, FlowsPerPort: 1, Router: 0}, Bin: 2},
		},
	}
	store, truth := buildScenario(t, s)
	opts := DefaultOptions()
	opts.NoPrefilter = true
	ex := MustNew(store, opts)
	res, err := ex.Extract(t.Context(), &detector.Alarm{Interval: truth.Entries[0].Interval})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuning) == 0 {
		t.Fatal("no tuning recorded")
	}
	ft := res.Tuning[0]
	if ft.Rounds < 2 {
		t.Fatalf("expected multiple tuning rounds, got %d", ft.Rounds)
	}
	if ft.FinalMin >= ft.InitialMin {
		t.Fatalf("support must have been lowered: %d -> %d", ft.InitialMin, ft.FinalMin)
	}
	if !hasItem(res, flow.FeatSrcIP, uint32(scanner)) {
		t.Fatalf("weak scan not extracted; itemsets: %v", res.Itemsets)
	}
}

func TestBaselineFilterSuppressesPopularServices(t *testing.T) {
	// No anomaly at all: everything frequent in the alarm bin is equally
	// frequent in the baseline bin, so the baseline filter must drop
	// some of it.
	s := gen.Scenario{
		Background: gen.Background{NumPoPs: 2, FlowsPerBin: 400},
		Bins:       4, StartTime: coreBase, Seed: 9,
	}
	store, truth := buildScenario(t, s)
	iv := flow.Interval{Start: truth.Span.Start + 2*300, End: truth.Span.Start + 3*300}

	res, err := MustNew(store, DefaultOptions()).Extract(t.Context(), &detector.Alarm{Interval: iv})
	if err != nil {
		t.Fatal(err)
	}
	if res.BaselineDropped == 0 {
		t.Fatalf("baseline filter dropped nothing on a quiet bin (kept %d)", len(res.Itemsets))
	}
}

func TestExtractNoCandidates(t *testing.T) {
	s := gen.Scenario{
		Background: gen.Background{NumPoPs: 1, FlowsPerBin: 10},
		Bins:       2, StartTime: coreBase, Seed: 10,
	}
	store, truth := buildScenario(t, s)
	ex := MustNew(store, DefaultOptions())
	empty := flow.Interval{Start: truth.Span.End + 3000, End: truth.Span.End + 3300}
	if _, err := ex.Extract(t.Context(), &detector.Alarm{Interval: empty}); err != ErrNoCandidates {
		t.Fatalf("got %v, want ErrNoCandidates", err)
	}
}

func TestFilterForRoundTrip(t *testing.T) {
	set := itemset.NewSet(
		itemset.NewItem(flow.FeatSrcIP, uint32(flow.MustParseIP("10.1.2.3"))),
		itemset.NewItem(flow.FeatDstPort, 80),
		itemset.NewItem(flow.FeatProto, uint32(flow.ProtoTCP)),
	)
	f := FilterFor(set)
	match := &flow.Record{
		SrcIP: flow.MustParseIP("10.1.2.3"), DstIP: flow.MustParseIP("9.9.9.9"),
		SrcPort: 1234, DstPort: 80, Proto: flow.ProtoTCP, Packets: 1, Bytes: 40,
	}
	if !f.Match(match) {
		t.Fatal("filter must match itemset flows")
	}
	mismatch := *match
	mismatch.DstPort = 443
	if f.Match(&mismatch) {
		t.Fatal("filter must reject non-matching flows")
	}
}

func TestResultTable(t *testing.T) {
	scanner := flow.MustParseIP("10.191.64.165")
	victim := flow.MustParseIP("198.18.137.129")
	s := gen.Scenario{
		Background: gen.Background{NumPoPs: 2, FlowsPerBin: 200},
		Bins:       4, StartTime: coreBase, Seed: 11,
		Placements: []gen.Placement{
			{Anomaly: gen.PortScan{Scanner: scanner, Victim: victim, SrcPort: 55548, Ports: 1000, FlowsPerPort: 1, Router: 1}, Bin: 2},
		},
	}
	store, truth := buildScenario(t, s)
	ex := MustNew(store, DefaultOptions())
	res, err := ex.Extract(t.Context(), &detector.Alarm{Interval: truth.Entries[0].Interval})
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.Table().String()
	for _, want := range []string{"srcIP", "dstPort", "#flows", "10.191.64.165", "*"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("table output missing %q:\n%s", want, tbl)
		}
	}
}

func TestHumanCount(t *testing.T) {
	cases := []struct {
		in   uint64
		want string
	}{
		{312590, "312.59K"}, {37190, "37.19K"}, {9999, "9999"},
		{2_500_000, "2.50M"}, {3_000_000_000, "3.00G"},
	}
	for _, c := range cases {
		if got := humanCount(c.in); got != c.want {
			t.Errorf("humanCount(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestDeterministicExtraction(t *testing.T) {
	s := gen.Scenario{
		Background: gen.Background{NumPoPs: 2, FlowsPerBin: 300},
		Bins:       4, StartTime: coreBase, Seed: 12,
		Placements: []gen.Placement{
			{Anomaly: gen.PortScan{Scanner: 111, Victim: 222, SrcPort: 1, Ports: 500, Router: 0}, Bin: 2},
		},
	}
	store, truth := buildScenario(t, s)
	ex := MustNew(store, DefaultOptions())
	alarm := &detector.Alarm{Interval: truth.Entries[0].Interval}
	r1, err := ex.Extract(t.Context(), alarm)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ex.Extract(t.Context(), alarm)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Itemsets) != len(r2.Itemsets) {
		t.Fatal("non-deterministic itemset count")
	}
	for i := range r1.Itemsets {
		if !slices.Equal(r1.Itemsets[i].Items, r2.Itemsets[i].Items) {
			t.Fatal("non-deterministic itemset order")
		}
	}
}

// TestRankingModesDeterministic pins the ranking determinism contract:
// for every ranking mode, two extractions over the same store return the
// identical ranked list, and the list obeys the pinned tie-break (score
// desc, longer itemsets first, then canonical key) — the comparator must
// not change across modes.
func TestRankingModesDeterministic(t *testing.T) {
	s := gen.Scenario{
		Background: gen.Background{NumPoPs: 2, FlowsPerBin: 300},
		Bins:       4, StartTime: coreBase, Seed: 19,
		Placements: []gen.Placement{
			{Anomaly: gen.PortScan{Scanner: 111, Victim: 222, SrcPort: 1, Ports: 500, Router: 0}, Bin: 2},
			{Anomaly: gen.SYNFlood{Victim: 222, DstPort: 80, Sources: 800, FlowsPerSource: 3,
				SourceNet: flow.MustParsePrefix("172.16.0.0/12"), Router: 1}, Bin: 2},
		},
	}
	store, truth := buildScenario(t, s)
	alarm := &detector.Alarm{Interval: truth.Entries[0].Interval}
	for _, mode := range []string{RankSupport, RankLift, RankWeighted} {
		opts := DefaultOptions()
		opts.Ranking = mode
		ex := MustNew(store, opts)
		r1, err := ex.Extract(t.Context(), alarm)
		if err != nil {
			t.Fatalf("ranking %q: %v", mode, err)
		}
		r2, err := ex.Extract(t.Context(), alarm)
		if err != nil {
			t.Fatalf("ranking %q: %v", mode, err)
		}
		if len(r1.Itemsets) != len(r2.Itemsets) {
			t.Fatalf("ranking %q: non-deterministic itemset count", mode)
		}
		for i := range r1.Itemsets {
			a, b := r1.Itemsets[i], r2.Itemsets[i]
			if !slices.Equal(a.Items, b.Items) || a.Score != b.Score {
				t.Fatalf("ranking %q: rank %d differs between runs", mode, i+1)
			}
			if math.IsNaN(a.Score) || math.IsInf(a.Score, 0) || a.Score < 0 {
				t.Errorf("ranking %q: rank %d score %v not a finite non-negative number", mode, i+1, a.Score)
			}
			if i == 0 {
				continue
			}
			prev := r1.Itemsets[i-1]
			switch {
			case prev.Score > a.Score:
			case prev.Score == a.Score && len(prev.Items) > len(a.Items):
			case prev.Score == a.Score && len(prev.Items) == len(a.Items) && prev.Items.Key() < a.Items.Key():
			default:
				t.Errorf("ranking %q: ranks %d-%d violate the pinned tie-break", mode, i, i+1)
			}
		}
	}
}
