package eval

import (
	"testing"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/itemset"
	"repro/internal/nfstore"
)

func TestScoreResultPurityAndRecall(t *testing.T) {
	store, err := nfstore.CreateFormat(t.TempDir(), 300, nfstore.DefaultSegmentFormat)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	scanner := flow.MustParseIP("10.9.9.9")
	victim := flow.MustParseIP("198.19.0.9")
	s := gen.Scenario{
		Background: gen.Background{NumPoPs: 2, FlowsPerBin: 300},
		Bins:       4, StartTime: 1_300_000_200, Seed: 3,
		Placements: []gen.Placement{
			{Anomaly: gen.PortScan{Scanner: scanner, Victim: victim, SrcPort: 55548,
				Ports: 2000, FlowsPerPort: 1, Router: 1}, Bin: 2},
		},
	}
	truth, err := s.Generate(store)
	if err != nil {
		t.Fatal(err)
	}
	alarm := SynthesizeAlarm(truth.Entry(1))
	ex := core.MustNew(store, core.DefaultOptions())
	res, err := ex.Extract(t.Context(), &alarm)
	if err != nil {
		t.Fatal(err)
	}
	score, err := ScoreResult(store, &alarm, res, DefaultScoreOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !score.Useful {
		t.Fatalf("clean scan must score useful; itemsets: %+v", score.Itemsets)
	}
	if score.FlowRecall < 0.9 {
		t.Fatalf("scan recall %v, want > 0.9", score.FlowRecall)
	}
	// Alarm meta covers the scan completely: no additional evidence.
	if score.Additional {
		t.Fatal("single-anomaly scenario must not report additional evidence")
	}
}

func TestScoreAdditionalEvidence(t *testing.T) {
	store, err := nfstore.CreateFormat(t.TempDir(), 300, nfstore.DefaultSegmentFormat)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	scannerA := flow.MustParseIP("10.9.9.9")
	scannerB := flow.MustParseIP("10.8.8.8")
	victim := flow.MustParseIP("198.19.0.9")
	s := gen.Scenario{
		Background: gen.Background{NumPoPs: 2, FlowsPerBin: 300},
		Bins:       4, StartTime: 1_300_000_200, Seed: 4,
		Placements: []gen.Placement{
			{Anomaly: gen.PortScan{Scanner: scannerA, Victim: victim, SrcPort: 55548,
				Ports: 2000, FlowsPerPort: 1, Router: 1}, Bin: 2},
			{Anomaly: gen.SYNFlood{Victim: victim, DstPort: 80, Sources: 800,
				FlowsPerSource: 2, SourceNet: flow.MustParsePrefix("172.16.0.0/12"), Router: 0}, Bin: 2},
		},
	}
	truth, err := s.Generate(store)
	if err != nil {
		t.Fatal(err)
	}
	// Narrow meta: scanner A only (srcIP), so the SYN flood's flows fall
	// outside the meta but share the victim.
	alarm := detector.Alarm{
		Interval: truth.Entry(1).Interval,
		Meta: []detector.MetaItem{
			{Feature: flow.FeatSrcIP, Value: uint32(scannerA)},
			{Feature: flow.FeatDstIP, Value: uint32(victim)},
		},
	}
	_ = scannerB
	ex := core.MustNew(store, core.DefaultOptions())
	res, err := ex.Extract(t.Context(), &alarm)
	if err != nil {
		t.Fatal(err)
	}
	score, err := ScoreResult(store, &alarm, res, DefaultScoreOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !score.Useful {
		t.Fatal("extraction must be useful")
	}
	if !score.Additional {
		t.Fatalf("DDoS beyond the meta must count as additional evidence; itemsets: %+v", score.Itemsets)
	}
}

func TestSynthesizeAlarmShapes(t *testing.T) {
	cases := []struct {
		anomaly  gen.Anomaly
		wantMeta int
	}{
		{gen.PortScan{Scanner: 1, Victim: 2, SrcPort: 3}, 3},
		{gen.NetworkScan{Scanner: 1, DstPort: 445}, 2},
		{gen.SYNFlood{Victim: 2, DstPort: 80}, 2},
		{gen.UDPFlood{Src: 1, Dst: 2}, 2},
		{gen.FlashCrowd{Server: 2, Port: 80}, 2},
		{gen.Stealthy{Scanner: 1, Victim: 2}, 1},
		{gen.AmplificationFlood{Victim: 2, Service: 53}, 3},
		{gen.ICMPFlood{Victim: 2}, 2},
		{gen.BotnetScan{DstPort: 5060}, 2},
		{gen.LinkOutage{Service: 2, Port: 443}, 3},
		{gen.PrefixMigration{Service: 2, Port: 443}, 3},
		{gen.SpamCampaign{}, 2},
	}
	for i, c := range cases {
		entry := &gen.TruthEntry{Kind: c.anomaly.Kind(),
			Interval:  flow.Interval{Start: 0, End: 300},
			Signature: c.anomaly.Signature()}
		a := SynthesizeAlarm(entry)
		if len(a.Meta) != c.wantMeta {
			t.Errorf("case %d: %d meta items, want %d", i, len(a.Meta), c.wantMeta)
		}
		if a.Interval != entry.Interval {
			t.Errorf("case %d: interval not propagated", i)
		}
		if a.Kind != c.anomaly.Kind() {
			t.Errorf("case %d: kind %q not propagated", i, a.Kind)
		}
	}
}

func TestGEANTSpecsShape(t *testing.T) {
	specs := GEANTSpecs(1)
	if len(specs) != 40 {
		t.Fatalf("GEANT suite has %d scenarios, want 40", len(specs))
	}
	fails, secondaries, fps := 0, 0, 0
	for _, s := range specs {
		if s.ExpectFail {
			fails++
		}
		if len(s.Placements) == 0 {
			fps++
		}
		if len(s.Placements) > 1 {
			secondaries++
		}
	}
	if fails != 2 || fps != 1 {
		t.Fatalf("fails=%d fps=%d, want 2 and 1", fails, fps)
	}
	if secondaries != 10 {
		t.Fatalf("secondary-anomaly scenarios = %d, want 10", secondaries)
	}
	// The geometry the suite runs: 6 bins, every anomaly at bin 3 (the
	// quiet middle bin of the false positive).
	for i, s := range specs {
		sc := s.scenario(i, suiteConfig{})
		if sc.Bins != 6 {
			t.Errorf("%s: %d bins, want 6", s.Name, sc.Bins)
		}
		for _, p := range sc.Placements {
			if p.Bin != 3 {
				t.Errorf("%s: anomaly at bin %d, want 3", s.Name, p.Bin)
			}
		}
	}
}

func TestSWITCHSpecsShape(t *testing.T) {
	specs := SWITCHSpecs(1)
	if len(specs) != 31 {
		t.Fatalf("SWITCH suite has %d scenarios, want 31", len(specs))
	}
	for i, s := range specs {
		if s.ExpectFail || len(s.Placements) == 0 {
			t.Fatalf("SWITCH suite must not contain expected failures: %+v", s)
		}
		// The geometry the suite runs: 18 bins (enough baseline for the
		// detector in the loop), every anomaly at bin 15.
		sc := s.scenario(i, suiteConfig{})
		if sc.Bins != 18 {
			t.Errorf("%s: %d bins, want 18", s.Name, sc.Bins)
		}
		for _, p := range sc.Placements {
			if p.Bin != 15 {
				t.Errorf("%s: anomaly at bin %d, want 15", s.Name, p.Bin)
			}
		}
	}
}

func TestRunSuiteSubset(t *testing.T) {
	// A fast subset: first scan (with secondary), one UDP flood, the
	// stealthy case and the false positive — exercising all paths of the
	// runner without the full 40-scenario cost.
	all := GEANTSpecs(1)
	subset := []ScenarioSpec{all[0], all[27], all[38], all[39]}
	if !subset[2].ExpectFail || len(subset[3].Placements) != 0 {
		t.Fatalf("subset selection wrong: %+v", subset[2:])
	}
	res, err := runSuite("geant-subset", subset, suiteConfig{
		SeedBase:   77,
		SampleRate: 100,
		WorkDir:    t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evals) != 4 {
		t.Fatalf("%d evals", len(res.Evals))
	}
	// Scan with secondary: useful + additional.
	if !res.Evals[0].Useful {
		t.Errorf("scan scenario not useful: %+v", res.Evals[0])
	}
	if !res.Evals[0].Additional {
		t.Errorf("scan scenario with secondary must show additional evidence")
	}
	// UDP flood: useful under sampling thanks to packet support.
	if !res.Evals[1].Useful {
		t.Errorf("udp flood scenario not useful: %+v", res.Evals[1])
	}
	// Stealthy and FP: not useful.
	if res.Evals[2].Useful {
		t.Errorf("stealthy scenario must fail extraction")
	}
	if res.Evals[3].Useful {
		t.Errorf("false-positive scenario must fail extraction")
	}
	if res.Useful() != 2 || res.UsefulFraction() != 0.5 {
		t.Errorf("aggregation wrong: useful=%d frac=%v", res.Useful(), res.UsefulFraction())
	}
}

func TestRunTable1SmallScale(t *testing.T) {
	// The full Table 1 runs ~660K anomaly flows; tests use a scaled-down
	// variant through the same code path by checking the real scenario's
	// structure on the first rows only — the full-size run is
	// TestPaperBands/E1-table1. Here: verify the helper wiring end to
	// end on the default config but trimmed via RunUDPFloodSweep-style
	// smoke.
	rows, err := RunUDPFloodSweep(t.TempDir(), []int{4}, 1_000_000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].FlowOnlyFound {
		t.Error("4-flow flood must be invisible to flow-only support")
	}
	if !rows[0].DualFound {
		t.Error("4-flow flood must be found with dual support")
	}
}

func TestRunTuningAblation(t *testing.T) {
	rows, err := RunTuningAblation(t.TempDir(), []float64{0.02, 1}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	weak, strong := rows[0], rows[1]
	if !weak.SelfTunedUseful {
		t.Errorf("self-tuning must find the weak scan: %+v", weak)
	}
	if weak.FixedUseful {
		t.Errorf("fixed support should miss the weak scan: %+v", weak)
	}
	if !strong.SelfTunedUseful || !strong.FixedUseful {
		t.Errorf("both modes must find the strong scan: %+v", strong)
	}
	if weak.SelfTunedRounds < 2 {
		t.Errorf("tuner must have adapted on the weak scan: rounds=%d", weak.SelfTunedRounds)
	}
}

func TestContainsItem(t *testing.T) {
	it := itemset.NewItem(flow.FeatDstPort, 80)
	res := &core.Result{Itemsets: []core.ItemsetReport{
		{Items: itemset.NewSet(it)},
	}}
	if !containsItem(res, it) {
		t.Fatal("containsItem false negative")
	}
	if containsItem(res, itemset.NewItem(flow.FeatDstPort, 443)) {
		t.Fatal("containsItem false positive")
	}
}
