package rootcause_test

import (
	"path/filepath"
	"slices"
	"testing"

	rootcause "repro"
	"repro/internal/detector"
	"repro/internal/flow"
	"repro/internal/gen"
)

func TestMinerNames(t *testing.T) {
	names := rootcause.MinerNames()
	for _, want := range []string{"apriori", "fpgrowth"} {
		if !slices.Contains(names, want) {
			t.Errorf("MinerNames() = %v, missing %q", names, want)
		}
	}
}

func TestRegisterMinerRejectsDuplicates(t *testing.T) {
	if err := rootcause.RegisterMiner("apriori", nil); err == nil {
		t.Fatal("duplicate / nil-factory registration must fail")
	}
}

// minerTestSystem builds a system with a scan scenario and one filed
// alarm.
func minerTestSystem(t *testing.T) (*rootcause.System, string) {
	t.Helper()
	sys, err := rootcause.Create(rootcause.Config{StoreDir: filepath.Join(t.TempDir(), "flows")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	scanner := flow.MustParseIP("10.9.9.9")
	victim := flow.MustParseIP("198.19.0.9")
	scenario := gen.Scenario{
		Background: gen.Background{NumPoPs: 2, FlowsPerBin: 250},
		Bins:       4, StartTime: 1_300_000_200, Seed: 17,
		Placements: []gen.Placement{
			{Anomaly: gen.PortScan{Scanner: scanner, Victim: victim, SrcPort: 1234,
				Ports: 1200, FlowsPerPort: 1, Router: 0}, Bin: 2},
		},
	}
	truth, err := scenario.Generate(sys.Store())
	if err != nil {
		t.Fatal(err)
	}
	id := sys.FileAlarm(rootcause.Alarm{
		Detector: "external-ids",
		Interval: truth.Entries[0].Interval,
		Kind:     detector.KindPortScan,
		Meta: []detector.MetaItem{
			{Feature: flow.FeatSrcIP, Value: uint32(scanner)},
		},
	})
	return sys, id
}

// TestWithMinerEquivalence extracts the same alarm through each built-in
// miner via the public API and requires identical ranked itemsets.
func TestWithMinerEquivalence(t *testing.T) {
	sys, id := minerTestSystem(t)
	ap, err := sys.Extract(t.Context(), id, rootcause.WithMiner("apriori"))
	if err != nil {
		t.Fatal(err)
	}
	fp, err := sys.Extract(t.Context(), id, rootcause.WithMiner("fpgrowth"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ap.Itemsets) == 0 {
		t.Fatal("no itemsets extracted")
	}
	if len(ap.Itemsets) != len(fp.Itemsets) {
		t.Fatalf("apriori %d itemsets, fpgrowth %d", len(ap.Itemsets), len(fp.Itemsets))
	}
	for i := range ap.Itemsets {
		a, f := &ap.Itemsets[i], &fp.Itemsets[i]
		if !slices.Equal(a.Items, f.Items) || a.FlowSupport != f.FlowSupport || a.PacketSupport != f.PacketSupport {
			t.Fatalf("row %d differs: %v vs %v", i, a, f)
		}
	}
}

// TestWithMinerComposesWithExtractionOptions: the WithMiner name wins
// over the options' Miner field.
func TestWithMinerComposesWithExtractionOptions(t *testing.T) {
	sys, id := minerTestSystem(t)
	opts := rootcause.DefaultExtractionOptions()
	opts.Miner = "apriori"
	opts.MaxItemsets = 3
	res, err := sys.Extract(t.Context(), id,
		rootcause.WithExtractionOptions(opts), rootcause.WithMiner("fpgrowth"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Itemsets) > 3 {
		t.Fatalf("MaxItemsets override lost: %d itemsets", len(res.Itemsets))
	}
}

func TestWithMinerUnknownRejected(t *testing.T) {
	sys, id := minerTestSystem(t)
	if _, err := sys.Extract(t.Context(), id, rootcause.WithMiner("frobnicator")); err == nil {
		t.Fatal("unknown miner must be rejected")
	}
	// Submit validates the per-call options while the caller waits.
	if _, err := sys.Submit(rootcause.JobRequest{AlarmID: id}, rootcause.WithMiner("frobnicator")); err == nil {
		t.Fatal("unknown miner must fail the submission")
	}
}
