package core

import (
	"testing"

	"repro/internal/detector"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/itemset"
)

func TestPrefilterFallbackOnThinMeta(t *testing.T) {
	// Meta pointing at an address with almost no traffic must fall back
	// to the full interval rather than mining a near-empty candidate set.
	scanner := flow.MustParseIP("10.9.9.9")
	victim := flow.MustParseIP("198.19.0.9")
	s := gen.Scenario{
		Background: gen.Background{NumPoPs: 2, FlowsPerBin: 300},
		Bins:       4, StartTime: coreBase, Seed: 22,
		Placements: []gen.Placement{
			{Anomaly: gen.PortScan{Scanner: scanner, Victim: victim, SrcPort: 55548,
				Ports: 1500, FlowsPerPort: 1, Router: 0}, Bin: 2},
		},
	}
	store, truth := buildScenario(t, s)
	ex := MustNew(store, DefaultOptions())
	// Meta names an address that appears in no flow at all.
	alarm := &detector.Alarm{
		Interval: truth.Entries[0].Interval,
		Meta: []detector.MetaItem{
			{Feature: flow.FeatSrcIP, Value: uint32(flow.MustParseIP("203.0.113.99"))},
		},
	}
	res, err := ex.Extract(t.Context(), alarm)
	if err != nil {
		t.Fatal(err)
	}
	if res.Prefiltered {
		t.Fatal("thin meta must trigger the full-interval fallback")
	}
	// Extraction still finds the scan (full-interval mining).
	want := itemset.NewItem(flow.FeatSrcIP, uint32(scanner))
	found := false
	for _, rep := range res.Itemsets {
		if rep.Items.Contains(want) {
			found = true
		}
	}
	if !found {
		t.Fatalf("fallback mining missed the scan; itemsets: %v", res.Itemsets)
	}
}

// TestPrefilterFallbackOnThinNonEmptyMeta: a meta filter matching
// 1 <= n < MinCandidates flows falls back to the full interval, and the
// candidate set is exactly the interval's — none of the n prefiltered
// rows survive the buffer's Reset.
func TestPrefilterFallbackOnThinNonEmptyMeta(t *testing.T) {
	s := gen.Scenario{
		Background: gen.Background{NumPoPs: 2, FlowsPerBin: 300},
		Bins:       4, StartTime: coreBase, Seed: 22,
		Placements: []gen.Placement{
			{Anomaly: gen.PortScan{Scanner: flow.MustParseIP("10.9.9.9"), Victim: flow.MustParseIP("198.19.0.9"),
				SrcPort: 55548, Ports: 1500, FlowsPerPort: 1, Router: 0}, Bin: 2},
		},
	}
	store, truth := buildScenario(t, s)
	iv := truth.Entries[0].Interval
	recs, err := store.Records(t.Context(), iv, nil)
	if err != nil {
		t.Fatal(err)
	}
	var flows, packets uint64
	perSrc := make(map[flow.IP]int)
	for i := range recs {
		flows++
		packets += recs[i].Packets
		perSrc[recs[i].SrcIP]++
	}
	opts := DefaultOptions()
	thin, n := flow.IP(0), 0
	for ip, c := range perSrc {
		if c > n && c < opts.MinCandidates {
			thin, n = ip, c
		}
	}
	if n == 0 {
		t.Fatal("scenario has no source with 1..MinCandidates-1 flows")
	}
	alarm := &detector.Alarm{Interval: iv, Meta: []detector.MetaItem{{Feature: flow.FeatSrcIP, Value: uint32(thin)}}}
	res, err := MustNew(store, opts).Extract(t.Context(), alarm)
	if err != nil {
		t.Fatal(err)
	}
	if res.Prefiltered {
		t.Fatalf("meta matching %d flows (< %d) must fall back to the full interval", n, opts.MinCandidates)
	}
	if res.CandidateFlows != flows || res.CandidatePackets != packets {
		t.Fatalf("candidates %d flows / %d packets, want the interval's %d / %d (meta matched %d flows)",
			res.CandidateFlows, res.CandidatePackets, flows, packets, n)
	}
}

func TestDimensionsRecorded(t *testing.T) {
	// A scan frequent in both dimensions should carry both markers after
	// the dual pass.
	scanner := flow.MustParseIP("10.9.9.9")
	victim := flow.MustParseIP("198.19.0.9")
	s := gen.Scenario{
		Background: gen.Background{NumPoPs: 2, FlowsPerBin: 100},
		Bins:       4, StartTime: coreBase, Seed: 23,
		Placements: []gen.Placement{
			{Anomaly: gen.PortScan{Scanner: scanner, Victim: victim, SrcPort: 55548,
				Ports: 3000, FlowsPerPort: 1, Router: 0}, Bin: 2},
		},
	}
	store, truth := buildScenario(t, s)
	ex := MustNew(store, DefaultOptions())
	res, err := ex.Extract(t.Context(), &detector.Alarm{Interval: truth.Entries[0].Interval})
	if err != nil {
		t.Fatal(err)
	}
	want := itemset.NewItem(flow.FeatSrcIP, uint32(scanner))
	for _, rep := range res.Itemsets {
		if rep.Items.Contains(want) {
			if len(rep.Dimensions) != 2 {
				t.Fatalf("scan itemset dimensions = %v, want both", rep.Dimensions)
			}
			return
		}
	}
	t.Fatal("scan itemset missing")
}

func TestExtractReportString(t *testing.T) {
	rep := ItemsetReport{
		Items:       itemset.NewSet(itemset.NewItem(flow.FeatDstPort, 80)),
		FlowSupport: 5, PacketSupport: 10,
	}
	if rep.String() != "dstPort=80 flows=5 packets=10" {
		t.Fatalf("String = %q", rep.String())
	}
}
