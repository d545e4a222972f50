package rootcause_test

import (
	"path/filepath"
	"strings"
	"testing"

	rootcause "repro"
	"repro/internal/detector"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/nfstore"
)

// TestFigure1Architecture is the end-to-end integration test of the
// paper's Figure 1 (experiment E7 in DESIGN.md): synthetic traffic with a
// known anomaly flows into the store, a detector files alarms into the
// alarm DB, extraction summarizes the anomaly, and the operator drills
// down to raw flows and records a verdict.
func TestFigure1Architecture(t *testing.T) {
	dir := t.TempDir()
	sys, err := rootcause.Create(rootcause.Config{
		StoreDir:    filepath.Join(dir, "flows"),
		AlarmDBPath: filepath.Join(dir, "alarms.json"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	// 1. Ingest: a labeled trace with a port scan in bin 20.
	scanner := flow.MustParseIP("10.191.64.165")
	victim := flow.MustParseIP("198.19.137.129")
	scenario := gen.Scenario{
		Background: gen.Background{NumPoPs: 3, FlowsPerBin: 250},
		Bins:       30, StartTime: 1_300_000_200, Seed: 42,
		Placements: []gen.Placement{
			{Anomaly: gen.PortScan{Scanner: scanner, Victim: victim, SrcPort: 55548,
				Ports: 1500, FlowsPerPort: 2, Router: 1}, Bin: 20},
		},
	}
	truth, err := scenario.Generate(sys.Store())
	if err != nil {
		t.Fatal(err)
	}

	// 2. Detect: NetReflex files alarms into the DB.
	ids, err := sys.Detect(t.Context(), "netreflex", truth.Span)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) == 0 {
		t.Fatal("detector filed no alarms")
	}
	var alarmID string
	for _, id := range ids {
		entry, err := sys.Alarm(id)
		if err != nil {
			t.Fatal(err)
		}
		if entry.Alarm.Interval == truth.Entries[0].Interval {
			alarmID = id
		}
	}
	if alarmID == "" {
		t.Fatalf("no alarm on the scan bin; ids=%v", ids)
	}

	// 3. Extract: the itemsets must summarize the scan.
	res, err := sys.Extract(t.Context(), alarmID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Itemsets) == 0 {
		t.Fatal("no itemsets")
	}
	table := res.Table().String()
	if !strings.Contains(table, scanner.String()) {
		t.Fatalf("table does not identify the scanner:\n%s", table)
	}

	// 4. Drill down: raw flows behind the top itemset are the scan flows.
	flows, err := sys.ItemsetFlows(t.Context(), res.Alarm.Interval, &res.Itemsets[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) == 0 {
		t.Fatal("itemset drill-down returned no flows")
	}
	anomalous := 0
	for i := range flows {
		if flows[i].IsAnomalous() {
			anomalous++
		}
	}
	if float64(anomalous) < 0.8*float64(len(flows)) {
		t.Fatalf("drill-down purity %d/%d too low", anomalous, len(flows))
	}

	// 5. Textual filter drill-down (the GUI's free-form query).
	manual, err := sys.Flows(t.Context(), res.Alarm.Interval, "src ip "+scanner.String()+" and src port 55548")
	if err != nil {
		t.Fatal(err)
	}
	if len(manual) != 3000 {
		t.Fatalf("manual filter matched %d flows, want 3000", len(manual))
	}

	// 6. Verdict: the alarm moves through the operator workflow.
	entry, err := sys.Alarm(alarmID)
	if err != nil {
		t.Fatal(err)
	}
	if entry.Status != "analyzed" {
		t.Fatalf("status after extraction = %q", entry.Status)
	}
	if err := sys.SetVerdict(alarmID, true, "confirmed port scan"); err != nil {
		t.Fatal(err)
	}

	// 7. Persistence: reopen and find the validated alarm.
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	sys2, err := rootcause.Open(rootcause.Config{
		StoreDir:    filepath.Join(dir, "flows"),
		AlarmDBPath: filepath.Join(dir, "alarms.json"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	entry2, err := sys2.Alarm(alarmID)
	if err != nil {
		t.Fatal(err)
	}
	if entry2.Status != "validated" || entry2.Note != "confirmed port scan" {
		t.Fatalf("persisted entry = %+v", entry2)
	}
}

func TestFileExternalAlarm(t *testing.T) {
	// The paper's system "can be integrated with any anomaly detection
	// system": file an external alarm and extract.
	dir := t.TempDir()
	sys, err := rootcause.Create(rootcause.Config{StoreDir: filepath.Join(dir, "flows")})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	scanner := flow.MustParseIP("10.9.9.9")
	victim := flow.MustParseIP("198.19.0.9")
	scenario := gen.Scenario{
		Background: gen.Background{NumPoPs: 2, FlowsPerBin: 200},
		Bins:       4, StartTime: 1_300_000_200, Seed: 7,
		Placements: []gen.Placement{
			{Anomaly: gen.PortScan{Scanner: scanner, Victim: victim, SrcPort: 1234,
				Ports: 1000, FlowsPerPort: 1, Router: 0}, Bin: 2},
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
	res, err := sys.Extract(t.Context(), id)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Itemsets) == 0 {
		t.Fatal("extraction of external alarm failed")
	}
}

func TestUnknownDetectorRejected(t *testing.T) {
	sys, err := rootcause.Create(rootcause.Config{StoreDir: filepath.Join(t.TempDir(), "s")})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.Detect(t.Context(), "frobnicator", rootcause.Interval{Start: 0, End: 300}); err == nil {
		t.Fatal("unknown detector must be rejected")
	}
}

func TestBadFilterExpression(t *testing.T) {
	sys, err := rootcause.Create(rootcause.Config{StoreDir: filepath.Join(t.TempDir(), "s")})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.Flows(t.Context(), rootcause.Interval{Start: 0, End: 300}, "bogus filter"); err == nil {
		t.Fatal("bad filter must be rejected")
	}
}

func TestAddFlows(t *testing.T) {
	sys, err := rootcause.Create(rootcause.Config{StoreDir: filepath.Join(t.TempDir(), "s")})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	recs := []rootcause.Record{
		{Start: 100, SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 80,
			Proto: flow.ProtoTCP, Packets: 5, Bytes: 200},
	}
	if err := sys.Store().AddAll(recs); err != nil {
		t.Fatal(err)
	}
	if err := sys.Store().Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := sys.Flows(t.Context(), rootcause.Interval{Start: 0, End: 300}, "dst port 80")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d flows", len(got))
	}
	if sys.Store().BinSeconds() != nfstore.DefaultBinSeconds {
		t.Fatal("default bin seconds not applied")
	}
}

// TestQueryParallelismAndStats: a drill-down at the store's automatic
// scan width (there is no width setter) prunes the non-matching segment,
// and the counters surface through the public API.
func TestQueryParallelismAndStats(t *testing.T) {
	sys, err := rootcause.Create(rootcause.Config{StoreDir: filepath.Join(t.TempDir(), "s")})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	recs := []rootcause.Record{
		{Start: 100, SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 80,
			Proto: flow.ProtoTCP, Packets: 5, Bytes: 200},
		{Start: 700, SrcIP: 9, DstIP: 2, SrcPort: 3, DstPort: 443,
			Proto: flow.ProtoTCP, Packets: 5, Bytes: 200},
	}
	if err := sys.Store().AddAll(recs); err != nil {
		t.Fatal(err)
	}
	if err := sys.Store().Flush(); err != nil {
		t.Fatal(err)
	}
	// A selective drill-down: zone maps prune the non-matching bin, and
	// the counters surface it through the public API.
	got, err := sys.Flows(t.Context(), rootcause.Interval{Start: 0, End: 900}, "src ip 0.0.0.9")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d flows, want 1", len(got))
	}
	st := sys.QueryStats()
	if st.SegmentsConsidered != 2 || st.SegmentsPruned != 1 || st.SegmentsScanned != 1 {
		t.Fatalf("QueryStats = %+v, want 2 considered / 1 pruned / 1 scanned", st)
	}
}
