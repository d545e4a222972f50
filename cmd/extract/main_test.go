package main

import (
	"testing"

	rootcause "repro"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/nfstore"
)

func TestParseMeta(t *testing.T) {
	items, err := parseMeta("srcIP=10.191.64.165,dstPort=80,proto=tcp")
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 {
		t.Fatalf("%d items", len(items))
	}
	if items[0].Feature != flow.FeatSrcIP || items[0].Value != uint32(flow.MustParseIP("10.191.64.165")) {
		t.Fatalf("item 0 = %v", items[0])
	}
	if items[1].Feature != flow.FeatDstPort || items[1].Value != 80 {
		t.Fatalf("item 1 = %v", items[1])
	}
	if items[2].Feature != flow.FeatProto || items[2].Value != uint32(flow.ProtoTCP) {
		t.Fatalf("item 2 = %v", items[2])
	}
}

func TestParseMetaWhitespaceAndEmpty(t *testing.T) {
	items, err := parseMeta(" dstPort=443 , srcPort=1000 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 || items[0].Value != 443 || items[1].Value != 1000 {
		t.Fatalf("items = %v", items)
	}
	empty, err := parseMeta("")
	if err != nil || empty != nil {
		t.Fatalf("empty meta = %v, %v", empty, err)
	}
}

func TestParseMetaErrors(t *testing.T) {
	bad := []string{
		"noequals",
		"bogusfeature=1",
		"srcIP=not-an-ip",
		"dstPort=abc",
		"proto=zzz",
	}
	for _, s := range bad {
		if _, err := parseMeta(s); err == nil {
			t.Errorf("parseMeta(%q) must fail", s)
		}
	}
}

// newExtractStore generates a store with a port scan for end-to-end runs.
func newExtractStore(t *testing.T) (string, uint32, uint32) {
	t.Helper()
	dir := t.TempDir()
	store, err := nfstore.CreateFormat(dir, nfstore.DefaultBinSeconds, nfstore.DefaultSegmentFormat)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	scenario := gen.Scenario{
		Background: gen.Background{NumPoPs: 2, FlowsPerBin: 200},
		Bins:       4, StartTime: 1_300_000_200, Seed: 19,
		Placements: []gen.Placement{
			{Anomaly: gen.PortScan{Scanner: flow.MustParseIP("10.9.9.9"),
				Victim: flow.MustParseIP("198.19.0.9"), SrcPort: 1234,
				Ports: 1000, FlowsPerPort: 1, Router: 0}, Bin: 2},
		},
	}
	truth, err := scenario.Generate(store)
	if err != nil {
		t.Fatal(err)
	}
	iv := truth.Entries[0].Interval
	return dir, iv.Start, iv.End
}

// TestRunIncident drives -incident: a filed alarm is correlated into
// an incident, then extracted by incident ID (sync and async).
func TestRunIncident(t *testing.T) {
	storeDir, from, to := newExtractStore(t)
	dbPath := storeDir + "/alarms.json"
	sys, err := rootcause.Open(rootcause.Config{StoreDir: storeDir, AlarmDBPath: dbPath})
	if err != nil {
		t.Fatal(err)
	}
	metaItems, err := parseMeta("srcIP=10.9.9.9")
	if err != nil {
		t.Fatal(err)
	}
	sys.FileAlarm(rootcause.Alarm{
		Detector: "cli",
		Interval: flow.Interval{Start: from, End: to},
		Meta:     metaItems,
	})
	sum, err := sys.Correlate(t.Context(), flow.Interval{Start: from, End: to})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.IncidentIDs) != 1 {
		t.Fatalf("incidents = %v", sum.IncidentIDs)
	}
	incID := sum.IncidentIDs[0]
	sys.Close()

	opts := rootcause.DefaultExtractionOptions()
	if err := run(storeDir, dbPath, "", incID, 0, 0, "", opts, 0, false, true); err != nil {
		t.Fatalf("sync incident run: %v", err)
	}
	if err := run(storeDir, dbPath, "", incID, 0, 0, "", opts, 0, true, true); err != nil {
		t.Fatalf("async incident run: %v", err)
	}
	if err := run(storeDir, dbPath, "", "i404", 0, 0, "", opts, 0, false, true); err == nil {
		t.Fatal("unknown incident must be reported")
	}
}

// TestRunEndToEndWithMiner drives the extract command's run path with
// each built-in miner, including -miner fpgrowth.
func TestRunEndToEndWithMiner(t *testing.T) {
	storeDir, from, to := newExtractStore(t)
	for _, name := range []string{"", "apriori", "fpgrowth"} {
		opts := rootcause.DefaultExtractionOptions()
		if name != "" {
			opts.Miner = name
		}
		if err := run(storeDir, "", "", "", from, to, "srcIP=10.9.9.9", opts, 2, false, true); err != nil {
			t.Fatalf("miner %q: %v", name, err)
		}
	}
}

// TestRunAsync drives the -async path end to end: the ad-hoc alarm is
// filed, submitted as a job, waited on, and the Table-1 output printed
// exactly like the synchronous path.
func TestRunAsync(t *testing.T) {
	storeDir, from, to := newExtractStore(t)
	opts := rootcause.DefaultExtractionOptions()
	if err := run(storeDir, "", "", "", from, to, "srcIP=10.9.9.9", opts, 0, true, true); err != nil {
		t.Fatalf("async run: %v", err)
	}
}

// TestRunAsyncNoWait submits without waiting: no error, no result (the
// job is canceled by system close on exit).
func TestRunAsyncNoWait(t *testing.T) {
	storeDir, from, to := newExtractStore(t)
	opts := rootcause.DefaultExtractionOptions()
	if err := run(storeDir, "", "", "", from, to, "", opts, 0, true, false); err != nil {
		t.Fatalf("async no-wait run: %v", err)
	}
}

// TestRunUnknownMinerRejected: a bogus -miner fails fast at system
// assembly.
func TestRunUnknownMinerRejected(t *testing.T) {
	storeDir, from, to := newExtractStore(t)
	opts := rootcause.DefaultExtractionOptions()
	opts.Miner = "frobnicator"
	if err := run(storeDir, "", "", "", from, to, "", opts, 0, false, true); err == nil {
		t.Fatal("unknown miner must be rejected")
	}
}
