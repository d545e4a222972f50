package main

import (
	"path/filepath"
	"testing"

	rootcause "repro"
	"repro/internal/alarmdb"
	"repro/internal/flow"
	"repro/internal/gen"
)

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "flows")
	dbPath := filepath.Join(dir, "alarms.json")

	// Prepare a store with a scan.
	sys, err := rootcause.Create(rootcause.Config{StoreDir: storeDir})
	if err != nil {
		t.Fatal(err)
	}
	scenario := gen.Scenario{
		Background: gen.Background{NumPoPs: 3, FlowsPerBin: 250},
		Bins:       30, StartTime: 1_300_000_200, Seed: 42,
		Placements: []gen.Placement{
			{Anomaly: gen.PortScan{Scanner: flow.MustParseIP("10.191.64.165"),
				Victim: flow.MustParseIP("198.19.137.129"), SrcPort: 55548,
				Ports: 1500, FlowsPerPort: 2, Router: 1}, Bin: 20},
		},
	}
	if _, err := scenario.Generate(sys.Store()); err != nil {
		t.Fatal(err)
	}
	sys.Close()

	// Full-span detection with the default detector.
	if err := run(storeDir, "netreflex", dbPath, 0, 0, false); err != nil {
		t.Fatal(err)
	}

	// The alarm DB must now contain at least one alarm.
	db, err := alarmdb.Open(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Query(flow.Interval{Start: 0, End: ^uint32(0)}, "")) == 0 {
		t.Fatal("no alarms persisted")
	}
}

// TestRunCorrelate: -correlate follows detection with dedup +
// correlation and persists the incidents alongside the alarms.
func TestRunCorrelate(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "flows")
	dbPath := filepath.Join(dir, "alarms.json")

	sys, err := rootcause.Create(rootcause.Config{StoreDir: storeDir})
	if err != nil {
		t.Fatal(err)
	}
	scenario := gen.Scenario{
		Background: gen.Background{NumPoPs: 3, FlowsPerBin: 250},
		Bins:       30, StartTime: 1_300_000_200, Seed: 42,
		Placements: []gen.Placement{
			{Anomaly: gen.PortScan{Scanner: flow.MustParseIP("10.191.64.165"),
				Victim: flow.MustParseIP("198.19.137.129"), SrcPort: 55548,
				Ports: 1500, FlowsPerPort: 2, Router: 1}, Bin: 20},
		},
	}
	if _, err := scenario.Generate(sys.Store()); err != nil {
		t.Fatal(err)
	}
	sys.Close()

	if err := run(storeDir, "netreflex", dbPath, 0, 0, true); err != nil {
		t.Fatal(err)
	}

	db, err := alarmdb.Open(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Query(flow.Interval{Start: 0, End: ^uint32(0)}, "")) == 0 {
		t.Fatal("no alarms persisted")
	}
	counts := db.IncidentCounts()
	if counts[alarmdb.IncidentOpen] == 0 {
		t.Fatalf("no incidents persisted: %v", counts)
	}
}

func TestRunEmptyStore(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "flows")
	sys, err := rootcause.Create(rootcause.Config{StoreDir: storeDir})
	if err != nil {
		t.Fatal(err)
	}
	sys.Close()
	if err := run(storeDir, "netreflex", filepath.Join(dir, "a.json"), 0, 0, false); err == nil {
		t.Fatal("empty store must be reported")
	}
}
