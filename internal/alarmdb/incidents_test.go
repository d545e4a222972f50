package alarmdb

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/detector"
	"repro/internal/flow"
	"repro/internal/incident"
)

func mkIncident(start, end uint32, alarmIDs ...string) incident.Incident {
	rep := ""
	if len(alarmIDs) > 0 {
		rep = alarmIDs[0]
	}
	return incident.Incident{
		Interval:       flow.Interval{Start: start, End: end},
		Kinds:          []detector.Kind{detector.KindPortScan},
		AlarmIDs:       alarmIDs,
		Representative: rep,
		Score:          2,
	}
}

func TestReconcileIncidents(t *testing.T) {
	db := New()
	ids := db.ReconcileIncidents([]incident.Incident{
		mkIncident(1000, 1600, "1", "2"),
		mkIncident(5000, 5300, "3"),
	})
	if len(ids) != 2 || ids[0] != "i1" || ids[1] != "i2" {
		t.Fatalf("ids = %v, want [i1 i2]", ids)
	}
	e, err := db.Incident("i1")
	if err != nil {
		t.Fatal(err)
	}
	if e.Status != IncidentOpen || e.Incident.ID != "i1" {
		t.Fatalf("entry = %+v", e)
	}

	// Re-running with the identical member set reuses the ID and keeps
	// lifecycle state.
	if err := db.SetIncidentStatus("i1", IncidentExtracted, "done"); err != nil {
		t.Fatal(err)
	}
	again := mkIncident(1000, 1900, "2", "1") // refreshed interval, same members
	ids = db.ReconcileIncidents([]incident.Incident{again})
	if ids[0] != "i1" {
		t.Fatalf("identical member set got new ID %q", ids[0])
	}
	e, _ = db.Incident("i1")
	if e.Status != IncidentExtracted || e.Incident.Interval.End != 1900 {
		t.Fatalf("reconcile lost state or update: %+v", e)
	}

	// A superset of an open incident's members absorbs it.
	ids = db.ReconcileIncidents([]incident.Incident{mkIncident(4800, 5600, "3", "4")})
	super := ids[0]
	e, _ = db.Incident("i2")
	if e.Status != IncidentMerged || !strings.Contains(e.Note, super) {
		t.Fatalf("subset incident not merged: %+v", e)
	}
	// The extracted i1 is not eligible for merging.
	ids = db.ReconcileIncidents([]incident.Incident{mkIncident(900, 2000, "1", "2", "9")})
	_ = ids
	e, _ = db.Incident("i1")
	if e.Status != IncidentExtracted {
		t.Fatalf("extracted incident was merged away: %+v", e)
	}
}

func TestIncidentQueryAndCounts(t *testing.T) {
	db := New()
	db.ReconcileIncidents([]incident.Incident{
		mkIncident(1000, 1600, "1"),
		mkIncident(5000, 5300, "2"),
	})
	db.SetIncidentStatus("i2", IncidentExtracted, "")

	all := db.Incidents(flow.Interval{}, "")
	if len(all) != 2 || all[0].Incident.ID != "i1" || all[1].Incident.ID != "i2" {
		t.Fatalf("all = %+v", all)
	}
	got := db.Incidents(flow.Interval{Start: 900, End: 1200}, "")
	if len(got) != 1 || got[0].Incident.ID != "i1" {
		t.Fatalf("interval query = %+v", got)
	}
	got = db.Incidents(flow.Interval{}, IncidentExtracted)
	if len(got) != 1 || got[0].Incident.ID != "i2" {
		t.Fatalf("status query = %+v", got)
	}
	counts := db.IncidentCounts()
	if counts[IncidentOpen] != 1 || counts[IncidentExtracted] != 1 || counts[IncidentMerged] != 0 {
		t.Fatalf("counts = %v", counts)
	}

	if _, err := db.Incident("i404"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown incident: %v", err)
	}
	if err := db.SetIncidentStatus("i1", "bogus", ""); err == nil {
		t.Fatal("invalid incident status accepted")
	}
}

func TestIncidentPersistenceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alarms.json")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	db.Insert(mkAlarm(1000, detector.KindPortScan))
	db.ReconcileIncidents([]incident.Incident{mkIncident(1000, 1600, "1")})
	db.SetIncidentStatus("i1", IncidentExtracted, "4 itemsets")
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	e, err := db2.Incident("i1")
	if err != nil {
		t.Fatal(err)
	}
	if e.Status != IncidentExtracted || e.Note != "4 itemsets" {
		t.Fatalf("reloaded incident = %+v", e)
	}
	// Incident IDs continue after the reloaded maximum.
	ids := db2.ReconcileIncidents([]incident.Incident{mkIncident(5000, 5300, "2")})
	if ids[0] != "i2" {
		t.Fatalf("next incident ID = %q, want i2", ids[0])
	}
}

// TestOpenLegacyArray keeps version-1 files (a bare JSON array of alarm
// entries) readable.
func TestOpenLegacyArray(t *testing.T) {
	path := filepath.Join(t.TempDir(), "legacy.json")
	legacy := `[
  {"alarm": {"id": "7", "detector": "test", "interval": {"start": 1000, "end": 1300},
   "kind": "port scan", "score": 1.5}, "status": "validated", "note": "old format"}
]`
	if err := writeFile(path, legacy); err != nil {
		t.Fatal(err)
	}
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	e, err := db.Get("7")
	if err != nil {
		t.Fatal(err)
	}
	if e.Status != StatusValidated || e.Note != "old format" {
		t.Fatalf("legacy entry = %+v", e)
	}
	// IDs continue past the legacy maximum.
	if id := db.Insert(mkAlarm(2000, detector.KindDDoS)); id != "8" {
		t.Fatalf("next id = %q, want 8", id)
	}
	// Saving upgrades the file to the versioned envelope.
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	if !strings.Contains(string(raw), `"version": 2`) {
		t.Fatalf("save did not upgrade format:\n%s", raw)
	}
}

// TestSaveAtomic pins the crash-safety contract: a failed save never
// leaves a truncated database behind, and temp files do not accumulate.
func TestSaveAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "alarms.json")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	db.Insert(mkAlarm(1000, detector.KindPortScan))
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Make the rename target directory read-only so the save fails
	// partway; the original file must survive byte-identical.
	db.Insert(mkAlarm(2000, detector.KindDDoS))
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	if err := db.Save(); err == nil {
		t.Skip("running as privileged user; cannot simulate write failure")
	}
	os.Chmod(dir, 0o755)
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(good) {
		t.Fatal("failed save corrupted the database file")
	}

	// A successful save leaves exactly the database file behind.
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "alarms.json" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("stray files after save: %v", names)
	}
	// And the saved file reloads with both alarms.
	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(db2.entries) != 2 {
		t.Fatalf("reloaded Len = %d, want 2", len(db2.entries))
	}
}
