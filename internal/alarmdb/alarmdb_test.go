package alarmdb

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"os"

	"repro/internal/detector"
	"repro/internal/flow"
)

func mkAlarm(start uint32, kind detector.Kind) detector.Alarm {
	return detector.Alarm{
		Detector: "test",
		Interval: flow.Interval{Start: start, End: start + 300},
		Kind:     kind,
		Score:    1.5,
		Meta:     []detector.MetaItem{{Feature: flow.FeatDstPort, Value: 80}},
	}
}

func TestInsertGet(t *testing.T) {
	db := New()
	id := db.Insert(mkAlarm(1000, detector.KindPortScan))
	if id == "" {
		t.Fatal("empty id")
	}
	e, err := db.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if e.Alarm.ID != id || e.Status != StatusNew || e.Alarm.Kind != detector.KindPortScan {
		t.Fatalf("entry = %+v", e)
	}
	if _, err := db.Get("999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown id: %v", err)
	}
	if len(db.entries) != 1 {
		t.Fatalf("Len = %d", len(db.entries))
	}
}

func TestIDsUniqueAndOrdered(t *testing.T) {
	db := New()
	ids := db.InsertAll([]detector.Alarm{
		mkAlarm(3000, detector.KindDDoS),
		mkAlarm(1000, detector.KindPortScan),
		mkAlarm(2000, detector.KindUDPFlood),
	})
	if len(ids) != 3 || ids[0] == ids[1] || ids[1] == ids[2] {
		t.Fatalf("ids = %v", ids)
	}
	all := db.Query(flow.Interval{Start: 0, End: 1 << 30}, "")
	if len(all) != 3 {
		t.Fatalf("Query returned %d", len(all))
	}
	// Ordered by interval start.
	if all[0].Alarm.Interval.Start != 1000 || all[2].Alarm.Interval.Start != 3000 {
		t.Fatalf("order wrong: %v", all)
	}
}

func TestStatusWorkflow(t *testing.T) {
	db := New()
	id := db.Insert(mkAlarm(1000, detector.KindDDoS))
	if err := db.SetStatus(id, StatusAnalyzed, "mined 4 itemsets"); err != nil {
		t.Fatal(err)
	}
	e, _ := db.Get(id)
	if e.Status != StatusAnalyzed || e.Note != "mined 4 itemsets" {
		t.Fatalf("entry = %+v", e)
	}
	if err := db.SetStatus(id, "bogus", ""); err == nil {
		t.Fatal("invalid status accepted")
	}
	if err := db.SetStatus("404", StatusValidated, ""); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown id: %v", err)
	}
}

func TestQueryByIntervalAndStatus(t *testing.T) {
	db := New()
	id1 := db.Insert(mkAlarm(1000, detector.KindPortScan))
	db.Insert(mkAlarm(2000, detector.KindDDoS))
	db.SetStatus(id1, StatusValidated, "")

	got := db.Query(flow.Interval{Start: 900, End: 1400}, "")
	if len(got) != 1 || got[0].Alarm.ID != id1 {
		t.Fatalf("interval query = %v", got)
	}
	got = db.Query(flow.Interval{Start: 0, End: 10000}, StatusValidated)
	if len(got) != 1 || got[0].Alarm.ID != id1 {
		t.Fatalf("status query = %v", got)
	}
	got = db.Query(flow.Interval{Start: 5000, End: 6000}, "")
	if len(got) != 0 {
		t.Fatalf("empty window returned %v", got)
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alarms.json")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	id1 := db.Insert(mkAlarm(1000, detector.KindPortScan))
	db.Insert(mkAlarm(2000, detector.KindUDPFlood))
	db.SetStatus(id1, StatusValidated, "confirmed scan")
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(db2.entries) != 2 {
		t.Fatalf("reloaded Len = %d", len(db2.entries))
	}
	e, err := db2.Get(id1)
	if err != nil {
		t.Fatal(err)
	}
	if e.Status != StatusValidated || e.Note != "confirmed scan" {
		t.Fatalf("reloaded entry = %+v", e)
	}
	if len(e.Alarm.Meta) != 1 || e.Alarm.Meta[0].Value != 80 {
		t.Fatalf("meta lost in round trip: %+v", e.Alarm.Meta)
	}
	// IDs continue after the reloaded maximum.
	id3 := db2.Insert(mkAlarm(3000, detector.KindDDoS))
	if id3 == id1 || id3 == "2" {
		t.Fatalf("id collision after reload: %q", id3)
	}
}

func TestOpenBadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := writeFile(path, "{not json"); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("corrupt file must be rejected")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestConcurrentAccess(t *testing.T) {
	db := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				id := db.Insert(mkAlarm(uint32(1000+n*100+j), detector.KindDDoS))
				db.Get(id)
				db.Query(flow.Interval{Start: 0, End: 1 << 30}, "")
			}
		}(i)
	}
	wg.Wait()
	if len(db.entries) != 800 {
		t.Fatalf("Len = %d, want 800", len(db.entries))
	}
	// IDs must be unique.
	seen := map[string]bool{}
	for _, e := range db.Query(flow.Interval{Start: 0, End: 1 << 30}, "") {
		if seen[e.Alarm.ID] {
			t.Fatalf("duplicate id %q", e.Alarm.ID)
		}
		seen[e.Alarm.ID] = true
	}
}
