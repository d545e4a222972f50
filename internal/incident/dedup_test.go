package incident

import (
	"testing"

	"repro/internal/detector"
	"repro/internal/flow"
)

func TestDedupKey(t *testing.T) {
	a := detector.Alarm{
		Detector: "histogram",
		Kind:     detector.KindPortScan,
		Interval: flow.Interval{Start: 1000, End: 1300},
		Meta: []detector.MetaItem{
			{Feature: flow.FeatDstPort, Value: 80},
			{Feature: flow.FeatSrcIP, Value: 42},
		},
	}
	b := a
	// Meta order must not split keys.
	b.Meta = []detector.MetaItem{a.Meta[1], a.Meta[0]}
	// Same bucket (window 300): 1000/300 == 1150/300.
	b.Interval = flow.Interval{Start: 1150, End: 1300}
	if DedupKey(&a) != DedupKey(&b) {
		t.Fatalf("keys differ for same-event alarms:\n%s\n%s", DedupKey(&a), DedupKey(&b))
	}
	c := a
	c.Interval.Start = 1400 // next bucket
	if DedupKey(&a) == DedupKey(&c) {
		t.Fatal("keys collide across time buckets")
	}
	d := a
	d.Detector = "pca"
	if DedupKey(&a) == DedupKey(&d) {
		t.Fatal("keys collide across detectors")
	}
}

// TestDedupExactAcrossLargeStorm pins exact dedup: however many distinct
// keys arrive between an alarm and its re-report, the re-report attaches
// to the first report as a duplicate instead of surviving on its own.
// A sketch that forgets old keys under churn splits the pair into two
// survivors.
func TestDedupExactAcrossLargeStorm(t *testing.T) {
	const distinct = 10_000
	src := func(v uint32) detector.MetaItem {
		return detector.MetaItem{Feature: flow.FeatSrcIP, Value: v}
	}
	// Every start lies in dedup bucket 3 (900..1199 at the 300 s window).
	alarms := []detector.Alarm{mkAlarm(1, "histogram", detector.KindPortScan, 900, src(1))}
	for i := 0; i < distinct; i++ {
		alarms = append(alarms, mkAlarm(2+i, "histogram", detector.KindPortScan, 1000, src(uint32(2+i))))
	}
	reReport := mkAlarm(distinct+2, "histogram", detector.KindPortScan, 1100, src(1))
	alarms = append(alarms, reReport)

	c := Correlate(alarms)
	if c.AlarmsIn != distinct+2 {
		t.Fatalf("AlarmsIn = %d, want %d", c.AlarmsIn, distinct+2)
	}
	if c.Survivors != distinct+1 {
		t.Fatalf("Survivors = %d, want %d (the re-report must collapse onto alarm 1)", c.Survivors, distinct+1)
	}
	if len(c.Incidents) != 1 {
		t.Fatalf("incidents = %d, want 1", len(c.Incidents))
	}
	inc := c.Incidents[0]
	if inc.Suppressed != 1 {
		t.Fatalf("Suppressed = %d, want 1", inc.Suppressed)
	}
	// Survivors come first, then the duplicates they suppressed.
	if n := len(inc.AlarmIDs); n != distinct+2 || inc.AlarmIDs[0] != "1" || inc.AlarmIDs[n-1] != reReport.ID {
		t.Fatalf("member list of %d alarms starts %q and ends %q, want %d alarms from %q to duplicate %q",
			n, inc.AlarmIDs[0], inc.AlarmIDs[n-1], distinct+2, "1", reReport.ID)
	}
}
