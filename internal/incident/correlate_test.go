package incident

import (
	"reflect"
	"strconv"
	"testing"

	"repro/internal/detector"
	"repro/internal/flow"
)

// mkAlarm builds a stored-looking alarm (ID set) for correlator tests.
func mkAlarm(id int, det string, kind detector.Kind, start uint32, meta ...detector.MetaItem) detector.Alarm {
	return detector.Alarm{
		ID:       strconv.Itoa(id),
		Detector: det,
		Kind:     kind,
		Interval: flow.Interval{Start: start, End: start + 300},
		Score:    float64(id),
		Meta:     meta,
	}
}

// storm builds the canonical test storm: a port scan at t0 and a DDoS
// one bin later, each reported by three detectors with three duplicate
// reports per detector — 18 alarms for one event.
func storm(t0 uint32) []detector.Alarm {
	scanMeta := detector.MetaItem{Feature: flow.FeatSrcIP, Value: 7}
	ddosMeta := detector.MetaItem{Feature: flow.FeatDstPort, Value: 80}
	var alarms []detector.Alarm
	id := 1
	for _, det := range []string{"histogram", "netreflex", "pca"} {
		for d := 0; d < 3; d++ {
			// Jitter below half the dedup window: same bucket.
			alarms = append(alarms, mkAlarm(id, det, detector.KindPortScan, t0+uint32(d*40), scanMeta))
			id++
			alarms = append(alarms, mkAlarm(id, det, detector.KindDDoS, t0+300+uint32(d*40), ddosMeta))
			id++
		}
	}
	return alarms
}

func TestCorrelateStorm(t *testing.T) {
	alarms := storm(1_300_000_200)
	c := Correlate(alarms)
	if c.AlarmsIn != 18 {
		t.Fatalf("AlarmsIn = %d, want 18", c.AlarmsIn)
	}
	// One survivor per (detector, kind) bucket: 3 detectors x 2 kinds.
	if c.Survivors != 6 {
		t.Fatalf("Survivors = %d, want 6", c.Survivors)
	}
	if len(c.Incidents) != 1 {
		t.Fatalf("incidents = %d, want 1 (gap 600 spans the one-bin stagger)", len(c.Incidents))
	}
	inc := c.Incidents[0]
	if len(inc.AlarmIDs) != 18 {
		t.Fatalf("member alarms = %d, want all 18 (duplicates stay linked)", len(inc.AlarmIDs))
	}
	if inc.Suppressed != 12 {
		t.Fatalf("Suppressed = %d, want 12", inc.Suppressed)
	}
	if !reflect.DeepEqual(inc.Kinds, []detector.Kind{detector.KindPortScan, detector.KindDDoS}) {
		t.Fatalf("Kinds = %v, want [port scan, ddos] in time order", inc.Kinds)
	}
	if !inc.Leads(detector.KindPortScan, detector.KindDDoS) {
		t.Fatalf("chain %v does not order port scan before ddos", inc.Chain)
	}
	for _, l := range inc.Chain {
		if l.From == detector.KindPortScan && l.To == detector.KindDDoS {
			if l.LagSeconds != 300 {
				t.Fatalf("lag = %ds, want 300 (one bin)", l.LagSeconds)
			}
			if l.Confidence < 0.5 {
				t.Fatalf("confidence = %.2f, want >= 0.5", l.Confidence)
			}
		}
	}
	// Representative: the highest-scoring survivor.
	if inc.Representative == "" {
		t.Fatal("no representative")
	}
}

// TestCorrelateDeterministic pins the determinism contract: the
// same alarms, in any order, always produce identical incidents.
func TestCorrelateDeterministic(t *testing.T) {
	alarms := storm(1_300_000_200)
	a := Correlate(alarms)
	// Reverse the input order.
	rev := make([]detector.Alarm, len(alarms))
	for i, al := range alarms {
		rev[len(alarms)-1-i] = al
	}
	b := Correlate(rev)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("correlation differs across input orders:\n%+v\n%+v", a, b)
	}
}

// TestCorrelateClusterGap pins the 600 s joining distance at its
// boundary: an alarm starting exactly 600 s after a cluster's interval
// ends joins it, one second later opens a new incident.
func TestCorrelateClusterGap(t *testing.T) {
	alarms := []detector.Alarm{
		mkAlarm(1, "histogram", detector.KindDoS, 1000), // ends 1300
		mkAlarm(2, "histogram", detector.KindDoS, 1900), // 1300+600: joins, ends 2200
		mkAlarm(3, "histogram", detector.KindDoS, 2801), // 2200+601: apart
	}
	c := Correlate(alarms)
	if len(c.Incidents) != 2 {
		t.Fatalf("incidents = %d, want 2", len(c.Incidents))
	}
	if got := c.Incidents[0].AlarmIDs; !reflect.DeepEqual(got, []string{"1", "2"}) {
		t.Fatalf("first incident members = %v, want [1 2] (600 s gap is inclusive)", got)
	}
	if got := c.Incidents[1].AlarmIDs; !reflect.DeepEqual(got, []string{"3"}) {
		t.Fatalf("second incident members = %v, want [3]", got)
	}
}

// TestLeadLagCascade pins the lead-lag confidence on a synthetic
// cascading scenario: scans consistently one bucket before floods, with
// one contrarian observation that must not flip the link.
func TestLeadLagCascade(t *testing.T) {
	var alarms []detector.Alarm
	id := 1
	// Distinct detectors so dedup keeps every alarm.
	for i := 0; i < 4; i++ {
		alarms = append(alarms, mkAlarm(id, "d"+strconv.Itoa(id), detector.KindNetScan, 1000+uint32(i)*20))
		id++
		alarms = append(alarms, mkAlarm(id, "d"+strconv.Itoa(id), detector.KindUDPFlood, 1300+uint32(i)*20))
		id++
	}
	// Contrarian: one flood before every scan.
	alarms = append(alarms, mkAlarm(id, "d-contrarian", detector.KindUDPFlood, 700))
	c := Correlate(alarms)
	if len(c.Incidents) != 1 {
		t.Fatalf("incidents = %d, want 1", len(c.Incidents))
	}
	inc := c.Incidents[0]
	if !inc.Leads(detector.KindNetScan, detector.KindUDPFlood) {
		t.Fatalf("chain %v: scan must lead flood", inc.Chain)
	}
	link := inc.Chain[0]
	// 16 of 20 pairs sit in the +1 bucket (4 scans x 4 on-pattern
	// floods); 4 pairs involve the contrarian.
	if link.Pairs != 20 {
		t.Fatalf("pairs = %d, want 20", link.Pairs)
	}
	if link.Confidence < 0.75 {
		t.Fatalf("confidence = %.2f, want >= 0.75", link.Confidence)
	}
}

// TestLeadLagBelowConfidenceFloor: evidence split three ways leaves the
// modal lag bucket with a third of the pairs, under the 0.5 floor, so
// no link is reported.
func TestLeadLagBelowConfidenceFloor(t *testing.T) {
	alarms := []detector.Alarm{
		mkAlarm(1, "d1", detector.KindNetScan, 1000),
		mkAlarm(2, "d2", detector.KindNetScan, 1010),
		mkAlarm(3, "d3", detector.KindUDPFlood, 700),  // -1 bucket
		mkAlarm(4, "d4", detector.KindUDPFlood, 1300), // +1 bucket
		mkAlarm(5, "d5", detector.KindUDPFlood, 1600), // +2 buckets
	}
	c := Correlate(alarms)
	if len(c.Incidents) != 1 {
		t.Fatalf("incidents = %d, want 1", len(c.Incidents))
	}
	if chain := c.Incidents[0].Chain; len(chain) != 0 {
		t.Fatalf("chain %v survived a 2-of-6 modal bucket under the 0.5 floor", chain)
	}
}

func TestExtractionAlarm(t *testing.T) {
	members := []detector.Alarm{
		mkAlarm(1, "netreflex", detector.KindPortScan, 1000,
			detector.MetaItem{Feature: flow.FeatSrcIP, Value: 9}),
		mkAlarm(2, "histogram", detector.KindDDoS, 1300,
			detector.MetaItem{Feature: flow.FeatDstPort, Value: 80},
			detector.MetaItem{Feature: flow.FeatSrcIP, Value: 9}), // shared item dedupes
	}
	inc := &Incident{
		ID:             "i1",
		Interval:       flow.Interval{Start: 1000, End: 1600},
		Representative: "2",
		Score:          2,
		AlarmIDs:       []string{"1", "2"},
	}
	merged, err := ExtractionAlarm(inc, members)
	if err != nil {
		t.Fatal(err)
	}
	if merged.ID != "2" || merged.Detector != "histogram" || merged.Kind != detector.KindDDoS {
		t.Fatalf("representative identity not carried: %+v", merged)
	}
	if merged.Interval != inc.Interval {
		t.Fatalf("interval = %v, want the incident union %v", merged.Interval, inc.Interval)
	}
	if len(merged.Meta) != 2 {
		t.Fatalf("meta = %v, want the 2-item deduplicated union", merged.Meta)
	}
	// Member order must not change the merged alarm.
	merged2, err := ExtractionAlarm(inc, []detector.Alarm{members[1], members[0]})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged.Meta, merged2.Meta) {
		t.Fatalf("merged meta depends on member order: %v vs %v", merged.Meta, merged2.Meta)
	}
	if _, err := ExtractionAlarm(&Incident{ID: "ix"}, nil); err == nil {
		t.Fatal("no members must error")
	}
}
