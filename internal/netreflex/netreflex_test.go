package netreflex

import (
	"testing"

	"repro/internal/detector"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/nfstore"
)

const nrBase = uint32(1_200_000_000)

// runScenario generates a scenario and runs the simulated NetReflex.
func runScenario(t *testing.T, placements []gen.Placement, seed uint64) ([]detector.Alarm, *gen.Truth) {
	t.Helper()
	store, err := nfstore.CreateFormat(t.TempDir(), 300, nfstore.DefaultSegmentFormat)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	s := gen.Scenario{
		Background: gen.Background{NumPoPs: 4, FlowsPerBin: 250, Hosts: 1000, Servers: 200},
		Bins:       30, StartTime: nrBase, Seed: seed,
		Placements: placements,
	}
	truth, err := s.Generate(store)
	if err != nil {
		t.Fatal(err)
	}
	d := New()
	alarms, err := d.Detect(t.Context(), store, truth.Span)
	if err != nil {
		t.Fatal(err)
	}
	return alarms, truth
}

func findAlarm(alarms []detector.Alarm, iv flow.Interval) *detector.Alarm {
	for i := range alarms {
		if alarms[i].Interval == iv {
			return &alarms[i]
		}
	}
	return nil
}

func hasMeta(a *detector.Alarm, f flow.Feature, v uint32) bool {
	for _, m := range a.Meta {
		if m.Feature == f && m.Value == v {
			return true
		}
	}
	return false
}

func TestPortScanClassified(t *testing.T) {
	scanner := flow.MustParseIP("10.191.64.165")
	victim := flow.MustParseIP("198.18.137.129")
	alarms, truth := runScenario(t, []gen.Placement{
		{Anomaly: gen.PortScan{Scanner: scanner, Victim: victim, SrcPort: 55548, Ports: 1500, FlowsPerPort: 2, Router: 1}, Bin: 20},
	}, 1)
	a := findAlarm(alarms, truth.Entries[0].Interval)
	if a == nil {
		t.Fatalf("scan not detected; alarms: %v", alarms)
	}
	if a.Kind != detector.KindPortScan {
		t.Fatalf("kind = %v, want port scan", a.Kind)
	}
	if a.Detector != "netreflex" {
		t.Fatalf("detector name = %q", a.Detector)
	}
	if !hasMeta(a, flow.FeatSrcIP, uint32(scanner)) || !hasMeta(a, flow.FeatDstIP, uint32(victim)) {
		t.Fatalf("meta %v missing scan endpoints", a.Meta)
	}
	if !hasMeta(a, flow.FeatSrcPort, 55548) {
		t.Fatalf("meta %v missing the dominant source port (paper's example)", a.Meta)
	}
}

func TestNarrowMetaOnConcurrentAnomalies(t *testing.T) {
	// The Table 1 situation: a dominant scanner, a second scanner on the
	// same target and a DDoS on port 80 — all in the same bin. NetReflex
	// must flag the bin but report ONLY the dominant scanner's signature.
	scannerA := flow.MustParseIP("10.191.64.165")
	scannerB := flow.MustParseIP("10.22.33.44")
	victim := flow.MustParseIP("198.18.137.129")
	alarms, truth := runScenario(t, []gen.Placement{
		{Anomaly: gen.PortScan{Scanner: scannerA, Victim: victim, SrcPort: 55548, Ports: 1500, FlowsPerPort: 2, Router: 1}, Bin: 18},
		{Anomaly: gen.PortScan{Scanner: scannerB, Victim: victim, SrcPort: 55548, Ports: 1300, FlowsPerPort: 2, Router: 1}, Bin: 18},
		{Anomaly: gen.SYNFlood{Victim: victim, DstPort: 80, Sources: 200, SourceNet: flow.MustParsePrefix("172.16.0.0/12"), FlowsPerSource: 2, Router: 2}, Bin: 18},
	}, 2)
	a := findAlarm(alarms, truth.Entries[0].Interval)
	if a == nil {
		t.Fatalf("bin not flagged; alarms: %v", alarms)
	}
	if a.Kind != detector.KindPortScan {
		t.Fatalf("kind = %v, want port scan (dominant signature)", a.Kind)
	}
	if !hasMeta(a, flow.FeatSrcIP, uint32(scannerA)) {
		t.Fatalf("meta %v must name the dominant scanner", a.Meta)
	}
	if hasMeta(a, flow.FeatSrcIP, uint32(scannerB)) {
		t.Fatalf("meta %v must NOT name the second scanner — extraction's job", a.Meta)
	}
}

func TestUDPFloodClassified(t *testing.T) {
	src := flow.MustParseIP("10.55.55.55")
	dst := flow.MustParseIP("198.18.0.77")
	alarms, truth := runScenario(t, []gen.Placement{
		{Anomaly: gen.UDPFlood{Src: src, Dst: dst, DstPort: 9999, Flows: 4, PacketsPerFlow: 2_000_000, Router: 2}, Bin: 22},
	}, 3)
	a := findAlarm(alarms, truth.Entries[0].Interval)
	if a == nil {
		t.Fatalf("flood not detected; alarms: %v", alarms)
	}
	if a.Kind != detector.KindUDPFlood {
		t.Fatalf("kind = %v, want udp flood", a.Kind)
	}
	if !hasMeta(a, flow.FeatSrcIP, uint32(src)) || !hasMeta(a, flow.FeatDstIP, uint32(dst)) {
		t.Fatalf("meta %v missing flood endpoints", a.Meta)
	}
}

func TestDDoSClassified(t *testing.T) {
	victim := flow.MustParseIP("198.18.0.80")
	alarms, truth := runScenario(t, []gen.Placement{
		{Anomaly: gen.SYNFlood{Victim: victim, DstPort: 80, Sources: 600, SourceNet: flow.MustParsePrefix("172.16.0.0/12"), FlowsPerSource: 3, Router: 0}, Bin: 25},
	}, 4)
	a := findAlarm(alarms, truth.Entries[0].Interval)
	if a == nil {
		t.Fatalf("ddos not detected; alarms: %v", alarms)
	}
	if a.Kind != detector.KindDDoS {
		t.Fatalf("kind = %v, want ddos", a.Kind)
	}
	if !hasMeta(a, flow.FeatDstIP, uint32(victim)) || !hasMeta(a, flow.FeatDstPort, 80) {
		t.Fatalf("meta %v missing victim/port", a.Meta)
	}
}
