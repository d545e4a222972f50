package pca

import (
	"testing"

	"repro/internal/detector"
	"repro/internal/flow"
	"repro/internal/nfstore"
	"repro/internal/stats"
)

const (
	testBase  = uint32(1_000_000_200) // 300-aligned
	testPoPs  = 4
	testNBins = 30
)

// anomalySpec injects an anomaly into one bin.
type anomalySpec struct {
	bin  int
	kind string // "scan" or "flood"
}

// buildTrace writes a multi-PoP background trace with optional anomalies.
func buildTrace(t *testing.T, anomalies []anomalySpec) (*nfstore.Store, flow.Interval) {
	t.Helper()
	store, err := nfstore.CreateFormat(t.TempDir(), 300, nfstore.DefaultSegmentFormat)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	rng := stats.NewRNG(7)
	zip := stats.MustZipf(300, 1.1)
	ports := []uint16{80, 443, 53, 25, 110, 8080, 123, 22}
	for b := 0; b < testNBins; b++ {
		start := testBase + uint32(b)*300
		for pop := 0; pop < testPoPs; pop++ {
			for i := 0; i < 250; i++ {
				r := flow.Record{
					Start:   start + uint32(rng.Intn(300)),
					SrcIP:   flow.IPFromOctets(10, byte(pop), byte(zip.Rank(rng)/250), byte(zip.Rank(rng)%250)),
					DstIP:   flow.IPFromOctets(192, 0, 2, byte(zip.Rank(rng)%250)),
					SrcPort: uint16(1024 + rng.Intn(60000)),
					DstPort: ports[rng.Intn(len(ports))],
					Proto:   flow.ProtoTCP,
					Router:  uint16(pop),
					Packets: uint64(rng.Intn(20) + 1),
				}
				r.Bytes = r.Packets * 500
				if err := store.Add(&r); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, a := range anomalies {
			if a.bin != b {
				continue
			}
			switch a.kind {
			case "scan":
				scanner := flow.MustParseIP("10.77.77.77")
				victim := flow.MustParseIP("192.0.2.199")
				for p := 0; p < 1200; p++ {
					r := flow.Record{
						Start: start + uint32(rng.Intn(300)), SrcIP: scanner, DstIP: victim,
						SrcPort: 55548, DstPort: uint16(1 + p), Proto: flow.ProtoTCP,
						Router: 1, Packets: 1, Bytes: 40, Anno: 1,
					}
					if err := store.Add(&r); err != nil {
						t.Fatal(err)
					}
				}
			case "flood":
				// Point-to-point UDP flood: 4 flows, 2M packets each.
				src := flow.MustParseIP("10.66.66.66")
				dst := flow.MustParseIP("192.0.2.200")
				for i := 0; i < 4; i++ {
					r := flow.Record{
						Start: start + uint32(rng.Intn(300)), SrcIP: src, DstIP: dst,
						SrcPort: uint16(20000 + i), DstPort: 9999, Proto: flow.ProtoUDP,
						Router: 2, Packets: 2_000_000, Bytes: 2_000_000 * 100, Anno: 2,
					}
					if err := store.Add(&r); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	return store, flow.Interval{Start: testBase, End: testBase + testNBins*300}
}

func alarmOnBin(alarms []detector.Alarm, bin int) *detector.Alarm {
	start := testBase + uint32(bin)*300
	for i := range alarms {
		if alarms[i].Interval.Start == start {
			return &alarms[i]
		}
	}
	return nil
}

func TestTooFewBins(t *testing.T) {
	store, _ := buildTrace(t, nil)
	d := New()
	_, err := d.Detect(t.Context(), store, flow.Interval{Start: testBase, End: testBase + 3*300})
	if err == nil {
		t.Fatal("detection over 3 bins must fail (minBins)")
	}
}

func TestQuietTraceFewAlarms(t *testing.T) {
	store, span := buildTrace(t, nil)
	d := New()
	alarms, err := d.Detect(t.Context(), store, span)
	if err != nil {
		t.Fatal(err)
	}
	if len(alarms) > 2 {
		t.Fatalf("quiet trace produced %d alarms", len(alarms))
	}
}

func TestScanDetected(t *testing.T) {
	store, span := buildTrace(t, []anomalySpec{{bin: 20, kind: "scan"}})
	d := New()
	alarms, err := d.Detect(t.Context(), store, span)
	if err != nil {
		t.Fatal(err)
	}
	hit := alarmOnBin(alarms, 20)
	if hit == nil {
		t.Fatalf("scan bin not flagged; alarms: %v", alarms)
	}
	if hit.Score <= 1 {
		t.Fatalf("alarm score (SPE/Q) = %v, want > 1", hit.Score)
	}
	// Meta should name the scanner or victim.
	scanner := uint32(flow.MustParseIP("10.77.77.77"))
	victim := uint32(flow.MustParseIP("192.0.2.199"))
	ok := false
	for _, m := range hit.Meta {
		if m.Value == scanner || m.Value == victim {
			ok = true
		}
	}
	if !ok {
		t.Fatalf("meta %v does not identify scan endpoints", hit.Meta)
	}
}

// TestVolumeFloodDetectedByVolumeChannels: a 4-flow point-to-point
// flood has only a faint entropy footprint; the packet-volume channel
// flags it and its drill-down names the flood endpoints.
func TestVolumeFloodDetectedByVolumeChannels(t *testing.T) {
	store, span := buildTrace(t, []anomalySpec{{bin: 22, kind: "flood"}})
	d := New()
	alarms, err := d.Detect(t.Context(), store, span)
	if err != nil {
		t.Fatal(err)
	}
	hit := alarmOnBin(alarms, 22)
	if hit == nil {
		t.Fatalf("flood not detected with volume channels; alarms: %v", alarms)
	}
	src := uint32(flow.MustParseIP("10.66.66.66"))
	dst := uint32(flow.MustParseIP("192.0.2.200"))
	named := false
	for _, m := range hit.Meta {
		if m.Value == src || m.Value == dst {
			named = true
		}
	}
	if !named {
		t.Fatalf("flood meta %v does not identify endpoints", hit.Meta)
	}
}

func TestBothAnomaliesDetected(t *testing.T) {
	store, span := buildTrace(t, []anomalySpec{
		{bin: 18, kind: "scan"},
		{bin: 24, kind: "flood"},
	})
	d := New()
	alarms, err := d.Detect(t.Context(), store, span)
	if err != nil {
		t.Fatal(err)
	}
	if alarmOnBin(alarms, 18) == nil {
		t.Error("scan bin not flagged")
	}
	if alarmOnBin(alarms, 24) == nil {
		t.Error("flood bin not flagged")
	}
}

func TestDeterministic(t *testing.T) {
	store, span := buildTrace(t, []anomalySpec{{bin: 15, kind: "scan"}})
	d := New()
	a1, err := d.Detect(t.Context(), store, span)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := d.Detect(t.Context(), store, span)
	if err != nil {
		t.Fatal(err)
	}
	if len(a1) != len(a2) {
		t.Fatal("non-deterministic alarm count")
	}
	for i := range a1 {
		if a1[i].Interval != a2[i].Interval || a1[i].Score != a2[i].Score {
			t.Fatal("non-deterministic alarms")
		}
	}
}

func TestChannelString(t *testing.T) {
	c := channel{pop: 3, feature: flow.FeatDstPort}
	if c.String() != "pop3/dstPort" {
		t.Fatalf("channel string = %q", c.String())
	}
	v := channel{pop: 1, volume: true, packets: true}
	if v.String() != "pop1/packets" {
		t.Fatalf("volume channel string = %q", v.String())
	}
}

func TestName(t *testing.T) {
	if New().Name() != "pca-subspace" {
		t.Fatal("name")
	}
}
