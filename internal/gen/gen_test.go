package gen

import (
	"testing"

	"repro/internal/detector"
	"repro/internal/flow"
	"repro/internal/nffilter"
	"repro/internal/nfstore"
	"repro/internal/stats"
)

const genBase = uint32(1_200_000_000)

func generate(t *testing.T, s Scenario) (*nfstore.Store, *Truth) {
	t.Helper()
	store, err := nfstore.CreateFormat(t.TempDir(), 300, nfstore.DefaultSegmentFormat)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	truth, err := s.Generate(store)
	if err != nil {
		t.Fatal(err)
	}
	return store, truth
}

func TestBackgroundVolume(t *testing.T) {
	s := Scenario{
		Background: Background{NumPoPs: 2, FlowsPerBin: 100, Hosts: 500, Servers: 100},
		Bins:       10, StartTime: genBase, Seed: 1,
	}
	store, truth := generate(t, s)
	flows, _, _, err := store.Count(t.Context(), truth.Span, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 10 bins × 2 PoPs × Poisson(100) ≈ 2000.
	if flows < 1700 || flows > 2300 {
		t.Fatalf("background volume %d, want ≈ 2000", flows)
	}
	if truth.BackgroundFlows != flows {
		t.Fatalf("truth.BackgroundFlows %d != stored %d", truth.BackgroundFlows, flows)
	}
}

func TestDeterminism(t *testing.T) {
	s := Scenario{
		Background: Background{NumPoPs: 2, FlowsPerBin: 50},
		Bins:       5, StartTime: genBase, Seed: 42,
		Placements: []Placement{
			{Anomaly: PortScan{Scanner: flow.MustParseIP("10.9.9.9"), Victim: flow.MustParseIP("198.18.0.1"), SrcPort: 55548, Ports: 200}, Bin: 3},
		},
	}
	store1, truth1 := generate(t, s)
	store2, truth2 := generate(t, s)
	r1, err := store1.Records(t.Context(), truth1.Span, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := store2.Records(t.Context(), truth2.Span, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r2) {
		t.Fatalf("record counts differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("record %d differs between identical scenarios", i)
		}
	}
}

func TestAnnotationsAndTruth(t *testing.T) {
	scan := PortScan{
		Scanner: flow.MustParseIP("10.9.9.9"), Victim: flow.MustParseIP("198.18.0.1"),
		SrcPort: 55548, Ports: 300, FlowsPerPort: 2, Router: 1,
	}
	flood := UDPFlood{
		Src: flow.MustParseIP("10.8.8.8"), Dst: flow.MustParseIP("198.18.0.2"),
		DstPort: 9999, Flows: 4, PacketsPerFlow: 1_000_000, Router: 0,
	}
	s := Scenario{
		Background: Background{NumPoPs: 2, FlowsPerBin: 50},
		Bins:       6, StartTime: genBase, Seed: 7,
		Placements: []Placement{
			{Anomaly: scan, Bin: 2},
			{Anomaly: flood, Bin: 4},
		},
	}
	store, truth := generate(t, s)
	if len(truth.Entries) != 2 {
		t.Fatalf("truth has %d entries", len(truth.Entries))
	}
	e1 := truth.Entry(1)
	if e1 == nil || e1.Kind != detector.KindPortScan {
		t.Fatalf("entry 1 = %+v", e1)
	}
	if e1.InjectedFlows != 600 {
		t.Fatalf("scan injected %d flows, want 600", e1.InjectedFlows)
	}
	if e1.StoredFlows != 600 {
		t.Fatalf("unsampled scan stored %d flows, want 600", e1.StoredFlows)
	}
	e2 := truth.Entry(2)
	if e2 == nil || e2.Kind != detector.KindUDPFlood {
		t.Fatalf("entry 2 = %+v", e2)
	}
	if e2.InjectedPkts != 4_000_000 {
		t.Fatalf("flood injected %d packets", e2.InjectedPkts)
	}
	if truth.Entry(0) != nil || truth.Entry(9) != nil {
		t.Fatal("out-of-range Entry must return nil")
	}

	// Stored annotations must round-trip: every anno-1 record is a scan
	// flow in bin 2.
	annoFlows := 0
	err := store.Query(t.Context(), truth.Span, nil, func(r *flow.Record) error {
		if r.Anno == 1 {
			annoFlows++
			if !e1.Interval.Contains(r.Start) {
				t.Fatal("annotated record outside its anomaly interval")
			}
			if r.SrcIP != scan.Scanner {
				t.Fatal("annotated record has wrong source")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(annoFlows) != e1.StoredFlows {
		t.Fatalf("annotated flows %d != truth %d", annoFlows, e1.StoredFlows)
	}
}

func TestSamplingReducesFlows(t *testing.T) {
	scan := PortScan{
		Scanner: flow.MustParseIP("10.9.9.9"), Victim: flow.MustParseIP("198.18.0.1"),
		SrcPort: 55548, Ports: 2000, FlowsPerPort: 1, Router: 0,
	}
	flood := UDPFlood{
		Src: flow.MustParseIP("10.8.8.8"), Dst: flow.MustParseIP("198.18.0.2"),
		DstPort: 9999, Flows: 4, PacketsPerFlow: 1_000_000,
	}
	s := Scenario{
		Background: Background{NumPoPs: 1, FlowsPerBin: 100},
		Bins:       4, StartTime: genBase, Seed: 11, SampleRate: 100,
		Placements: []Placement{
			{Anomaly: scan, Bin: 1},
			{Anomaly: flood, Bin: 2},
		},
	}
	_, truth := generate(t, s)
	e1 := truth.Entry(1)
	// 1-packet probes survive with p=0.01: of 2000, expect ≈ 20.
	if e1.StoredFlows > 80 || e1.StoredFlows == 0 {
		t.Fatalf("sampled scan stored %d flows, want ≈ 20", e1.StoredFlows)
	}
	if e1.InjectedFlows != 2000 {
		t.Fatalf("injected %d", e1.InjectedFlows)
	}
	// Flood flows all survive; packets renormalize to ≈ 4M.
	e2 := truth.Entry(2)
	if e2.StoredFlows != 4 {
		t.Fatalf("flood stored %d flows, want 4", e2.StoredFlows)
	}
	if e2.StoredPkts < 3_000_000 || e2.StoredPkts > 5_000_000 {
		t.Fatalf("flood stored %d packets, want ≈ 4M", e2.StoredPkts)
	}
}

func TestAllInjectorsEmitValidRecords(t *testing.T) {
	anomalies := []Anomaly{
		PortScan{Scanner: 1, Victim: 2, SrcPort: 55548, Ports: 50, Router: 0},
		NetworkScan{Scanner: 1, Prefix: flow.MustParsePrefix("198.18.0.0/24"), Hosts: 50, DstPort: 445},
		SYNFlood{Victim: 2, DstPort: 80, Sources: 20, SourceNet: flow.MustParsePrefix("172.16.0.0/16"), FlowsPerSource: 5},
		UDPFlood{Src: 1, Dst: 2, DstPort: 9999, Flows: 3, PacketsPerFlow: 100},
		FlashCrowd{Server: 2, Port: 80, Clients: 30, FlowsPerClient: 2},
		Stealthy{Scanner: 1, Victim: 2, Flows: 10},
	}
	iv := flow.Interval{Start: 1000, End: 1300}
	for _, a := range anomalies {
		rng := stats.NewRNG(3)
		n := 0
		err := a.Emit(rng, iv, 5, func(r *flow.Record) error {
			n++
			if err := r.Validate(); err != nil {
				t.Fatalf("%s emitted invalid record: %v", a.Describe(), err)
			}
			if r.Anno != 5 {
				t.Fatalf("%s lost the annotation", a.Describe())
			}
			if !iv.Contains(r.Start) {
				t.Fatalf("%s emitted outside interval", a.Describe())
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatalf("%s emitted nothing", a.Describe())
		}
		if a.Kind() == "" || a.Describe() == "" {
			t.Fatalf("empty kind or description")
		}
	}
}

func TestScenarioValidation(t *testing.T) {
	store, err := nfstore.CreateFormat(t.TempDir(), 300, nfstore.DefaultSegmentFormat)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	bad := []Scenario{
		{Bins: 0},
		{Bins: 5, Placements: []Placement{{Anomaly: nil, Bin: 0}}},
		{Bins: 5, Placements: []Placement{{Anomaly: Stealthy{}, Bin: 9}}},
		{Bins: 5, Background: Background{NumPoPs: 100}},
	}
	for i, s := range bad {
		if _, err := s.Generate(store); err == nil {
			t.Errorf("scenario %d must be rejected", i)
		}
	}
}

func TestSYNFloodKinds(t *testing.T) {
	if (SYNFlood{Sources: 1}).Kind() != detector.KindDoS {
		t.Error("single-source flood must be DoS")
	}
	if (SYNFlood{Sources: 50}).Kind() != detector.KindDDoS {
		t.Error("multi-source flood must be DDoS")
	}
}

func TestDiurnalModulation(t *testing.T) {
	// With diurnal on, per-bin volumes across a day must vary by more
	// than Poisson noise alone.
	s := Scenario{
		Background: Background{NumPoPs: 1, FlowsPerBin: 200, Diurnal: true},
		Bins:       288, StartTime: genBase, Seed: 5,
	}
	store, truth := generate(t, s)
	sums, err := store.Summaries(t.Context(), truth.Span, nil)
	if err != nil {
		t.Fatal(err)
	}
	var lo, hi uint64 = 1 << 62, 0
	for _, bs := range sums {
		if bs.Flows < lo {
			lo = bs.Flows
		}
		if bs.Flows > hi {
			hi = bs.Flows
		}
	}
	// ±30% modulation: max/min should exceed 1.5×.
	if float64(hi) < 1.5*float64(lo) {
		t.Fatalf("diurnal range too flat: [%d, %d]", lo, hi)
	}
}

func TestBackgroundProtocolMix(t *testing.T) {
	s := Scenario{
		Background: Background{NumPoPs: 1, FlowsPerBin: 2000},
		Bins:       2, StartTime: genBase, Seed: 13,
	}
	store, truth := generate(t, s)
	count := func(expr string) uint64 {
		f, err := nffilter.Parse(expr)
		if err != nil {
			t.Fatal(err)
		}
		flows, _, _, _ := store.Count(t.Context(), truth.Span, f)
		return flows
	}
	tcp, udp, icmp := count("proto tcp"), count("proto udp"), count("proto icmp")
	total := tcp + udp + icmp
	if total == 0 {
		t.Fatal("no traffic")
	}
	if float64(tcp)/float64(total) < 0.6 {
		t.Fatalf("TCP share %v too low", float64(tcp)/float64(total))
	}
	if udp == 0 || icmp == 0 {
		t.Fatal("UDP and ICMP must both appear in the mix")
	}
}
