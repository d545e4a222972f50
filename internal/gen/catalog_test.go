package gen

import (
	"reflect"
	"testing"

	"repro/internal/detector"
	"repro/internal/flow"
	"repro/internal/nffilter"
	"repro/internal/stats"
)

// TestCatalogComplete pins the catalog surface: every entry has a
// summary, builds a valid scenario, and every placed anomaly carries a
// kind, a description and a non-empty root-cause signature.
func TestCatalogComplete(t *testing.T) {
	names := Names()
	if len(names) < 14 {
		t.Fatalf("catalog has %d entries, want >= 14", len(names))
	}
	for _, name := range names {
		def, ok := Lookup(name)
		if !ok {
			t.Fatalf("Names lists %q but Lookup misses it", name)
		}
		if def.Summary == "" {
			t.Errorf("%s: empty summary", name)
		}
		sc := def.Scenario(1)
		if sc.Bins <= 0 {
			t.Errorf("%s: scenario has no bins", name)
		}
		if name == "quiet" {
			if len(sc.Placements) != 0 {
				t.Errorf("quiet scenario has placements")
			}
			continue
		}
		if len(sc.Placements) == 0 {
			t.Errorf("%s: no placements", name)
		}
		for _, p := range sc.Placements {
			if p.Anomaly.Kind() == detector.KindUnknown {
				t.Errorf("%s: anomaly kind unknown", name)
			}
			if p.Anomaly.Describe() == "" {
				t.Errorf("%s: empty description", name)
			}
			if len(p.Anomaly.Signature()) == 0 {
				t.Errorf("%s: empty signature", name)
			}
			if p.Bin < 0 || p.Bin >= sc.Bins {
				t.Errorf("%s: placement bin %d outside [0,%d)", name, p.Bin, sc.Bins)
			}
		}
	}
}

// TestCatalogNewKinds pins that the catalog covers the six extended
// anomaly classes beyond the paper's own evaluation set.
func TestCatalogNewKinds(t *testing.T) {
	covered := make(map[detector.Kind]bool)
	for _, name := range Names() {
		def, _ := Lookup(name)
		for _, p := range def.Scenario(1).Placements {
			covered[p.Anomaly.Kind()] = true
		}
	}
	for _, kind := range []detector.Kind{
		detector.KindAmplification, detector.KindICMPFlood, detector.KindBotnetScan,
		detector.KindOutage, detector.KindRoutingShift, detector.KindSpam,
	} {
		if !covered[kind] {
			t.Errorf("catalog covers no %q scenario", kind)
		}
	}
}

// TestCatalogDeterminism pins the seeding contract: the same Def and seed
// produce identical scenarios and identical generated truth.
func TestCatalogDeterminism(t *testing.T) {
	for _, name := range []string{"dns-amplification", "link-outage", "portscan-ddos"} {
		def, _ := Lookup(name)
		s1, s2 := def.Scenario(99), def.Scenario(99)
		if !reflect.DeepEqual(s1.Placements, s2.Placements) {
			t.Errorf("%s: placements differ across builds with the same seed", name)
		}
		_, truth1 := generate(t, *s1)
		_, truth2 := generate(t, *s2)
		if !reflect.DeepEqual(truth1, truth2) {
			t.Errorf("%s: generated truth differs across runs with the same seed", name)
		}
		if reflect.DeepEqual(def.Scenario(99).Placements, def.Scenario(100).Placements) {
			t.Errorf("%s: different seeds produced identical placements", name)
		}
	}
}

// TestRegisterValidation pins catalog registration errors.
func TestRegisterValidation(t *testing.T) {
	if err := Register(Def{}); err == nil {
		t.Error("registering a nameless Def must fail")
	}
	if err := Register(Def{Name: "portscan"}); err == nil {
		t.Error("registering a duplicate name must fail")
	}
}

// collect drains an injector's emissions without a store.
func collect(t *testing.T, a Anomaly) []flow.Record {
	t.Helper()
	var out []flow.Record
	iv := flow.Interval{Start: genBase, End: genBase + 300}
	err := a.Emit(stats.NewRNG(7), iv, 1, func(r *flow.Record) error {
		out = append(out, *r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatalf("%T emitted nothing", a)
	}
	for i, r := range out {
		if r.Anno != 1 {
			t.Fatalf("%T record %d misses the annotation", a, i)
		}
		if !iv.Contains(r.Start) {
			t.Fatalf("%T record %d starts outside the bin", a, i)
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("%T record %d invalid: %v", a, i, err)
		}
	}
	return out
}

func TestAmplificationFloodShape(t *testing.T) {
	victim := flow.MustParseIP("198.19.1.1")
	a := AmplificationFlood{
		Victim: victim, Service: 53, Reflectors: 50,
		ReflectorNet:      flow.MustParsePrefix("100.64.0.0/10"),
		FlowsPerReflector: 2, PacketsPerFlow: 100, Router: 1,
	}
	recs := collect(t, a)
	if len(recs) != 100 {
		t.Fatalf("%d flows, want 50 reflectors x 2", len(recs))
	}
	srcs := make(map[flow.IP]bool)
	for _, r := range recs {
		if r.Proto != flow.ProtoUDP || r.SrcPort != 53 || r.DstIP != victim {
			t.Fatalf("unexpected reflection record %+v", r)
		}
		if r.Packets != 100 {
			t.Fatalf("packets %d, want the amplified 100", r.Packets)
		}
		srcs[r.SrcIP] = true
	}
	if len(srcs) < 40 {
		t.Fatalf("only %d distinct reflectors", len(srcs))
	}
}

func TestICMPFloodShape(t *testing.T) {
	victim := flow.MustParseIP("198.19.1.2")
	recs := collect(t, ICMPFlood{
		Victim: victim, Sources: 30, SourceNet: flow.MustParsePrefix("172.16.0.0/12"),
		FlowsPerSource: 3, PacketsPerFlow: 50,
	})
	if len(recs) != 90 {
		t.Fatalf("%d flows, want 30 sources x 3", len(recs))
	}
	for _, r := range recs {
		if r.Proto != flow.ProtoICMP || r.SrcPort != 0 || r.DstPort != 0 || r.DstIP != victim {
			t.Fatalf("unexpected icmp record %+v", r)
		}
	}
}

func TestBotnetScanShape(t *testing.T) {
	target := flow.MustParsePrefix("198.19.64.0/18")
	recs := collect(t, BotnetScan{
		Bots: 20, BotNet: flow.MustParsePrefix("172.16.0.0/12"),
		Prefix: target, HostsPerBot: 10, DstPort: 5060,
	})
	if len(recs) != 200 {
		t.Fatalf("%d flows, want 20 bots x 10", len(recs))
	}
	bots := make(map[flow.IP]bool)
	for _, r := range recs {
		if r.DstPort != 5060 || r.Proto != flow.ProtoTCP || r.Flags != flow.TCPSyn {
			t.Fatalf("unexpected probe %+v", r)
		}
		if !target.Contains(r.DstIP) {
			t.Fatalf("probe outside the swept prefix: %+v", r)
		}
		bots[r.SrcIP] = true
	}
	if len(bots) < 15 {
		t.Fatalf("only %d distinct bots", len(bots))
	}
}

func TestLinkOutageSuppression(t *testing.T) {
	outage := LinkOutage{
		Prefix:  flow.MustParsePrefix("198.18.0.0/24"),
		Service: flow.MustParseIP("198.18.0.10"), Port: 443,
		Clients: 100, Retries: 3,
	}
	s := Scenario{
		Background: Background{NumPoPs: 2, FlowsPerBin: 300, Hosts: 500, Servers: 64},
		Bins:       4, StartTime: genBase, Seed: 5,
		Placements: []Placement{{Anomaly: outage, Bin: 2}},
	}
	store, truth := generate(t, s)
	entry := truth.Entry(1)
	if entry.SuppressedFlows == 0 {
		t.Fatal("outage suppressed no background flows")
	}
	if entry.StoredFlows != 300 {
		t.Fatalf("retry storm stored %d flows, want 100 clients x 3", entry.StoredFlows)
	}
	// The outage bin must hold no background traffic into the blackholed
	// prefix; neighboring bins must.
	filter := nffilter.FromNode(&nffilter.NetMatch{Dir: nffilter.DirDst, Prefix: outage.Prefix})
	count := func(iv flow.Interval) uint64 {
		n := uint64(0)
		err := store.Query(t.Context(), iv, filter, func(r *flow.Record) error {
			if !r.IsAnomalous() {
				n++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := count(entry.Interval); n != 0 {
		t.Fatalf("outage bin still holds %d background flows to the dead prefix", n)
	}
	before := flow.Interval{Start: entry.Interval.Start - 300, End: entry.Interval.Start}
	if n := count(before); n == 0 {
		t.Fatal("no background traffic to the prefix before the outage — scenario proves nothing")
	}
}

func TestPrefixMigrationShape(t *testing.T) {
	svc := flow.MustParseIP("198.19.40.10")
	recs := collect(t, PrefixMigration{
		Service: svc, Port: 443, Clients: 50, FlowsPerClient: 2, OldRouter: 0, NewRouter: 2,
	})
	if len(recs) != 100 {
		t.Fatalf("%d flows, want 50 clients x 2", len(recs))
	}
	for _, r := range recs {
		if r.DstIP != svc || r.DstPort != 443 || r.Router != 2 {
			t.Fatalf("reconnect flow not through the new PoP: %+v", r)
		}
		if r.Flags&flow.TCPFin == 0 {
			t.Fatalf("reconnect flow is not a complete session: %+v", r)
		}
	}
}

func TestSpamCampaignShape(t *testing.T) {
	recs := collect(t, SpamCampaign{
		Bots: 40, BotNet: flow.MustParsePrefix("172.16.0.0/12"),
		MXHosts: 10, MXNet: flow.MustParsePrefix("198.19.32.0/24"), FlowsPerBot: 5,
	})
	if len(recs) != 200 {
		t.Fatalf("%d flows, want 40 bots x 5", len(recs))
	}
	mxes := make(map[flow.IP]bool)
	for _, r := range recs {
		if r.DstPort != 25 || r.Proto != flow.ProtoTCP {
			t.Fatalf("unexpected delivery %+v", r)
		}
		mxes[r.DstIP] = true
	}
	if len(mxes) < 5 {
		t.Fatalf("only %d distinct MX hosts", len(mxes))
	}
}
