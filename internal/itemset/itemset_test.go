package itemset

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/flow"
)

func mkRecord(src, dst byte, sport, dport uint16, proto flow.Protocol, pkts uint64) flow.Record {
	return flow.Record{
		Start:   100,
		SrcIP:   flow.IPFromOctets(10, 0, 0, src),
		DstIP:   flow.IPFromOctets(192, 0, 2, dst),
		SrcPort: sport,
		DstPort: dport,
		Proto:   proto,
		Packets: pkts,
		Bytes:   pkts * 64,
	}
}

func TestItemPackUnpack(t *testing.T) {
	f := func(feat uint8, value uint32) bool {
		fe := flow.Feature(feat % flow.NumFeatures)
		it := NewItem(fe, value)
		return it.Feature() == fe && it.Value() == value
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestItemString(t *testing.T) {
	it := NewItem(flow.FeatSrcIP, uint32(flow.MustParseIP("10.191.64.165")))
	if it.String() != "srcIP=10.191.64.165" {
		t.Fatalf("Item.String = %q", it.String())
	}
	it2 := NewItem(flow.FeatDstPort, 80)
	if it2.String() != "dstPort=80" {
		t.Fatalf("Item.String = %q", it2.String())
	}
}

func TestItemOrderingByFeature(t *testing.T) {
	// Items sort by feature first because the feature occupies high bits.
	a := NewItem(flow.FeatSrcIP, 0xffffffff)
	b := NewItem(flow.FeatDstIP, 0)
	if a >= b {
		t.Fatal("srcIP item must sort before dstIP item regardless of value")
	}
}

func TestNewSetSortsAndDedups(t *testing.T) {
	i1 := NewItem(flow.FeatDstPort, 80)
	i2 := NewItem(flow.FeatSrcIP, 5)
	s := NewSet(i1, i2, i1)
	if len(s) != 2 || s[0] != i2 || s[1] != i1 {
		t.Fatalf("NewSet = %v", s)
	}
}

func TestSetOps(t *testing.T) {
	i1 := NewItem(flow.FeatSrcIP, 1)
	i2 := NewItem(flow.FeatDstIP, 2)
	i3 := NewItem(flow.FeatDstPort, 80)
	s := NewSet(i1, i2)
	if !s.Contains(i1) || s.Contains(i3) {
		t.Fatal("Contains wrong")
	}
	if !s.SubsetOf(NewSet(i1, i2, i3)) {
		t.Fatal("SubsetOf wrong for proper subset")
	}
	if NewSet(i1, i3).SubsetOf(s) {
		t.Fatal("SubsetOf wrong for non-subset")
	}
	if !NewSet().SubsetOf(s) {
		t.Fatal("empty set must be subset of all")
	}
	u := NewSet(i1, i2).Union(NewSet(i2, i3))
	if !slices.Equal(u, NewSet(i1, i2, i3)) {
		t.Fatalf("Union = %v", u)
	}
	if v, ok := s.Feature(flow.FeatDstIP); !ok || v != 2 {
		t.Fatalf("Feature lookup = %v %v", v, ok)
	}
	if _, ok := s.Feature(flow.FeatProto); ok {
		t.Fatal("Feature lookup must miss absent feature")
	}
}

func TestSetKeyEqualIffEqual(t *testing.T) {
	f := func(a, b []uint32) bool {
		mk := func(vals []uint32) Set {
			items := make([]Item, 0, len(vals))
			for i, v := range vals {
				items = append(items, NewItem(flow.Feature(i%flow.NumFeatures), v))
			}
			return NewSet(items...)
		}
		sa, sb := mk(a), mk(b)
		return (sa.Key() == sb.Key()) == slices.Equal(sa, sb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSetString(t *testing.T) {
	s := NewSet(
		NewItem(flow.FeatDstPort, 80),
		NewItem(flow.FeatSrcIP, uint32(flow.MustParseIP("10.0.0.1"))),
	)
	if s.String() != "srcIP=10.0.0.1, dstPort=80" {
		t.Fatalf("Set.String = %q", s.String())
	}
	if NewSet().String() != "{}" {
		t.Fatal("empty set string")
	}
}

func TestFromRecordsAggregation(t *testing.T) {
	recs := []flow.Record{
		mkRecord(1, 1, 1000, 80, flow.ProtoTCP, 10),
		mkRecord(1, 1, 1000, 80, flow.ProtoTCP, 20), // same tuple
		mkRecord(2, 1, 1000, 80, flow.ProtoTCP, 5),
	}
	ds := datasetOf(recs)
	if ds.Len() != 2 {
		t.Fatalf("Len = %d, want 2 aggregated transactions", ds.Len())
	}
	if ds.TotalFlows() != 3 || ds.TotalPackets() != 35 {
		t.Fatalf("totals = %d flows %d packets", ds.TotalFlows(), ds.TotalPackets())
	}
	if ds.Total(false) != 3 || ds.Total(true) != 35 {
		t.Fatal("Total(dim) disagrees")
	}
	// The aggregated tuple has Flows=2, Packets=30.
	found := false
	for i := 0; i < ds.Len(); i++ {
		tx := ds.Tx(i)
		if tx.Flows == 2 {
			found = true
			if tx.Packets != 30 {
				t.Fatalf("aggregated packets = %d", tx.Packets)
			}
			if tx.Weight(false) != 2 || tx.Weight(true) != 30 {
				t.Fatal("Tx.Weight wrong")
			}
		}
	}
	if !found {
		t.Fatal("aggregated transaction missing")
	}
}

func TestSupportOracle(t *testing.T) {
	recs := []flow.Record{
		mkRecord(1, 1, 1000, 80, flow.ProtoTCP, 10),
		mkRecord(1, 2, 1001, 80, flow.ProtoTCP, 20),
		mkRecord(2, 2, 1002, 443, flow.ProtoTCP, 30),
	}
	ds := datasetOf(recs)
	port80 := NewSet(NewItem(flow.FeatDstPort, 80))
	if got := ds.Support(port80, false); got != 2 {
		t.Fatalf("flow support of dstPort=80 = %d", got)
	}
	if got := ds.Support(port80, true); got != 30 {
		t.Fatalf("packet support of dstPort=80 = %d", got)
	}
	src1port80 := NewSet(
		NewItem(flow.FeatSrcIP, uint32(flow.IPFromOctets(10, 0, 0, 1))),
		NewItem(flow.FeatDstPort, 80),
	)
	if got := ds.Support(src1port80, false); got != 2 {
		t.Fatalf("support of pair = %d", got)
	}
	empty := NewSet()
	if got := ds.Support(empty, false); got != 3 {
		t.Fatalf("empty itemset must match everything: %d", got)
	}
}

func TestItemsOfMatchesFeatures(t *testing.T) {
	r := mkRecord(9, 8, 1234, 80, flow.ProtoUDP, 1)
	items := ItemsOf(&r)
	for i, f := range flow.Features() {
		if items[i].Feature() != f || items[i].Value() != f.Value(&r) {
			t.Fatalf("ItemsOf[%d] = %v", i, items[i])
		}
	}
	// Match/txContains agrees with SubsetOf semantics.
	s := NewSet(items[0], items[3])
	if !Match(&items, s) {
		t.Fatal("Match must accept items drawn from the transaction")
	}
	other := NewSet(NewItem(flow.FeatSrcIP, 0xdeadbeef))
	if Match(&items, other) {
		t.Fatal("Match must reject foreign items")
	}
}

func TestSortFrequentAndMaximal(t *testing.T) {
	i1 := NewItem(flow.FeatSrcIP, 1)
	i2 := NewItem(flow.FeatDstIP, 2)
	i3 := NewItem(flow.FeatDstPort, 80)
	fs := []Frequent{
		{Items: NewSet(i1), Support: 10},
		{Items: NewSet(i1, i2), Support: 10},
		{Items: NewSet(i3), Support: 5},
		{Items: NewSet(i1, i2, i3), Support: 3},
	}
	SortFrequent(fs)
	if len(fs[0].Items) != 2 || fs[0].Support != 10 {
		t.Fatalf("sort order wrong: first = %v", fs[0])
	}
	max := MaximalOnly(fs)
	// {i1} ⊂ {i1,i2} ⊂ {i1,i2,i3} and {i3} ⊂ {i1,i2,i3}: only the pair and
	// the triple survive... but {i1,i2} ⊂ {i1,i2,i3} too, so only the
	// triple and nothing else? No: maximality is about set inclusion only,
	// independent of support, so the only maximal set is {i1,i2,i3}.
	if len(max) != 1 || len(max[0].Items) != 3 {
		t.Fatalf("MaximalOnly = %v", max)
	}
}

func TestFrequentString(t *testing.T) {
	fr := Frequent{Items: NewSet(NewItem(flow.FeatDstPort, 80)), Support: 42}
	if fr.String() != "dstPort=80 (support=42)" {
		t.Fatalf("Frequent.String = %q", fr.String())
	}
}

func TestFromTxs(t *testing.T) {
	r := mkRecord(1, 1, 1, 80, flow.ProtoTCP, 7)
	txs := []Tx{{Items: ItemsOf(&r), Flows: 3, Packets: 21}}
	ds := FromTxs(txs)
	if ds.TotalFlows() != 3 || ds.TotalPackets() != 21 || ds.Len() != 1 {
		t.Fatalf("FromTxs totals wrong: %d %d", ds.TotalFlows(), ds.TotalPackets())
	}
}

// TestProjectFoldsRows: a scan's one-flow destination ports fold into
// the absent marker and its rows merge into one, while a one-flow flood
// row survives on packet support alone.
func TestProjectFoldsRows(t *testing.T) {
	const ports = 40
	var recs []flow.Record
	for p := range ports {
		recs = append(recs, mkRecord(1, 1, 55548, uint16(1000+p), flow.ProtoTCP, 1))
	}
	recs = append(recs, mkRecord(2, 9, 4000, 53, flow.ProtoUDP, 5000))
	ds := datasetOf(recs)
	proj := ds.Project(5)

	if proj.Len() != 2 || proj.TotalFlows() != ds.TotalFlows() || proj.TotalPackets() != ds.TotalPackets() {
		t.Fatalf("projected %d rows, totals %d/%d; want 2 rows, totals %d/%d",
			proj.Len(), proj.TotalFlows(), proj.TotalPackets(), ds.TotalFlows(), ds.TotalPackets())
	}
	for _, f := range flow.Features() {
		want := 0
		if f == flow.FeatDstPort {
			want = ports
		}
		if got := proj.Dropped(f); got != want {
			t.Fatalf("Dropped(%v) = %d, want %d", f, got, want)
		}
	}
	scan := proj.Tx(0)
	if !scan.Items[flow.FeatDstPort].Absent() || scan.Items[flow.FeatSrcIP].Absent() || scan.Flows != ports {
		t.Fatalf("scan row = %+v, want %d flows with only dstPort absent", scan, ports)
	}
	port := NewSet(NewItem(flow.FeatDstPort, 1000))
	if Match(&scan.Items, port) || proj.Support(port, false) != 0 {
		t.Fatal("a folded-away item must match no row")
	}
	flood := NewSet(NewItem(flow.FeatSrcIP, uint32(recs[ports].SrcIP)), NewItem(flow.FeatDstPort, 53))
	if got := proj.Support(flood, true); got != 5000 {
		t.Fatalf("packet-only itemset support = %d, want 5000", got)
	}

	// Projecting again at the same floor changes nothing.
	again := proj.Project(5)
	if again.Len() != proj.Len() || again.Dropped(flow.FeatDstPort) != ports || again.Tx(0).Flows != ports {
		t.Fatalf("re-projection moved: %d rows, Dropped(dstPort) %d", again.Len(), again.Dropped(flow.FeatDstPort))
	}
}
