package itemset

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/flow"
	"repro/internal/stats"
)

func randomRecords(seed uint64, n int) []flow.Record {
	rng := stats.NewRNG(seed)
	protos := []flow.Protocol{flow.ProtoTCP, flow.ProtoUDP, flow.ProtoICMP}
	recs := make([]flow.Record, n)
	for i := range recs {
		pk := uint64(rng.Intn(50) + 1)
		recs[i] = flow.Record{
			Start:   1,
			SrcIP:   flow.IP(rng.Intn(8)),
			DstIP:   flow.IP(rng.Intn(8)),
			SrcPort: uint16(rng.Intn(6)),
			DstPort: uint16(rng.Intn(6)),
			Proto:   protos[rng.Intn(3)],
			Packets: pk,
			Bytes:   pk * 40,
		}
	}
	return recs
}

// datasetOf folds recs into a Dataset the way extraction does, through
// a Builder.
func datasetOf(recs []flow.Record) *Dataset {
	b := NewBuilder()
	for i := range recs {
		b.Add(&recs[i])
	}
	return b.Dataset()
}

// aggregate is the 5-tuple aggregation the builder replaced, kept here as
// an oracle independent of Builder: one map pass, rows in first-seen
// order.
func aggregate(recs []flow.Record) *Dataset {
	idx := make(map[TxItems]int)
	var txs []Tx
	for i := range recs {
		items := ItemsOf(&recs[i])
		j, ok := idx[items]
		if !ok {
			j = len(txs)
			idx[items] = j
			txs = append(txs, Tx{Items: items})
		}
		txs[j].Flows++
		txs[j].Packets += recs[i].Packets
	}
	return FromTxs(txs)
}

// TestBuilderMatchesFromRecords pins the builder's fold of raw records to
// the map aggregation: same transactions in first-seen order, same weights,
// same totals.
func TestBuilderMatchesFromRecords(t *testing.T) {
	recs := randomRecords(3, 2000)
	want := aggregate(recs)

	b := NewBuilder()
	for i := range recs {
		b.Add(&recs[i])
	}
	if b.Flows() != uint64(len(recs)) {
		t.Fatalf("Flows() = %d, want %d", b.Flows(), len(recs))
	}
	if b.Len() != want.Len() {
		t.Fatalf("Len() = %d, want %d", b.Len(), want.Len())
	}
	if got := b.Dataset(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Dataset() diverged from the map aggregation: %s", firstDiff(got, want))
	}
}

// wideRecords mixes a few heavy values with one-off ones in every column
// (so each floor folds some values and keeps others), both ends of each
// column's range, and an occasional one-flow, many-packet record that
// survives the floor on packet support alone.
func wideRecords(seed uint64, n int) []flow.Record {
	rng := stats.NewRNG(seed)
	pick := func(hot int, top uint32) uint32 {
		switch rng.Intn(8) {
		case 0:
			return uint32(rng.Intn(int(top) + 1))
		case 1:
			return top
		case 2:
			return 0
		default:
			return uint32(rng.Intn(hot))
		}
	}
	recs := make([]flow.Record, n)
	for i := range recs {
		pk := uint64(1 + rng.Intn(3))
		if rng.Intn(50) == 0 {
			pk = 10_000
		}
		recs[i] = flow.Record{
			SrcIP:   flow.IP(pick(4, 0xFFFFFFFF)),
			DstIP:   flow.IP(pick(3, 0xFFFFFFFF)),
			SrcPort: uint16(pick(5, 0xFFFF)),
			DstPort: uint16(pick(3, 0xFFFF)),
			Proto:   flow.Protocol(pick(3, 0xFF)),
			Packets: pk,
		}
	}
	return recs
}

// firstDiff describes where two datasets first differ, compactly.
func firstDiff(got, want *Dataset) string {
	if got.totalFlows != want.totalFlows || got.totalPackets != want.totalPackets || got.dropped != want.dropped {
		return fmt.Sprintf("totals %d/%d dropped %v, want %d/%d dropped %v", got.totalFlows, got.totalPackets,
			got.dropped, want.totalFlows, want.totalPackets, want.dropped)
	}
	for i := range min(len(got.txs), len(want.txs)) {
		if got.txs[i] != want.txs[i] {
			return fmt.Sprintf("row %d = %+v, want %+v", i, got.txs[i], want.txs[i])
		}
	}
	return fmt.Sprintf("%d rows (nil=%v), want %d (nil=%v)", len(got.txs), got.txs == nil, len(want.txs), want.txs == nil)
}

// TestBuilderProjectMatchesOracle pins Builder.Project to the map
// aggregation followed by Dataset.Project, with reflect.DeepEqual: same
// rows in the same order, same weights, totals and Dropped — including
// a builder reused through Reset.
func TestBuilderProjectMatchesOracle(t *testing.T) {
	rec := func(src, dst uint32, sport, dport uint16, proto uint8, pkts uint64) flow.Record {
		return flow.Record{SrcIP: flow.IP(src), DstIP: flow.IP(dst), SrcPort: sport, DstPort: dport,
			Proto: flow.Protocol(proto), Packets: pkts}
	}
	heavy := rec(7, 8, 9, 10, 17, 1_000_000)
	var belowFloor, packetOnly, boundary []flow.Record
	for i := range uint32(60) {
		belowFloor = append(belowFloor, rec(i, 1000+i, uint16(i), uint16(100+i), uint8(i), 1))
		packetOnly = append(packetOnly, rec(i%3, 1, uint16(2000+i), 80, 6, 1))
		// IPs 0 and 0xFFFFFFFF, ports 0 and 65535, proto 0 and 255 in
		// mixed combinations, some rows with zero packets.
		ip, port, proto := uint32(i%2*0xFFFFFFFF), uint16(i%3/2*0xFFFF), uint8(i%5/4*0xFF)
		boundary = append(boundary, rec(ip, ^ip, port, ^port, proto, uint64(i%4)))
	}
	packetOnly = append(packetOnly, heavy)
	inputs := []struct {
		name string
		recs []flow.Record
	}{
		{"empty", nil},
		{"one", []flow.Record{heavy}},
		{"below-floor", belowFloor},
		{"packet-only", packetOnly},
		{"boundary", boundary},
		{"random", randomRecords(11, 500)},
		{"wide-1", wideRecords(1, 3000)},
		{"wide-2", wideRecords(2, 700)},
	}
	check := func(label string, b *Builder, recs []flow.Record) {
		t.Helper()
		oracle := aggregate(recs)
		for _, floor := range []uint64{1, 2, 5, 10, 50} {
			got, want := b.Project(floor), oracle.Project(floor)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s floor=%d: Builder.Project diverged from the oracle: %s", label, floor, firstDiff(got, want))
			}
		}
	}
	for _, in := range inputs {
		b := NewBuilder()
		for i := range in.recs {
			b.Add(&in.recs[i])
		}
		check(in.name, b, in.recs)
	}

	// Reuse: a larger and a smaller input through one buffer, both ways.
	a, c := wideRecords(3, 900), wideRecords(4, 400)
	b := NewBuilder()
	for _, recs := range [][]flow.Record{a, c, a} {
		b.Reset()
		for i := range recs {
			b.Add(&recs[i])
		}
		check(fmt.Sprintf("reuse(%d records)", len(recs)), b, recs)
	}
}

func TestBuilderReset(t *testing.T) {
	recs := randomRecords(5, 300)
	b := NewBuilder()
	for i := range recs {
		b.Add(&recs[i])
	}
	b.Reset()
	if b.Flows() != 0 || b.Len() != 0 {
		t.Fatalf("after Reset: flows=%d len=%d", b.Flows(), b.Len())
	}
	// Rebuild after reset must equal a fresh build.
	for i := range recs {
		b.Add(&recs[i])
	}
	got := b.Dataset()
	want := datasetOf(recs)
	if got.Len() != want.Len() || got.TotalFlows() != want.TotalFlows() || got.TotalPackets() != want.TotalPackets() {
		t.Fatalf("rebuild after Reset diverged: (%d,%d,%d) vs (%d,%d,%d)",
			got.Len(), got.TotalFlows(), got.TotalPackets(),
			want.Len(), want.TotalFlows(), want.TotalPackets())
	}
}

func TestBuilderEmpty(t *testing.T) {
	ds := NewBuilder().Dataset()
	if ds.Len() != 0 || ds.TotalFlows() != 0 || ds.TotalPackets() != 0 {
		t.Fatalf("empty builder dataset not empty: %d/%d/%d", ds.Len(), ds.TotalFlows(), ds.TotalPackets())
	}
}

// maximalOnlyAllPairs is the pre-bucketing implementation, kept as the
// benchmark baseline and correctness oracle for MaximalOnly.
func maximalOnlyAllPairs(fs []Frequent) []Frequent {
	out := make([]Frequent, 0, len(fs))
	for i := range fs {
		maximal := true
		for j := range fs {
			if i == j {
				continue
			}
			if len(fs[j].Items) > len(fs[i].Items) && fs[i].Items.SubsetOf(fs[j].Items) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, fs[i])
		}
	}
	SortFrequent(out)
	return out
}

// randomFrequent builds n mining-result-shaped itemsets (mixed lengths,
// many subset relations).
func randomFrequent(seed uint64, n int) []Frequent {
	rng := stats.NewRNG(seed)
	txs := randomTxs(seed, n)
	fs := make([]Frequent, n)
	for i := range fs {
		tx := txs[rng.Intn(len(txs))]
		l := 1 + rng.Intn(flow.NumFeatures)
		items := make([]Item, 0, l)
		for j := 0; j < l; j++ {
			items = append(items, tx.Items[rng.Intn(flow.NumFeatures)])
		}
		fs[i] = Frequent{Items: NewSet(items...), Support: uint64(rng.Intn(1000))}
	}
	return fs
}

func TestMaximalOnlyMatchesAllPairs(t *testing.T) {
	src := NewItem(flow.FeatSrcIP, 1)
	dst := NewItem(flow.FeatDstIP, 2)
	port := NewItem(flow.FeatDstPort, 80)
	zero := NewItem(flow.FeatSrcIP, 0) // srcIP=0.0.0.0 is Item 0
	cases := map[string][]Frequent{
		"nil": nil,
		// fda's lift cut can keep a 3-set and drop its 2-subsets.
		"3-set without its 2-subsets": {
			{Items: NewSet(src), Support: 9}, {Items: NewSet(src, dst, port), Support: 5},
			{Items: NewSet(dst), Support: 7}, {Items: NewSet(NewItem(flow.FeatProto, 6)), Support: 6},
		},
		"duplicate sets": {
			{Items: NewSet(src, dst), Support: 5}, {Items: NewSet(src), Support: 8},
			{Items: NewSet(src, dst), Support: 5}, {Items: NewSet(port), Support: 3},
			{Items: NewSet(port), Support: 4},
		},
		// The empty subset of {dst, port} must not cover {srcIP=0.0.0.0}.
		"zero-valued item": {
			{Items: NewSet(port), Support: 6}, {Items: NewSet(dst, port), Support: 4},
			{Items: NewSet(zero), Support: 9}, {Items: NewSet(dst, NewItem(flow.FeatSrcPort, 0)), Support: 3},
		},
	}
	for seed := uint64(1); seed <= 8; seed++ {
		cases[fmt.Sprintf("random seed %d", seed)] = randomFrequent(seed, 400)
	}
	for name, fs := range cases {
		t.Run(name, func(t *testing.T) {
			want := maximalOnlyAllPairs(fs)
			got := MaximalOnly(fs)
			if len(got) != len(want) {
				t.Fatalf("%d vs %d maximal itemsets: %v vs %v", len(got), len(want), got, want)
			}
			for i := range want {
				if !slices.Equal(got[i].Items, want[i].Items) || got[i].Support != want[i].Support {
					t.Fatalf("row %d: %v vs %v", i, got[i], want[i])
				}
			}
		})
	}
}

// BenchmarkMaximalOnly reduces a mining-result-shaped input: every
// non-empty subset of 1,500 flood-like 5-tuples, as a miner reports them
// when all of those rows are frequent.
func BenchmarkMaximalOnly(b *testing.B) {
	rng := stats.NewRNG(1506)
	seen := make(map[string]bool)
	var fs []Frequent
	for range 1500 {
		r := flow.Record{
			SrcIP: flow.IP(0x0a000000 + rng.Intn(300)), DstIP: flow.IP(0xc6130707 + rng.Intn(3)),
			SrcPort: uint16(1024 + rng.Intn(2000)), DstPort: []uint16{53, 80}[rng.Intn(2)],
			Proto: flow.ProtoUDP,
		}
		items := ItemsOf(&r)
		for mask := 1; mask < 1<<flow.NumFeatures; mask++ {
			var s Set
			for i, it := range items {
				if mask&(1<<i) != 0 {
					s = append(s, it)
				}
			}
			if !seen[s.Key()] {
				seen[s.Key()] = true
				fs = append(fs, Frequent{Items: s, Support: uint64(1 + rng.Intn(1000))})
			}
		}
	}
	b.ResetTimer()
	for range b.N {
		MaximalOnly(fs)
	}
	b.ReportMetric(float64(len(fs)), "itemsets")
}
