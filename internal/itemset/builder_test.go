package itemset

import (
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

// TestBuilderMatchesFromRecords pins the streaming builder to the batch
// aggregator: same transactions, same weights, same totals, same
// supports.
func TestBuilderMatchesFromRecords(t *testing.T) {
	recs := randomRecords(3, 2000)
	want := FromRecords(recs)

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
	got := b.Dataset()
	if got.TotalFlows() != want.TotalFlows() || got.TotalPackets() != want.TotalPackets() {
		t.Fatalf("totals (%d,%d) != (%d,%d)",
			got.TotalFlows(), got.TotalPackets(), want.TotalFlows(), want.TotalPackets())
	}
	if got.Len() != want.Len() {
		t.Fatalf("tx count %d != %d", got.Len(), want.Len())
	}
	// Transactions arrive in first-seen order in both paths.
	for i := 0; i < got.Len(); i++ {
		g, w := got.Tx(i), want.Tx(i)
		if g.Items != w.Items || g.Flows != w.Flows || g.Packets != w.Packets {
			t.Fatalf("tx %d: %+v != %+v", i, g, w)
		}
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
	want := FromRecords(recs)
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
	for seed := uint64(1); seed <= 8; seed++ {
		fs := randomFrequent(seed, 400)
		want := maximalOnlyAllPairs(fs)
		got := MaximalOnly(fs)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d vs %d maximal itemsets", seed, len(got), len(want))
		}
		for i := range want {
			if !got[i].Items.Equal(want[i].Items) || got[i].Support != want[i].Support {
				t.Fatalf("seed %d row %d: %v vs %v", seed, i, got[i], want[i])
			}
		}
	}
	if got := MaximalOnly(nil); len(got) != 0 {
		t.Fatalf("MaximalOnly(nil) = %v", got)
	}
}
