package itemset

import (
	"testing"

	"repro/internal/flow"
	"repro/internal/stats"
)

// randomTxs builds n weighted transactions over a small value alphabet so
// sets overlap densely.
func randomTxs(seed uint64, n int) []Tx {
	rng := stats.NewRNG(seed)
	protos := []flow.Protocol{flow.ProtoTCP, flow.ProtoUDP, flow.ProtoICMP}
	txs := make([]Tx, n)
	for i := range txs {
		r := flow.Record{
			SrcIP:   flow.IP(rng.Intn(6)),
			DstIP:   flow.IP(rng.Intn(6)),
			SrcPort: uint16(rng.Intn(5)),
			DstPort: uint16(rng.Intn(5)),
			Proto:   protos[rng.Intn(3)],
		}
		txs[i] = Tx{
			Items:   ItemsOf(&r),
			Flows:   uint64(rng.Intn(100)),
			Packets: uint64(rng.Intn(10_000)),
		}
	}
	return txs
}

// randomSets derives k itemsets from the transactions (so most have
// non-zero support) plus a few misses.
func randomSets(seed uint64, txs []Tx, k int) []Set {
	rng := stats.NewRNG(seed)
	sets := make([]Set, 0, k)
	for i := 0; i < k; i++ {
		tx := txs[rng.Intn(len(txs))]
		l := 1 + rng.Intn(flow.NumFeatures)
		items := make([]Item, 0, l)
		for j := 0; j < l; j++ {
			items = append(items, tx.Items[rng.Intn(flow.NumFeatures)])
		}
		sets = append(sets, NewSet(items...))
	}
	// A guaranteed miss: a value outside the alphabet.
	sets = append(sets, NewSet(NewItem(flow.FeatSrcIP, 0xffff_fff0)))
	return sets
}

func TestSupportAllMatchesOracle(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		txs := randomTxs(seed, 500)
		ds := FromTxs(txs)
		sets := randomSets(seed+100, txs, 25)
		for _, workers := range []int{0, 1, 3, 16} {
			got := ds.SupportAll(sets, workers)
			if len(got) != len(sets) {
				t.Fatalf("workers=%d: %d results for %d sets", workers, len(got), len(sets))
			}
			for i, s := range sets {
				if got[i].Flows != ds.Support(s, false) {
					t.Fatalf("workers=%d set %v: flows %d, oracle %d", workers, s, got[i].Flows, ds.Support(s, false))
				}
				if got[i].Packets != ds.Support(s, true) {
					t.Fatalf("workers=%d set %v: packets %d, oracle %d", workers, s, got[i].Packets, ds.Support(s, true))
				}
			}
		}
	}
}

func TestSupportAllEmpty(t *testing.T) {
	ds := FromTxs(nil)
	if got := ds.SupportAll([]Set{NewSet(NewItem(flow.FeatDstPort, 80))}, 0); got[0] != (DualSupport{}) {
		t.Fatalf("empty dataset support = %v", got[0])
	}
	ds = FromTxs(randomTxs(1, 10))
	if got := ds.SupportAll(nil, 0); len(got) != 0 {
		t.Fatalf("no sets must yield no results, got %v", got)
	}
}

// coverageOracle is the serial reference the sharded Coverage must match.
func coverageOracle(ds *Dataset, sets []Set, byPackets bool) float64 {
	total := ds.Total(byPackets)
	if total == 0 {
		return 1
	}
	if len(sets) == 0 {
		return 0
	}
	var covered uint64
	for i := 0; i < ds.Len(); i++ {
		tx := ds.Tx(i)
		for _, s := range sets {
			if Match(&tx.Items, s) {
				covered += tx.Weight(byPackets)
				break
			}
		}
	}
	return float64(covered) / float64(total)
}

func TestCoverageMatchesOracle(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		txs := randomTxs(seed, 700)
		ds := FromTxs(txs)
		sets := randomSets(seed+200, txs, 8)
		for _, byPackets := range []bool{false, true} {
			want := coverageOracle(ds, sets, byPackets)
			for _, workers := range []int{0, 1, 4, 32} {
				// Shard sums are uint64 and the division is exact on the
				// same operands, so equality is exact — no tolerance.
				if got := ds.Coverage(sets, byPackets, workers); got != want {
					t.Fatalf("seed=%d byPackets=%v workers=%d: coverage %v, oracle %v",
						seed, byPackets, workers, got, want)
				}
			}
		}
	}
	ds := FromTxs(nil)
	if got := ds.Coverage(nil, false, 0); got != 1 {
		t.Fatalf("empty dataset coverage = %v, want 1", got)
	}
	ds = FromTxs(randomTxs(9, 10))
	if got := ds.Coverage(nil, false, 0); got != 0 {
		t.Fatalf("no-sets coverage = %v, want 0", got)
	}
}

func TestShardBoundsPartition(t *testing.T) {
	for _, tc := range []struct{ n, txs int }{{1, 10}, {3, 10}, {8, 7}, {4, 100}, {7, 101}} {
		prev := 0
		for i := 0; i < tc.n; i++ {
			lo, hi := shardBounds(i, tc.n, tc.txs)
			if lo != prev {
				t.Fatalf("n=%d txs=%d shard %d: lo=%d, want %d", tc.n, tc.txs, i, lo, prev)
			}
			if hi < lo {
				t.Fatalf("n=%d txs=%d shard %d: hi %d < lo %d", tc.n, tc.txs, i, hi, lo)
			}
			prev = hi
		}
		if prev != tc.txs {
			t.Fatalf("n=%d txs=%d: shards cover %d, want %d", tc.n, tc.txs, prev, tc.txs)
		}
	}
}
