package apriori

import (
	"context"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/flow"
	"repro/internal/itemset"
	"repro/internal/miner"
	"repro/internal/stats"
)

// mkRecord builds a record whose feature values are drawn from tiny
// alphabets so that itemsets overlap heavily.
func mkRecord(src, dst, sport, dport, proto uint8, pkts uint64) flow.Record {
	protos := []flow.Protocol{flow.ProtoTCP, flow.ProtoUDP, flow.ProtoICMP}
	return flow.Record{
		Start:   1,
		SrcIP:   flow.IP(src % 4),
		DstIP:   flow.IP(dst % 4),
		SrcPort: uint16(sport % 4),
		DstPort: uint16(dport % 4),
		Proto:   protos[int(proto)%len(protos)],
		Packets: pkts%50 + 1,
		Bytes:   (pkts%50 + 1) * 40,
	}
}

// randomDataset builds a deterministic pseudo-random dataset.
func randomDataset(seed uint64, n int) *itemset.Dataset {
	rng := stats.NewRNG(seed)
	recs := make([]flow.Record, n)
	for i := range recs {
		recs[i] = mkRecord(
			uint8(rng.Intn(4)), uint8(rng.Intn(4)), uint8(rng.Intn(4)),
			uint8(rng.Intn(4)), uint8(rng.Intn(3)), rng.Uint64(),
		)
	}
	return itemset.FromRecords(recs)
}

// bruteForce enumerates every subset (sizes 1..5) of every distinct
// transaction and reports those with support >= minSupport — the oracle
// both miners must match.
func bruteForce(ds *itemset.Dataset, minSupport uint64, byPackets bool) map[string]uint64 {
	seen := make(map[string]itemset.Set)
	for i := 0; i < ds.Len(); i++ {
		items := ds.Tx(i).Items
		for mask := 1; mask < 1<<flow.NumFeatures; mask++ {
			var s itemset.Set
			for b := 0; b < flow.NumFeatures; b++ {
				if mask&(1<<b) != 0 {
					s = append(s, items[b])
				}
			}
			seen[s.Key()] = s
		}
	}
	out := make(map[string]uint64)
	for key, s := range seen {
		if sup := ds.Support(s, byPackets); sup >= minSupport {
			out[key] = sup
		}
	}
	return out
}

func assertMatchesOracle(t *testing.T, got []itemset.Frequent, oracle map[string]uint64) {
	t.Helper()
	if len(got) != len(oracle) {
		t.Fatalf("miner found %d itemsets, oracle %d", len(got), len(oracle))
	}
	for _, fr := range got {
		want, ok := oracle[fr.Items.Key()]
		if !ok {
			t.Fatalf("miner reported non-frequent itemset %v", fr)
		}
		if want != fr.Support {
			t.Fatalf("itemset %v: support %d, oracle %d", fr.Items, fr.Support, want)
		}
	}
}

func TestMineMatchesBruteForce(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		ds := randomDataset(seed, 200)
		for _, minSup := range []uint64{1, 5, 20, 60} {
			got, err := Mine(t.Context(), ds, Options{MinSupport: minSup})
			if err != nil {
				t.Fatal(err)
			}
			assertMatchesOracle(t, got, bruteForce(ds, minSup, false))
		}
	}
}

func TestMineByPacketsMatchesBruteForce(t *testing.T) {
	for seed := uint64(10); seed <= 12; seed++ {
		ds := randomDataset(seed, 150)
		for _, minSup := range []uint64{10, 200, 1000} {
			got, err := Mine(t.Context(), ds, Options{MinSupport: minSup, ByPackets: true})
			if err != nil {
				t.Fatal(err)
			}
			assertMatchesOracle(t, got, bruteForce(ds, minSup, true))
		}
	}
}

func TestZeroSupportRejected(t *testing.T) {
	ds := randomDataset(1, 10)
	if _, err := Mine(t.Context(), ds, Options{MinSupport: 0}); err != ErrZeroSupport {
		t.Fatalf("got %v, want ErrZeroSupport", err)
	}
}

func TestEmptyDataset(t *testing.T) {
	ds := itemset.FromRecords(nil)
	got, err := Mine(t.Context(), ds, Options{MinSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty dataset yielded %d itemsets", len(got))
	}
}

func TestDeterminism(t *testing.T) {
	ds := randomDataset(7, 300)
	a, err := Mine(t.Context(), ds, Options{MinSupport: 10})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Mine(t.Context(), ds, Options{MinSupport: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("non-deterministic result size")
	}
	for i := range a {
		if !a[i].Items.Equal(b[i].Items) || a[i].Support != b[i].Support {
			t.Fatalf("result %d differs between runs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestAnomalyScenario(t *testing.T) {
	// A port scan (one srcIP, one dstIP, many dstPorts) over background
	// noise must yield the (srcIP, dstIP) pair as a high-support itemset.
	rng := stats.NewRNG(99)
	var recs []flow.Record
	scanner := flow.MustParseIP("10.9.9.9")
	victim := flow.MustParseIP("192.0.2.77")
	for p := 0; p < 500; p++ {
		recs = append(recs, flow.Record{
			Start: 1, SrcIP: scanner, DstIP: victim,
			SrcPort: 55548, DstPort: uint16(p + 1),
			Proto: flow.ProtoTCP, Packets: 1, Bytes: 40,
		})
	}
	for i := 0; i < 300; i++ {
		recs = append(recs, flow.Record{
			Start: 1,
			SrcIP: flow.IP(rng.Uint32()), DstIP: flow.IP(rng.Uint32()),
			SrcPort: uint16(rng.Intn(65535) + 1), DstPort: 80,
			Proto: flow.ProtoTCP, Packets: 3, Bytes: 120,
		})
	}
	ds := itemset.FromRecords(recs)
	got, err := miner.MineMaximal(t.Context(), Miner{}, ds, Options{MinSupport: 400})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("scan itemset not found")
	}
	top := got[0]
	wantSrc := itemset.NewItem(flow.FeatSrcIP, uint32(scanner))
	wantDst := itemset.NewItem(flow.FeatDstIP, uint32(victim))
	if !top.Items.Contains(wantSrc) || !top.Items.Contains(wantDst) {
		t.Fatalf("top itemset %v does not identify the scan pair", top)
	}
	if top.Support != 500 {
		t.Fatalf("scan support = %d, want 500", top.Support)
	}
}

func TestMaximalReduction(t *testing.T) {
	ds := randomDataset(5, 200)
	all, err := Mine(t.Context(), ds, Options{MinSupport: 10})
	if err != nil {
		t.Fatal(err)
	}
	max, err := miner.MineMaximal(t.Context(), Miner{}, ds, Options{MinSupport: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(max) > len(all) {
		t.Fatal("maximal set larger than full set")
	}
	// No maximal itemset is a subset of another.
	for i := range max {
		for j := range max {
			if i != j && max[i].Items.SubsetOf(max[j].Items) {
				t.Fatalf("%v is a subset of %v", max[i].Items, max[j].Items)
			}
		}
	}
}

func TestSupportMonotonicityProperty(t *testing.T) {
	// Apriori property: support of a superset never exceeds support of a
	// subset. Verified over the miner's own output.
	ds := randomDataset(13, 250)
	got, err := Mine(t.Context(), ds, Options{MinSupport: 3})
	if err != nil {
		t.Fatal(err)
	}
	bySize := map[string]uint64{}
	for _, fr := range got {
		bySize[fr.Items.Key()] = fr.Support
	}
	for _, fr := range got {
		if fr.Items.Len() < 2 {
			continue
		}
		for drop := 0; drop < fr.Items.Len(); drop++ {
			sub := make(itemset.Set, 0, fr.Items.Len()-1)
			for i, it := range fr.Items {
				if i != drop {
					sub = append(sub, it)
				}
			}
			subSup, ok := bySize[sub.Key()]
			if !ok {
				t.Fatalf("subset %v of frequent %v missing from result", sub, fr.Items)
			}
			if subSup < fr.Support {
				t.Fatalf("monotonicity violated: %v sup %d < superset sup %d", sub, subSup, fr.Support)
			}
		}
	}
}

func TestQuickRandomDatasets(t *testing.T) {
	// Property test across random datasets: miner output == brute force.
	f := func(seed uint64, sizeRaw uint8, supRaw uint8) bool {
		size := int(sizeRaw%60) + 5
		minSup := uint64(supRaw%10) + 1
		ds := randomDataset(seed, size)
		got, err := Mine(t.Context(), ds, Options{MinSupport: minSup})
		if err != nil {
			return false
		}
		oracle := bruteForce(ds, minSup, false)
		if len(got) != len(oracle) {
			return false
		}
		for _, fr := range got {
			if oracle[fr.Items.Key()] != fr.Support {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMineCancelled(t *testing.T) {
	ds := randomDataset(3, 500)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Mine(ctx, ds, Options{MinSupport: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Mine err = %v, want context.Canceled", err)
	}
	if _, err := miner.MineMaximal(ctx, Miner{}, ds, Options{MinSupport: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("MineMaximal err = %v, want context.Canceled", err)
	}
}
