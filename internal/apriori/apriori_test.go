package apriori

import (
	"context"
	"errors"
	"maps"
	"reflect"
	"slices"
	"sync"
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

// datasetOf folds recs into a Dataset the way extraction does, through
// an itemset.Builder.
func datasetOf(recs []flow.Record) *itemset.Dataset {
	b := itemset.NewBuilder()
	for i := range recs {
		b.Add(&recs[i])
	}
	return b.Dataset()
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
	return datasetOf(recs)
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
	ds := itemset.NewBuilder().Dataset()
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
		if !slices.Equal(a[i].Items, b[i].Items) || a[i].Support != b[i].Support {
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
	ds := datasetOf(recs)
	all, err := Miner{}.Mine(t.Context(), ds, Options{MinSupport: 400})
	if err != nil {
		t.Fatal(err)
	}
	got := itemset.MaximalOnly(all)
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
	max := itemset.MaximalOnly(all)
	if len(max) > len(all) {
		t.Fatal("maximal set larger than full set")
	}
	// No maximal itemset is a subset of another.
	for i := range max {
		for j := range max {
			outside := func(it itemset.Item) bool { return !max[j].Items.Contains(it) }
			if i != j && !slices.ContainsFunc(max[i].Items, outside) {
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
		if len(fr.Items) < 2 {
			continue
		}
		for drop := 0; drop < len(fr.Items); drop++ {
			sub := make(itemset.Set, 0, len(fr.Items)-1)
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
	if _, err := (Miner{}).Mine(ctx, ds, Options{MinSupport: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Miner.Mine err = %v, want context.Canceled", err)
	}
}

// halvings is the self-tuning loop's support sequence over a dataset
// total: 20% of it (at least floor), halved and clamped until the floor.
func halvings(total, floor uint64) []uint64 {
	minSup := max(total/5, floor)
	seq := []uint64{minSup}
	for minSup > floor {
		minSup = max(minSup/2, floor)
		seq = append(seq, minSup)
	}
	return seq
}

// skewedDataset draws every feature value from a skewed spread over up to
// 16 values, so item supports range from most of the dataset down to a
// single record.
func skewedDataset(seed uint64, n int) *itemset.Dataset {
	rng := stats.NewRNG(seed)
	skewed := func() int { return rng.Intn(1 + rng.Intn(16)) }
	protos := []flow.Protocol{flow.ProtoTCP, flow.ProtoUDP, flow.ProtoICMP}
	recs := make([]flow.Record, n)
	for i := range recs {
		recs[i] = flow.Record{
			Start: 1, SrcIP: flow.IP(skewed()), DstIP: flow.IP(skewed()),
			SrcPort: uint16(skewed()), DstPort: uint16(skewed()),
			Proto: protos[rng.Intn(len(protos))], Packets: uint64(1 + rng.Intn(50)),
		}
	}
	return datasetOf(recs)
}

// secondItemSupport returns the second-smallest distinct item support of
// ds: prepared at it, one item falls below the floor and one sits on it.
func secondItemSupport(ds *itemset.Dataset, byPackets bool) uint64 {
	sup := make(map[itemset.Item]uint64)
	for i := 0; i < ds.Len(); i++ {
		tx := ds.Tx(i)
		for _, it := range tx.Items {
			sup[it] += tx.Weight(byPackets)
		}
	}
	return slices.Compact(slices.Sorted(maps.Values(sup)))[1]
}

// TestPreparedHalvingMatchesBruteForce anchors Prepare/MineAt to the
// definition of a frequent itemset rather than to another miner: one
// dataset prepared at the floor, mined along the self-tuning halving
// sequence in both dimensions, equals bruteForce every round, and MineAt
// below the floor is an ErrBelowFloor error.
func TestPreparedHalvingMatchesBruteForce(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		ds := skewedDataset(seed, 500)
		for _, byPackets := range []bool{false, true} {
			floor := secondItemSupport(ds, byPackets)
			p, err := Miner{}.Prepare(t.Context(), ds, Options{MinSupport: floor, ByPackets: byPackets})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.MineAt(t.Context(), floor-1); !errors.Is(err, miner.ErrBelowFloor) {
				t.Fatalf("seed %d packets=%v: MineAt(floor-1) err = %v, want ErrBelowFloor", seed, byPackets, err)
			}
			sups := halvings(ds.Total(byPackets), floor)
			if len(sups) < 5 {
				t.Fatalf("seed %d packets=%v: only %d rounds down to floor %d", seed, byPackets, len(sups), floor)
			}
			for _, minSup := range sups {
				got, err := p.MineAt(t.Context(), minSup)
				if err != nil {
					t.Fatal(err)
				}
				assertMatchesOracle(t, got, bruteForce(ds, minSup, byPackets))
			}
		}
	}
}

// TestPreparedConcurrentMineAt pins the Prepared as read-only after
// Prepare: rounds of one Prepared mined concurrently each equal a fresh
// Mine at their support. CI runs it under -race.
func TestPreparedConcurrentMineAt(t *testing.T) {
	ds := randomDataset(21, 600)
	const floor = 40
	opts := Options{MinSupport: floor, ByPackets: true}
	p, err := Miner{}.Prepare(t.Context(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	sups := halvings(ds.TotalPackets(), floor)
	if len(sups) < 4 {
		t.Fatalf("only %d rounds", len(sups))
	}
	got := make([][]itemset.Frequent, len(sups))
	errs := make([]error, len(sups))
	var wg sync.WaitGroup
	for i, minSup := range sups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = p.MineAt(t.Context(), minSup)
		}()
	}
	wg.Wait()
	for i, minSup := range sups {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		at := opts
		at.MinSupport = minSup
		want, err := Mine(t.Context(), ds, at)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("MineAt(%d) concurrent: %d itemsets, fresh Mine %d", minSup, len(got[i]), len(want))
		}
	}
}

// dosDataset is shaped like a live flood incident's candidate flows:
// about 4k distinct 5-tuples, most of them from a few hundred sources at
// one victim service, with heavy packet weights, over background traffic.
func dosDataset() *itemset.Dataset {
	rng := stats.NewRNG(4146)
	victim := flow.MustParseIP("198.19.7.7")
	var recs []flow.Record
	for i := 0; i < 3000; i++ {
		recs = append(recs, flow.Record{
			Start: 1, SrcIP: flow.IP(0x0a000000 + rng.Intn(300)), DstIP: victim,
			SrcPort: uint16(1024 + rng.Intn(2000)), DstPort: 53,
			Proto: flow.ProtoUDP, Packets: uint64(50 + rng.Intn(400)),
		})
	}
	for i := 0; i < 1200; i++ {
		recs = append(recs, flow.Record{
			Start: 1, SrcIP: flow.IP(0xc0a80000 + rng.Intn(200)), DstIP: flow.IP(0xac100000 + rng.Intn(40)),
			SrcPort: uint16(1024 + rng.Intn(60000)), DstPort: []uint16{80, 443, 53, 25}[rng.Intn(4)],
			Proto: flow.ProtoTCP, Packets: uint64(1 + rng.Intn(200)),
		})
	}
	return datasetOf(recs)
}

// BenchmarkPreparedMineAt is one packet-dimension self-tuning run on the
// flood-shaped dataset: Prepare at the floor (through miner.Prepare, as
// the extraction engine calls it), then MineAt along the halving sequence
// down to the floor.
func BenchmarkPreparedMineAt(b *testing.B) {
	ds := dosDataset()
	const floor = 317
	opts := Options{MinSupport: floor, ByPackets: true}
	sups := halvings(ds.TotalPackets(), floor)
	b.ResetTimer()
	for range b.N {
		p, err := miner.Prepare(b.Context(), Miner{}, ds, opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, minSup := range sups {
			if _, err := p.MineAt(b.Context(), minSup); err != nil {
				b.Fatal(err)
			}
		}
	}
}
