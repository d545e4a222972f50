package fpgrowth

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/apriori"
	"repro/internal/flow"
	"repro/internal/itemset"
	"repro/internal/miner"
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
			SrcIP:   flow.IP(rng.Intn(4)),
			DstIP:   flow.IP(rng.Intn(4)),
			SrcPort: uint16(rng.Intn(4)),
			DstPort: uint16(rng.Intn(4)),
			Proto:   protos[rng.Intn(3)],
			Packets: pk,
			Bytes:   pk * 40,
		}
	}
	return recs
}

func randomDataset(seed uint64, n int) *itemset.Dataset {
	return itemset.FromRecords(randomRecords(seed, n))
}

// scanDataset is randomDataset plus an equally large one-source scan
// burst, so that the fda pre-filter (which rejects the uniform background
// wholesale) keeps something to mine.
func scanDataset(seed uint64, n int) *itemset.Dataset {
	recs := randomRecords(seed, n)
	rng := stats.NewRNG(seed + 1)
	for range n {
		recs = append(recs, flow.Record{
			Start:   1,
			SrcIP:   flow.IP(9),
			DstIP:   flow.IP(rng.Intn(4)),
			SrcPort: uint16(rng.Intn(4)),
			DstPort: uint16(rng.Intn(2)),
			Proto:   flow.ProtoTCP,
			Packets: 1,
			Bytes:   40,
		})
	}
	return itemset.FromRecords(recs)
}

// assertSameResults compares two canonical mining results exactly.
func assertSameResults(t *testing.T, a, b []itemset.Frequent, label string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: fpgrowth found %d itemsets, apriori %d", label, len(a), len(b))
	}
	am := make(map[string]uint64, len(a))
	for _, fr := range a {
		am[fr.Items.Key()] = fr.Support
	}
	for _, fr := range b {
		sup, ok := am[fr.Items.Key()]
		if !ok {
			t.Fatalf("%s: apriori found %v, fpgrowth did not", label, fr)
		}
		if sup != fr.Support {
			t.Fatalf("%s: %v support %d (fpgrowth) vs %d (apriori)", label, fr.Items, sup, fr.Support)
		}
	}
}

func TestMatchesApriori(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		ds := randomDataset(seed, 200)
		for _, minSup := range []uint64{1, 5, 25, 80} {
			opts := Options{MinSupport: minSup}
			fp, err := Miner{}.Mine(t.Context(), ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			ap, err := apriori.Mine(t.Context(), ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, fp, ap, "flows")
		}
	}
}

func TestMatchesAprioriByPackets(t *testing.T) {
	for seed := uint64(20); seed <= 23; seed++ {
		ds := randomDataset(seed, 150)
		for _, minSup := range []uint64{50, 400, 2000} {
			opts := Options{MinSupport: minSup, ByPackets: true}
			fp, err := Miner{}.Mine(t.Context(), ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			ap, err := apriori.Mine(t.Context(), ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, fp, ap, "packets")
		}
	}
}

func TestZeroSupportRejected(t *testing.T) {
	ds := randomDataset(1, 10)
	if _, err := (Miner{}).Mine(t.Context(), ds, Options{MinSupport: 0}); err != apriori.ErrZeroSupport {
		t.Fatalf("got %v, want ErrZeroSupport", err)
	}
}

func TestEmptyDataset(t *testing.T) {
	got, err := Miner{}.Mine(t.Context(), itemset.FromRecords(nil), Options{MinSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatal("empty dataset must mine to nothing")
	}
}

func TestMineMaximalAgreement(t *testing.T) {
	ds := randomDataset(31, 250)
	opts := Options{MinSupport: 12}
	fp, err := miner.MineMaximal(t.Context(), Miner{}, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := miner.MineMaximal(t.Context(), apriori.Miner{}, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, fp, ap, "maximal")
}

func TestQuickAgreementProperty(t *testing.T) {
	f := func(seed uint64, sizeRaw, supRaw uint8) bool {
		size := int(sizeRaw%50) + 5
		minSup := uint64(supRaw%12) + 1
		ds := randomDataset(seed, size)
		opts := Options{MinSupport: minSup, ByPackets: seed%2 == 0}
		if opts.ByPackets {
			opts.MinSupport *= 20
		}
		fp, err1 := Miner{}.Mine(t.Context(), ds, opts)
		ap, err2 := apriori.Mine(t.Context(), ds, opts)
		if err1 != nil || err2 != nil || len(fp) != len(ap) {
			return false
		}
		m := make(map[string]uint64, len(fp))
		for _, fr := range fp {
			m[fr.Items.Key()] = fr.Support
		}
		for _, fr := range ap {
			if m[fr.Items.Key()] != fr.Support {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// cancelAfter is a context whose Err turns into context.Canceled after a
// fixed number of polls, so a test can cancel at a chosen depth of the
// engine without timing.
type cancelAfter struct {
	context.Context
	polls atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.polls.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func TestMineCancelled(t *testing.T) {
	ds := scanDataset(3, 250)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (Miner{}).Mine(ctx, ds, Options{MinSupport: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Mine err = %v, want context.Canceled", err)
	}

	// Cancel while the top-level workers are running. The number of ctx
	// polls in a run is fixed by the input (one on entering Prepare, one
	// per 1024-row stride of each of its passes — two here — one on
	// entering MineAt, then one per top-level item and one per
	// conditional tree), so count them in a clean run and cancel at a
	// spread of later polls: each lands in Prepare's second pass, in
	// MineAt, or in mineTop's workers or below.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	opts := Options{MinSupport: 1, Prefilter: true}
	for _, m := range []Miner{{}, {fda: true}} {
		const budget = 1 << 40
		clean := &cancelAfter{Context: context.Background()}
		clean.polls.Store(budget)
		if _, err := m.Mine(clean, ds, opts); err != nil {
			t.Fatal(err)
		}
		total := budget - clean.polls.Load()
		if total < 10 {
			t.Fatalf("fda=%v: only %d ctx polls, dataset too small to cancel mid-mining", m.fda, total)
		}
		for polls := int64(2); polls < total; polls += max(1, total/64) {
			mid := &cancelAfter{Context: context.Background()}
			mid.polls.Store(polls)
			got, err := m.Mine(mid, ds, opts)
			if !errors.Is(err, context.Canceled) || got != nil {
				t.Fatalf("fda=%v cancel after %d of %d polls: %d itemsets, err = %v; want nil, context.Canceled",
					m.fda, polls, total, len(got), err)
			}
		}
	}
}

// TestWorkerCountDeterminism pins the output of both registry names to be
// byte-equal whether the top level runs on one worker or four, and
// whether the rounds of one Prepared run one after another or all at
// once (MineAt only reads the prepared rank paths).
func TestWorkerCountDeterminism(t *testing.T) {
	ds := scanDataset(77, 200)
	opts := Options{MinSupport: 3, Prefilter: true}
	supports := []uint64{3, 6, 12, 24, 48}
	for _, name := range []string{"fpgrowth", "fda"} {
		m, err := miner.New(name)
		if err != nil {
			t.Fatal(err)
		}
		var runs [][]itemset.Frequent
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			got, err := m.Mine(t.Context(), ds, opts)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, got)
		}
		if len(runs[0]) == 0 || !reflect.DeepEqual(runs[0], runs[1]) {
			t.Fatalf("%s: GOMAXPROCS 1 mined %d itemsets, GOMAXPROCS 4 mined %d, or rows differ",
				name, len(runs[0]), len(runs[1]))
		}

		p, err := miner.Prepare(t.Context(), m, ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		concurrent := make([][]itemset.Frequent, len(supports))
		errs := make([]error, len(supports))
		var wg sync.WaitGroup
		for i, minSup := range supports {
			wg.Add(1)
			go func() {
				defer wg.Done()
				concurrent[i], errs[i] = p.MineAt(t.Context(), minSup)
			}()
		}
		wg.Wait()
		for i, minSup := range supports {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			at := opts
			at.MinSupport = minSup
			want, err := m.Mine(t.Context(), ds, at)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(concurrent[i], want) {
				t.Fatalf("%s: concurrent MineAt(%d) mined %d itemsets, Mine %d, or rows differ",
					name, minSup, len(concurrent[i]), len(want))
			}
		}
	}
}

func TestSignificantItems(t *testing.T) {
	a, b := itemset.NewItem(flow.FeatSrcIP, 1), itemset.NewItem(flow.FeatSrcIP, 2)
	tcp := itemset.NewItem(flow.FeatProto, uint32(flow.ProtoTCP))
	// Two srcIP values over total 100: p0 = 1/2, mean 50, sd 5, so weight
	// 60 sits exactly miner.Significance = 2 standard deviations above
	// the null and 59 just below it.
	at := map[itemset.Item]uint64{a: 60, b: 40, tcp: 5}
	below := map[itemset.Item]uint64{a: 59, b: 41, tcp: 5}
	cases := []struct {
		name    string
		support map[itemset.Item]uint64
		total   uint64
		dropped int // srcIP values a projection folded away
		want    []itemset.Item
	}{
		{"total zero keeps everything", below, 0, 0, []itemset.Item{a, b, tcp}},
		{"exactly at the threshold survives", at, 100, 0, []itemset.Item{a, tcp}},
		// tcp is its feature's only value: nothing to test, it survives.
		{"just below the threshold is dropped", below, 100, 0, []itemset.Item{tcp}},
		// k = 2 kept + 1 folded away: p0 = 1/3, so 59 clears z ≈ 5.5.
		{"folded-away values count toward k", below, 100, 1, []itemset.Item{a, tcp}},
	}
	for _, tc := range cases {
		dropped := func(f flow.Feature) int {
			if f == flow.FeatSrcIP {
				return tc.dropped
			}
			return 0
		}
		items := []itemset.Item{a, b, tcp}
		support := make([]uint64, len(items))
		for i, it := range items {
			support[i] = tc.support[it]
		}
		var kept []itemset.Item
		for i, keep := range significantItems(items, support, dropped, tc.total) {
			if keep {
				kept = append(kept, items[i])
			}
		}
		if !reflect.DeepEqual(kept, tc.want) {
			t.Errorf("%s: kept %v, want %v", tc.name, kept, tc.want)
		}
	}
}

func TestLiftCut(t *testing.T) {
	a, b := itemset.NewItem(flow.FeatSrcIP, 1), itemset.NewItem(flow.FeatDstPort, 80)
	support := map[itemset.Item]uint64{a: 50, b: 50}
	single := itemset.Frequent{Items: itemset.Set{a}, Support: 50}
	// Shares 0.5 × 0.5 against an observed 0.25: lift exactly
	// miner.MinLift = 1; observed 0.24 falls just below it.
	atLift := itemset.Frequent{Items: itemset.NewSet(a, b), Support: 25}
	belowLift := itemset.Frequent{Items: itemset.NewSet(a, b), Support: 24}
	cases := []struct {
		name  string
		sets  []itemset.Frequent
		total uint64
		want  []itemset.Frequent
	}{
		{"total zero keeps everything", []itemset.Frequent{single, belowLift}, 0, []itemset.Frequent{single, belowLift}},
		{"level-1 lift is exactly 1", []itemset.Frequent{single}, 100, []itemset.Frequent{single}},
		{"exactly at MinLift survives", []itemset.Frequent{single, atLift}, 100, []itemset.Frequent{single, atLift}},
		{"just below MinLift is dropped", []itemset.Frequent{single, belowLift}, 100, []itemset.Frequent{single}},
	}
	for _, tc := range cases {
		got := liftCut(tc.sets, support, tc.total)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestTreeSharesPrefixes pins the FP-tree compression MineAt relies on:
// at every k, the tree built from the prepared paths has exactly one node
// per distinct prefix of ranks below k, and its header supports are the
// prepared ones.
func TestTreeSharesPrefixes(t *testing.T) {
	for _, m := range []Miner{{}, {fda: true}} {
		prep, err := m.Prepare(t.Context(), scanDataset(5, 300), Options{MinSupport: 2, Prefilter: true})
		if err != nil {
			t.Fatal(err)
		}
		p := prep.(*prepared)
		for k := range len(p.sups) + 1 {
			prefixes := map[[flow.NumFeatures]int32]bool{}
			for _, pa := range p.paths {
				var prefix [flow.NumFeatures]int32
				for j := 0; j < int(pa.n) && pa.ranks[j] < int32(k); j++ {
					prefix[j] = pa.ranks[j] + 1
					prefixes[prefix] = true
				}
			}
			tr := newTree(k)
			tr.build(p.paths, int32(k))
			if got := len(tr.nodes) - 1; got != len(prefixes) {
				t.Fatalf("fda=%v k=%d: %d nodes for %d distinct prefixes", m.fda, k, got, len(prefixes))
			}
			if !reflect.DeepEqual(tr.sup, p.sups[:k]) {
				t.Fatalf("fda=%v k=%d: header supports %v, prepared %v", m.fda, k, tr.sup, p.sups[:k])
			}
		}
	}
}
