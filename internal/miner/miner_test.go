package miner_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/flow"
	"repro/internal/itemset"
	"repro/internal/miner"
	"repro/internal/stats"

	// Built-in miners self-register.
	_ "repro/internal/apriori"
	_ "repro/internal/fpgrowth"
)

func TestRegistryBuiltins(t *testing.T) {
	names := miner.Names()
	want := map[string]bool{"apriori": false, "fda": false, "fpgrowth": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("built-in miner %q not registered (have %v)", n, names)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
}

func TestRegistryErrors(t *testing.T) {
	if err := miner.Register("", func() miner.Miner { return nil }); err == nil {
		t.Error("empty name must be rejected")
	}
	if err := miner.Register("nilfactory", nil); err == nil {
		t.Error("nil factory must be rejected")
	}
	if err := miner.Register("apriori", func() miner.Miner { return nil }); err == nil {
		t.Error("duplicate name must be rejected")
	}
	if _, err := miner.New("no-such-miner"); err == nil {
		t.Error("unknown miner must be rejected")
	}
}

func TestDefaultNameResolves(t *testing.T) {
	m, err := miner.New("")
	if err != nil {
		t.Fatalf("default miner: %v", err)
	}
	if m == nil {
		t.Fatal("default miner is nil")
	}
}

func TestZeroSupportRejectedByAll(t *testing.T) {
	ds := randomWeightedDataset(1, 10)
	for _, name := range miner.Names() {
		m, err := miner.New(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Mine(t.Context(), ds, miner.Options{}); !errors.Is(err, miner.ErrZeroSupport) {
			t.Errorf("%s: got %v, want ErrZeroSupport", name, err)
		}
	}
}

// randomWeightedDataset builds a transaction database directly (FromTxs,
// not record aggregation) with adversarial weights: zero-flow and
// zero-packet transactions, heavy packet skew, and a small value alphabet
// so itemsets overlap densely.
func randomWeightedDataset(seed uint64, n int) *itemset.Dataset {
	rng := stats.NewRNG(seed)
	protos := []flow.Protocol{flow.ProtoTCP, flow.ProtoUDP, flow.ProtoICMP}
	txs := make([]itemset.Tx, n)
	for i := range txs {
		r := flow.Record{
			SrcIP:   flow.IP(rng.Intn(5)),
			DstIP:   flow.IP(rng.Intn(5)),
			SrcPort: uint16(rng.Intn(4)),
			DstPort: uint16(rng.Intn(4)),
			Proto:   protos[rng.Intn(3)],
		}
		var flows, packets uint64
		switch rng.Intn(4) {
		case 0: // light
			flows, packets = uint64(rng.Intn(3)), uint64(rng.Intn(10))
		case 1: // heavy packet skew (the UDP-flood shape)
			flows, packets = 1+uint64(rng.Intn(2)), uint64(1_000+rng.Intn(100_000))
		case 2: // heavy flow skew (the scan shape)
			flows, packets = uint64(100+rng.Intn(1_000)), uint64(100+rng.Intn(1_000))
		default:
			flows, packets = uint64(rng.Intn(20)), uint64(rng.Intn(50))
		}
		txs[i] = itemset.Tx{Items: itemset.ItemsOf(&r), Flows: flows, Packets: packets}
	}
	return itemset.FromTxs(txs)
}

// assertIdentical requires two canonical mining results to be
// byte-identical: same length, same order, same itemsets, same supports.
func assertIdentical(t *testing.T, label string, want, got []itemset.Frequent) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d itemsets", label, len(want), len(got))
	}
	for i := range want {
		if !want[i].Items.Equal(got[i].Items) || want[i].Support != got[i].Support {
			t.Fatalf("%s: row %d differs: %v vs %v", label, i, want[i], got[i])
		}
	}
}

// TestCrossMinerProperty pins every registered miner to identical
// canonical output — both the full frequent set and the maximal
// reduction, in both support dimensions — on 120 random weighted
// datasets.
func TestCrossMinerProperty(t *testing.T) {
	names := miner.Names()
	if len(names) < 2 {
		t.Fatalf("need at least two registered miners, have %v", names)
	}
	miners := make([]miner.Miner, len(names))
	for i, n := range names {
		m, err := miner.New(n)
		if err != nil {
			t.Fatal(err)
		}
		miners[i] = m
	}

	const datasets = 120
	for seed := uint64(1); seed <= datasets; seed++ {
		rng := stats.NewRNG(seed * 7919)
		ds := randomWeightedDataset(seed, 5+rng.Intn(120))
		byPackets := seed%2 == 0
		minSup := uint64(1 + rng.Intn(40))
		if byPackets {
			minSup *= 25
		}
		opts := miner.Options{MinSupport: minSup, ByPackets: byPackets}
		label := fmt.Sprintf("seed=%d opts=%+v", seed, opts)

		ref, err := miners[0].Mine(t.Context(), ds, opts)
		if err != nil {
			t.Fatalf("%s: %s: %v", names[0], label, err)
		}
		refMax, err := miner.MineMaximal(t.Context(), miners[0], ds, opts)
		if err != nil {
			t.Fatalf("%s: %s: %v", names[0], label, err)
		}
		// Oracle check: supports in the reference result match a full
		// dataset scan.
		for _, fr := range refMax {
			if got := ds.Support(fr.Items, byPackets); got != fr.Support {
				t.Fatalf("%s: %s: support(%v) = %d, oracle %d", names[0], label, fr.Items, fr.Support, got)
			}
		}
		for i := 1; i < len(miners); i++ {
			got, err := miners[i].Mine(t.Context(), ds, opts)
			if err != nil {
				t.Fatalf("%s: %s: %v", names[i], label, err)
			}
			assertIdentical(t, fmt.Sprintf("%s vs %s Mine (%s)", names[0], names[i], label), ref, got)
			gotMax, err := miner.MineMaximal(t.Context(), miners[i], ds, opts)
			if err != nil {
				t.Fatalf("%s: %s: %v", names[i], label, err)
			}
			assertIdentical(t, fmt.Sprintf("%s vs %s MineMaximal (%s)", names[0], names[i], label), refMax, gotMax)
		}
	}
}

// TestProjectionExact pins Dataset.Project on every fourth of the
// cross-miner battery's 120 datasets, plus scan-shaped ones whose one-off
// source ports fold into an absent marker heavy enough to be frequent: at
// MinSupport >= the projection floor, every miner (fda with and without
// its pre-filter) mines the projected rows to exactly what it mines from
// the raw ones, in both dimensions, and the mined sets keep their
// supports and coverage.
func TestProjectionExact(t *testing.T) {
	var datasets []*itemset.Dataset
	for seed := uint64(1); seed <= 120; seed += 4 {
		rng := stats.NewRNG(seed * 7919)
		datasets = append(datasets, randomWeightedDataset(seed, 5+rng.Intn(120)))
	}
	for seed := uint64(1); seed <= 6; seed++ {
		datasets = append(datasets, scanShapedDataset(seed, 150))
	}
	// Non-vacuity: cases that exercised each rule.
	var folded, packetOnly, heavyAbsent int
	for d, ds := range datasets {
		single := itemSupports(ds)
		for _, floor := range []uint64{1, 5, 10} {
			proj := ds.Project(floor)
			label := fmt.Sprintf("dataset=%d floor=%d", d, floor)
			if proj.TotalFlows() != ds.TotalFlows() || proj.TotalPackets() != ds.TotalPackets() {
				t.Fatalf("%s: totals %d/%d, want %d/%d", label,
					proj.TotalFlows(), proj.TotalPackets(), ds.TotalFlows(), ds.TotalPackets())
			}
			if proj.Len() < ds.Len() {
				folded++
			}
			kept := itemSupports(proj)
			for _, f := range flow.Features() {
				if got, want := distinctValues(kept, f)+proj.Dropped(f), distinctValues(single, f); got != want {
					t.Fatalf("%s: %v has %d kept + dropped values, want %d", label, f, got, want)
				}
			}
			// An item frequent in either dimension survives with both
			// supports; anything else is folded away.
			for it, sup := range single {
				frequent := sup.Flows >= floor || sup.Packets >= floor
				if got, ok := kept[it]; ok != frequent || (ok && got != sup) {
					t.Fatalf("%s: item %v projected to %+v (kept=%v), raw %+v", label, it, got, ok, sup)
				}
				if sup.Flows < floor && sup.Packets >= floor {
					packetOnly++
				}
			}
			absent := absentSupports(proj)
			for _, mult := range []uint64{1, 7} {
				for _, byPackets := range []bool{false, true} {
					opts := miner.Options{MinSupport: mult * floor, ByPackets: byPackets}
					assertProjectionExact(t, fmt.Sprintf("%s opts=%+v", label, opts), ds, proj, opts)
					for _, sup := range absent {
						if byPackets && sup.Packets >= opts.MinSupport || !byPackets && sup.Flows >= opts.MinSupport {
							heavyAbsent++
							break
						}
					}
				}
			}
		}
	}
	if folded == 0 || packetOnly == 0 || heavyAbsent == 0 {
		t.Fatalf("no case folded a row (%d), kept a packet-only item (%d) or had a frequent absent marker (%d)",
			folded, packetOnly, heavyAbsent)
	}
}

// assertProjectionExact mines ds and proj with every miner, fda with
// and without its pre-filter (the only miner that reads it), and compares
// the results; the unfiltered result holds every other one, so its sets
// check SupportAll and Coverage for all of them.
func assertProjectionExact(t *testing.T, label string, ds, proj *itemset.Dataset, opts miner.Options) {
	t.Helper()
	var all []itemset.Set
	for _, name := range miner.Names() {
		m, err := miner.New(name)
		if err != nil {
			t.Fatal(err)
		}
		prefilters := []bool{false}
		if name == "fda" {
			prefilters = append(prefilters, true)
		}
		for _, prefilter := range prefilters {
			opts.Prefilter = prefilter
			want, err := m.Mine(t.Context(), ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.Mine(t.Context(), proj, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s prefilter=%v: projected mined %v, raw %v", label, name, prefilter, got, want)
			}
			if all == nil {
				for i := range want {
					all = append(all, want[i].Items)
				}
			}
		}
	}
	if g, w := proj.SupportAll(all, 0), ds.SupportAll(all, 0); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: projected SupportAll %v, raw %v", label, g, w)
	}
	for _, byPackets := range []bool{false, true} {
		if g, w := proj.Coverage(all, byPackets, 0), ds.Coverage(all, byPackets, 0); g != w {
			t.Fatalf("%s: projected coverage(byPackets=%v) %v, raw %v", label, byPackets, g, w)
		}
	}
}

// scanShapedDataset is n rows from a few hosts, each on its own source
// port with one flow and a handful of packets: at floors above that
// weight the whole srcPort column folds into one absent marker.
func scanShapedDataset(seed uint64, n int) *itemset.Dataset {
	rng := stats.NewRNG(seed)
	txs := make([]itemset.Tx, n)
	for i := range txs {
		r := flow.Record{
			SrcIP:   flow.IP(rng.Intn(3)),
			DstIP:   flow.IP(rng.Intn(3)),
			SrcPort: uint16(1024 + i),
			DstPort: uint16(rng.Intn(4)),
			Proto:   flow.ProtoTCP,
		}
		txs[i] = itemset.Tx{Items: itemset.ItemsOf(&r), Flows: 1, Packets: 1 + uint64(rng.Intn(4))}
	}
	return itemset.FromTxs(txs)
}

// absentSupports returns both supports of every absent marker in ds.
func absentSupports(ds *itemset.Dataset) map[itemset.Item]itemset.DualSupport {
	sup := make(map[itemset.Item]itemset.DualSupport)
	for i := 0; i < ds.Len(); i++ {
		tx := ds.Tx(i)
		for _, it := range tx.Items {
			if it.Absent() {
				s := sup[it]
				s.Flows += tx.Flows
				s.Packets += tx.Packets
				sup[it] = s
			}
		}
	}
	return sup
}

// itemSupports returns both supports of every real (non-absent) item.
func itemSupports(ds *itemset.Dataset) map[itemset.Item]itemset.DualSupport {
	sup := make(map[itemset.Item]itemset.DualSupport)
	for i := 0; i < ds.Len(); i++ {
		tx := ds.Tx(i)
		for _, it := range tx.Items {
			if !it.Absent() {
				s := sup[it]
				s.Flows += tx.Flows
				s.Packets += tx.Packets
				sup[it] = s
			}
		}
	}
	return sup
}

// distinctValues counts the items of feature f in sup.
func distinctValues(sup map[itemset.Item]itemset.DualSupport, f flow.Feature) int {
	n := 0
	for it := range sup {
		if it.Feature() == f {
			n++
		}
	}
	return n
}

// TestOptionsValidate is the contract test for the option validator:
// zero support is the one invalid value, and valid options pass through
// unchanged (zero ByPackets counts flows).
func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name    string
		opts    miner.Options
		wantErr error
	}{
		{name: "zero support", opts: miner.Options{}, wantErr: miner.ErrZeroSupport},
		{name: "zeros inherit defaults", opts: miner.Options{MinSupport: 1}},
		{name: "explicit values kept", opts: miner.Options{MinSupport: 3, ByPackets: true, Prefilter: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			if err := opts.Validate(); !errors.Is(err, tc.wantErr) {
				t.Fatalf("Validate() = %v, want %v", err, tc.wantErr)
			}
			if opts != tc.opts {
				t.Fatalf("Validate() changed the options: %+v, want %+v", opts, tc.opts)
			}
		})
	}
}

// TestPrefilterSubset pins the fda filtering contract: with Prefilter on,
// its result is a subset of the unfiltered canonical result with
// identical supports, still in canonical order, and single-feature
// anomaly concentrations (the shapes extraction feeds it) survive the
// filter.
func TestPrefilterSubset(t *testing.T) {
	m, err := miner.New("fda")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := miner.New("fpgrowth")
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 40; seed++ {
		rng := stats.NewRNG(seed * 104729)
		ds := randomWeightedDataset(seed+500, 10+rng.Intn(150))
		opts := miner.Options{
			MinSupport: uint64(1 + rng.Intn(30)),
			ByPackets:  seed%2 == 0,
		}
		full, err := ref.Mine(t.Context(), ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Prefilter = true
		filtered, err := m.Mine(t.Context(), ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(filtered) > len(full) {
			t.Fatalf("seed %d: filtered result larger than unfiltered (%d > %d)", seed, len(filtered), len(full))
		}
		// Subset with equal supports, order preserved: advance through the
		// canonical full list and match each filtered row in turn.
		j := 0
		for _, fr := range filtered {
			for j < len(full) && !(full[j].Items.Equal(fr.Items) && full[j].Support == fr.Support) {
				j++
			}
			if j == len(full) {
				t.Fatalf("seed %d: filtered itemset %v (support %d) not in unfiltered result in canonical order",
					seed, fr.Items, fr.Support)
			}
			j++
		}
	}
}

// TestCrossMinerCancellation pins every miner to prompt ctx.Err()
// propagation, through Mine and through miner.Prepare: Prepare on a
// cancelled context, and MineAt of a Prepared on one.
func TestCrossMinerCancellation(t *testing.T) {
	ds := randomWeightedDataset(99, 400)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := miner.Options{MinSupport: 1}
	for _, name := range miner.Names() {
		m, err := miner.New(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := miner.MineMaximal(ctx, m, ds, opts); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: got %v, want context.Canceled", name, err)
		}
		if _, err := miner.Prepare(ctx, m, ds, opts); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: Prepare got %v, want context.Canceled", name, err)
		}
		p, err := miner.Prepare(t.Context(), m, ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.MineAt(ctx, opts.MinSupport); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: MineAt got %v, want context.Canceled", name, err)
		}
	}
}

// TestPreparedMatchesMine pins miner.Prepare to Mine on the cross-miner
// battery's 120 datasets. For the FP-growth engine (under "fda", whose
// pre-filter off is the "fpgrowth" path), one Prepared per dimension
// and pre-filter off/on, mined along the self-tuning
// loop's halving sequence from 20% of the total down to the floor, equals
// a fresh Mine at each support and, with the pre-filter off, apriori's —
// which also runs through the adapter miner.Prepare gives a miner without
// a Prepare step. MineAt below the floor is an ErrBelowFloor error.
func TestPreparedMatchesMine(t *testing.T) {
	m, err := miner.New("fda")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := miner.New("apriori")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ref.(miner.Preparer); ok {
		t.Fatal("apriori implements miner.Preparer; the adapter would go untested")
	}
	for seed := uint64(1); seed <= 120; seed++ {
		rng := stats.NewRNG(seed * 7919)
		ds := randomWeightedDataset(seed, 5+rng.Intn(120))
		for _, byPackets := range []bool{false, true} {
			floor := uint64(10) // core.DefaultOptions().SupportFloor
			if byPackets {
				floor *= 25 // the battery's packet scale
			}
			for _, prefilter := range []bool{false, true} {
				opts := miner.Options{MinSupport: floor, ByPackets: byPackets, Prefilter: prefilter}
				label := fmt.Sprintf("seed=%d opts=%+v", seed, opts)
				p, err := miner.Prepare(t.Context(), m, ds, opts)
				if err != nil {
					t.Fatalf("%s: Prepare: %v", label, err)
				}
				refP, err := miner.Prepare(t.Context(), ref, ds, opts)
				if err != nil {
					t.Fatalf("%s: apriori Prepare: %v", label, err)
				}
				for _, prep := range []miner.Prepared{p, refP} {
					if _, err := prep.MineAt(t.Context(), floor-1); !errors.Is(err, miner.ErrBelowFloor) {
						t.Fatalf("%s: MineAt below the floor: got %v, want ErrBelowFloor", label, err)
					}
				}
				for _, minSup := range halvings(ds.Total(byPackets), floor) {
					got, err := p.MineAt(t.Context(), minSup)
					if err != nil {
						t.Fatalf("%s: MineAt(%d): %v", label, minSup, err)
					}
					at := opts
					at.MinSupport = minSup
					want, err := m.Mine(t.Context(), ds, at)
					if err != nil {
						t.Fatalf("%s: Mine(%d): %v", label, minSup, err)
					}
					assertIdentical(t, fmt.Sprintf("%s MineAt(%d) vs Mine", label, minSup), want, got)
					if prefilter {
						continue
					}
					if want, err = refP.MineAt(t.Context(), minSup); err != nil {
						t.Fatal(err)
					}
					assertIdentical(t, fmt.Sprintf("%s MineAt(%d) vs apriori", label, minSup), want, got)
				}
			}
		}
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
