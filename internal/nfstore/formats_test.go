package nfstore

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/flow"
	"repro/internal/nffilter"
)

// twinStores writes the same record stream into a v1 and a v2 store.
func twinStores(t *testing.T, rng *rand.Rand, n, bins int) (v1, v2 *Store) {
	t.Helper()
	mk := func(format uint16) *Store {
		s, err := CreateFormat(t.TempDir(), 300, format)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	v1, v2 = mk(FormatV1), mk(FormatV2)
	span := uint32(bins * 300)
	for i := 0; i < n; i++ {
		r := randRecord(rng, span)
		if err := v1.Add(&r); err != nil {
			t.Fatal(err)
		}
		if err := v2.Add(&r); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range []*Store{v1, v2} {
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return v1, v2
}

// bruteForce is the engine-independent reference: every record of the
// span decoded unfiltered, then matched row by row with Filter.Match.
func bruteForce(all []flow.Record, iv flow.Interval, f *nffilter.Filter) []flow.Record {
	var out []flow.Record
	for i := range all {
		if iv.Contains(all[i].Start) && (f == nil || f.Match(&all[i])) {
			out = append(out, all[i])
		}
	}
	return out
}

// TestCrossFormatEquivalence is the tentpole's pin: across random filters
// and spans, the v2 pruned parallel engine answers Query, Count, TopN and
// Summaries exactly like the v1 serial unpruned engine over the same
// records, and both match row-by-row evaluation. Formats may never change
// what a query returns.
func TestCrossFormatEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	v1, v2 := twinStores(t, rng, 9000, 8)
	all, err := v1.Records(t.Context(), flow.Interval{Start: 0, End: 8 * 300}, nil)
	if err != nil {
		t.Fatal(err)
	}

	for trial := 0; trial < 100; trial++ {
		var f *nffilter.Filter
		if rng.Intn(8) != 0 {
			f = nffilter.FromNode(randFilterNode(rng, 3))
		}
		lo := uint32(rng.Intn(9 * 300))
		hi := lo + uint32(rng.Intn(5*300))
		iv := flow.Interval{Start: lo, End: hi}

		want := collectSerialUnpruned(t, v1, iv, f)
		if ref := bruteForce(all, iv, f); !slices.Equal(want, ref) {
			t.Fatalf("trial %d filter %v iv %v: v1 returned %d records, row-by-row evaluation %d",
				trial, f, iv, len(want), len(ref))
		}

		v2.SetParallelism(4)
		got, err := v2.Records(t.Context(), iv, f)
		v2.SetParallelism(0)
		if err != nil {
			t.Fatalf("trial %d filter %v: %v", trial, f, err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d filter %v iv %v: v2 returned %d records, v1 serial %d",
				trial, f, iv, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d filter %v: record %d differs:\n  v2 %+v\n  v1 %+v",
					trial, f, i, got[i], want[i])
			}
		}

		f1, p1, b1, err := v1.Count(t.Context(), iv, f)
		if err != nil {
			t.Fatal(err)
		}
		f2, p2, b2, err := v2.Count(t.Context(), iv, f)
		if err != nil {
			t.Fatal(err)
		}
		if f1 != f2 || p1 != p2 || b1 != b2 {
			t.Fatalf("trial %d filter %v: Count v2 (%d,%d,%d) != v1 (%d,%d,%d)",
				trial, f, f2, p2, b2, f1, p1, b1)
		}

		if trial%5 == 0 {
			s1, err := v1.Summaries(t.Context(), iv, f)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := v2.Summaries(t.Context(), iv, f)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(s1, s2) {
				t.Fatalf("trial %d filter %v: Summaries diverge:\n  v2 %+v\n  v1 %+v",
					trial, f, s2, s1)
			}
			top1, err := v1.TopN(t.Context(), iv, f, flow.FeatDstPort, ByPackets, 5)
			if err != nil {
				t.Fatal(err)
			}
			top2, err := v2.TopN(t.Context(), iv, f, flow.FeatDstPort, ByPackets, 5)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(top1, top2) {
				t.Fatalf("trial %d filter %v: TopN diverge:\n  v2 %+v\n  v1 %+v",
					trial, f, top2, top1)
			}
		}
	}
}

// TestCrossFormatIter pins the streaming iterator: v2 yields the same
// sequence as v1, and early termination works on both.
func TestCrossFormatIter(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	v1, v2 := twinStores(t, rng, 3000, 4)
	iv := flow.Interval{Start: 150, End: 3 * 300}
	f, err := nffilter.Parse("proto tcp and flags S")
	if err != nil {
		t.Fatal(err)
	}

	collect := func(s *Store, limit int) []flow.Record {
		var out []flow.Record
		for r, err := range s.Iter(t.Context(), iv, f) {
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, *r)
			if limit > 0 && len(out) == limit {
				break
			}
		}
		return out
	}
	want := collect(v1, 0)
	got := collect(v2, 0)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Iter sequences diverge: v2 %d records, v1 %d", len(got), len(want))
	}
	if len(want) > 10 {
		if early := collect(v2, 10); !reflect.DeepEqual(early, want[:10]) {
			t.Fatal("v2 early-terminated Iter diverges from v1 prefix")
		}
	}
}

// TestCrossFormatVectorFallback pins the per-row fallback: a filter the
// vectorized evaluator does not support (an unknown counter field) must
// flow through the scalar path in both formats and still match row-by-row
// evaluation exactly.
func TestCrossFormatVectorFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	v1, v2 := twinStores(t, rng, 2000, 3)
	iv := flow.Interval{Start: 0, End: 3 * 300}
	all, err := v1.Records(t.Context(), iv, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Unknown counter field: value() reads 0, so "?" >= 0 matches all and
	// "?" > 0 matches none — both must agree across formats.
	for _, op := range []nffilter.CmpOp{nffilter.CmpGe, nffilter.CmpGt} {
		node := &nffilter.And{Kids: []nffilter.Node{
			&nffilter.ProtoMatch{Proto: flow.ProtoUDP},
			&nffilter.CounterMatch{Field: nffilter.CounterField(99), Op: op},
		}}
		f := nffilter.FromNode(node)
		if vecSupported(node) {
			t.Fatal("filter must exercise the per-row fallback")
		}
		want := bruteForce(all, iv, f)
		for _, s := range []*Store{v1, v2} {
			got, err := s.Records(t.Context(), iv, f)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("op %v: v%d fallback path returned %d records, row-by-row evaluation %d",
					op, s.SegmentFormat(), len(got), len(want))
			}
		}
	}
}

// TestBlockLevelStatsObservable: a time-ordered multi-block v2 segment
// under a partial-span unfiltered Count shows all three block outcomes —
// early blocks aggregated from their metas, the boundary block scanned,
// later blocks pruned.
func TestBlockLevelStatsObservable(t *testing.T) {
	s, err := CreateFormat(t.TempDir(), 300, FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 4 * blockRecords
	for i := 0; i < n; i++ {
		r := flow.Record{
			Start:   uint32(i * 300 / n), // sorted: blocks cover disjoint start ranges
			SrcIP:   flow.IPFromOctets(10, 0, 0, byte(i%250)),
			DstIP:   flow.IPFromOctets(192, 0, 2, 1),
			Proto:   flow.ProtoUDP,
			DstPort: 53,
			Packets: 2,
			Bytes:   100,
		}
		if err := s.Add(&r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	s.ResetStats()
	iv := flow.Interval{Start: 0, End: 110} // partial bin: sidecar cannot answer alone
	flows, packets, bytes, err := s.Count(t.Context(), iv, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantFlows := uint64(0)
	for i := 0; i < n; i++ {
		if uint32(i*300/n) < 110 {
			wantFlows++
		}
	}
	if flows != wantFlows || packets != 2*wantFlows || bytes != 100*wantFlows {
		t.Fatalf("Count = (%d,%d,%d), want (%d,%d,%d)",
			flows, packets, bytes, wantFlows, 2*wantFlows, 100*wantFlows)
	}
	st := s.Stats()
	if st.BlocksAggregated == 0 {
		t.Errorf("no blocks aggregated from metas: %+v", st)
	}
	if st.BlocksPruned == 0 {
		t.Errorf("no blocks pruned: %+v", st)
	}
	if st.BlocksScanned == 0 {
		t.Errorf("no boundary block scanned: %+v", st)
	}
	// Aggregated blocks must not inflate RecordsScanned.
	if st.RecordsScanned >= n {
		t.Errorf("RecordsScanned = %d, want far fewer than %d", st.RecordsScanned, n)
	}
}

// TestMixedFormatStore: a store holding both v1 and v2 segments (the
// mid-migration state) queries seamlessly across the format boundary.
func TestMixedFormatStore(t *testing.T) {
	dir := t.TempDir()
	s, err := CreateFormat(dir, 300, FormatV1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	var all []flow.Record
	add := func(bin int) {
		for i := 0; i < 700; i++ {
			r := randRecord(rng, 300)
			r.Start += uint32(bin * 300)
			all = append(all, r)
			if err := s.Add(&r); err != nil {
				t.Fatal(err)
			}
		}
	}
	add(0) // bin 0 in v1
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.SetSegmentFormat(FormatV2); err != nil {
		t.Fatal(err)
	}
	add(1) // bin 1 in v2
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	counts, err := s.SegmentFormats()
	if err != nil {
		t.Fatal(err)
	}
	if counts[FormatV1] != 1 || counts[FormatV2] != 1 {
		t.Fatalf("SegmentFormats = %v, want one of each", counts)
	}

	iv := flow.Interval{Start: 0, End: 600}
	got, err := s.Records(t.Context(), iv, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(all) {
		t.Fatalf("mixed store returned %d records, want %d", len(got), len(all))
	}

	// Appending to an existing segment keeps that segment's format, not
	// the store default.
	add(0)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	counts, err = s.SegmentFormats()
	if err != nil {
		t.Fatal(err)
	}
	if counts[FormatV1] != 1 || counts[FormatV2] != 1 {
		t.Fatalf("after append, SegmentFormats = %v, want still one of each", counts)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the mixed store reads back whole.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err = s2.Records(t.Context(), iv, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(all) {
		t.Fatalf("reopened mixed store returned %d records, want %d", len(got), len(all))
	}
}
