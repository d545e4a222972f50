package nfstore

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/flow"
	"repro/internal/nffilter"
)

// randRecord draws a record whose fields cluster enough for filters to
// select non-trivially: a few dozen hosts, a handful of ports and
// protocols, heavy-tailed counters.
func randRecord(rng *rand.Rand, span uint32) flow.Record {
	protos := []flow.Protocol{flow.ProtoTCP, flow.ProtoUDP, flow.ProtoICMP, 47}
	ports := []uint16{22, 53, 80, 443, 8080, uint16(rng.Intn(65536))}
	r := flow.Record{
		Start:   uint32(rng.Intn(int(span))),
		Dur:     uint32(rng.Intn(10_000)),
		SrcIP:   flow.IPFromOctets(10, 0, byte(rng.Intn(4)), byte(rng.Intn(40))),
		DstIP:   flow.IPFromOctets(192, 0, 2, byte(rng.Intn(40))),
		SrcPort: ports[rng.Intn(len(ports))],
		DstPort: ports[rng.Intn(len(ports))],
		Proto:   protos[rng.Intn(len(protos))],
		Router:  uint16(rng.Intn(4)),
		Packets: uint64(1 + rng.Intn(1000)),
	}
	r.Bytes = r.Packets * uint64(40+rng.Intn(1400))
	if r.Proto == flow.ProtoTCP {
		r.Flags = uint8(rng.Intn(64))
	}
	return r
}

// randFilterStore fills a store with n random records over bins*300
// seconds and returns the records' span.
func randFilterStore(t *testing.T, rng *rand.Rand, n, bins int) *Store {
	t.Helper()
	s, err := CreateFormat(t.TempDir(), 300, DefaultSegmentFormat)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	span := uint32(bins * 300)
	for i := 0; i < n; i++ {
		r := randRecord(rng, span)
		if err := s.Add(&r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return s
}

// randPredicate builds one random leaf predicate.
func randPredicate(rng *rand.Rand) nffilter.Node {
	dir := nffilter.Dir(rng.Intn(3))
	op := nffilter.CmpOp(rng.Intn(6))
	switch rng.Intn(7) {
	case 0:
		return &nffilter.IPMatch{Dir: dir,
			Addr: flow.IPFromOctets(10, 0, byte(rng.Intn(4)), byte(rng.Intn(48)))}
	case 1:
		bits := 8 * (1 + rng.Intn(4))
		return &nffilter.NetMatch{Dir: dir,
			Prefix: flow.Prefix{Addr: flow.IPFromOctets(10, 0, byte(rng.Intn(4)), 0), Bits: bits}.Masked()}
	case 2:
		ports := []uint16{22, 53, 80, 443, 8080, uint16(rng.Intn(65536))}
		return &nffilter.PortMatch{Dir: dir, Op: op, Port: ports[rng.Intn(len(ports))]}
	case 3:
		protos := []flow.Protocol{flow.ProtoTCP, flow.ProtoUDP, flow.ProtoICMP, 47, 50}
		return &nffilter.ProtoMatch{Proto: protos[rng.Intn(len(protos))]}
	case 4:
		fields := []nffilter.CounterField{nffilter.FieldPackets, nffilter.FieldBytes,
			nffilter.FieldDuration, nffilter.FieldRouter}
		return &nffilter.CounterMatch{Field: fields[rng.Intn(len(fields))], Op: op,
			Value: uint64(rng.Intn(2000))}
	case 5:
		return &nffilter.FlagsMatch{Mask: uint8(rng.Intn(64))}
	default:
		return nffilter.Any{}
	}
}

// randFilterNode builds a random AST of bounded depth.
func randFilterNode(rng *rand.Rand, depth int) nffilter.Node {
	if depth <= 0 || rng.Intn(3) == 0 {
		return randPredicate(rng)
	}
	switch rng.Intn(3) {
	case 0:
		kids := make([]nffilter.Node, 1+rng.Intn(3))
		for i := range kids {
			kids[i] = randFilterNode(rng, depth-1)
		}
		return &nffilter.And{Kids: kids}
	case 1:
		kids := make([]nffilter.Node, 1+rng.Intn(3))
		for i := range kids {
			kids[i] = randFilterNode(rng, depth-1)
		}
		return &nffilter.Or{Kids: kids}
	default:
		return &nffilter.Not{Kid: randFilterNode(rng, depth-1)}
	}
}

// collectSerialUnpruned is the reference scan: pruning off, one worker.
func collectSerialUnpruned(t *testing.T, s *Store, iv flow.Interval, f *nffilter.Filter) []flow.Record {
	t.Helper()
	s.SetPruning(false)
	s.par.Store(1)
	defer func() {
		s.SetPruning(true)
		s.par.Store(0)
	}()
	recs, err := s.Records(t.Context(), iv, f)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestQueryPrunedParallelEquivalence is the engine's core property: for
// random filters and spans, the pruned parallel scan returns exactly the
// serial unpruned scan's records, in the same order, and Count agrees.
func TestQueryPrunedParallelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := randFilterStore(t, rng, 6000, 8)

	for trial := 0; trial < 120; trial++ {
		var f *nffilter.Filter
		if rng.Intn(8) != 0 { // occasionally a nil (match-all) filter
			f = nffilter.FromNode(randFilterNode(rng, 3))
		}
		lo := uint32(rng.Intn(9 * 300))
		hi := lo + uint32(rng.Intn(5*300))
		iv := flow.Interval{Start: lo, End: hi}

		want := collectSerialUnpruned(t, s, iv, f)

		s.par.Store(4)
		got, err := s.Records(t.Context(), iv, f)
		s.par.Store(0)
		if err != nil {
			t.Fatalf("trial %d filter %v: %v", trial, f, err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d filter %v iv %v: pruned+parallel returned %d records, serial %d",
				trial, f, iv, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d filter %v: record %d differs:\n got %+v\nwant %+v",
					trial, f, i, got[i], want[i])
			}
		}

		// Count must agree with the materialized records even when it
		// answers some segments from sidecars alone.
		flows, packets, bytes, err := s.Count(t.Context(), iv, f)
		if err != nil {
			t.Fatalf("trial %d: Count: %v", trial, err)
		}
		var wantPk, wantBy uint64
		for i := range want {
			wantPk += want[i].Packets
			wantBy += want[i].Bytes
		}
		if flows != uint64(len(want)) || packets != wantPk || bytes != wantBy {
			t.Fatalf("trial %d filter %v: Count = (%d,%d,%d), want (%d,%d,%d)",
				trial, f, flows, packets, bytes, len(want), wantPk, wantBy)
		}
	}
}

// TestAggregationsEquivalence checks TopN and Summaries against the
// serial-unpruned engine across random filters.
func TestAggregationsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := randFilterStore(t, rng, 3000, 6)
	iv := flow.Interval{Start: 0, End: 6 * 300}

	for trial := 0; trial < 40; trial++ {
		var f *nffilter.Filter
		if rng.Intn(6) != 0 {
			f = nffilter.FromNode(randFilterNode(rng, 2))
		}

		s.SetPruning(false)
		s.par.Store(1)
		wantTop, err := s.TopN(t.Context(), iv, f, flow.FeatDstPort, ByPackets, 5)
		if err != nil {
			t.Fatal(err)
		}
		wantSums, err := s.Summaries(t.Context(), iv, f)
		if err != nil {
			t.Fatal(err)
		}
		s.SetPruning(true)
		s.par.Store(3)

		gotTop, err := s.TopN(t.Context(), iv, f, flow.FeatDstPort, ByPackets, 5)
		if err != nil {
			t.Fatal(err)
		}
		gotSums, err := s.Summaries(t.Context(), iv, f)
		if err != nil {
			t.Fatal(err)
		}
		s.par.Store(0)

		if fmt.Sprint(gotTop) != fmt.Sprint(wantTop) {
			t.Fatalf("trial %d filter %v: TopN\n got %v\nwant %v", trial, f, gotTop, wantTop)
		}
		if fmt.Sprint(gotSums) != fmt.Sprint(wantSums) {
			t.Fatalf("trial %d filter %v: Summaries\n got %v\nwant %v", trial, f, gotSums, wantSums)
		}
	}
}

// TestPruningObservable asserts the scan-stats counters actually show
// segments being skipped for a selective filter and pushed down for an
// unfiltered Count.
func TestPruningObservable(t *testing.T) {
	s := newTestStore(t)
	// 10 bins of port-80 traffic from 10.0.0.x; one bin also holds flows
	// from a distinctive source.
	needle := flow.MustParseIP("172.16.9.9")
	for b := 0; b < 10; b++ {
		for i := 0; i < 50; i++ {
			r := testRecord(uint32(b*300+i), byte(i), 80, 2)
			if err := s.Add(&r); err != nil {
				t.Fatal(err)
			}
		}
	}
	hot := testRecord(5*300+7, 1, 80, 2)
	hot.SrcIP = needle
	if err := s.Add(&hot); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	iv := flow.Interval{Start: 0, End: 3000}

	s.ResetStats()
	got, err := s.Records(t.Context(), iv, mustFilter(t, "src ip 172.16.9.9"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != hot {
		t.Fatalf("selective query returned %v", got)
	}
	st := s.Stats()
	if st.SegmentsConsidered != 10 {
		t.Fatalf("considered %d segments, want 10", st.SegmentsConsidered)
	}
	if st.SegmentsPruned != 9 {
		t.Fatalf("pruned %d segments, want 9 (stats %+v)", st.SegmentsPruned, st)
	}
	if st.SegmentsScanned != 1 {
		t.Fatalf("scanned %d segments, want 1", st.SegmentsScanned)
	}

	// Unfiltered Count over the full span: all sidecar, no scan.
	s.ResetStats()
	flows, _, _, err := s.Count(t.Context(), iv, nil)
	if err != nil {
		t.Fatal(err)
	}
	if flows != 501 {
		t.Fatalf("Count = %d, want 501", flows)
	}
	st = s.Stats()
	if st.SegmentsAggregated != 10 || st.SegmentsScanned != 0 || st.RecordsScanned != 0 {
		t.Fatalf("unfiltered Count should be pure pushdown, stats %+v", st)
	}

	// Fully-covered filter ("proto tcp" when the store is all-TCP): still
	// pure pushdown.
	s.ResetStats()
	flows, _, _, err = s.Count(t.Context(), iv, mustFilter(t, "proto tcp"))
	if err != nil {
		t.Fatal(err)
	}
	if flows != 501 {
		t.Fatalf("proto tcp Count = %d, want 501", flows)
	}
	if st = s.Stats(); st.SegmentsAggregated != 10 || st.SegmentsScanned != 0 {
		t.Fatalf("covered-filter Count should push down, stats %+v", st)
	}
}

// TestParallelEarlyStopAndReuse checks ErrStopIteration semantics and the
// reused-record contract under the parallel merger.
func TestParallelEarlyStopAndReuse(t *testing.T) {
	s := cancelStore(t, 4, 2000)
	s.par.Store(4)
	defer s.par.Store(0)

	n := 0
	var ptrs map[*flow.Record]bool
	err := s.Query(t.Context(), flow.Interval{Start: 0, End: 1200}, nil, func(r *flow.Record) error {
		if ptrs == nil {
			ptrs = map[*flow.Record]bool{}
		}
		ptrs[r] = true
		n++
		if n == 700 {
			return ErrStopIteration
		}
		return nil
	})
	if err != nil {
		t.Fatalf("early stop surfaced error: %v", err)
	}
	if n != 700 {
		t.Fatalf("callback ran %d times, want 700", n)
	}
	if len(ptrs) != 1 {
		t.Fatalf("parallel merge used %d distinct record pointers, contract says 1", len(ptrs))
	}
}
