package nfstore

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/flow"
	"repro/internal/nffilter"
)

// mustFilter parses a constant filter expression.
func mustFilter(t *testing.T, expr string) *nffilter.Filter {
	t.Helper()
	f, err := nffilter.Parse(expr)
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	return f
}

func testRecord(start uint32, srcLast byte, dstPort uint16, packets uint64) flow.Record {
	return flow.Record{
		Start:   start,
		Dur:     1000,
		SrcIP:   flow.IPFromOctets(10, 0, 0, srcLast),
		DstIP:   flow.MustParseIP("192.0.2.1"),
		SrcPort: 40000,
		DstPort: dstPort,
		Proto:   flow.ProtoTCP,
		Flags:   flow.TCPSyn,
		Router:  1,
		Packets: packets,
		Bytes:   packets * 40,
	}
}

func newTestStore(t *testing.T) *Store {
	t.Helper()
	s, err := CreateFormat(t.TempDir(), 300, DefaultSegmentFormat)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(start, dur, src, dst uint32, sp, dp, router, anno uint16, proto, flags uint8, pk, by uint64) bool {
		in := flow.Record{
			Start: start, Dur: dur,
			SrcIP: flow.IP(src), DstIP: flow.IP(dst),
			SrcPort: sp, DstPort: dp,
			Proto: flow.Protocol(proto), Flags: flags,
			Router: router, Anno: flow.Annotation(anno),
			Packets: pk, Bytes: by,
		}
		var buf [RecordSize]byte
		encodeRecord(buf[:], &in)
		var (
			b   Batch
			out flow.Record
		)
		DecodeRecords(buf[:], nffilter.AllColumns, &b)
		b.Record(0, &out)
		return b.Len() == 1 && in == out
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCreateOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := CreateFormat(dir, 600, DefaultSegmentFormat)
	if err != nil {
		t.Fatal(err)
	}
	r := testRecord(1200, 1, 80, 5)
	if err := s.Add(&r); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.BinSeconds() != 600 {
		t.Fatalf("BinSeconds = %d", s2.BinSeconds())
	}
	got, err := s2.Records(t.Context(), flow.Interval{Start: 0, End: 10000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != r {
		t.Fatalf("reopened store returned %+v", got)
	}
}

func TestCreateRefusesExisting(t *testing.T) {
	dir := t.TempDir()
	if _, err := CreateFormat(dir, 300, DefaultSegmentFormat); err != nil {
		t.Fatal(err)
	}
	if _, err := CreateFormat(dir, 300, DefaultSegmentFormat); err == nil {
		t.Fatal("second Create must fail")
	}
}

func TestOpenMissing(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("Open of missing store must fail")
	}
}

func TestAddValidates(t *testing.T) {
	s := newTestStore(t)
	bad := testRecord(0, 1, 80, 0) // zero packets
	if err := s.Add(&bad); err == nil {
		t.Fatal("Add must reject invalid records")
	}
}

func TestBinRouting(t *testing.T) {
	s := newTestStore(t)
	// Three records across two 300 s bins.
	for _, start := range []uint32{100, 299, 300} {
		r := testRecord(start, 1, 80, 2)
		if err := s.Add(&r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	bins, err := s.Bins()
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 2 || bins[0] != 0 || bins[1] != 300 {
		t.Fatalf("Bins = %v", bins)
	}
	span, ok, err := s.Span()
	if err != nil || !ok {
		t.Fatalf("Span: %v %v", ok, err)
	}
	if span.Start != 0 || span.End != 600 {
		t.Fatalf("Span = %+v", span)
	}
	// Interval query must honor record-level bounds, not only bins.
	got, err := s.Records(t.Context(), flow.Interval{Start: 200, End: 301}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("window query returned %d records, want 2", len(got))
	}
}

func TestQueryFilterPushdown(t *testing.T) {
	s := newTestStore(t)
	for i := 0; i < 50; i++ {
		port := uint16(80)
		if i%2 == 1 {
			port = 443
		}
		r := testRecord(uint32(10+i), byte(i), port, 3)
		if err := s.Add(&r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	iv := flow.Interval{Start: 0, End: 1000}
	got, err := s.Records(t.Context(), iv, mustFilter(t, "dst port 80"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 25 {
		t.Fatalf("filtered query returned %d, want 25", len(got))
	}
	flows, packets, bytes, err := s.Count(t.Context(), iv, mustFilter(t, "dst port 443"))
	if err != nil {
		t.Fatal(err)
	}
	if flows != 25 || packets != 75 || bytes != 75*40 {
		t.Fatalf("Count = %d flows %d packets %d bytes", flows, packets, bytes)
	}
}

func TestQueryEarlyStop(t *testing.T) {
	s := newTestStore(t)
	for i := 0; i < 10; i++ {
		r := testRecord(uint32(i), byte(i), 80, 1)
		if err := s.Add(&r); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	n := 0
	err := s.Query(t.Context(), flow.Interval{Start: 0, End: 100}, nil, func(*flow.Record) error {
		n++
		if n == 3 {
			return ErrStopIteration
		}
		return nil
	})
	if err != nil {
		t.Fatalf("early stop must not surface an error: %v", err)
	}
	if n != 3 {
		t.Fatalf("callback ran %d times, want 3", n)
	}
}

func TestQueryReusesRecord(t *testing.T) {
	s := newTestStore(t)
	for i := 0; i < 3; i++ {
		r := testRecord(uint32(i), byte(i), 80, 1)
		s.Add(&r)
	}
	s.Flush()
	var ptrs []*flow.Record
	s.Query(t.Context(), flow.Interval{Start: 0, End: 100}, nil, func(r *flow.Record) error {
		ptrs = append(ptrs, r)
		return nil
	})
	if len(ptrs) == 3 && !(ptrs[0] == ptrs[1] && ptrs[1] == ptrs[2]) {
		t.Fatal("documented contract: the record pointer is reused across calls")
	}
}

func TestTruncatedSegmentDetected(t *testing.T) {
	dir := t.TempDir()
	s, err := CreateFormat(dir, 300, DefaultSegmentFormat)
	if err != nil {
		t.Fatal(err)
	}
	r := testRecord(10, 1, 80, 1)
	s.Add(&r)
	s.Close()
	// Truncate the tail of the single segment.
	path := s.segPath(0)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-5); err != nil {
		t.Fatal(err)
	}
	err = s.Query(t.Context(), flow.Interval{Start: 0, End: 100}, nil, func(*flow.Record) error { return nil })
	if err == nil {
		t.Fatal("truncated segment must be reported")
	}
}

func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	s, err := CreateFormat(dir, 300, DefaultSegmentFormat)
	if err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(dir, "README"), []byte("hi"), 0o644)
	os.WriteFile(filepath.Join(dir, segPrefix+"garbage"), []byte("hi"), 0o644)
	bins, err := s.Bins()
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 0 {
		t.Fatalf("Bins should ignore foreign files, got %v", bins)
	}
}

func TestAppendAfterReopen(t *testing.T) {
	dir := t.TempDir()
	s, _ := CreateFormat(dir, 300, DefaultSegmentFormat)
	r1 := testRecord(10, 1, 80, 1)
	s.Add(&r1)
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r2 := testRecord(20, 2, 443, 2)
	if err := s2.Add(&r2); err != nil {
		t.Fatal(err)
	}
	s2.Close()

	got, err := s2.Records(t.Context(), flow.Interval{Start: 0, End: 300}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("after reopen+append, %d records, want 2", len(got))
	}
}

func TestTopN(t *testing.T) {
	s := newTestStore(t)
	// Port 80: 10 flows of 1 packet. Port 443: 2 flows of 100 packets.
	for i := 0; i < 10; i++ {
		r := testRecord(uint32(i), byte(i), 80, 1)
		s.Add(&r)
	}
	for i := 0; i < 2; i++ {
		r := testRecord(uint32(20+i), byte(100+i), 443, 100)
		s.Add(&r)
	}
	s.Flush()
	iv := flow.Interval{Start: 0, End: 300}

	byFlows, err := s.TopN(t.Context(), iv, nil, flow.FeatDstPort, ByFlows, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(byFlows) != 1 || byFlows[0].Value != 80 || byFlows[0].Count != 10 {
		t.Fatalf("TopN by flows = %+v", byFlows)
	}

	byPackets, err := s.TopN(t.Context(), iv, nil, flow.FeatDstPort, ByPackets, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(byPackets) != 1 || byPackets[0].Value != 443 || byPackets[0].Count != 200 {
		t.Fatalf("TopN by packets = %+v", byPackets)
	}
}

func TestSummaries(t *testing.T) {
	s := newTestStore(t)
	for _, start := range []uint32{10, 20, 310} {
		r := testRecord(start, 1, 80, 5)
		s.Add(&r)
	}
	s.Flush()
	sums, err := s.Summaries(t.Context(), flow.Interval{Start: 0, End: 600}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 2 {
		t.Fatalf("got %d summaries, want 2", len(sums))
	}
	if sums[0].Flows != 2 || sums[0].Packets != 10 {
		t.Fatalf("bin 0 summary = %+v", sums[0])
	}
	if sums[1].Flows != 1 {
		t.Fatalf("bin 1 summary = %+v", sums[1])
	}
}

func TestWeightOf(t *testing.T) {
	r := testRecord(0, 1, 80, 7)
	if ByFlows.Of(&r) != 1 || ByPackets.Of(&r) != 7 || ByBytes.Of(&r) != 280 {
		t.Fatal("Weight.Of wrong")
	}
	if ByFlows.String() != "flows" || ByPackets.String() != "packets" || ByBytes.String() != "bytes" {
		t.Fatal("Weight.String wrong")
	}
}

// TestAddAllStopsAtInvalidRecord: an invalid record at index k of a
// batch fails AddAll with an error naming record k, the records before
// it stay appended, and none after it is stored — at a lock-run boundary
// (k = blockRecords) and away from one.
func TestAddAllStopsAtInvalidRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range []int{0, blockRecords - 1, blockRecords, 7777, 9999} {
		s := newTestStore(t)
		recs := make([]flow.Record, 10_000)
		for i := range recs {
			recs[i] = randRecord(rng, 3*300)
		}
		recs[k].Packets = 0
		err := s.AddAll(recs)
		if err == nil || !strings.HasPrefix(err.Error(), fmt.Sprintf("record %d: ", k)) {
			t.Fatalf("k=%d: AddAll error %v, want one naming record %d", k, err, k)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		got, err := s.Records(t.Context(), flow.Interval{Start: 0, End: 3 * 300}, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Records come back in bin order, each bin in append order.
		var want []flow.Record
		for bin := uint32(0); bin < 3*300; bin += 300 {
			for _, r := range recs[:k] {
				if s.binStart(r.Start) == bin {
					want = append(want, r)
				}
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("k=%d: read %d records back, want exactly the %d before record k", k, len(got), len(want))
		}
	}
}
