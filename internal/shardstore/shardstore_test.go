package shardstore

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/flow"
	"repro/internal/itemset"
	"repro/internal/nffilter"
	"repro/internal/nfstore"
)

const testBinSec = 300

// genRecords builds a deterministic mixed trace: several routers (so
// hash partitioning spreads), several protocols and ports (so filters
// select real subsets), spread over span seconds.
func genRecords(seed int64, n, span int) []flow.Record {
	rng := rand.New(rand.NewSource(seed))
	protos := []flow.Protocol{flow.ProtoTCP, flow.ProtoUDP, flow.ProtoICMP}
	ports := []uint16{22, 53, 80, 443, 8080}
	recs := make([]flow.Record, n)
	for i := range recs {
		r := flow.Record{
			Start:   uint32(rng.Intn(span)),
			Dur:     uint32(rng.Intn(5000)),
			SrcIP:   flow.IPFromOctets(10, byte(rng.Intn(4)), byte(rng.Intn(8)), byte(rng.Intn(50))),
			DstIP:   flow.IPFromOctets(192, 0, 2, byte(rng.Intn(30))),
			SrcPort: ports[rng.Intn(len(ports))],
			DstPort: ports[rng.Intn(len(ports))],
			Proto:   protos[rng.Intn(len(protos))],
			Router:  uint16(rng.Intn(16)),
			Packets: uint64(1 + rng.Intn(500)),
		}
		r.Bytes = r.Packets * uint64(40+rng.Intn(1000))
		recs[i] = r
	}
	return recs
}

// buildPair fills a single store and a sharded store with the same
// records and returns both (closed via t.Cleanup).
func buildPair(t *testing.T, recs []flow.Record, shards int, partition string, format uint16) (*nfstore.Store, *ShardedStore) {
	t.Helper()
	single, err := nfstore.CreateFormat(filepath.Join(t.TempDir(), "single"), testBinSec, format)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { single.Close() })
	sharded, err := Create(filepath.Join(t.TempDir(), "sharded"), testBinSec, shards, partition, format)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sharded.Close() })
	if err := single.AddAll(recs); err != nil {
		t.Fatal(err)
	}
	if err := sharded.AddAll(recs); err != nil {
		t.Fatal(err)
	}
	if err := single.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := sharded.Flush(); err != nil {
		t.Fatal(err)
	}
	return single, sharded
}

func mustFilter(t *testing.T, expr string) *nffilter.Filter {
	t.Helper()
	if expr == "" {
		return nil
	}
	f, err := nffilter.Parse(expr)
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	return f
}

// recordLess is a total order over records for multiset comparison.
func recordLess(a, b *flow.Record) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	if a.SrcIP != b.SrcIP {
		return a.SrcIP < b.SrcIP
	}
	if a.DstIP != b.DstIP {
		return a.DstIP < b.DstIP
	}
	if a.SrcPort != b.SrcPort {
		return a.SrcPort < b.SrcPort
	}
	if a.DstPort != b.DstPort {
		return a.DstPort < b.DstPort
	}
	if a.Router != b.Router {
		return a.Router < b.Router
	}
	if a.Packets != b.Packets {
		return a.Packets < b.Packets
	}
	return a.Bytes < b.Bytes
}

func sortedCopy(rs []flow.Record) []flow.Record {
	out := append([]flow.Record(nil), rs...)
	sort.Slice(out, func(i, j int) bool { return recordLess(&out[i], &out[j]) })
	return out
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

// TestShardedParity is the property test of the scatter-gather engine:
// across shard counts, partition schemes, segment formats, filters and
// spans, every read of the sharded store must agree with the single
// merged store — Query exactly (byte-identical order for time
// partitioning, multiset-identical for hash), Count/Summaries/TopN and
// itemset support exactly in all cases.
func TestShardedParity(t *testing.T) {
	recs := genRecords(7, 4000, 6*testBinSec)
	span := flow.Interval{Start: 0, End: 6 * testBinSec}
	filters := []string{
		"",
		"proto udp",
		"proto tcp and dst port 80",
		"src net 10.0.0.0/8 and packets > 250",
		"dst port 53 or dst port 443",
	}
	spans := []flow.Interval{
		span,
		{Start: testBinSec, End: 2 * testBinSec},
		{Start: 150, End: 450},
		{Start: 2*testBinSec + 10, End: 5 * testBinSec},
		{Start: 5000, End: 5000}, // empty
	}
	ctx := context.Background()
	for _, shards := range []int{1, 2, 4, 7} {
		for _, partition := range []string{PartitionTime, PartitionHash} {
			for _, format := range []uint16{nfstore.FormatV1, nfstore.FormatV2} {
				t.Run(fmt.Sprintf("s%d-%s-v%d", shards, partition, format), func(t *testing.T) {
					single, sharded := buildPair(t, recs, shards, partition, format)
					// Force the parallel cell merge regardless of host core
					// count — the serial path is covered by the v1 runs.
					if format == nfstore.FormatV2 {
						sharded.par.Store(4)
					}
					for _, expr := range filters {
						filter := mustFilter(t, expr)
						for _, iv := range spans {
							label := fmt.Sprintf("filter %q span %v", expr, iv)
							wantRecs, err := single.Records(ctx, iv, filter)
							if err != nil {
								t.Fatal(err)
							}
							gotRecs, err := sharded.Records(ctx, iv, filter)
							if err != nil {
								t.Fatal(err)
							}
							if partition == PartitionTime {
								// Whole bins land on one shard: the cell merge
								// reproduces the single store's order exactly.
								if !reflect.DeepEqual(gotRecs, wantRecs) {
									t.Fatalf("%s: time-partitioned query order diverged (%d vs %d records)",
										label, len(gotRecs), len(wantRecs))
								}
							} else if !reflect.DeepEqual(sortedCopy(gotRecs), sortedCopy(wantRecs)) {
								t.Fatalf("%s: hash-partitioned query multiset diverged (%d vs %d records)",
									label, len(gotRecs), len(wantRecs))
							}

							wf, wp, wb, err := single.Count(ctx, iv, filter)
							if err != nil {
								t.Fatal(err)
							}
							gf, gp, gb, err := sharded.Count(ctx, iv, filter)
							if err != nil {
								t.Fatal(err)
							}
							if gf != wf || gp != wp || gb != wb {
								t.Fatalf("%s: count (%d,%d,%d) != (%d,%d,%d)", label, gf, gp, gb, wf, wp, wb)
							}

							wantSums, err := single.Summaries(ctx, iv, filter)
							if err != nil {
								t.Fatal(err)
							}
							gotSums, err := sharded.Summaries(ctx, iv, filter)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(gotSums, wantSums) {
								t.Fatalf("%s: summaries diverged:\n got %+v\nwant %+v", label, gotSums, wantSums)
							}

							wantTop, err := single.TopN(ctx, iv, filter, flow.FeatSrcIP, nfstore.ByFlows, 5)
							if err != nil {
								t.Fatal(err)
							}
							gotTop, err := sharded.TopN(ctx, iv, filter, flow.FeatSrcIP, nfstore.ByFlows, 5)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(gotTop, wantTop) {
								t.Fatalf("%s: topn diverged:\n got %+v\nwant %+v", label, gotTop, wantTop)
							}

							// Itemset support over the gathered records must be
							// identical — the miner sits right on this path.
							sets := []itemset.Set{
								itemset.NewSet(itemset.NewItem(flow.FeatDstPort, 80)),
								itemset.NewSet(itemset.NewItem(flow.FeatProto, uint32(flow.ProtoUDP))),
								itemset.NewSet(itemset.NewItem(flow.FeatDstPort, 53),
									itemset.NewItem(flow.FeatProto, uint32(flow.ProtoUDP))),
							}
							wantSup := datasetOf(wantRecs).SupportAll(sets, 2)
							gotSup := datasetOf(gotRecs).SupportAll(sets, 2)
							if !reflect.DeepEqual(gotSup, wantSup) {
								t.Fatalf("%s: SupportAll diverged:\n got %+v\nwant %+v", label, gotSup, wantSup)
							}
						}
					}

					// Whole-store geometry.
					wantBins, err := single.Bins()
					if err != nil {
						t.Fatal(err)
					}
					gotBins, err := sharded.Bins()
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(gotBins, wantBins) {
						t.Fatalf("bins %v != %v", gotBins, wantBins)
					}
					wantSpan, wantOK, err := single.Span()
					if err != nil {
						t.Fatal(err)
					}
					gotSpan, gotOK, err := sharded.Span()
					if err != nil {
						t.Fatal(err)
					}
					if gotSpan != wantSpan || gotOK != wantOK {
						t.Fatalf("span %v/%v != %v/%v", gotSpan, gotOK, wantSpan, wantOK)
					}
				})
			}
		}
	}
}

// TestShardedOpenRoundTrip closes and reopens a sharded store from its
// manifest and checks the data survived, plus manifest validation.
func TestShardedOpenRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	recs := genRecords(11, 500, 3*testBinSec)
	sh, err := Create(dir, testBinSec, 3, PartitionHash, nfstore.FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.AddAll(recs); err != nil {
		t.Fatal(err)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}

	if !IsShardedDir(dir) {
		t.Fatal("IsShardedDir = false for a sharded store")
	}
	dirs, err := ShardDirs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 3 {
		t.Fatalf("ShardDirs = %v, want 3 entries", dirs)
	}

	sh2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sh2.Close()
	if sh2.manifest.Partition != PartitionHash || sh2.manifest.Shards != 3 {
		t.Fatalf("manifest round-trip = %+v", sh2.manifest)
	}
	flows, _, _, err := sh2.Count(context.Background(), flow.Interval{Start: 0, End: ^uint32(0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if flows != uint64(len(recs)) {
		t.Fatalf("reopened store holds %d flows, want %d", flows, len(recs))
	}
}

// TestShardedQueryEarlyStop verifies ErrStopIteration propagates through
// the cell merge: the query ends cleanly after the callback stops.
func TestShardedQueryEarlyStop(t *testing.T) {
	recs := genRecords(3, 1000, 4*testBinSec)
	_, sharded := buildPair(t, recs, 4, PartitionHash, nfstore.FormatV2)
	sharded.par.Store(4) // exercise the parallel merge path
	seen := 0
	err := sharded.Query(context.Background(), flow.Interval{Start: 0, End: 4 * testBinSec}, nil,
		func(*flow.Record) error {
			seen++
			if seen == 7 {
				return nfstore.ErrStopIteration
			}
			return nil
		})
	if err != nil {
		t.Fatalf("early stop surfaced as error: %v", err)
	}
	if seen != 7 {
		t.Fatalf("callback ran %d times, want 7", seen)
	}
}

// TestShardedQueryCallbackError verifies a real callback error comes
// back verbatim, not wrapped in a ShardError, serially and in parallel,
// and is not mistaken for a shard failure that degraded mode skips.
func TestShardedQueryCallbackError(t *testing.T) {
	recs := genRecords(5, 200, 2*testBinSec)
	_, sharded := buildPair(t, recs, 2, PartitionTime, nfstore.FormatV1)
	boom := errors.New("boom")
	for _, k := range []int32{1, 2} {
		for _, degraded := range []bool{false, true} {
			sharded.par.Store(k)
			sharded.SetDegraded(degraded)
			err := sharded.Query(context.Background(), flow.Interval{Start: 0, End: 2 * testBinSec}, nil,
				func(*flow.Record) error { return boom })
			if !errors.Is(err, boom) {
				t.Fatalf("k=%d degraded=%v: err = %v, want boom", k, degraded, err)
			}
			var se *ShardError
			if errors.As(err, &se) {
				t.Fatalf("k=%d degraded=%v: callback error wrapped in ShardError: %v", k, degraded, err)
			}
		}
	}
}

// TestShardFor pins the routing invariants: hash ignores time, time
// ignores router, and both are stable for identical inputs.
func TestShardFor(t *testing.T) {
	sh, err := Create(filepath.Join(t.TempDir(), "s"), testBinSec, 4, PartitionHash, nfstore.FormatV1)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	a := flow.Record{Router: 7, Start: 0, Packets: 1, Bytes: 1, SrcIP: 1, DstIP: 2}
	b := a
	b.Start = 5 * testBinSec
	if sh.shardFor(&a) != sh.shardFor(&b) {
		t.Error("hash partitioning must ignore time")
	}
	c := a
	c.Router = 8
	// Not a strict requirement that 7 and 8 differ, but identical inputs
	// must be stable.
	if sh.shardFor(&a) != sh.shardFor(&a) {
		t.Error("hash routing not deterministic")
	}
	_ = c

	tsh, err := Create(filepath.Join(t.TempDir(), "t"), testBinSec, 4, PartitionTime, nfstore.FormatV1)
	if err != nil {
		t.Fatal(err)
	}
	defer tsh.Close()
	for bin := 0; bin < 8; bin++ {
		r := flow.Record{Start: uint32(bin * testBinSec), Router: uint16(bin), Packets: 1, Bytes: 1, SrcIP: 1, DstIP: 2}
		if got, want := tsh.shardFor(&r), bin%4; got != want {
			t.Errorf("bin %d routed to shard %d, want %d", bin, got, want)
		}
		r2 := r
		r2.Router = 99
		if tsh.shardFor(&r2) != tsh.shardFor(&r) {
			t.Error("time partitioning must ignore router")
		}
	}
}

// TestShardedStats checks the stats rollup sums the shards and the
// per-shard breakdown names every shard.
func TestShardedStats(t *testing.T) {
	recs := genRecords(9, 800, 2*testBinSec)
	_, sharded := buildPair(t, recs, 3, PartitionHash, nfstore.FormatV2)
	ctx := context.Background()
	if _, _, _, err := sharded.Count(ctx, flow.Interval{Start: 0, End: 2 * testBinSec}, nil); err != nil {
		t.Fatal(err)
	}
	agg := sharded.Stats()
	var sum nfstore.Stats
	per := sharded.ShardStats()
	if len(per) != 3 {
		t.Fatalf("ShardStats returned %d rows, want 3", len(per))
	}
	names := map[string]bool{}
	for _, s := range per {
		if s.Err != "" {
			t.Fatalf("shard %s stats error: %s", s.Shard, s.Err)
		}
		names[s.Shard] = true
		sum.SegmentsConsidered += s.Stats.SegmentsConsidered
		sum.SegmentsScanned += s.Stats.SegmentsScanned
		sum.RecordsScanned += s.Stats.RecordsScanned
	}
	for i := 0; i < 3; i++ {
		if !names[shardDirName(i)] {
			t.Errorf("ShardStats missing %s", shardDirName(i))
		}
	}
	if agg.SegmentsConsidered != sum.SegmentsConsidered || agg.RecordsScanned != sum.RecordsScanned {
		t.Fatalf("rollup %+v != shard sum %+v", agg, sum)
	}
	sharded.ResetStats()
	if s := sharded.Stats(); s.SegmentsConsidered != 0 || s.RecordsScanned != 0 {
		t.Fatalf("stats after reset: %+v", s)
	}
}

// TestMigrateSharded migrates every shard of a sharded store between
// formats through the per-shard stores and verifies parity afterwards.
func TestMigrateSharded(t *testing.T) {
	recs := genRecords(21, 1200, 4*testBinSec)
	single, sharded := buildPair(t, recs, 4, PartitionHash, nfstore.FormatV1)
	ctx := context.Background()
	for _, sh := range sharded.shards {
		if _, err := sh.(*nfstore.Store).MigrateWorkers(ctx, nfstore.FormatV2, 2); err != nil {
			t.Fatal(err)
		}
	}
	formats, err := sharded.SegmentFormats()
	if err != nil {
		t.Fatal(err)
	}
	if formats[nfstore.FormatV1] != 0 || formats[nfstore.FormatV2] == 0 {
		t.Fatalf("formats after migrate: %v", formats)
	}
	iv := flow.Interval{Start: 0, End: 4 * testBinSec}
	wf, wp, wb, err := single.Count(ctx, iv, nil)
	if err != nil {
		t.Fatal(err)
	}
	gf, gp, gb, err := sharded.Count(ctx, iv, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gf != wf || gp != wp || gb != wb {
		t.Fatalf("post-migrate count (%d,%d,%d) != (%d,%d,%d)", gf, gp, gb, wf, wp, wb)
	}
}

// fakeShard is a shard whose reads are scripted: Count and Scan call
// read, everything else panics through the nil embedded interface.
type fakeShard struct {
	nfstore.Engine
	read func(ctx context.Context) error
}

func (f fakeShard) Bins() ([]uint32, error) { return []uint32{0}, nil }
func (f fakeShard) Count(ctx context.Context, _ flow.Interval, _ *nffilter.Filter) (uint64, uint64, uint64, error) {
	return 0, 0, 0, f.read(ctx)
}
func (f fakeShard) Scan(ctx context.Context, _ flow.Interval, _ *nffilter.Filter, _ nffilter.ColumnSet, _ func(*nfstore.Batch) error) error {
	return f.read(ctx)
}

// TestFailureAttribution pins which shard a ShardError names. In the
// aggregation pool the failing shard's error cancels its healthy
// neighbours, whose context.Canceled must not be reported in its place;
// the caller's own cancellation still surfaces as the lowest-index shard's
// error. The cell pool has no fail-fast cancel and reports in merge order.
func TestFailureAttribution(t *testing.T) {
	boom := errors.New("boom")
	untilCanceled := func(ctx context.Context) error { <-ctx.Done(); return ctx.Err() }
	shards := []nfstore.Engine{
		fakeShard{read: untilCanceled},
		fakeShard{read: func(context.Context) error { return boom }},
		fakeShard{read: untilCanceled},
	}
	names := []string{"healthy-0", "dead", "healthy-2"}
	st, err := newFromShards(Manifest{Partition: PartitionHash, Shards: 3, BinSeconds: testBinSec}, names, shards)
	if err != nil {
		t.Fatal(err)
	}
	st.par.Store(3)
	iv := flow.Interval{Start: 0, End: testBinSec}

	_, _, _, err = st.Count(context.Background(), iv, nil)
	var se *ShardError
	if !errors.As(err, &se) || se.Shard != "dead" || !errors.Is(err, boom) {
		t.Fatalf("Count = %v, want ShardError naming dead with boom", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st.shards[1], st.names[1] = fakeShard{read: untilCanceled}, "healthy-1"
	_, _, _, err = st.Count(ctx, iv, nil)
	if !errors.As(err, &se) || se.Shard != "healthy-0" || !errors.Is(err, context.Canceled) {
		t.Fatalf("Count under caller cancel = %v, want healthy-0's context.Canceled", err)
	}

	ok := func(context.Context) error { return nil }
	st.shards = []nfstore.Engine{
		fakeShard{read: ok},
		fakeShard{read: func(context.Context) error { return boom }},
		fakeShard{read: ok},
	}
	st.names[1] = "dead"
	err = st.Query(context.Background(), iv, nil, func(*flow.Record) error { return nil })
	if !errors.As(err, &se) || se.Shard != "dead" || !errors.Is(err, boom) {
		t.Fatalf("Query = %v, want ShardError naming dead with boom", err)
	}
}

// rowShard is a shard whose Scan emits rows records (SrcPort 0..rows-1,
// Router naming the shard), one batch each, and then returns err.
type rowShard struct {
	nfstore.Engine
	router uint16
	rows   int
	err    error
}

func (f rowShard) Bins() ([]uint32, error) { return []uint32{0}, nil }
func (f rowShard) Scan(_ context.Context, _ flow.Interval, _ *nffilter.Filter, cols nffilter.ColumnSet, fn func(*nfstore.Batch) error) error {
	var (
		buf [nfstore.RecordSize]byte
		b   nfstore.Batch
	)
	for i := range f.rows {
		nfstore.EncodeRecord(buf[:], &flow.Record{Router: f.router, SrcPort: uint16(i)})
		nfstore.DecodeRecords(buf[:], cols, &b)
		if err := fn(&b); err != nil {
			return err
		}
	}
	return f.err
}

// TestDegradedPartialFailureSameRowsAtAnyFanout pins degraded reads to
// one answer: a shard that dies mid-stream keeps every row it emitted
// before failing, whether its cell ran serially or on a parallel worker
// whose last batch was still partial.
func TestDegradedPartialFailureSameRowsAtAnyFanout(t *testing.T) {
	shards := []nfstore.Engine{
		rowShard{router: 0, rows: 300},
		rowShard{router: 1, rows: 700, err: errors.New("peer died")},
		rowShard{router: 2, rows: 300},
	}
	names := []string{"healthy-0", "dead", "healthy-2"}
	st, err := newFromShards(Manifest{Partition: PartitionHash, Shards: 3, BinSeconds: testBinSec}, names, shards)
	if err != nil {
		t.Fatal(err)
	}
	st.SetDegraded(true)
	var runs [][]flow.Record
	for _, k := range []int{1, 3} {
		st.par.Store(int32(k))
		got, err := st.Records(context.Background(), flow.Interval{Start: 0, End: testBinSec}, nil)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(got) != 1300 {
			t.Errorf("k=%d: %d rows, want 300+700+300", k, len(got))
		}
		runs = append(runs, got)
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatalf("degraded rows differ between fan-out 1 (%d rows) and 3 (%d rows)", len(runs[0]), len(runs[1]))
	}
}
