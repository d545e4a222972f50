package main

import (
	"fmt"
	"hash/fnv"
	"path/filepath"
	"time"

	rootcause "repro"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/flow"
	"repro/internal/itemset"
	"repro/internal/nffilter"
	"repro/internal/nfstore"
)

// Frozen scan sizes (scale 1).
const (
	scanRecords = 4_000_000
	scanBins    = 16
	scanShards  = 4
	probeReps   = 5 // calls per op on the traced run's comparison stores
)

var scanSizes = map[string]int{"records": scanRecords, "bins": scanBins}

var scanClustered = workload{
	workloadDef: workloadDef{
		Name: "scan-clustered",
		Why:  "operator drill-down where the matching rows sit in a couple of blocks, so nfstore zone-map and block pruning do the work and miner.* none",
	},
	sizes:   scanSizes,
	setup:   func(e *env, dir string) (any, func(), error) { return setupScan(e, dir, true, false) },
	measure: measureScan,
}

var scanUniform = workload{
	workloadDef: workloadDef{
		Name: "scan-uniform",
		Why:  "the same ops with matches spread evenly, so nothing prunes and column decode plus nffilter evaluation dominate; a pruning gain must not show here",
	},
	sizes:   scanSizes,
	setup:   func(e *env, dir string) (any, func(), error) { return setupScan(e, dir, false, false) },
	measure: measureScan,
}

var scanSharded = workload{
	workloadDef: workloadDef{
		Name: "scan-sharded",
		Why:  "the clustered drill-down on a 4-shard in-process shardstore copy, so scatter-gather and merge are measured, not modeled",
	},
	sizes:   map[string]int{"records": scanRecords, "bins": scanBins, "shards": scanShards},
	setup:   func(e *env, dir string) (any, func(), error) { return setupScan(e, dir, true, true) },
	measure: measureScan,
}

// scanState is the FillScanStore trace in a single v2 store and, for
// scan-sharded, the same records hash-partitioned over four shards.
type scanState struct {
	dir        string
	records    int
	iv         flow.Interval
	single     *rootcause.System
	sharded    *rootcause.System // nil unless the sharded copy is the engine under test
	shardedDir string
}

// timedEngine is the engine the workload's timed ops run against.
func (st *scanState) timedEngine() (nfstore.Engine, string) {
	if st.sharded != nil {
		return st.sharded.Store(), "shardstore.s4"
	}
	return st.single.Store(), "nfstore.v2"
}

func setupScan(e *env, dir string, clustered, sharded bool) (any, func(), error) {
	st := &scanState{
		dir: dir, records: e.scaled(scanRecords),
		iv: flow.Interval{Start: 0, End: scanBins * nfstore.DefaultBinSeconds},
	}
	var err error
	st.single, err = rootcause.Create(rootcause.Config{StoreDir: filepath.Join(dir, "single")},
		rootcause.WithSegmentFormat(nfstore.FormatV2))
	if err != nil {
		return nil, nil, err
	}
	release := func() { st.single.Close() }
	if err := eval.FillScanStore(st.single.Store(), clustered, st.records, scanBins, int64(e.seed)); err != nil {
		release()
		return nil, nil, err
	}
	if !sharded {
		return st, release, nil
	}
	st.shardedDir = filepath.Join(dir, "sharded")
	st.sharded, err = rootcause.Create(rootcause.Config{StoreDir: st.shardedDir},
		rootcause.WithSegmentFormat(nfstore.FormatV2), rootcause.WithShards(scanShards))
	if err != nil {
		release()
		return nil, nil, err
	}
	release = func() { st.sharded.Close(); st.single.Close() }
	if err := copyStore(st.single.Store(), st.sharded.Store(), st.iv); err != nil {
		release()
		return nil, nil, err
	}
	return st, release, nil
}

// copyStore replays every record of src into dst and flushes it.
func copyStore(src, dst nfstore.Engine, iv flow.Interval) error {
	if err := src.Query(bg, iv, nil, func(r *flow.Record) error { return dst.Add(r) }); err != nil {
		return err
	}
	return dst.Flush()
}

// scanOp is one drill-down call. run returns a digest of the result, so
// two engines can be checked for identical answers.
type scanOp struct {
	name string
	run  func(eng nfstore.Engine) (uint64, error)
}

// scanOps builds the op mix over iv.
func scanOps(eng nfstore.Engine, iv flow.Interval) ([]scanOp, error) {
	selective, err := nffilter.Parse(eval.ScanFilter)
	if err != nil {
		return nil, err
	}
	broad, err := nffilter.Parse("proto tcp")
	if err != nil {
		return nil, err
	}
	// The itemset filter is the 5-tuple of the first flow the selective
	// filter finds: the ItemsetFlows drill-down behind one reported row.
	var tuple itemset.Set
	stop := fmt.Errorf("found")
	err = eng.Query(bg, iv, selective, func(r *flow.Record) error {
		items := itemset.ItemsOf(r)
		tuple = itemset.NewSet(items[:]...)
		return stop
	})
	if err != stop {
		return nil, fmt.Errorf("selective filter %q matched nothing (%v)", eval.ScanFilter, err)
	}
	itemFilter := core.FilterFor(tuple)

	query := func(f *nffilter.Filter) func(nfstore.Engine) (uint64, error) {
		return func(eng nfstore.Engine) (uint64, error) {
			var n uint64
			err := eng.Query(bg, iv, f, func(*flow.Record) error { n++; return nil })
			return n, err
		}
	}
	return []scanOp{
		{"query_sel", query(selective)},
		{"query_itemset", query(itemFilter)},
		{"count", func(eng nfstore.Engine) (uint64, error) {
			flows, packets, bytes, err := eng.Count(bg, iv, selective)
			return digest(flows, packets, bytes), err
		}},
		{"topn", func(eng nfstore.Engine) (uint64, error) {
			top, err := eng.TopN(bg, iv, nil, flow.FeatDstIP, nfstore.ByPackets, 10)
			var vals []uint64
			for _, kc := range top {
				vals = append(vals, uint64(kc.Value), kc.Count)
			}
			return digest(vals...), err
		}},
		{"query_broad", query(broad)},
		{"summaries", func(eng nfstore.Engine) (uint64, error) {
			sums, err := eng.Summaries(bg, iv, nil)
			var vals []uint64
			for _, s := range sums {
				vals = append(vals, s.Flows, s.Packets, s.Bytes)
			}
			return digest(vals...), err
		}},
	}, nil
}

func digest(vals ...uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// referenceDigests answers the two ops over the selective filter by
// brute force: every record is decoded unfiltered and matched row by
// row with nffilter, a path that shares neither pruning nor pushdown
// with the ops under test.
func referenceDigests(eng nfstore.Engine, iv flow.Interval) (map[string]uint64, error) {
	selective, err := nffilter.Parse(eval.ScanFilter)
	if err != nil {
		return nil, err
	}
	var matched, packets, bytes uint64
	err = eng.Query(bg, iv, nil, func(r *flow.Record) error {
		if selective.Match(r) {
			matched++
			packets += r.Packets
			bytes += r.Bytes
		}
		return nil
	})
	return map[string]uint64{"query_sel": matched, "count": digest(matched, packets, bytes)}, err
}

func measureScan(e *env, state any) (*outcome, error) {
	st := state.(*scanState)
	out := &outcome{}
	eng, layer := st.timedEngine()
	single := st.single.Store()
	ops, err := scanOps(single, st.iv)
	if err != nil {
		return nil, err
	}

	// Answers every engine must reproduce: the single store's, two of
	// them cross-checked against brute force. This pass also warms the
	// zone-map cache and the page cache before timing.
	want := map[string]uint64{}
	for _, op := range ops {
		if want[op.name], err = op.run(single); err != nil {
			return nil, err
		}
	}
	ref, err := referenceDigests(single, st.iv)
	if err != nil {
		return nil, err
	}
	for name, d := range ref {
		out.check(want[name] == d, "%s: single store disagrees with brute-force evaluation", name)
	}

	err = untilElapsed(e.seconds, func() error {
		var calls int
		var wallS float64
		for _, op := range ops {
			var got uint64
			ms, err := timed(e.tr, e.tr.newOp(), 0, layer+"."+op.name, func() (err error) {
				got, err = op.run(eng)
				return err
			})
			out.attempted++
			if err != nil {
				out.fail("%s: %v", op.name, err)
				continue
			}
			if got != want[op.name] {
				out.fail("%s: result differs from the single store's", op.name)
			}
			out.sample(op.name, ms)
			wallS += ms / 1e3
			calls++
		}
		out.round(float64(calls)*float64(st.records), wallS)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.diskRecs = int64(st.records)
	diskDir := filepath.Join(st.dir, "single")
	if st.sharded != nil {
		diskDir = st.shardedDir
	}
	if out.diskBytes, err = dirBytes(diskDir); err != nil {
		return nil, err
	}
	if e.tr == nil {
		return out, nil
	}
	if st.sharded != nil {
		return out, probeShardLayers(e, st, out, ops, want)
	}
	return out, probeScanLayers(e, st, out, ops, want)
}

// mrecPerS is the store's record count over the median span duration.
func (st *scanState) mrecPerS(tr *tracer, span string) float64 {
	ms := medianSpanMS(tr, span)
	if ms == 0 {
		return 0
	}
	return float64(st.records) / ms / 1e3
}

// probeOps runs every op probeReps times against eng under the layer
// name, checking each answer, so v1, 1-shard and HTTP copies can be
// compared with the store under test.
func probeOps(e *env, out *outcome, eng nfstore.Engine, layer string, ops []scanOp, want map[string]uint64) error {
	for _, op := range ops {
		for rep := 0; rep < probeReps; rep++ {
			var got uint64
			_, err := timed(e.tr, e.tr.newOp(), 0, layer+"."+op.name, func() (err error) {
				got, err = op.run(eng)
				return err
			})
			if err != nil {
				return fmt.Errorf("%s %s: %w", layer, op.name, err)
			}
			if rep == 0 {
				out.check(got == want[op.name], "%s.%s: result differs from the single v2 store's", layer, op.name)
			}
		}
	}
	return nil
}

func probeScanLayers(e *env, st *scanState, out *outcome, ops []scanOp, want map[string]uint64) error {
	// nfstore: a v1 copy of the same records answers the same ops.
	v1, err := rootcause.Create(rootcause.Config{StoreDir: filepath.Join(st.dir, "v1")},
		rootcause.WithSegmentFormat(nfstore.FormatV1))
	if err != nil {
		return err
	}
	defer v1.Close()
	if err := copyStore(st.single.Store(), v1.Store(), st.iv); err != nil {
		return err
	}
	if err := probeOps(e, out, v1.Store(), "nfstore.v1", ops, want); err != nil {
		return err
	}
	for _, v := range []string{"v2", "v1"} {
		out.layer("nfstore.query_mrec_per_s."+v, st.mrecPerS(e.tr, "nfstore."+v+".query_sel"))
		out.layer("nfstore.query_broad_mrec_per_s."+v, st.mrecPerS(e.tr, "nfstore."+v+".query_broad"))
		out.layer("nfstore.count_mrec_per_s."+v, st.mrecPerS(e.tr, "nfstore."+v+".count"))
		out.layer("nfstore.topn_mrec_per_s."+v, st.mrecPerS(e.tr, "nfstore."+v+".topn"))
		out.layer("nfstore.summaries_ms."+v, medianSpanMS(e.tr, "nfstore."+v+".summaries"))
	}

	// nfstore waste ratios over the two filtered queries, selective and
	// itemset, from the store's own counters; they repeat exactly.
	single := st.single.Store()
	single.ResetStats()
	var matched uint64
	for _, op := range ops[:2] {
		n, err := op.run(single)
		if err != nil {
			return err
		}
		matched += n
	}
	s := single.Stats()
	out.layer("nfstore.records_decoded_per_match", float64(s.RecordsScanned)/float64(max(1, matched)))
	if blocks := s.BlocksPruned + s.BlocksScanned + s.BlocksAggregated; blocks > 0 {
		out.layer("nfstore.blocks_pruned_frac", float64(s.BlocksPruned)/float64(blocks))
	}
	if s.SegmentsConsidered > 0 {
		out.layer("nfstore.segments_pruned_frac", float64(s.SegmentsPruned)/float64(s.SegmentsConsidered))
	}

	// nffilter: parsing, and row-at-a-time matching over one bin in memory.
	const parses = 1000
	t0 := time.Now()
	for i := 0; i < parses; i++ {
		if _, err := nffilter.Parse(eval.ScanFilter); err != nil {
			return err
		}
	}
	out.layer("nffilter.parse_us", float64(time.Since(t0).Nanoseconds())/1e3/parses)
	recs, err := single.Records(bg, flow.Interval{Start: 0, End: nfstore.DefaultBinSeconds}, nil)
	if err != nil {
		return err
	}
	selective, _ := nffilter.Parse(eval.ScanFilter)
	var hits int
	ms, _ := timed(e.tr, e.tr.newOp(), 0, "nffilter.match", func() error {
		for i := range recs {
			if selective.Match(&recs[i]) {
				hits++
			}
		}
		return nil
	})
	out.layer("nffilter.match_ns_per_rec", ms*1e6/float64(max(1, len(recs))))
	return nil
}

func probeShardLayers(e *env, st *scanState, out *outcome, ops []scanOp, want map[string]uint64) error {
	out.layer("shardstore.query_mrec_per_s.s4", st.mrecPerS(e.tr, "shardstore.s4.query_sel"))
	out.layer("shardstore.count_mrec_per_s.s4", st.mrecPerS(e.tr, "shardstore.s4.count"))

	// Merge overhead: the same records behind one shard against no shards.
	if err := probeOps(e, out, st.single.Store(), "nfstore.v2", ops[:1], want); err != nil {
		return err
	}
	s1, err := rootcause.Create(rootcause.Config{StoreDir: filepath.Join(st.dir, "s1")},
		rootcause.WithSegmentFormat(nfstore.FormatV2), rootcause.WithShards(1))
	if err != nil {
		return err
	}
	defer s1.Close()
	if err := copyStore(st.single.Store(), s1.Store(), st.iv); err != nil {
		return err
	}
	if err := probeOps(e, out, s1.Store(), "shardstore.s1", ops[:1], want); err != nil {
		return err
	}
	if base := medianSpanMS(e.tr, "nfstore.v2.query_sel"); base > 0 {
		out.layer("shardstore.merge_overhead_frac", medianSpanMS(e.tr, "shardstore.s1.query_sel")/base-1)
	}

	// The four shards behind loopback HTTP peers, read through the
	// remote-shard client.
	peers, stop, err := eval.ServeShardDirs(st.shardedDir)
	if err != nil {
		return err
	}
	defer stop()
	remote, err := rootcause.Open(rootcause.Config{}, rootcause.WithPeers(peers))
	if err != nil {
		return err
	}
	defer remote.Close()
	if err := probeOps(e, out, remote.Store(), "shardstore.http", ops, want); err != nil {
		return err
	}
	out.layer("shardstore.http_query_mrec_per_s.s4", st.mrecPerS(e.tr, "shardstore.http.query_sel"))
	return nil
}
