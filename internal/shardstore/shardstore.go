package shardstore

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"iter"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/flow"
	"repro/internal/nffilter"
	"repro/internal/nfstore"
)

// maxAutoFanout caps the automatic shard fan-out, mirroring the
// single-store query engine's worker cap.
const maxAutoFanout = 8

// ShardError names the shard behind a scatter-gather failure, so a dead
// peer surfaces as "shard http://host:port: ..." rather than an anonymous
// transport error.
type ShardError struct {
	Shard string
	Err   error
}

func (e *ShardError) Error() string { return fmt.Sprintf("shardstore: shard %s: %v", e.Shard, e.Err) }
func (e *ShardError) Unwrap() error { return e.Err }

// errReadOnly rejects writes to a store whose shards are remote peers:
// ingest happens on the peer that owns the shard.
var errReadOnly = errors.New("shardstore: store is read-only (remote shards)")

// ShardedStore is a horizontally partitioned flow store implementing
// nfstore.Engine by scatter-gather over its shards, each an Engine
// itself: an in-process *nfstore.Store or a remote peer's *RemoteShard.
// Reads fan out over a bounded worker pool with per-shard pruning;
// Query merges in (bin, shard) order, so a time-partitioned store
// reproduces single-store byte order exactly. Writes route by the
// manifest's partition scheme; a store opened over remote peers is
// read-only because its shards are.
type ShardedStore struct {
	manifest Manifest
	shards   []nfstore.Engine
	names    []string     // names[i] labels shards[i] in ShardError and ShardStat
	par      atomic.Int32 // fan-out pinned by tests (0 = auto)
	degraded atomic.Bool
}

// Create makes a sharded store of n empty child stores under dir,
// persisting the shard map. partition is PartitionTime or PartitionHash;
// format is the segment format new segments are written in.
func Create(dir string, binSeconds uint32, n int, partition string, format uint16) (*ShardedStore, error) {
	if n < 1 {
		return nil, fmt.Errorf("shardstore: shard count %d", n)
	}
	if partition == "" {
		partition = PartitionTime
	}
	if !validPartition(partition) {
		return nil, fmt.Errorf("shardstore: unknown partition scheme %q", partition)
	}
	if binSeconds == 0 {
		binSeconds = nfstore.DefaultBinSeconds
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shardstore: create %s: %w", dir, err)
	}
	m := Manifest{Version: manifestVersion, Partition: partition, Shards: n, BinSeconds: binSeconds}
	if err := writeManifest(dir, m); err != nil {
		return nil, err
	}
	st := &ShardedStore{manifest: m}
	for i := 0; i < n; i++ {
		sub := filepath.Join(dir, shardDirName(i))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			st.Close()
			return nil, fmt.Errorf("shardstore: create shard %d: %w", i, err)
		}
		s, err := nfstore.CreateFormat(sub, binSeconds, format)
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("shardstore: create shard %d: %w", i, err)
		}
		st.shards = append(st.shards, s)
		st.names = append(st.names, shardDirName(i))
	}
	return st, nil
}

// Open opens an existing sharded store directory from its manifest.
func Open(dir string) (*ShardedStore, error) {
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	st := &ShardedStore{manifest: m}
	for i := 0; i < m.Shards; i++ {
		s, err := nfstore.Open(filepath.Join(dir, shardDirName(i)))
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("shardstore: open shard %d: %w", i, err)
		}
		if s.BinSeconds() != m.BinSeconds {
			st.Close()
			return nil, fmt.Errorf("shardstore: shard %d bin width %d != manifest %d", i, s.BinSeconds(), m.BinSeconds)
		}
		st.shards = append(st.shards, s)
		st.names = append(st.names, shardDirName(i))
	}
	return st, nil
}

// newFromShards assembles a sharded store over pre-built shards named
// by names (the remote-peer constructor and the test seam).
func newFromShards(m Manifest, names []string, shards []nfstore.Engine) (*ShardedStore, error) {
	if len(shards) == 0 {
		return nil, errors.New("shardstore: no shards")
	}
	if m.Shards != len(shards) {
		return nil, fmt.Errorf("shardstore: manifest says %d shards, got %d", m.Shards, len(shards))
	}
	return &ShardedStore{manifest: m, shards: shards, names: names}, nil
}

// Compile-time check: a sharded store is a drop-in engine.
var _ nfstore.Engine = (*ShardedStore)(nil)

// SetDegraded toggles degraded reads: when on, a scatter-gather read
// that loses some (but not all) shards returns the surviving shards'
// partial result instead of failing. Off by default — the default
// contract is fail-loud with the dead shard named in the error.
func (st *ShardedStore) SetDegraded(on bool) { st.degraded.Store(on) }

// BinSeconds returns the measurement bin width shared by every shard.
func (st *ShardedStore) BinSeconds() uint32 { return st.manifest.BinSeconds }

// fanout is how many shards (for aggregations) or shard-bin cells (for
// Query) are in flight concurrently: min(GOMAXPROCS, 8), unless an
// in-package test pinned par. Each shard's own scan width is its
// store's.
func (st *ShardedStore) fanout() int {
	if k := st.par.Load(); k > 0 {
		return int(k)
	}
	return min(runtime.GOMAXPROCS(0), maxAutoFanout)
}

// shardFor routes a record to its shard index.
func (st *ShardedStore) shardFor(r *flow.Record) int {
	n := uint32(len(st.shards))
	if st.manifest.Partition == PartitionHash {
		h := fnv.New32a()
		h.Write([]byte{byte(r.Router >> 8), byte(r.Router)})
		return int(h.Sum32() % n)
	}
	return int((r.Start / st.manifest.BinSeconds) % n)
}

// Add routes one record to its shard. Remote shards reject it.
func (st *ShardedStore) Add(r *flow.Record) error {
	return st.shards[st.shardFor(r)].Add(r)
}

// AddAll routes a batch of records to their shards, each run of
// consecutive records bound for one shard through that shard's AddAll.
// It stops at the first error, a *nfstore.RecordError whose index counts
// in rs; the records before it stay appended.
func (st *ShardedStore) AddAll(rs []flow.Record) error {
	for lo := 0; lo < len(rs); {
		sh, hi := st.shardFor(&rs[lo]), lo+1
		for hi < len(rs) && st.shardFor(&rs[hi]) == sh {
			hi++
		}
		if err := st.shards[sh].AddAll(rs[lo:hi]); err != nil {
			var re *nfstore.RecordError
			if errors.As(err, &re) {
				return &nfstore.RecordError{Index: lo + re.Index, Err: re.Err}
			}
			return &nfstore.RecordError{Index: lo, Err: err}
		}
		lo = hi
	}
	return nil
}

// Flush flushes every shard (a no-op on remote shards).
func (st *ShardedStore) Flush() error {
	for i, sh := range st.shards {
		if err := sh.Flush(); err != nil {
			return &ShardError{Shard: st.names[i], Err: err}
		}
	}
	return nil
}

// Close closes every shard, returning the first error.
func (st *ShardedStore) Close() error {
	var first error
	for _, sh := range st.shards {
		if err := sh.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// fanShards runs fn once per shard on a bounded worker pool and merges
// the per-shard errors: nil when every shard succeeded, nil with
// partial effects when degraded mode ate a minority of failures, and
// otherwise the ShardError of the lowest-index shard that failed on its
// own account. A healthy shard that returns context.Canceled only because
// the fail-fast cancel below reached it is an echo of the causal failure,
// not a cause, and is passed over when a real failure exists; when the
// caller cancelled, every shard's error is the caller's and the lowest
// index stands. failed[i] reports whether shard i's result must be
// treated as missing.
func (st *ShardedStore) fanShards(parent context.Context, fn func(ctx context.Context, i int, sh nfstore.Engine) error) (failed []bool, err error) {
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	k := min(st.fanout(), len(st.shards))
	degraded := st.degraded.Load()
	sem := make(chan struct{}, k)
	errs := make([]error, len(st.shards))
	var wg sync.WaitGroup
	for i, sh := range st.shards {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, sh nfstore.Engine) {
			defer wg.Done()
			defer func() { <-sem }()
			if errs[i] = fn(ctx, i, sh); errs[i] != nil && !degraded {
				cancel() // fail fast: no point finishing the other shards
			}
		}(i, sh)
	}
	wg.Wait()
	failed = make([]bool, len(st.shards))
	nfail := 0
	var first error
	firstIsEcho := false
	callerLive := parent.Err() == nil
	for i, e := range errs {
		if e != nil {
			failed[i] = true
			nfail++
			echo := callerLive && errors.Is(e, context.Canceled)
			if first == nil || (firstIsEcho && !echo) {
				first = &ShardError{Shard: st.names[i], Err: e}
				firstIsEcho = echo
			}
		}
	}
	if nfail == 0 {
		return failed, nil
	}
	if degraded && nfail < len(st.shards) {
		return failed, nil // partial result, by explicit opt-in
	}
	return failed, first
}

// Bins lists the union of the shards' bin start times, ascending.
func (st *ShardedStore) Bins() ([]uint32, error) {
	per := make([][]uint32, len(st.shards))
	_, err := st.fanShards(context.Background(), func(_ context.Context, i int, sh nfstore.Engine) error {
		bins, err := sh.Bins()
		per[i] = bins
		return err
	})
	if err != nil {
		return nil, err
	}
	seen := make(map[uint32]bool)
	var bins []uint32
	for _, p := range per {
		for _, b := range p {
			if !seen[b] {
				seen[b] = true
				bins = append(bins, b)
			}
		}
	}
	sort.Slice(bins, func(i, j int) bool { return bins[i] < bins[j] })
	return bins, nil
}

// Span returns the interval covered by all shards' segments.
func (st *ShardedStore) Span() (flow.Interval, bool, error) {
	type span struct {
		iv flow.Interval
		ok bool
	}
	per := make([]span, len(st.shards))
	_, err := st.fanShards(context.Background(), func(_ context.Context, i int, sh nfstore.Engine) error {
		iv, ok, err := sh.Span()
		per[i] = span{iv, ok}
		return err
	})
	if err != nil {
		return flow.Interval{}, false, err
	}
	var out flow.Interval
	any := false
	for _, p := range per {
		if !p.ok {
			continue
		}
		if !any {
			out = p.iv
			any = true
			continue
		}
		out.Start = min(out.Start, p.iv.Start)
		out.End = max(out.End, p.iv.End)
	}
	return out, any, nil
}

// Count sums the matching flow/packet/byte totals over all shards. The
// per-shard sidecar and block pushdowns apply unchanged, and uint64
// addition makes the merged totals exactly the single-store ones.
func (st *ShardedStore) Count(ctx context.Context, iv flow.Interval, filter *nffilter.Filter) (uint64, uint64, uint64, error) {
	var flows, packets, bytes atomic.Uint64
	_, err := st.fanShards(ctx, func(ctx context.Context, _ int, sh nfstore.Engine) error {
		f, p, b, err := sh.Count(ctx, iv, filter)
		if err != nil {
			return err
		}
		flows.Add(f)
		packets.Add(p)
		bytes.Add(b)
		return nil
	})
	if err != nil {
		return 0, 0, 0, err
	}
	return flows.Load(), packets.Load(), bytes.Load(), nil
}

// Summaries merges the shards' per-bin summaries by bin: a bin present
// in several shards (hash partitioning) sums, a bin in one shard (time
// partitioning) passes through, and the merged series is time-ordered —
// exactly the single-store series.
func (st *ShardedStore) Summaries(ctx context.Context, iv flow.Interval, filter *nffilter.Filter) ([]nfstore.BinSummary, error) {
	per := make([][]nfstore.BinSummary, len(st.shards))
	_, err := st.fanShards(ctx, func(ctx context.Context, i int, sh nfstore.Engine) error {
		sums, err := sh.Summaries(ctx, iv, filter)
		per[i] = sums
		return err
	})
	if err != nil {
		return nil, err
	}
	merged := make(map[uint32]nfstore.BinSummary)
	for _, sums := range per {
		for _, s := range sums {
			m := merged[s.Bin.Start]
			m.Bin = s.Bin
			m.Flows += s.Flows
			m.Packets += s.Packets
			m.Bytes += s.Bytes
			merged[s.Bin.Start] = m
		}
	}
	out := make([]nfstore.BinSummary, 0, len(merged))
	for _, s := range merged {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Bin.Start < out[j].Bin.Start })
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// TopN fans the aggregation out with k=0 (every key, exact counts),
// sums per-key weights across shards, then ranks them with the single
// store's nfstore.RankCounts — the same merge shape SupportAll uses
// for itemset supports, so ranks match a single merged store exactly.
func (st *ShardedStore) TopN(ctx context.Context, iv flow.Interval, filter *nffilter.Filter, feat flow.Feature, weight nfstore.Weight, k int) ([]nfstore.KeyCount, error) {
	per := make([][]nfstore.KeyCount, len(st.shards))
	_, err := st.fanShards(ctx, func(ctx context.Context, i int, sh nfstore.Engine) error {
		rows, err := sh.TopN(ctx, iv, filter, feat, weight, 0)
		per[i] = rows
		return err
	})
	if err != nil {
		return nil, err
	}
	acc := make(map[uint32]uint64)
	for _, rows := range per {
		for _, r := range rows {
			acc[r.Value] += r.Count
		}
	}
	return nfstore.RankCounts(acc, k), nil
}

// Iter returns a range-over-func iterator over the merged matching
// records; see nfstore.Iter.
func (st *ShardedStore) Iter(ctx context.Context, iv flow.Interval, filter *nffilter.Filter) iter.Seq2[*flow.Record, error] {
	return nfstore.Iter(ctx, st, iv, filter)
}

// Records collects the merged matching records into a slice; see
// nfstore.Records.
func (st *ShardedStore) Records(ctx context.Context, iv flow.Interval, filter *nffilter.Filter) ([]flow.Record, error) {
	return nfstore.Records(ctx, st, iv, filter)
}

// SegmentFormat returns the format new segments are written in (the
// shards always share it; shard 0 answers).
func (st *ShardedStore) SegmentFormat() uint16 { return st.shards[0].SegmentFormat() }

// SetSegmentFormat changes the write format on every shard. Remote
// shards cannot take it.
func (st *ShardedStore) SetSegmentFormat(format uint16) error {
	for _, sh := range st.shards {
		s, ok := sh.(interface{ SetSegmentFormat(uint16) error })
		if !ok {
			return errReadOnly
		}
		if err := s.SetSegmentFormat(format); err != nil {
			return err
		}
	}
	return nil
}

// Compile-time check: a local sharded store supports bin sealing.
var _ nfstore.Sealer = (*ShardedStore)(nil)

// Seal finalizes the bin containing t on every shard (under hash
// partitioning a bin's records spread over all of them). Remote shards
// cannot seal.
func (st *ShardedStore) Seal(t uint32) error {
	for i, sh := range st.shards {
		s, ok := sh.(nfstore.Sealer)
		if !ok {
			return errReadOnly
		}
		if err := s.Seal(t); err != nil {
			return &ShardError{Shard: st.names[i], Err: err}
		}
	}
	return nil
}

// SegmentFormats sums the per-format segment census over all shards.
func (st *ShardedStore) SegmentFormats() (map[uint16]int, error) {
	per := make([]map[uint16]int, len(st.shards))
	_, err := st.fanShards(context.Background(), func(_ context.Context, i int, sh nfstore.Engine) error {
		counts, err := sh.SegmentFormats()
		per[i] = counts
		return err
	})
	if err != nil {
		return nil, err
	}
	total := map[uint16]int{}
	for _, counts := range per {
		for f, n := range counts {
			total[f] += n
		}
	}
	return total, nil
}

// Stats sums the scan counters over all shards (best effort: an
// unreachable remote shard contributes zeros — ShardStats exposes the
// per-shard view with errors).
func (st *ShardedStore) Stats() nfstore.Stats {
	per := make([]nfstore.Stats, len(st.shards))
	_, _ = st.fanShards(context.Background(), func(_ context.Context, i int, sh nfstore.Engine) error {
		per[i] = sh.Stats()
		return nil
	})
	var total nfstore.Stats
	for _, s := range per {
		total.SegmentsConsidered += s.SegmentsConsidered
		total.SegmentsPruned += s.SegmentsPruned
		total.SegmentsScanned += s.SegmentsScanned
		total.SegmentsAggregated += s.SegmentsAggregated
		total.RecordsScanned += s.RecordsScanned
		total.SidecarsBuilt += s.SidecarsBuilt
		total.BlocksScanned += s.BlocksScanned
		total.BlocksPruned += s.BlocksPruned
		total.BlocksAggregated += s.BlocksAggregated
	}
	return total
}

// ResetStats zeroes the scan counters on every shard (best effort).
func (st *ShardedStore) ResetStats() {
	_, _ = st.fanShards(context.Background(), func(_ context.Context, _ int, sh nfstore.Engine) error {
		sh.ResetStats()
		return nil
	})
}

// ShardStat is one shard's observability snapshot.
type ShardStat struct {
	Shard   string         `json:"shard"`
	Stats   nfstore.Stats  `json:"stats"`
	Formats map[uint16]int `json:"segment_formats,omitempty"`
	Err     string         `json:"error,omitempty"`
}

// ShardStats returns the per-shard scan counters and segment census, in
// shard order. Failures (an unreachable peer, reported by its
// SegmentFormats) land in the row's Err instead of failing the call (so
// fanShards has no error to report), and health stays observable
// through a partial outage.
func (st *ShardedStore) ShardStats() []ShardStat {
	out := make([]ShardStat, len(st.shards))
	_, _ = st.fanShards(context.Background(), func(_ context.Context, i int, sh nfstore.Engine) error {
		row := ShardStat{Shard: st.names[i]}
		if formats, err := sh.SegmentFormats(); err != nil {
			row.Err = err.Error()
		} else {
			row.Stats, row.Formats = sh.Stats(), formats
		}
		out[i] = row
		return nil
	})
	return out
}
