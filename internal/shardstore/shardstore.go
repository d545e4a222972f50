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

// Shard is one partition of a sharded store: a local *nfstore.Store or a
// remote rcad peer. Unlike nfstore.Engine's Query, a Shard's Query
// returns callback errors wrapped in errQueryStop (no ErrStopIteration
// swallowing, no loss) so the coordinator can tell the caller's errors
// from genuine shard failures — the coordinator owns the Engine
// contract.
type Shard interface {
	Name() string
	Bins() ([]uint32, error)
	Span() (flow.Interval, bool, error)
	Query(ctx context.Context, iv flow.Interval, filter *nffilter.Filter, fn func(*flow.Record) error) error
	Count(ctx context.Context, iv flow.Interval, filter *nffilter.Filter) (flows, packets, bytes uint64, err error)
	Summaries(ctx context.Context, iv flow.Interval, filter *nffilter.Filter) ([]nfstore.BinSummary, error)
	TopN(ctx context.Context, iv flow.Interval, filter *nffilter.Filter, feat flow.Feature, weight nfstore.Weight, k int) ([]nfstore.KeyCount, error)
	Stats() (nfstore.Stats, error)
	ResetStats() error
	SegmentFormat() (uint16, error)
	SegmentFormats() (map[uint16]int, error)
	Close() error
}

// errQueryStop marks a Query-callback error: it passes through
// nfstore.Store.Query (which swallows ErrStopIteration) intact —
// deliberately no Unwrap, or the swallowing would see through it — and
// tells the coordinator the error is the caller's, not the shard's.
type errQueryStop struct{ err error }

func (e errQueryStop) Error() string { return e.err.Error() }

// localShard adapts one in-process *nfstore.Store to the Shard surface.
type localShard struct {
	name string
	s    *nfstore.Store
}

func (l localShard) Name() string                            { return l.name }
func (l localShard) Bins() ([]uint32, error)                 { return l.s.Bins() }
func (l localShard) Span() (flow.Interval, bool, error)      { return l.s.Span() }
func (l localShard) Stats() (nfstore.Stats, error)           { return l.s.Stats(), nil }
func (l localShard) ResetStats() error                       { l.s.ResetStats(); return nil }
func (l localShard) SegmentFormat() (uint16, error)          { return l.s.SegmentFormat(), nil }
func (l localShard) SegmentFormats() (map[uint16]int, error) { return l.s.SegmentFormats() }
func (l localShard) Close() error                            { return l.s.Close() }

func (l localShard) Query(ctx context.Context, iv flow.Interval, filter *nffilter.Filter, fn func(*flow.Record) error) error {
	return l.s.Query(ctx, iv, filter, func(r *flow.Record) error {
		if err := fn(r); err != nil {
			return errQueryStop{err}
		}
		return nil
	})
}

func (l localShard) Count(ctx context.Context, iv flow.Interval, filter *nffilter.Filter) (uint64, uint64, uint64, error) {
	return l.s.Count(ctx, iv, filter)
}

func (l localShard) Summaries(ctx context.Context, iv flow.Interval, filter *nffilter.Filter) ([]nfstore.BinSummary, error) {
	return l.s.Summaries(ctx, iv, filter)
}

func (l localShard) TopN(ctx context.Context, iv flow.Interval, filter *nffilter.Filter, feat flow.Feature, weight nfstore.Weight, k int) ([]nfstore.KeyCount, error) {
	return l.s.TopN(ctx, iv, filter, feat, weight, k)
}

// ShardedStore is a horizontally partitioned flow store implementing
// nfstore.Engine by scatter-gather over its shards. Reads fan out over a
// bounded worker pool with per-shard pruning; Query merges in (bin,
// shard) order, so a time-partitioned store reproduces single-store
// byte order exactly. Writes route by the manifest's partition scheme
// and require local (in-process) shards; a store opened over remote
// peers is read-only.
type ShardedStore struct {
	manifest Manifest
	shards   []Shard
	// locals[i] is the in-process store behind shards[i], nil for remote
	// shards. Either all shards are local or all are remote.
	locals   []*nfstore.Store
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
		st.shards = append(st.shards, localShard{name: shardDirName(i), s: s})
		st.locals = append(st.locals, s)
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
		st.shards = append(st.shards, localShard{name: shardDirName(i), s: s})
		st.locals = append(st.locals, s)
	}
	return st, nil
}

// NewFromShards assembles a sharded store over pre-built shards (the
// remote-peer constructor and the test seam). locals may be nil for
// read-only shard sets.
func NewFromShards(m Manifest, shards []Shard, locals []*nfstore.Store) (*ShardedStore, error) {
	if len(shards) == 0 {
		return nil, errors.New("shardstore: no shards")
	}
	if m.Shards != len(shards) {
		return nil, fmt.Errorf("shardstore: manifest says %d shards, got %d", m.Shards, len(shards))
	}
	return &ShardedStore{manifest: m, shards: shards, locals: locals}, nil
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

// Add routes one record to its shard. Remote shard sets are read-only.
func (st *ShardedStore) Add(r *flow.Record) error {
	if st.locals == nil {
		return errors.New("shardstore: store is read-only (remote shards)")
	}
	return st.locals[st.shardFor(r)].Add(r)
}

// AddAll routes a batch of records to their shards.
func (st *ShardedStore) AddAll(rs []flow.Record) error {
	for i := range rs {
		if err := st.Add(&rs[i]); err != nil {
			return err
		}
	}
	return nil
}

// Flush flushes every local shard. A remote shard set has nothing to
// flush.
func (st *ShardedStore) Flush() error {
	for i, s := range st.locals {
		if err := s.Flush(); err != nil {
			return &ShardError{Shard: st.shards[i].Name(), Err: err}
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
func (st *ShardedStore) fanShards(parent context.Context, fn func(ctx context.Context, i int, sh Shard) error) (failed []bool, err error) {
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
		go func(i int, sh Shard) {
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
				first = &ShardError{Shard: st.shards[i].Name(), Err: e}
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
	_, err := st.fanShards(context.Background(), func(_ context.Context, i int, sh Shard) error {
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
	_, err := st.fanShards(context.Background(), func(_ context.Context, i int, sh Shard) error {
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
	_, err := st.fanShards(ctx, func(ctx context.Context, _ int, sh Shard) error {
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
	_, err := st.fanShards(ctx, func(ctx context.Context, i int, sh Shard) error {
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
	_, err := st.fanShards(ctx, func(ctx context.Context, i int, sh Shard) error {
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
func (st *ShardedStore) SegmentFormat() uint16 {
	f, err := st.shards[0].SegmentFormat()
	if err != nil {
		return 0
	}
	return f
}

// SetSegmentFormat changes the write format on every local shard.
func (st *ShardedStore) SetSegmentFormat(format uint16) error {
	if st.locals == nil {
		return errors.New("shardstore: store is read-only (remote shards)")
	}
	for _, s := range st.locals {
		if err := s.SetSegmentFormat(format); err != nil {
			return err
		}
	}
	return nil
}

// Compile-time check: a local sharded store supports bin sealing.
var _ nfstore.Sealer = (*ShardedStore)(nil)

// Seal finalizes the bin containing t on every local shard (under hash
// partitioning a bin's records spread over all of them). Remote shard
// sets are read-only and cannot seal.
func (st *ShardedStore) Seal(t uint32) error {
	if st.locals == nil {
		return errors.New("shardstore: store is read-only (remote shards)")
	}
	for i, s := range st.locals {
		if err := s.Seal(t); err != nil {
			return &ShardError{Shard: st.shards[i].Name(), Err: err}
		}
	}
	return nil
}

// SegmentFormats sums the per-format segment census over all shards.
func (st *ShardedStore) SegmentFormats() (map[uint16]int, error) {
	per := make([]map[uint16]int, len(st.shards))
	_, err := st.fanShards(context.Background(), func(_ context.Context, i int, sh Shard) error {
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
	var total nfstore.Stats
	for _, s := range st.ShardStats() {
		total.SegmentsConsidered += s.Stats.SegmentsConsidered
		total.SegmentsPruned += s.Stats.SegmentsPruned
		total.SegmentsScanned += s.Stats.SegmentsScanned
		total.SegmentsAggregated += s.Stats.SegmentsAggregated
		total.RecordsScanned += s.Stats.RecordsScanned
		total.SidecarsBuilt += s.Stats.SidecarsBuilt
		total.BlocksScanned += s.Stats.BlocksScanned
		total.BlocksPruned += s.Stats.BlocksPruned
		total.BlocksAggregated += s.Stats.BlocksAggregated
	}
	return total
}

// ResetStats zeroes the scan counters on every shard (best effort).
func (st *ShardedStore) ResetStats() {
	_, _ = st.fanShards(context.Background(), func(_ context.Context, _ int, sh Shard) error {
		return sh.ResetStats()
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
// shard order. Failures (an unreachable peer) land in the row's Err
// instead of failing the call (so fanShards has no error to report),
// and health stays observable through a partial outage.
func (st *ShardedStore) ShardStats() []ShardStat {
	out := make([]ShardStat, len(st.shards))
	_, _ = st.fanShards(context.Background(), func(_ context.Context, i int, sh Shard) error {
		row := ShardStat{Shard: sh.Name()}
		stats, err := sh.Stats()
		if err == nil {
			row.Stats = stats
			row.Formats, err = sh.SegmentFormats()
		}
		if err != nil {
			row.Err = err.Error()
		}
		out[i] = row
		return nil
	})
	return out
}
