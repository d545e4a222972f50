package shardstore

import (
	"context"
	"errors"
	"sort"

	"repro/internal/flow"
	"repro/internal/nffilter"
	"repro/internal/nfstore"
)

// Query planning and the scatter-gather merge.
//
// A query shatters into (bin, shard) cells: one cell per measurement bin
// a shard actually holds. Cells execute on a bounded worker pool with
// the same lazy-start ordered-drain shape as the single store's
// execParallel — workers launch at most k ahead of the merge cursor and
// start order equals drain order, so the pool can never deadlock — and
// the merger emits cells in (bin asc, shard asc) order. Under time
// partitioning each bin is one cell, making the merged stream
// byte-identical to a single store's bin-ordered scan; under hash
// partitioning records within a bin arrive grouped by shard (still
// deterministic, and exact for every aggregation).
//
// Each cell's interval is its bin clipped to the query interval, so a
// shard-side scan touches exactly one segment, with the shard's own
// zone-map pruning, block pruning and vectorized filtering intact.

// queryBatchSize mirrors the single-store merge batch.
const queryBatchSize = 512

// cell is one (bin, shard) unit of scatter-gather work.
type cell struct {
	shard int
	iv    flow.Interval
}

// planCells lists the cells overlapping iv, in merge order. In degraded
// mode a shard that cannot even list its bins simply contributes no
// cells (fanShards ate its error); otherwise planning fails with its
// ShardError.
func (st *ShardedStore) planCells(ctx context.Context, iv flow.Interval) ([]cell, error) {
	per := make([][]uint32, len(st.shards))
	_, err := st.fanShards(ctx, func(_ context.Context, i int, sh Shard) error {
		bins, err := sh.Bins()
		per[i] = bins
		return err
	})
	if err != nil {
		return nil, err
	}
	binSec := st.manifest.BinSeconds
	type binShard struct {
		bin   uint32
		shard int
	}
	var pairs []binShard
	for i, bins := range per {
		for _, bin := range bins {
			seg := flow.Interval{Start: bin, End: bin + binSec}
			if seg.Overlaps(iv) {
				pairs = append(pairs, binShard{bin, i})
			}
		}
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].bin != pairs[b].bin {
			return pairs[a].bin < pairs[b].bin
		}
		return pairs[a].shard < pairs[b].shard
	})
	cells := make([]cell, len(pairs))
	for i, p := range pairs {
		civ := flow.Interval{Start: max(p.bin, iv.Start), End: min(p.bin+binSec, iv.End)}
		cells[i] = cell{shard: p.shard, iv: civ}
	}
	return cells, nil
}

// Query streams every matching record to fn in (bin, shard) merge
// order, with the nfstore.Engine contract: the *flow.Record is reused,
// ErrStopIteration from fn ends the scan cleanly, cancellation aborts
// promptly. A failing shard aborts with a ShardError naming it — or,
// in degraded mode, drops out of the merge (its surviving peers' rows
// still stream; rows are never silently truncated outside that explicit
// opt-in).
func (st *ShardedStore) Query(ctx context.Context, iv flow.Interval, filter *nffilter.Filter, fn func(*flow.Record) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	cells, err := st.planCells(ctx, iv)
	if err != nil {
		return err
	}
	err = st.execCells(ctx, cells, filter, fn, st.degraded.Load())
	if errors.Is(err, nfstore.ErrStopIteration) {
		return nil
	}
	return err
}

// cellResult carries one cell worker's output: batches of matched
// records, then (after the channel closes) the scan error, if any.
type cellResult struct {
	batches chan []flow.Record
	err     error
}

// execCells runs the planned cells with at most fanout() in flight and
// merges their streams in plan order.
func (st *ShardedStore) execCells(ctx context.Context, cells []cell, filter *nffilter.Filter, fn func(*flow.Record) error, degraded bool) error {
	if len(cells) == 0 {
		return nil
	}
	k := min(st.fanout(), len(cells))
	if k <= 1 {
		for _, c := range cells {
			if err := ctx.Err(); err != nil {
				return err
			}
			err := st.shards[c.shard].Query(ctx, c.iv, filter, fn)
			if err != nil {
				if degraded && !callbackError(err, ctx) {
					continue
				}
				return st.cellError(c, err, ctx)
			}
		}
		return nil
	}

	// This cancel fires only on return, to stop the cells still scanning.
	// No cell is cancelled because another one failed, so the first error
	// met in merge order is that shard's own: unlike fanShards' fail-fast
	// pool there is no cancellation echo for cellError to pass over.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]*cellResult, len(cells))
	start := func(i int) {
		res := &cellResult{batches: make(chan []flow.Record, 4)}
		results[i] = res
		go func(c cell) {
			defer close(res.batches)
			res.err = st.scanCellBatches(ctx, c, filter, res.batches)
		}(cells[i])
	}
	next := 0
	for ; next < len(cells) && next < k; next++ {
		start(next)
	}

	// Merge in plan (= bin, shard) order; each finished cell admits the
	// next worker, keeping exactly k cells in flight. The record passed
	// to fn is reused, per the Query contract.
	var rec flow.Record
	for j := range cells {
		res := results[j]
		for batch := range res.batches {
			if err := ctx.Err(); err != nil {
				return err
			}
			for i := range batch {
				rec = batch[i]
				if err := fn(&rec); err != nil {
					return err
				}
			}
		}
		if res.err != nil {
			if !degraded || callbackError(res.err, ctx) {
				return st.cellError(cells[j], res.err, ctx)
			}
			// Degraded: this cell's shard failed mid-stream; its rows so
			// far stay, the rest of the merge continues without it.
		}
		if next < len(cells) {
			start(next)
			next++
		}
	}
	return nil
}

// callbackError reports whether a cell error originated in the merge
// callback (the errQueryStop marker shards wrap those in) or the
// caller's context rather than in the shard itself — those must
// propagate even in degraded mode.
func callbackError(err error, ctx context.Context) bool {
	var stop errQueryStop
	return errors.As(err, &stop) ||
		errors.Is(err, nfstore.ErrStopIteration) ||
		(ctx.Err() != nil && errors.Is(err, ctx.Err()))
}

// cellError attributes a cell failure to its shard unless it is really
// the caller's (a callback error — unwrapped back to the verbatim error
// — or the caller's own cancellation).
func (st *ShardedStore) cellError(c cell, err error, ctx context.Context) error {
	var stop errQueryStop
	if errors.As(err, &stop) {
		return stop.err
	}
	if callbackError(err, ctx) {
		return err
	}
	return &ShardError{Shard: st.shards[c.shard].Name(), Err: err}
}

// scanCellBatches queries one cell and sends matched records to out in
// batches of queryBatchSize.
func (st *ShardedStore) scanCellBatches(ctx context.Context, c cell, filter *nffilter.Filter, out chan<- []flow.Record) error {
	batch := make([]flow.Record, 0, queryBatchSize)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		select {
		case out <- batch:
		case <-ctx.Done():
			return ctx.Err()
		}
		batch = make([]flow.Record, 0, queryBatchSize)
		return nil
	}
	err := st.shards[c.shard].Query(ctx, c.iv, filter, func(r *flow.Record) error {
		batch = append(batch, *r)
		if len(batch) == queryBatchSize {
			return flush()
		}
		return nil
	})
	if err != nil {
		return err
	}
	return flush()
}
