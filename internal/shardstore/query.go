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
// a shard actually holds. Cells execute on nfstore.ScanOrdered, the
// single store's own segment merge — workers launch at most k ahead of
// the merge cursor and start order equals drain order, so the pool can
// never deadlock — and the merger emits cells in (bin asc, shard asc)
// order. Under time partitioning each bin is one cell, making the merged
// stream byte-identical to a single store's bin-ordered scan; under hash
// partitioning records within a bin arrive grouped by shard (still
// deterministic, and exact for every aggregation).
//
// Each cell's interval is its bin clipped to the query interval, so a
// shard-side scan touches exactly one segment, with the shard's own
// zone-map pruning, block pruning and vectorized filtering intact.

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
	_, err := st.fanShards(ctx, func(_ context.Context, i int, sh nfstore.Engine) error {
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

// Scan streams every matching row to fn as column batches in (bin,
// shard) merge order, with the nfstore.Engine contract: the *Batch
// carries only cols and is reused, ErrStopIteration from fn ends the
// scan cleanly, cancellation aborts promptly. A failing shard aborts
// with a ShardError naming it — or, in degraded mode, drops out of the
// merge (its surviving peers' rows still stream; rows are never silently
// truncated outside that explicit opt-in).
func (st *ShardedStore) Scan(ctx context.Context, iv flow.Interval, filter *nffilter.Filter, cols nffilter.ColumnSet, fn func(*nfstore.Batch) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	cells, err := st.planCells(ctx, iv)
	if err != nil {
		return err
	}
	scan := func(ctx context.Context, i int, emit func(*nfstore.Batch) error) error {
		return st.shards[cells[i].shard].Scan(ctx, cells[i].iv, filter, cols, emit)
	}
	// fail attributes a cell's error. fn's own errors never reach it:
	// ScanOrdered returns those itself, at any fan-out, so no marker has
	// to carry them through the shard. The caller's cancellation comes
	// back as is even in degraded mode; a shard's error is skipped when
	// degraded — the rows it emitted first stay — and otherwise becomes
	// a ShardError naming it.
	degraded := st.degraded.Load()
	fail := func(i int, err error) error {
		switch {
		case ctx.Err() != nil && errors.Is(err, ctx.Err()):
			return err
		case degraded:
			return nil
		}
		return &ShardError{Shard: st.names[cells[i].shard], Err: err}
	}
	err = nfstore.ScanOrdered(ctx, len(cells), st.fanout(), scan, fn, fail)
	if errors.Is(err, nfstore.ErrStopIteration) {
		return nil
	}
	return err
}

// Query streams the rows Scan would, one record at a time
// (nfstore.Query).
func (st *ShardedStore) Query(ctx context.Context, iv flow.Interval, filter *nffilter.Filter, fn func(*flow.Record) error) error {
	return nfstore.Query(ctx, st, iv, filter, fn)
}
