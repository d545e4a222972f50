package nfstore

import (
	"context"
	"runtime"
	"sync/atomic"

	"repro/internal/flow"
	"repro/internal/nffilter"
)

// The query engine plans a span scan in three steps: list the segments
// overlapping the interval, prune the ones whose zone map proves the
// filter cannot match, then scan the survivors — serially below the
// parallelism threshold, otherwise on ScanOrdered's bounded worker pool,
// whose results are merged back in deterministic bin order. The callback
// contract is identical to a serial scan: records arrive in bin order,
// file order within a bin, through a reused *flow.Record.

// queryBatchSize is how many matched records a ScanOrdered worker
// accumulates before handing them to the merger. It is kept below
// ctxCheckStride so cancellation observed between batches still lands
// within the documented one-stride bound.
const queryBatchSize = 512

// maxAutoParallelism caps the automatic worker count: segment scans are
// I/O-and-decode bound, and past a handful of workers the merger becomes
// the bottleneck.
const maxAutoParallelism = 8

// Stats is a snapshot of the store's cumulative scan counters. The
// counters make the pruning and pushdown fast paths observable: a
// selective filter over a well-indexed store shows SegmentsPruned close
// to SegmentsConsidered, and sidecar-answered aggregations count under
// SegmentsAggregated without touching RecordsScanned.
type Stats struct {
	// SegmentsConsidered counts segments whose bin overlapped a query span.
	SegmentsConsidered uint64 `json:"segments_considered"`
	// SegmentsPruned counts segments skipped because their zone map proved
	// the filter (or the span) could not match any record.
	SegmentsPruned uint64 `json:"segments_pruned"`
	// SegmentsScanned counts segment files actually opened and decoded.
	SegmentsScanned uint64 `json:"segments_scanned"`
	// SegmentsAggregated counts segments answered entirely from their
	// sidecar by an aggregation pushdown (Count, Summaries).
	SegmentsAggregated uint64 `json:"segments_aggregated"`
	// RecordsScanned counts records decoded from disk (for columnar
	// segments: records in blocks whose columns were decoded — rows in
	// pruned or aggregated blocks are never decoded and never counted).
	RecordsScanned uint64 `json:"records_scanned"`
	// SidecarsBuilt counts zone-map sidecars written (at flush time or
	// lazily while scanning an unindexed segment).
	SidecarsBuilt uint64 `json:"sidecars_built"`
	// BlocksScanned counts v2 column blocks whose columns were decoded.
	BlocksScanned uint64 `json:"blocks_scanned"`
	// BlocksPruned counts v2 column blocks skipped because their block
	// zone map proved the filter (or the span) could not match.
	BlocksPruned uint64 `json:"blocks_pruned"`
	// BlocksAggregated counts v2 column blocks answered entirely from
	// their block zone-map totals by an aggregation pushdown.
	BlocksAggregated uint64 `json:"blocks_aggregated"`
}

// storeStats holds the live atomic counters behind Stats.
type storeStats struct {
	segmentsConsidered atomic.Uint64
	segmentsPruned     atomic.Uint64
	segmentsScanned    atomic.Uint64
	segmentsAggregated atomic.Uint64
	recordsScanned     atomic.Uint64
	sidecarsBuilt      atomic.Uint64
	blocksScanned      atomic.Uint64
	blocksPruned       atomic.Uint64
	blocksAggregated   atomic.Uint64
}

// Stats returns a snapshot of the store's scan counters.
func (s *Store) Stats() Stats {
	return Stats{
		SegmentsConsidered: s.stats.segmentsConsidered.Load(),
		SegmentsPruned:     s.stats.segmentsPruned.Load(),
		SegmentsScanned:    s.stats.segmentsScanned.Load(),
		SegmentsAggregated: s.stats.segmentsAggregated.Load(),
		RecordsScanned:     s.stats.recordsScanned.Load(),
		SidecarsBuilt:      s.stats.sidecarsBuilt.Load(),
		BlocksScanned:      s.stats.blocksScanned.Load(),
		BlocksPruned:       s.stats.blocksPruned.Load(),
		BlocksAggregated:   s.stats.blocksAggregated.Load(),
	}
}

// ResetStats zeroes the scan counters (between benchmark phases, say).
func (s *Store) ResetStats() {
	s.stats.segmentsConsidered.Store(0)
	s.stats.segmentsPruned.Store(0)
	s.stats.segmentsScanned.Store(0)
	s.stats.segmentsAggregated.Store(0)
	s.stats.recordsScanned.Store(0)
	s.stats.sidecarsBuilt.Store(0)
	s.stats.blocksScanned.Store(0)
	s.stats.blocksPruned.Store(0)
	s.stats.blocksAggregated.Store(0)
}

// queryParallelism is how many segments a query scans concurrently:
// min(GOMAXPROCS, 8), unless an in-package test pinned par.
func (s *Store) queryParallelism() int {
	if k := s.par.Load(); k > 0 {
		return int(k)
	}
	return min(runtime.GOMAXPROCS(0), maxAutoParallelism)
}

// SetPruning toggles zone-map segment pruning and lazy sidecar builds
// (enabled by default). Disabling it forces every overlapping segment to
// be scanned — the pre-index behavior, kept reachable for benchmarks and
// correctness cross-checks.
func (s *Store) SetPruning(enabled bool) { s.pruneOff.Store(!enabled) }

// segPlan is one segment a query decided to touch.
type segPlan struct {
	bin uint32
	// zm is the segment's validated zone map (nil when absent/stale).
	zm *zoneMap
	// buildIdx asks the scan to rebuild the missing sidecar as it reads.
	buildIdx bool
}

// planSegments lists the segments overlapping iv that the filter may
// match, pruning provably-irrelevant ones via their zone maps.
func (s *Store) planSegments(iv flow.Interval, filter *nffilter.Filter) ([]segPlan, error) {
	bins, err := s.Bins()
	if err != nil {
		return nil, err
	}
	return s.planSegmentsIn(bins, iv, filter), nil
}

// planSegmentsIn is planSegments over an already-listed bin set, so
// callers iterating many spans (Summaries) list the store directory
// once instead of once per span.
func (s *Store) planSegmentsIn(bins []uint32, iv flow.Interval, filter *nffilter.Filter) []segPlan {
	pruning := !s.pruneOff.Load()
	var root nffilter.Node
	if filter != nil {
		root = filter.Root()
	}
	var plan []segPlan
	for _, bin := range bins {
		seg := flow.Interval{Start: bin, End: bin + s.binSeconds}
		if !seg.Overlaps(iv) {
			continue
		}
		s.stats.segmentsConsidered.Add(1)
		p := segPlan{bin: bin}
		if pruning {
			if z := s.loadZoneMap(bin); z != nil {
				if !z.overlapsStart(iv) || (root != nil && !z.canMatch(root)) {
					s.stats.segmentsPruned.Add(1)
					continue
				}
				p.zm = z
			} else {
				p.buildIdx = true
			}
		}
		plan = append(plan, p)
	}
	return plan
}

// execPlan streams the planned segments' matches to fn in bin order on
// ScanOrdered. Span and filter matching happen inside scanSegment (where
// the columnar path can prune blocks and evaluate vectorized); fn only
// consumes survivors.
func (s *Store) execPlan(ctx context.Context, plan []segPlan, opts scanOpts, fn func(*flow.Record) error) error {
	scan := func(ctx context.Context, i int, emit func(*flow.Record) error) error {
		return s.scanSegment(ctx, plan[i], opts, emit)
	}
	return ScanOrdered(ctx, len(plan), s.queryParallelism(), scan, fn, nil)
}

// ScanOrdered runs n scan units (a store's segments, a sharded store's
// (bin, shard) cells) with at most k in flight and streams their records
// to fn in unit order, so fn sees the serial sequence at any k; k <= 1
// scans on the caller's goroutine. Above that, workers hand records over
// in batches of queryBatchSize and start lazily, at most k ahead of the
// merge cursor, so goroutines and buffered memory scale with k, not n (a
// warm-up sweep can plan tens of thousands of segments). The
// *flow.Record passed to fn is reused.
//
// scan(ctx, i, emit) runs unit i and stops when emit fails, returning
// emit's error, wrapped or not. An fn error ends the scan verbatim. A
// unit's own error reaches fail(i, err) after every record the unit
// emitted before it has reached fn; fail returns nil to skip the unit
// (degraded reads) or the error to end the scan with, and a nil fail
// ends it with the unit's error. Cancelling ctx ends the scan with
// ctx.Err() within one batch.
func ScanOrdered(ctx context.Context, n, k int, scan func(ctx context.Context, i int, emit func(*flow.Record) error) error, fn func(*flow.Record) error, fail func(i int, err error) error) error {
	if k = min(k, n); k <= 1 {
		// fail must see only the units' own errors, so fn's are caught on
		// the way out.
		var fnErr error
		emit := func(r *flow.Record) error {
			fnErr = fn(r)
			return fnErr
		}
		for i := range n {
			if err := ctx.Err(); err != nil {
				return err
			}
			err := scan(ctx, i, emit)
			if fnErr != nil {
				return fnErr
			}
			if err != nil && fail != nil {
				err = fail(i, err)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}

	// This cancel fires only on return, to stop the units still scanning.
	// No unit is cancelled because another failed, so the first error
	// met in merge order is that unit's own.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type unit struct {
		batches chan []flow.Record
		err     error // set before batches closes
	}
	units := make([]*unit, n)
	start := func(i int) {
		// Four batches of slack let a worker keep decoding while the
		// merger drains the units ahead of it.
		u := &unit{batches: make(chan []flow.Record, 4)}
		units[i] = u
		go func() {
			defer close(u.batches)
			batch := make([]flow.Record, 0, queryBatchSize)
			send := func() error {
				select {
				case u.batches <- batch:
				case <-ctx.Done():
					return ctx.Err()
				}
				batch = make([]flow.Record, 0, queryBatchSize)
				return nil
			}
			err := scan(ctx, i, func(r *flow.Record) error {
				batch = append(batch, *r)
				if len(batch) == queryBatchSize {
					return send()
				}
				return nil
			})
			// The rows a failing unit emitted before its error still
			// reach the merge, exactly as they reach fn when serial.
			if len(batch) > 0 {
				if serr := send(); err == nil {
					err = serr
				}
			}
			u.err = err
		}()
	}
	next := 0
	for ; next < k; next++ {
		start(next)
	}

	// Merge in unit order; each finished unit admits the next worker,
	// keeping exactly k scans in flight.
	var rec flow.Record
	for j, u := range units {
		for batch := range u.batches {
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
		if err := u.err; err != nil {
			if fail != nil {
				err = fail(j, err)
			}
			if err != nil {
				return err
			}
		}
		if next < n {
			start(next)
			next++
		}
	}
	return nil
}
