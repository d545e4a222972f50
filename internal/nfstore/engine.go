package nfstore

import (
	"context"
	"iter"

	"repro/internal/flow"
	"repro/internal/nffilter"
)

// Engine is the full read/write surface of a flow store, satisfied by
// *Store and by shardstore.ShardedStore (the scatter-gather multi-store
// engine). Everything above the storage layer — detectors, the
// extraction engine, the evaluation pipeline, the HTTP backend — works
// against this interface, so a single-directory store and a sharded
// (or remote, HTTP-peer) store are interchangeable.
//
// The behavioral contracts are those documented on *Store: Query streams
// in bin order through a reused *flow.Record, Count/Summaries/TopN are
// exact aggregations, Stats exposes cumulative scan counters. Read-only
// engines (remote shard clients) reject Add/AddAll and treat Flush as a
// no-op.
type Engine interface {
	// Bin geometry and on-disk extent.
	BinSeconds() uint32
	Bins() ([]uint32, error)
	Span() (iv flow.Interval, ok bool, err error)

	// Ingest.
	Add(r *flow.Record) error
	AddAll(rs []flow.Record) error
	Flush() error
	Close() error

	// Queries and aggregations.
	Query(ctx context.Context, iv flow.Interval, filter *nffilter.Filter, fn func(*flow.Record) error) error
	Iter(ctx context.Context, iv flow.Interval, filter *nffilter.Filter) iter.Seq2[*flow.Record, error]
	Records(ctx context.Context, iv flow.Interval, filter *nffilter.Filter) ([]flow.Record, error)
	Count(ctx context.Context, iv flow.Interval, filter *nffilter.Filter) (flows, packets, bytes uint64, err error)
	Summaries(ctx context.Context, iv flow.Interval, filter *nffilter.Filter) ([]BinSummary, error)
	TopN(ctx context.Context, iv flow.Interval, filter *nffilter.Filter, feat flow.Feature, weight Weight, k int) ([]KeyCount, error)

	// Observability.
	Stats() Stats
	ResetStats()
	SegmentFormat() uint16
	SegmentFormats() (map[uint16]int, error)
}

// Compile-time check: the single-directory store is an Engine.
var _ Engine = (*Store)(nil)

// Iter returns a range-over-func iterator over eng's matching records —
// the streaming counterpart of Records for callers (like the extraction
// engine's dataset builder) that aggregate incrementally and never need
// the materialized slice. The yielded *flow.Record is reused between
// iterations, per the Query contract; the terminal iteration yields
// (nil, err) if the underlying scan failed or ctx was cancelled.
// Breaking out of the loop stops the scan early.
func Iter(ctx context.Context, eng Engine, iv flow.Interval, filter *nffilter.Filter) iter.Seq2[*flow.Record, error] {
	return func(yield func(*flow.Record, error) bool) {
		err := eng.Query(ctx, iv, filter, func(r *flow.Record) error {
			if !yield(r, nil) {
				return ErrStopIteration
			}
			return nil
		})
		if err != nil {
			yield(nil, err)
		}
	}
}

// Records collects eng's matching records into a slice, for callers
// (like the miner) that need random access.
func Records(ctx context.Context, eng Engine, iv flow.Interval, filter *nffilter.Filter) ([]flow.Record, error) {
	var out []flow.Record
	err := eng.Query(ctx, iv, filter, func(r *flow.Record) error {
		out = append(out, *r)
		return nil
	})
	return out, err
}

// EncodeRecord packs r into buf (at least RecordSize bytes) in the fixed
// little-endian v1 row layout — the wire format remote shards stream
// query results in.
func EncodeRecord(buf []byte, r *flow.Record) { encodeRecord(buf, r) }

// DecodeRecord unpacks a record from buf (at least RecordSize bytes),
// the inverse of EncodeRecord.
func DecodeRecord(buf []byte, r *flow.Record) { decodeRecord(buf, r) }
