package nfstore

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/flow"
	"repro/internal/nffilter"
)

// Weight selects the volume dimension an aggregation accumulates. The
// extended Apriori of the paper mines support in flows and in packets;
// byte weighting is provided for completeness (nfdump offers all three).
type Weight int

// Aggregation weights.
const (
	ByFlows Weight = iota
	ByPackets
	ByBytes
)

// String names the weight dimension ("flows", "packets", "bytes").
func (w Weight) String() string {
	switch w {
	case ByFlows:
		return "flows"
	case ByPackets:
		return "packets"
	case ByBytes:
		return "bytes"
	default:
		return fmt.Sprintf("weight-%d", int(w))
	}
}

// Of returns the record's value along the weight dimension.
func (w Weight) Of(r *flow.Record) uint64 {
	switch w {
	case ByFlows:
		return 1
	case ByPackets:
		return r.Packets
	case ByBytes:
		return r.Bytes
	default:
		return 0
	}
}

// KeyCount is one row of a TopN aggregation.
type KeyCount struct {
	Value uint32 // the feature value (IP, port or protocol, widened)
	Count uint64 // accumulated weight
}

// featColumn maps a mined traffic feature to the storage column holding
// it, so TopN over a columnar segment decodes only that column. Unknown
// features fall back to a full decode.
func featColumn(f flow.Feature) nffilter.ColumnSet {
	switch f {
	case flow.FeatSrcIP:
		return nffilter.ColumnSet(0).With(nffilter.ColSrcIP)
	case flow.FeatDstIP:
		return nffilter.ColumnSet(0).With(nffilter.ColDstIP)
	case flow.FeatSrcPort:
		return nffilter.ColumnSet(0).With(nffilter.ColSrcPort)
	case flow.FeatDstPort:
		return nffilter.ColumnSet(0).With(nffilter.ColDstPort)
	case flow.FeatProto:
		return nffilter.ColumnSet(0).With(nffilter.ColProto)
	default:
		return nffilter.AllColumns
	}
}

// weightColumns lists the columns a weight dimension reads (none for flow
// counting). Unknown weights fall back to a full decode.
func weightColumns(w Weight) nffilter.ColumnSet {
	switch w {
	case ByFlows:
		return 0
	case ByPackets:
		return nffilter.ColumnSet(0).With(nffilter.ColPackets)
	case ByBytes:
		return nffilter.ColumnSet(0).With(nffilter.ColBytes)
	default:
		return nffilter.AllColumns
	}
}

// TopN aggregates matching records by a single traffic feature and returns
// the k heaviest values — nfdump's "-s" statistic, which the paper's GUI
// surfaces next to extracted itemsets. The scan runs through the pruned,
// parallel query engine with the projection narrowed to the feature and
// weight columns; unlike Count and Summaries it cannot be answered from
// sidecars alone, because zone maps keep no per-value histograms.
func (s *Store) TopN(ctx context.Context, iv flow.Interval, filter *nffilter.Filter, feat flow.Feature, weight Weight, k int) ([]KeyCount, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	plan, err := s.planSegments(iv, filter)
	if err != nil {
		return nil, err
	}
	opts := scanOpts{iv: iv, filter: filter, proj: featColumn(feat) | weightColumns(weight)}
	acc := make(map[uint32]uint64)
	var r flow.Record
	err = s.execPlan(ctx, plan, opts, func(b *Batch) error {
		for i := range b.n {
			b.Record(i, &r)
			acc[feat.Value(&r)] += weight.Of(&r)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return RankCounts(acc, k), nil
}

// RankCounts turns accumulated per-value weights into TopN rows: count
// descending, value ascending on ties, cut at k (k <= 0 keeps every
// row). Single-store and scatter-gather TopN rank through it, so a merged
// ranking matches a single store's exactly.
func RankCounts(acc map[uint32]uint64, k int) []KeyCount {
	rows := make([]KeyCount, 0, len(acc))
	for v, c := range acc {
		rows = append(rows, KeyCount{Value: v, Count: c})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Count != rows[j].Count {
			return rows[i].Count > rows[j].Count
		}
		return rows[i].Value < rows[j].Value
	})
	if k > 0 && len(rows) > k {
		rows = rows[:k]
	}
	return rows
}

// BinSummary is the per-bin traffic volume triple used by detectors that
// track volume metrics alongside feature distributions.
type BinSummary struct {
	Bin     flow.Interval
	Flows   uint64
	Packets uint64
	Bytes   uint64
}

// Summaries returns one BinSummary per on-disk bin overlapping iv, in time
// order. Bins with no matching records still produce a (zero) summary so
// time series stay gap-free for the detectors.
//
// Bins whose sidecar proves the filter matches every record (or, for a
// filter that cannot match, no record) are answered from the sidecar's
// totals without opening the segment — the aggregation pushdown that makes
// detector warm-up sweeps over long archives nearly free. The store
// directory is listed once for the whole call — per-bin planning reuses
// the listing, so a warm-up sweep over B bins costs one ReadDir, not B.
func (s *Store) Summaries(ctx context.Context, iv flow.Interval, filter *nffilter.Filter) ([]BinSummary, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	bins, err := s.Bins()
	if err != nil {
		return nil, err
	}
	var out []BinSummary
	for _, bin := range bins {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		seg := flow.Interval{Start: bin, End: bin + s.binSeconds}
		if !seg.Overlaps(iv) {
			continue
		}
		// countPlan carries the whole fast path: sidecar pushdown when
		// the filter provably covers the bin, zone-map pruning (a
		// gap-free zero summary, for free) when it provably cannot
		// match, a scan otherwise.
		one := [1]uint32{bin}
		flows, packets, bytes, err := s.countPlan(ctx, s.planSegmentsIn(one[:], seg, filter), seg, filter)
		if err != nil {
			return nil, err
		}
		out = append(out, BinSummary{Bin: seg, Flows: flows, Packets: packets, Bytes: bytes})
	}
	return out, nil
}
