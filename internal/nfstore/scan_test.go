package nfstore

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/flow"
	"repro/internal/nffilter"
)

// maskRecord zeroes the fields of r outside cols: what a projected
// scan's Batch.Record reads back.
func maskRecord(r flow.Record, cols nffilter.ColumnSet) flow.Record {
	var m flow.Record
	if cols.Has(nffilter.ColStart) {
		m.Start = r.Start
	}
	if cols.Has(nffilter.ColDur) {
		m.Dur = r.Dur
	}
	if cols.Has(nffilter.ColSrcIP) {
		m.SrcIP = r.SrcIP
	}
	if cols.Has(nffilter.ColDstIP) {
		m.DstIP = r.DstIP
	}
	if cols.Has(nffilter.ColSrcPort) {
		m.SrcPort = r.SrcPort
	}
	if cols.Has(nffilter.ColDstPort) {
		m.DstPort = r.DstPort
	}
	if cols.Has(nffilter.ColProto) {
		m.Proto = r.Proto
	}
	if cols.Has(nffilter.ColFlags) {
		m.Flags = r.Flags
	}
	if cols.Has(nffilter.ColRouter) {
		m.Router = r.Router
	}
	if cols.Has(nffilter.ColAnno) {
		m.Anno = r.Anno
	}
	if cols.Has(nffilter.ColPackets) {
		m.Packets = r.Packets
	}
	if cols.Has(nffilter.ColBytes) {
		m.Bytes = r.Bytes
	}
	return m
}

// batchColumnsWellFormed reports whether every column of b in cols holds
// Len values and every other column is nil.
func batchColumnsWellFormed(b *Batch, cols nffilter.ColumnSet) bool {
	lens := [nffilter.NumColumns]int{len(b.Start), len(b.Dur), len(b.SrcIP), len(b.DstIP),
		len(b.SrcPort), len(b.DstPort), len(b.Proto), len(b.Flags), len(b.Router), len(b.Anno),
		len(b.Packets), len(b.Bytes)}
	nils := [nffilter.NumColumns]bool{b.Start == nil, b.Dur == nil, b.SrcIP == nil, b.DstIP == nil,
		b.SrcPort == nil, b.DstPort == nil, b.Proto == nil, b.Flags == nil, b.Router == nil, b.Anno == nil,
		b.Packets == nil, b.Bytes == nil}
	for c := range nffilter.NumColumns {
		if cols.Has(c) != (lens[c] == b.Len()) || cols.Has(c) == nils[c] {
			return false
		}
	}
	return b.Len() > 0
}

// scanFilter draws a nil, a vectorised or a per-row fallback filter.
func scanFilter(rng *rand.Rand) *nffilter.Filter {
	switch rng.Intn(6) {
	case 0:
		return nil
	case 1:
		// An unknown counter field reads 0, so ">= 0" keeps every row
		// the other conjunct does, through the per-row fallback.
		return nffilter.FromNode(&nffilter.And{Kids: []nffilter.Node{
			randFilterNode(rng, 2),
			&nffilter.CounterMatch{Field: nffilter.CounterField(99), Op: nffilter.CmpGe},
		}})
	default:
		return nffilter.FromNode(randFilterNode(rng, 3))
	}
}

// TestScanMatchesQuery pins Scan to Query on both segment formats, at
// fan-out 1 and 4, over random spans, filters (vectorised and per-row
// fallback) and projections: the rows of Scan's batches, read through
// Batch.Record, are Query's rows in Query's order with every field
// outside the projection zero, and each batch carries exactly the
// projected columns. ErrStopIteration and cancellation end Scan as they
// end Query.
func TestScanMatchesQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	v1, v2 := twinStores(t, rng, 9000, 8)
	ctx := t.Context()
	for _, s := range []*Store{v1, v2} {
		for trial := range 60 {
			f := scanFilter(rng)
			lo := uint32(rng.Intn(9 * 300))
			iv := flow.Interval{Start: lo, End: lo + uint32(rng.Intn(5*300))}
			cols := nffilter.ColumnSet(rng.Intn(int(nffilter.AllColumns) + 1))
			s.par.Store(int32([]int{1, 4}[trial%2]))
			want, err := s.Records(ctx, iv, f)
			if err != nil {
				t.Fatal(err)
			}
			var got []flow.Record
			err = s.Scan(ctx, iv, f, cols, func(b *Batch) error {
				if !batchColumnsWellFormed(b, cols) {
					t.Fatalf("v%d trial %d: batch of %d rows does not carry exactly %v", s.SegmentFormat(), trial, b.Len(), cols)
				}
				for i := range b.Len() {
					var r flow.Record
					b.Record(i, &r)
					got = append(got, r)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("v%d trial %d filter %v iv %v cols %v: Scan %d rows, Query %d",
					s.SegmentFormat(), trial, f, iv, cols, len(got), len(want))
			}
			for i := range got {
				if m := maskRecord(want[i], cols); got[i] != m {
					t.Fatalf("v%d trial %d cols %v: row %d\n got %+v\nwant %+v", s.SegmentFormat(), trial, cols, i, got[i], m)
				}
			}
		}

		// ErrStopIteration from the second batch ends the scan cleanly,
		// and cancelling in the first delivers no further batch.
		all := flow.Interval{Start: 0, End: 8 * 300}
		for _, k := range []int32{1, 4} {
			s.par.Store(k)
			calls := 0
			err := s.Scan(ctx, all, nil, nffilter.AllColumns, func(*Batch) error {
				if calls++; calls == 2 {
					return ErrStopIteration
				}
				return nil
			})
			if err != nil || calls != 2 {
				t.Fatalf("v%d k=%d: ErrStopIteration gave %v after %d batches, want nil after 2", s.SegmentFormat(), k, err, calls)
			}
			cctx, cancel := context.WithCancel(ctx)
			calls = 0
			err = s.Scan(cctx, all, nil, nffilter.AllColumns, func(*Batch) error {
				calls++
				cancel()
				return nil
			})
			if !errors.Is(err, context.Canceled) || calls != 1 {
				t.Fatalf("v%d k=%d: cancel gave %v after %d batches, want context.Canceled after 1", s.SegmentFormat(), k, err, calls)
			}
			if err := s.Scan(cctx, all, nil, 0, func(*Batch) error { t.Fatal("batch on a cancelled context"); return nil }); !errors.Is(err, context.Canceled) {
				t.Fatalf("v%d k=%d: Scan on a cancelled context = %v", s.SegmentFormat(), k, err)
			}
		}
		s.par.Store(0)
	}
}
