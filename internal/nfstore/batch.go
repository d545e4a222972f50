package nfstore

import (
	"repro/internal/flow"
	"repro/internal/nffilter"
)

// Batch is a run of rows held column by column: what Engine.Scan hands
// its callback. Each exported slice is one record column. A column in
// the scan's projection holds Len values; every other column is nil, so
// it reads as empty, never as another batch's stale values. Record
// materializes one row with the unprojected fields zero. The slices are
// read-only and valid only until the callback returns, after which the
// engine reuses the batch.
//
// Inside the package a Batch is also a unit's decode buffer, whose
// columns outside the decoded set hold stale data: rows are read from
// it with fill and the decoded set, and it is never handed out as is.
type Batch struct {
	n    int
	cols nffilter.ColumnSet

	Start, Dur       []uint32
	SrcIP, DstIP     []uint32 // flow.IP values
	SrcPort, DstPort []uint16
	Proto, Flags     []uint8  // Proto holds flow.Protocol values
	Router, Anno     []uint16 // Anno holds flow.Annotation values
	Packets, Bytes   []uint64
}

// Len returns the number of rows.
func (b *Batch) Len() int { return b.n }

// Record sets r to row i. Fields outside the batch's columns are zero.
func (b *Batch) Record(i int, r *flow.Record) { b.fill(r, i, b.cols) }

// fill materializes row i into r. Columns outside dec are zeroed — r is
// reused between rows and must not leak a previous row's fields.
func (b *Batch) fill(r *flow.Record, i int, dec nffilter.ColumnSet) {
	*r = flow.Record{}
	if dec.Has(nffilter.ColStart) {
		r.Start = b.Start[i]
	}
	if dec.Has(nffilter.ColDur) {
		r.Dur = b.Dur[i]
	}
	if dec.Has(nffilter.ColSrcIP) {
		r.SrcIP = flow.IP(b.SrcIP[i])
	}
	if dec.Has(nffilter.ColDstIP) {
		r.DstIP = flow.IP(b.DstIP[i])
	}
	if dec.Has(nffilter.ColSrcPort) {
		r.SrcPort = b.SrcPort[i]
	}
	if dec.Has(nffilter.ColDstPort) {
		r.DstPort = b.DstPort[i]
	}
	if dec.Has(nffilter.ColProto) {
		r.Proto = flow.Protocol(b.Proto[i])
	}
	if dec.Has(nffilter.ColFlags) {
		r.Flags = b.Flags[i]
	}
	if dec.Has(nffilter.ColRouter) {
		r.Router = b.Router[i]
	}
	if dec.Has(nffilter.ColAnno) {
		r.Anno = flow.Annotation(b.Anno[i])
	}
	if dec.Has(nffilter.ColPackets) {
		r.Packets = b.Packets[i]
	}
	if dec.Has(nffilter.ColBytes) {
		r.Bytes = b.Bytes[i]
	}
}

// project makes b the rows of the decode buffer src that rows lists, in
// ascending order, carrying only the columns in cols. When rows lists
// every row the columns are shared with src as they are; otherwise the
// selected rows are first compacted in place in src's columns, whose
// other rows are lost.
func (b *Batch) project(src *Batch, rows []int32, cols nffilter.ColumnSet) {
	*b = Batch{n: len(rows), cols: cols}
	has := cols.Has
	if has(nffilter.ColStart) {
		b.Start = compact(src.Start, rows)
	}
	if has(nffilter.ColDur) {
		b.Dur = compact(src.Dur, rows)
	}
	if has(nffilter.ColSrcIP) {
		b.SrcIP = compact(src.SrcIP, rows)
	}
	if has(nffilter.ColDstIP) {
		b.DstIP = compact(src.DstIP, rows)
	}
	if has(nffilter.ColSrcPort) {
		b.SrcPort = compact(src.SrcPort, rows)
	}
	if has(nffilter.ColDstPort) {
		b.DstPort = compact(src.DstPort, rows)
	}
	if has(nffilter.ColProto) {
		b.Proto = compact(src.Proto, rows)
	}
	if has(nffilter.ColFlags) {
		b.Flags = compact(src.Flags, rows)
	}
	if has(nffilter.ColRouter) {
		b.Router = compact(src.Router, rows)
	}
	if has(nffilter.ColAnno) {
		b.Anno = compact(src.Anno, rows)
	}
	if has(nffilter.ColPackets) {
		b.Packets = compact(src.Packets, rows)
	}
	if has(nffilter.ColBytes) {
		b.Bytes = compact(src.Bytes, rows)
	}
}

// compact moves the listed rows (ascending) of col to its front and
// returns them; it copies nothing when rows lists them all.
func compact[T any](col []T, rows []int32) []T {
	if len(rows) < len(col) {
		for j, i := range rows {
			col[j] = col[i]
		}
	}
	return col[:len(rows)]
}

// appendRows appends rows [lo, hi) of src to b and gives b src's
// columns; b must be empty or hold rows with the same columns.
func (b *Batch) appendRows(src *Batch, lo, hi int) {
	at := b.n
	b.n, b.cols = at+hi-lo, src.cols
	b.Start = appendCol(b.Start, src.Start, at, lo, hi)
	b.Dur = appendCol(b.Dur, src.Dur, at, lo, hi)
	b.SrcIP = appendCol(b.SrcIP, src.SrcIP, at, lo, hi)
	b.DstIP = appendCol(b.DstIP, src.DstIP, at, lo, hi)
	b.SrcPort = appendCol(b.SrcPort, src.SrcPort, at, lo, hi)
	b.DstPort = appendCol(b.DstPort, src.DstPort, at, lo, hi)
	b.Proto = appendCol(b.Proto, src.Proto, at, lo, hi)
	b.Flags = appendCol(b.Flags, src.Flags, at, lo, hi)
	b.Router = appendCol(b.Router, src.Router, at, lo, hi)
	b.Anno = appendCol(b.Anno, src.Anno, at, lo, hi)
	b.Packets = appendCol(b.Packets, src.Packets, at, lo, hi)
	b.Bytes = appendCol(b.Bytes, src.Bytes, at, lo, hi)
}

// appendCol appends src[lo:hi] to the first at values of dst, or
// returns nil for a column src does not carry.
func appendCol[T any](dst, src []T, at, lo, hi int) []T {
	if src == nil {
		return nil
	}
	return append(dst[:at], src[lo:hi]...)
}
