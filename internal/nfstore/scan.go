package nfstore

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/flow"
	"repro/internal/nffilter"
)

// scanOpts bundles what a segment scan applies beyond the plan entry.
type scanOpts struct {
	iv     flow.Interval
	filter *nffilter.Filter
	// proj is the set of columns emitted batches carry (the filter's own
	// columns are decoded as well, but not emitted; Start is decoded for
	// the interval mask except in blocks provably inside iv).
	proj nffilter.ColumnSet
	// all disables the interval mask: every record of the segment is
	// emitted (MigrateWorkers' raw rewrite path, BuildIndexes).
	all bool
	// agg, when non-nil, consumes whole-block totals for v2 blocks whose
	// zone map proves them fully inside iv and fully matching, instead of
	// their rows (Count/Summaries pushdown below segment granularity). It
	// may be called from worker goroutines concurrently — implementations
	// must be safe for that.
	agg func(flows, packets, bytes uint64)
}

// testScanReader, when set by a test, wraps the byte source of every
// segment scan (after the committed-length limit is applied).
var testScanReader func(io.Reader) io.Reader

// scanSegment opens one planned segment and streams its matching rows to
// emit in file order, one batch per unit (see unitReader), for either body
// format. When the plan asks for it (buildIdx), a zone map of the whole
// segment is rebuilt as a side effect and persisted best-effort.
//
// A segment with a live writer may end mid-unit on disk — buffered
// appends reach the file in bufio-sized slices — so the scan takes one
// snapshot, under the store lock every segment write happens under:
// whether the bin has an open writer, and the file's committed length.
// It never reads past that length. A short tail is the end of the
// flushed prefix when the bin was open at the snapshot (live readers see
// a consistent prefix) and corruption otherwise: a closed segment ends
// at a unit boundary, and whatever a writer that reopens the bin later
// appends lies beyond the snapshot. Sidecars are never persisted from an
// open bin's prefix.
func (s *Store) scanSegment(ctx context.Context, p segPlan, opts scanOpts, emit func(*Batch) error) error {
	s.stats.segmentsScanned.Add(1)
	f, err := os.Open(s.segPath(p.bin))
	if err != nil {
		return fmt.Errorf("nfstore: open segment %d: %w", p.bin, err)
	}
	defer f.Close()
	s.mu.RLock()
	open := s.open[p.bin] != nil
	st, err := f.Stat()
	s.mu.RUnlock()
	if err != nil {
		return fmt.Errorf("nfstore: stat segment %d: %w", p.bin, err)
	}
	var src io.Reader = io.LimitReader(f, st.Size())
	if testScanReader != nil {
		src = testScanReader(src)
	}
	br := segReaders.Get().(*bufio.Reader)
	br.Reset(src)
	defer segReaders.Put(br)
	var zb *zoneMap
	if p.buildIdx && !open {
		zb = newZoneMap()
	}
	rd := &unitReader{blocks: blockReader{br: br}, bin: p.bin, binSeconds: s.binSeconds}
	return s.scanUnits(ctx, rd, open, zb, opts, emit)
}

// segReaders pools the buffered readers used for segment scans so
// concurrent queries do not re-allocate (and re-zero) a large buffer per
// segment. The buffer is sized to hold any unit the writer emits, which
// keeps unitReader on its zero-copy path for well-formed segments.
var segReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 1<<19) }}

// scanUnits streams a segment unit by unit. Per v2 block it first
// consults the block zone map: provably irrelevant blocks are skipped
// without decoding a single column, and (for aggregations) fully
// covered, fully matching blocks are consumed as totals. Surviving units
// decode only the columns the filter and the projection need, the filter
// runs vectorized over the column batch, and the unit's selected rows go
// to emit as one Batch of the projected columns — the decoded columns
// themselves when every row is selected. A short tail ends the scan
// cleanly only in a bin that was open at the snapshot. When zb is
// non-nil every record also folds into it, and a clean end persists it
// as the segment's sidecar. Cancellation lands within one unit.
func (s *Store) scanUnits(ctx context.Context, rd *unitReader, open bool, zb *zoneMap, opts scanOpts, emit func(*Batch) error) error {
	bin := rd.bin
	var root nffilter.Node
	if opts.filter != nil {
		root = opts.filter.Root()
	}
	// An AST with nodes the vectorized evaluator does not know falls back
	// to per-row Eval over fully decoded records; nffilter.Requires is
	// conservative the same way, so the full decode is already implied.
	vec := root == nil || vecSupported(root)
	dec := opts.proj.With(nffilter.ColStart) | nffilter.Requires(root)
	// For blocks the zone map proves fully inside iv the per-row interval
	// mask is a tautology, so Start is decoded only if the projection or
	// the filter reads it.
	decCovered := opts.proj | nffilter.Requires(root)
	filterCols := nffilter.Requires(root)
	if !vec || zb != nil {
		dec = nffilter.AllColumns
		decCovered = nffilter.AllColumns
	}
	pruning := !s.pruneOff.Load() && zb == nil
	var scanned uint64
	defer func() { s.stats.recordsScanned.Add(scanned) }()
	var (
		rec        flow.Record
		batch, out Batch
		rows       []int32
	)
	ev := vecEvaluator{b: &batch}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		count, meta, err := rd.next()
		if err == io.EOF {
			if zb != nil {
				zb.coveredSize = rd.consumed
				zb.format = rd.format
				_ = s.writeZoneMap(bin, zb)
			}
			return nil
		}
		if err != nil {
			if open && errors.Is(err, errTruncated) {
				return nil // header or tail unit mid-append: end of the flushed prefix
			}
			return fmt.Errorf("nfstore: segment %d: %w", bin, err)
		}
		covered := false
		if meta != nil {
			if pruning && !opts.all {
				if opts.agg != nil && meta.coversStarts(opts.iv) && (root == nil || meta.matchesAll(root)) {
					opts.agg(uint64(count), meta.packets, meta.bytes)
					s.stats.blocksAggregated.Add(1)
					continue
				}
				if !meta.overlapsStart(opts.iv) || (root != nil && !meta.canMatch(root)) {
					s.stats.blocksPruned.Add(1)
					continue
				}
			}
			s.stats.blocksScanned.Add(1)
			covered = !opts.all && meta.coversStarts(opts.iv)
		}
		bdec := dec
		if covered {
			bdec = decCovered
		}
		var sel []bool
		if vec && root != nil && zb == nil {
			// Two-phase decode: only the filter's columns first, then the
			// rest of the projection — and only when the mask selected
			// anything. Units the filter rejects wholesale (the common
			// case for a selective filter over background traffic) never
			// pay for their timestamp, counter and address columns.
			if err := rd.decode(filterCols, &batch); err != nil {
				return fmt.Errorf("nfstore: segment %d: %w", bin, err)
			}
			sel = ev.eval(root)
			scanned += uint64(count)
			none := true
			for _, v := range sel {
				if v {
					none = false
					break
				}
			}
			if none {
				ev.release(sel)
				continue
			}
			if rest := bdec &^ filterCols; rest != 0 {
				if err := rd.decode(rest, &batch); err != nil {
					ev.release(sel)
					return fmt.Errorf("nfstore: segment %d: %w", bin, err)
				}
			}
		} else {
			if err := rd.decode(bdec, &batch); err != nil {
				return fmt.Errorf("nfstore: segment %d: %w", bin, err)
			}
			scanned += uint64(count)
			if vec && root != nil {
				sel = ev.eval(root)
			}
		}
		if zb != nil {
			for i := 0; i < count; i++ {
				batch.fill(&rec, i, nffilter.AllColumns)
				zb.add(&rec)
			}
		}
		rows = rows[:0]
		for i := 0; i < count; i++ {
			if sel != nil && !sel[i] {
				continue
			}
			if !opts.all && !covered && !opts.iv.Contains(batch.Start[i]) {
				continue
			}
			if !vec && opts.filter != nil {
				batch.fill(&rec, i, bdec)
				if !opts.filter.Match(&rec) {
					continue
				}
			}
			rows = append(rows, int32(i))
		}
		if sel != nil {
			ev.release(sel)
		}
		if len(rows) == 0 {
			continue
		}
		out.project(&batch, rows, opts.proj)
		if err := emit(&out); err != nil {
			return err
		}
	}
}

// segmentVersion reads one segment's format version from its header,
// validated the way a scan validates it.
func (s *Store) segmentVersion(bin uint32) (uint16, error) {
	f, err := os.Open(s.segPath(bin))
	if err != nil {
		return 0, fmt.Errorf("nfstore: open segment %d: %w", bin, err)
	}
	defer f.Close()
	u := unitReader{blocks: blockReader{br: bufio.NewReaderSize(f, segHeaderSize)}, bin: bin, binSeconds: s.binSeconds}
	if err := u.header(); err != nil {
		return 0, fmt.Errorf("nfstore: segment %d: %w", bin, err)
	}
	return u.format, nil
}
