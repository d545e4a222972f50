package nfstore

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"iter"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/flow"
	"repro/internal/nffilter"
)

// DefaultBinSeconds is the measurement bin used when none is configured:
// 300 s, the 5-minute NetFlow aggregation both GEANT and SWITCH used.
const DefaultBinSeconds = 300

// metaFile holds store-level metadata next to the segments.
const metaFile = "store.json"

// segPrefix names segment files "nfcapd.<binStart>" after nfdump's capture
// files.
const segPrefix = "nfcapd."

// storeMeta is the persisted store configuration.
type storeMeta struct {
	Version    int    `json:"version"`
	BinSeconds uint32 `json:"bin_seconds"`
	// SegmentFormat is the format new segments are written in. Absent
	// (zero) in metas written before the columnar format existed, which
	// read as FormatV1 so old stores keep appending the bytes their other
	// readers expect. Existing segments keep their own format either way —
	// a store may hold a mix.
	SegmentFormat uint16 `json:"segment_format,omitempty"`
}

// Store is a directory of time-binned flow segments. It is safe for
// concurrent use: one writer goroutine and any number of readers (reads
// observe everything flushed before the read began).
//
// Each segment carries a zone-map sidecar ("nfcapd.<bin>.idx", written at
// flush time and rebuilt lazily for pre-index stores) that queries use to
// prune segments a filter provably cannot match and to answer aggregations
// without scanning; surviving segments are scanned by a bounded worker
// pool (min(GOMAXPROCS, 8) wide) whose results merge back in bin order. Stats
// exposes counters for all of it.
type Store struct {
	dir        string
	binSeconds uint32

	mu   sync.RWMutex
	open map[uint32]*segWriter // open segment writers by bin start
	enc  blockEncoder          // encodes every sealed unit; used under mu

	par       atomic.Int32  // query parallelism pinned by tests (0 = auto)
	pruneOff  atomic.Bool   // zone-map pruning disabled (SetPruning, in-package tests only)
	zmc       zmCache       // decoded sidecars by bin (bounded LRU)
	stats     storeStats    // scan counters
	segFormat atomic.Uint32 // format for newly created segments
}

// newStore assembles a Store.
func newStore(dir string, binSeconds uint32, format uint16) *Store {
	s := &Store{dir: dir, binSeconds: binSeconds, open: map[uint32]*segWriter{}}
	s.segFormat.Store(uint32(format))
	return s
}

// segWriter is an append handle to one segment file.
type segWriter struct {
	f      *os.File
	buf    *bufio.Writer
	format uint16   // body format of this segment (fixed at segment creation)
	off    int64    // bytes the segment will hold once sealed and flushed
	zm     *zoneMap // live zone map (nil for a reopened segment without a current sidecar)

	// pend holds the records of the current unsealed unit; enc is the
	// reusable unit encode buffer.
	pend []flow.Record
	enc  []byte
}

// seal encodes the pending records as one unit (appendUnit) and appends
// it to the segment's write buffer. Called when a unit fills and before
// every flush, so on-disk bytes always end at a unit boundary and
// sidecars never summarize unwritten rows.
func (w *segWriter) seal(e *blockEncoder) error {
	if len(w.pend) == 0 {
		return nil
	}
	w.enc = e.appendUnit(w.format, w.enc[:0], w.pend)
	if _, err := w.buf.Write(w.enc); err != nil {
		return err
	}
	w.off += int64(len(w.enc))
	w.pend = w.pend[:0]
	return nil
}

// CreateFormat initializes a new store in dir (created if missing; must
// not already contain a store) with the given bin width in seconds,
// writing new segments in format (FormatV1 fixed rows or FormatV2 column
// blocks; DefaultSegmentFormat is the columnar one).
func CreateFormat(dir string, binSeconds uint32, format uint16) (*Store, error) {
	if !validFormat(format) {
		return nil, fmt.Errorf("nfstore: unknown segment format %d (supported: %d-%d)", format, FormatV1, segVersionMax)
	}
	if binSeconds == 0 {
		binSeconds = DefaultBinSeconds
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("nfstore: create %s: %w", dir, err)
	}
	metaPath := filepath.Join(dir, metaFile)
	if _, err := os.Stat(metaPath); err == nil {
		return nil, fmt.Errorf("nfstore: store already exists in %s", dir)
	}
	meta := storeMeta{Version: 1, BinSeconds: binSeconds, SegmentFormat: format}
	raw, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("nfstore: encode meta: %w", err)
	}
	if err := os.WriteFile(metaPath, raw, 0o644); err != nil {
		return nil, fmt.Errorf("nfstore: write meta: %w", err)
	}
	return newStore(dir, binSeconds, format), nil
}

// Open opens an existing store directory.
func Open(dir string) (*Store, error) {
	raw, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		return nil, fmt.Errorf("nfstore: open %s: %w", dir, err)
	}
	var meta storeMeta
	if err := json.Unmarshal(raw, &meta); err != nil {
		return nil, fmt.Errorf("nfstore: parse meta: %w", err)
	}
	if meta.BinSeconds == 0 {
		return nil, errors.New("nfstore: meta has zero bin size")
	}
	format := meta.SegmentFormat
	if format == 0 {
		format = FormatV1 // pre-columnar meta: keep appending v1 bytes
	}
	if !validFormat(format) {
		return nil, fmt.Errorf("nfstore: meta declares segment format %d, which this build does not write (supported: %d-%d)", format, FormatV1, segVersionMax)
	}
	return newStore(dir, meta.BinSeconds, format), nil
}

// SegmentFormat returns the format newly created segments are written in.
func (s *Store) SegmentFormat() uint16 { return uint16(s.segFormat.Load()) }

// SetSegmentFormat changes the format for segments created after the call
// (existing segments, including currently open writers, keep theirs). It
// does not rewrite the persisted meta — a transient override for tests and
// tools; use MigrateWorkers to convert data already on disk.
func (s *Store) SetSegmentFormat(format uint16) error {
	if !validFormat(format) {
		return fmt.Errorf("nfstore: unknown segment format %d (supported: %d-%d)", format, FormatV1, segVersionMax)
	}
	s.segFormat.Store(uint32(format))
	return nil
}

// BinSeconds returns the store's measurement bin width.
func (s *Store) BinSeconds() uint32 { return s.binSeconds }

// binStart returns the start of the bin containing t.
func (s *Store) binStart(t uint32) uint32 { return t - t%s.binSeconds }

// segPath returns the segment file path for a bin start.
func (s *Store) segPath(binStart uint32) string {
	return filepath.Join(s.dir, segPrefix+strconv.FormatUint(uint64(binStart), 10))
}

// Add appends a record, routing it to the segment of its start-time bin.
// Invalid records are rejected rather than silently stored.
func (s *Store) Add(r *flow.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.add(r)
}

// AddAll appends a batch of records, stopping at the first error, a
// *RecordError naming the record's index; the records before it stay
// appended. The lock is taken once per run of up to blockRecords
// records, so a reader starting a scan waits for at most about one block
// encode.
func (s *Store) AddAll(rs []flow.Record) error {
	for i := 0; i < len(rs); {
		end := min(i+blockRecords, len(rs))
		s.mu.Lock()
		for ; i < end; i++ {
			if err := s.add(&rs[i]); err != nil {
				s.mu.Unlock()
				return &RecordError{Index: i, Err: err}
			}
		}
		s.mu.Unlock()
	}
	return nil
}

// RecordError is AddAll's error: the record at Index of the batch was
// not appended, and Err says why.
type RecordError struct {
	Index int
	Err   error
}

func (e *RecordError) Error() string { return fmt.Sprintf("record %d: %v", e.Index, e.Err) }
func (e *RecordError) Unwrap() error { return e.Err }

// add validates and appends one record. Caller holds s.mu.
func (s *Store) add(r *flow.Record) error {
	if err := r.Validate(); err != nil {
		return err
	}
	bin := s.binStart(r.Start)
	w, ok := s.open[bin]
	if !ok {
		var err error
		w, err = s.openSegment(bin)
		if err != nil {
			return err
		}
		s.open[bin] = w
	}
	w.pend = append(w.pend, *r)
	if len(w.pend) >= blockRecords {
		if err := w.seal(&s.enc); err != nil {
			return fmt.Errorf("nfstore: append to bin %d: %w", bin, err)
		}
	}
	if w.zm != nil {
		w.zm.add(r)
	}
	return nil
}

// openSegment opens (creating or appending) the segment for a bin.
// Caller holds s.mu.
func (s *Store) openSegment(bin uint32) (*segWriter, error) {
	path := s.segPath(bin)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("nfstore: open segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("nfstore: stat segment: %w", err)
	}
	w := &segWriter{f: f, buf: bufio.NewWriterSize(f, 1<<16)}
	if st.Size() == 0 {
		w.format = uint16(s.segFormat.Load())
		var hdr [segHeaderSize]byte
		encodeSegHeader(hdr[:], w.format, bin, s.binSeconds)
		if _, err := w.buf.Write(hdr[:]); err != nil {
			f.Close()
			return nil, fmt.Errorf("nfstore: write segment header: %w", err)
		}
		w.off = segHeaderSize
		w.zm = newZoneMap()
		return w, nil
	}
	// An existing segment keeps the format its header declares, whatever
	// the store's current default: formats are per-segment, fixed at
	// creation.
	version, err := s.segmentVersion(bin)
	if err != nil {
		f.Close()
		return nil, err
	}
	w.format = version
	w.off = st.Size()
	// Appending to an existing segment: continue the sidecar's zone map if
	// it is current. Without one the writer keeps no zone map at all — a
	// scan of the segment once it is sealed or closed rebuilds the sidecar
	// lazily, the same path read-only opens of pre-index stores take.
	if z := s.loadZoneMap(bin); z != nil {
		cp := *z // private copy: the cached one is shared with readers
		w.zm = &cp
	}
	return w, nil
}

// Flush forces buffered appends to disk so that subsequent queries see
// them, and refreshes each flushed segment's zone-map sidecar. It keeps
// segments open for further appends.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for bin, w := range s.open {
		if err := w.seal(&s.enc); err != nil {
			return fmt.Errorf("nfstore: flush bin %d: %w", bin, err)
		}
		if err := w.buf.Flush(); err != nil {
			return fmt.Errorf("nfstore: flush bin %d: %w", bin, err)
		}
		s.writeSidecar(bin, w)
	}
	return nil
}

// writeSidecar persists the writer's zone map for a flushed segment. The
// writer keeps mutating its map on later appends, so a private snapshot
// goes to disk and cache, stamped with the bytes the writer has flushed
// and the segment's format. Sidecars are accelerators: a write failure
// is deliberately swallowed (the segment merely stays scan-only until
// the next flush or a lazy rebuild succeeds).
func (s *Store) writeSidecar(bin uint32, w *segWriter) {
	if w.zm == nil {
		return
	}
	cp := *w.zm
	cp.coveredSize = w.off
	cp.format = w.format
	_ = s.writeZoneMap(bin, &cp)
}

// Close flushes and closes all open segments. The store remains usable
// for queries and further appends (segments reopen on demand).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	for bin, w := range s.open {
		err := w.seal(&s.enc)
		if err == nil {
			err = w.buf.Flush()
		}
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("nfstore: flush bin %d: %w", bin, err)
			}
		} else {
			s.writeSidecar(bin, w)
		}
		if err := w.f.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("nfstore: close bin %d: %w", bin, err)
		}
		delete(s.open, bin)
	}
	return firstErr
}

// Bins lists the bin start times present on disk, ascending.
func (s *Store) Bins() ([]uint32, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("nfstore: list %s: %w", s.dir, err)
	}
	var bins []uint32
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) {
			continue
		}
		v, err := strconv.ParseUint(strings.TrimPrefix(name, segPrefix), 10, 32)
		if err != nil {
			continue // foreign file; ignore
		}
		bins = append(bins, uint32(v))
	}
	sort.Slice(bins, func(i, j int) bool { return bins[i] < bins[j] })
	return bins, nil
}

// Span returns the interval covered by the segments on disk (from the
// first bin's start to the last bin's end). ok is false for an empty store.
func (s *Store) Span() (iv flow.Interval, ok bool, err error) {
	bins, err := s.Bins()
	if err != nil || len(bins) == 0 {
		return flow.Interval{}, false, err
	}
	return flow.Interval{Start: bins[0], End: bins[len(bins)-1] + s.binSeconds}, true, nil
}

// ErrStopIteration can be returned by a Query callback to end iteration
// early without reporting an error to the caller.
var ErrStopIteration = errors.New("nfstore: stop iteration")

// ctxCheckStride is how many records Query hands its callback between
// context checks: frequent enough that cancellation lands well within one
// segment, rare enough that Err()'s mutex never shows up in profiles.
const ctxCheckStride = 1024

// Scan streams every record whose start time falls in iv and which
// matches filter (nil means all) to fn as column batches carrying the
// columns in cols, in bin order: one batch per block (or run of v1 rows)
// with a match. Columns outside cols are nil. The *Batch is reused once
// fn returns. ErrStopIteration from fn ends the scan with a nil error;
// cancelling ctx aborts it within one block and returns ctx.Err().
//
// Segments whose zone-map sidecar proves the filter cannot match are
// skipped without being opened, and surviving segments are scanned
// concurrently (min(GOMAXPROCS, 8) at a time) with results merged back
// in bin order — fn observes exactly the sequence a serial scan would
// produce.
func (s *Store) Scan(ctx context.Context, iv flow.Interval, filter *nffilter.Filter, cols nffilter.ColumnSet, fn func(*Batch) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	plan, err := s.planSegments(iv, filter)
	if err != nil {
		return err
	}
	opts := scanOpts{iv: iv, filter: filter, proj: cols}
	if err := s.execPlan(ctx, plan, opts, fn); err != nil {
		if errors.Is(err, ErrStopIteration) {
			return nil
		}
		return err
	}
	return nil
}

// Query streams the rows Scan would, one record at a time; see the
// package-level Query.
func (s *Store) Query(ctx context.Context, iv flow.Interval, filter *nffilter.Filter, fn func(*flow.Record) error) error {
	return Query(ctx, s, iv, filter, fn)
}

// Iter returns a range-over-func iterator over the matching records of
// an interval; see the package-level Iter.
func (s *Store) Iter(ctx context.Context, iv flow.Interval, filter *nffilter.Filter) iter.Seq2[*flow.Record, error] {
	return Iter(ctx, s, iv, filter)
}

// Records collects the matching records into a slice; see the
// package-level Records.
func (s *Store) Records(ctx context.Context, iv flow.Interval, filter *nffilter.Filter) ([]flow.Record, error) {
	return Records(ctx, s, iv, filter)
}

// Count returns the number of matching flow records and their packet and
// byte totals — the three volume dimensions the paper's miner weights
// itemsets by.
//
// Segments fully inside iv whose sidecar proves the filter matches every
// record are answered from the sidecar's totals without scanning
// (SegmentsAggregated in Stats); only the remainder is scanned, pruned and
// parallelized like Query.
func (s *Store) Count(ctx context.Context, iv flow.Interval, filter *nffilter.Filter) (flows, packets, bytes uint64, err error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, 0, err
	}
	plan, err := s.planSegments(iv, filter)
	if err != nil {
		return 0, 0, 0, err
	}
	return s.countPlan(ctx, plan, iv, filter)
}

// countPlan answers a volume count over an already-planned segment set:
// segments whose sidecar proves full coverage are aggregated without
// scanning, the remainder goes through execPlan. Columnar segments push
// the same aggregation down another level — fully covered, fully matching
// blocks contribute their zone-map totals without decoding a row (the agg
// sink below, accumulated atomically because parallel workers call it).
// Shared by Count and Summaries.
func (s *Store) countPlan(ctx context.Context, plan []segPlan, iv flow.Interval, filter *nffilter.Filter) (flows, packets, bytes uint64, err error) {
	var root nffilter.Node
	if filter != nil {
		root = filter.Root()
	}
	scan := plan[:0]
	for _, p := range plan {
		if p.zm != nil && p.zm.coversStarts(iv) && (root == nil || p.zm.matchesAll(root)) {
			flows += p.zm.count
			packets += p.zm.packets
			bytes += p.zm.bytes
			s.stats.segmentsAggregated.Add(1)
			continue
		}
		scan = append(scan, p)
	}
	var aFlows, aPackets, aBytes atomic.Uint64
	opts := scanOpts{
		iv:     iv,
		filter: filter,
		proj:   nffilter.ColumnSet(0).With(nffilter.ColPackets).With(nffilter.ColBytes),
		agg: func(f, p, b uint64) {
			aFlows.Add(f)
			aPackets.Add(p)
			aBytes.Add(b)
		},
	}
	err = s.execPlan(ctx, scan, opts, func(b *Batch) error {
		flows += uint64(b.n)
		for i := range b.n {
			packets += b.Packets[i]
			bytes += b.Bytes[i]
		}
		return nil
	})
	if err != nil {
		return 0, 0, 0, err
	}
	return flows + aFlows.Load(), packets + aPackets.Load(), bytes + aBytes.Load(), nil
}

// MigrateWorkers rewrites every segment not already in the target
// format, returning how many it converted. Each segment is rewritten
// atomically (temp file + rename) with a fresh sidecar, so readers
// between segments see a consistent mixed-format store and an
// interrupted migration loses nothing. Open writers for a migrated bin
// are flushed and closed first (they reopen on the next append, picking
// up the new format from the rewritten header).
//
// The per-segment rewrites fan over a pool of workers goroutines;
// workers <= 0 selects the automatic width (number of CPUs, capped the
// same way query parallelism is), and 1 rewrites one segment at a time.
// The expensive part of each rewrite — decoding the old segment and
// encoding the new one — runs outside the writer lock; only the brief
// detach-writer and commit-rename steps serialize, so concurrent appends
// stay correct (a segment that changes under a rewrite is retried). On
// error the count of segments already migrated is still returned.
func (s *Store) MigrateWorkers(ctx context.Context, target uint16, workers int) (int, error) {
	if !validFormat(target) {
		return 0, fmt.Errorf("nfstore: unknown segment format %d (supported: %d-%d)", target, FormatV1, segVersionMax)
	}
	bins, err := s.Bins()
	if err != nil {
		return 0, err
	}
	if workers <= 0 {
		workers = min(runtime.GOMAXPROCS(0), maxAutoParallelism)
	}
	workers = min(workers, len(bins))
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		migrated atomic.Int64
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	work := make(chan uint32)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for bin := range work {
				done, err := s.migrateSegment(ctx, bin, target)
				if err != nil {
					errOnce.Do(func() { firstErr = err; cancel() })
					return
				}
				if done {
					migrated.Add(1)
				}
			}
		}()
	}
feed:
	for _, bin := range bins {
		select {
		case work <- bin:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()
	if firstErr != nil {
		return int(migrated.Load()), firstErr
	}
	return int(migrated.Load()), ctx.Err()
}

// migrateAttempts bounds how often one segment rewrite is retried when
// concurrent appends land between its read and its commit.
const migrateAttempts = 4

// migrateSegment converts one segment to the target format, reporting
// whether a rewrite happened. Caller does NOT hold s.mu.
func (s *Store) migrateSegment(ctx context.Context, bin uint32, target uint16) (bool, error) {
	for attempt := 0; attempt < migrateAttempts; attempt++ {
		done, retry, err := s.tryMigrateSegment(ctx, bin, target)
		if err != nil || !retry {
			return done, err
		}
	}
	return false, fmt.Errorf("nfstore: migrate bin %d: segment kept changing under rewrite", bin)
}

// tryMigrateSegment is one rewrite attempt. It detaches any open writer
// and snapshots the segment size under the lock, decodes and re-encodes
// the segment into a temp file with the lock released, then commits the
// rename only if the segment is still exactly the bytes it read — an
// append that slipped in (a reopened writer, or a grown file) makes the
// attempt report retry instead of clobbering the new rows.
func (s *Store) tryMigrateSegment(ctx context.Context, bin uint32, target uint16) (done, retry bool, err error) {
	s.mu.Lock()
	if w, ok := s.open[bin]; ok {
		err := w.seal(&s.enc)
		if err == nil {
			err = w.buf.Flush()
		}
		cerr := w.f.Close()
		delete(s.open, bin)
		if err != nil {
			s.mu.Unlock()
			return false, false, fmt.Errorf("nfstore: migrate bin %d: flush: %w", bin, err)
		}
		if cerr != nil {
			s.mu.Unlock()
			return false, false, fmt.Errorf("nfstore: migrate bin %d: close: %w", bin, cerr)
		}
	}
	fi, err := os.Stat(s.segPath(bin))
	s.mu.Unlock()
	if err != nil {
		return false, false, fmt.Errorf("nfstore: migrate bin %d: stat: %w", bin, err)
	}
	readSize := fi.Size()
	version, err := s.segmentVersion(bin)
	if err != nil {
		return false, false, err
	}
	if version == target {
		return false, false, nil
	}
	recs, err := s.readSegmentAll(ctx, bin)
	if err != nil {
		return false, false, err
	}
	tmp, err := os.CreateTemp(s.dir, segPrefix+"mig-*")
	if err != nil {
		return false, false, fmt.Errorf("nfstore: migrate bin %d: temp: %w", bin, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	bw := bufio.NewWriterSize(tmp, 1<<16)
	var hdr [segHeaderSize]byte
	encodeSegHeader(hdr[:], target, bin, s.binSeconds)
	off := int64(segHeaderSize)
	_, err = bw.Write(hdr[:])
	var enc []byte
	e := new(blockEncoder) // the rewrite runs outside s.mu: not s.enc
	for i := 0; i < len(recs) && err == nil; i += blockRecords {
		enc = e.appendUnit(target, enc[:0], recs[i:min(i+blockRecords, len(recs))])
		_, err = bw.Write(enc)
		off += int64(len(enc))
	}
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return false, false, fmt.Errorf("nfstore: migrate bin %d: write: %w", bin, err)
	}
	z := newZoneMap()
	for i := range recs {
		z.add(&recs[i])
	}
	z.coveredSize = off
	z.format = target
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.open[bin]; ok {
		return false, true, nil // writer reopened mid-rewrite: retry
	}
	fi, err = os.Stat(s.segPath(bin))
	if err != nil {
		return false, false, fmt.Errorf("nfstore: migrate bin %d: stat: %w", bin, err)
	}
	if fi.Size() != readSize {
		return false, true, nil // segment grew mid-rewrite: retry
	}
	if err := os.Rename(tmp.Name(), s.segPath(bin)); err != nil {
		return false, false, fmt.Errorf("nfstore: migrate bin %d: rename: %w", bin, err)
	}
	_ = s.writeZoneMap(bin, z) // accelerator only; scans rebuild if absent
	return true, false, nil
}

// readSegmentAll decodes every record of one segment in file order,
// whatever its format.
func (s *Store) readSegmentAll(ctx context.Context, bin uint32) ([]flow.Record, error) {
	var recs []flow.Record
	opts := scanOpts{all: true, proj: nffilter.AllColumns}
	err := s.scanSegment(ctx, segPlan{bin: bin}, opts, func(b *Batch) error {
		for i := range b.n {
			recs = append(recs, flow.Record{})
			b.Record(i, &recs[len(recs)-1])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return recs, nil
}

// SegmentFormats counts the on-disk segments by format version — the
// mixed-store visibility surfaced by rcad's health endpoint and the
// migrate tool's dry run.
func (s *Store) SegmentFormats() (map[uint16]int, error) {
	bins, err := s.Bins()
	if err != nil {
		return nil, err
	}
	counts := map[uint16]int{}
	for _, bin := range bins {
		v, err := s.segmentVersion(bin)
		if err != nil {
			// A live-ingest bin whose header is still in the writer's
			// buffer has an unreadable (empty) file; report the format the
			// writer will flush. w.format is set once before the writer is
			// published, so the racy read is safe.
			s.mu.RLock()
			w, ok := s.open[bin]
			s.mu.RUnlock()
			if !ok {
				return nil, err
			}
			v = w.format
		}
		counts[v]++
	}
	return counts, nil
}
