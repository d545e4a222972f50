package nfstore

import (
	"context"
	"io"
	"os"
	"testing"

	"repro/internal/flow"
	"repro/internal/nffilter"
)

// TestSealCommitsBin pins the streaming seal contract: Seal(t) flushes
// the bin containing t to disk, writes its sidecar, retires the open
// writer — without touching other open bins.
func TestSealCommitsBin(t *testing.T) {
	s := newTestStore(t)

	for i := byte(0); i < 10; i++ {
		r := testRecord(100, i, 80, 5) // bin 0
		if err := s.Add(&r); err != nil {
			t.Fatal(err)
		}
		r = testRecord(400, i, 80, 5) // bin 300
		if err := s.Add(&r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Seal(100); err != nil {
		t.Fatal(err)
	}

	// The sealed bin is durable and queryable with no Flush; bin 300
	// stays open.
	recs, err := s.Records(context.Background(), flow.Interval{Start: 0, End: 300}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("sealed bin holds %d records, want 10", len(recs))
	}
	s.mu.RLock()
	_, bin0Open := s.open[0]
	_, bin300Open := s.open[300]
	s.mu.RUnlock()
	if bin0Open {
		t.Fatal("sealed bin 0 still has an open writer")
	}
	if !bin300Open {
		t.Fatal("untouched bin 300 lost its open writer")
	}

	// The seal produced the zone-map sidecar alongside the segment.
	if zm := s.loadZoneMap(0); zm == nil {
		t.Fatal("sealed bin has no readable sidecar")
	}
}

// TestSealEmptyBinIsNoop pins that sealing a bin with no open writer
// succeeds and writes nothing — the pipeline seals on clock boundaries
// whether or not records arrived.
func TestSealEmptyBinIsNoop(t *testing.T) {
	s := newTestStore(t)
	if err := s.Seal(923); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.segPath(900)); !os.IsNotExist(err) {
		t.Fatalf("sealing an empty bin touched its segment: %v", err)
	}
}

// TestSealThenAppend pins that a late record after a seal reopens the
// bin's segment and both the sealed and the late records survive.
func TestSealThenAppend(t *testing.T) {
	s := newTestStore(t)
	r := testRecord(50, 1, 80, 3)
	if err := s.Add(&r); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(50); err != nil {
		t.Fatal(err)
	}
	late := testRecord(60, 2, 80, 3)
	if err := s.Add(&late); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(60); err != nil {
		t.Fatal(err)
	}
	recs, err := s.Records(context.Background(), flow.Interval{Start: 0, End: 300}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("bin holds %d records after seal+append+seal, want 2", len(recs))
	}
}

// hookReader runs onFirst before its first Read and onEOF once, when the
// wrapped reader first reports io.EOF.
type hookReader struct {
	r              io.Reader
	onFirst, onEOF func()
}

func (h *hookReader) Read(p []byte) (int, error) {
	if h.onFirst != nil {
		h.onFirst()
		h.onFirst = nil
	}
	n, err := h.r.Read(p)
	if err == io.EOF && h.onEOF != nil {
		h.onEOF()
		h.onEOF = nil
	}
	return n, err
}

// TestScanAcrossReseal is the deterministic reproducer of the open-segment
// read race: inside one scan of a sealed bin, late records reopen the bin
// and leave a partial block on disk, and the bin re-seals before the scan
// decides what its tail means. The scan must return the sealed records
// without error, and the next scan every record.
func TestScanAcrossReseal(t *testing.T) {
	scanAcrossReseal(t, func(s *Store, iv flow.Interval) (int, error) {
		n := 0
		err := s.Query(t.Context(), iv, nil, func(*flow.Record) error {
			n++
			return nil
		})
		return n, err
	})
}

// TestScanAcrossResealBatches is TestScanAcrossReseal through a
// projected Scan, the path extraction reads an open bin by.
func TestScanAcrossResealBatches(t *testing.T) {
	scanAcrossReseal(t, func(s *Store, iv flow.Interval) (int, error) {
		n := 0
		cols := nffilter.ColumnSet(0).With(nffilter.ColSrcIP).With(nffilter.ColPackets)
		err := s.Scan(t.Context(), iv, nil, cols, func(b *Batch) error {
			n += b.Len()
			return nil
		})
		return n, err
	})
}

// scanAcrossReseal runs the reseal race around one scan made by read,
// which returns the rows it saw.
func scanAcrossReseal(t *testing.T, read func(s *Store, iv flow.Interval) (int, error)) {
	s, err := CreateFormat(t.TempDir(), 300, FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	add := func(n int) {
		for i := 0; i < n; i++ {
			r := testRecord(uint32(i%300), byte(i), 80, 2)
			if err := s.Add(&r); err != nil {
				t.Error(err)
			}
		}
	}
	const sealed = 1000
	add(sealed)
	if err := s.Seal(0); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(s.segPath(0))
	if err != nil {
		t.Fatal(err)
	}
	sealedSize := fi.Size()

	testScanReader = func(r io.Reader) io.Reader {
		return &hookReader{
			r: r,
			onFirst: func() {
				// Two ~48 KiB blocks through the writer's 64 KiB buffer: the
				// first block and the head of the second reach the file.
				add(2 * blockRecords)
				if fi, err := os.Stat(s.segPath(0)); err != nil || fi.Size() <= sealedSize {
					t.Errorf("late appends left no partial block on disk (%v, %v)", fi, err)
				}
			},
			onEOF: func() {
				if err := s.Seal(0); err != nil {
					t.Error(err)
				}
			},
		}
	}
	n, err := read(s, flow.Interval{Start: 0, End: 300})
	testScanReader = nil
	if err != nil {
		t.Fatalf("scan across a reseal: %v", err)
	}
	if n != sealed {
		t.Fatalf("scan across a reseal saw %d records, want the %d sealed before it", n, sealed)
	}
	recs, err := s.Records(t.Context(), flow.Interval{Start: 0, End: 300}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != sealed+2*blockRecords {
		t.Fatalf("after the reseal the bin holds %d records, want %d", len(recs), sealed+2*blockRecords)
	}
}
