package nfstore

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/flow"
)

// TestZoneMapCodecRoundTrip checks the sidecar binary codec.
func TestZoneMapCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	z := newZoneMap()
	for i := 0; i < 500; i++ {
		r := randRecord(rng, 300)
		z.add(&r)
	}
	z.coveredSize = segHeaderSize + 500*RecordSize // a v1 segment's size
	buf := encodeZoneMap(z, 1200, 300)
	got, err := decodeZoneMap(buf, 1200, 300)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *z {
		t.Fatalf("zone map round trip mismatch:\n got %+v\nwant %+v", got, z)
	}
	if _, err := decodeZoneMap(buf, 1500, 300); err == nil {
		t.Fatal("decode must reject a sidecar for a different bin")
	}
	buf[50] ^= 0xff
	if _, err := decodeZoneMap(buf, 1200, 300); err == nil {
		t.Fatal("decode must reject a corrupted payload (checksum)")
	}
}

// sidecarPaths lists the sidecar files of a store directory.
func sidecarPaths(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), idxSuffix) {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out
}

// TestFlushWritesSidecars: every flushed segment gets a sidecar, and the
// sidecar answers queries identically to a scan.
func TestFlushWritesSidecars(t *testing.T) {
	dir := t.TempDir()
	s, err := CreateFormat(dir, 300, DefaultSegmentFormat)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for b := 0; b < 3; b++ {
		r := testRecord(uint32(b*300+5), byte(b), 80, 2)
		if err := s.Add(&r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := len(sidecarPaths(t, dir)); got != 3 {
		t.Fatalf("flush wrote %d sidecars, want 3", got)
	}
}

// TestMissingSidecarFallbackAndLazyBuild: a pre-index store (sidecars
// deleted) still answers correctly, and the first scan rebuilds the
// sidecars so the second query can prune.
func TestMissingSidecarFallbackAndLazyBuild(t *testing.T) {
	dir := t.TempDir()
	s, err := CreateFormat(dir, 300, DefaultSegmentFormat)
	if err != nil {
		t.Fatal(err)
	}
	needle := flow.MustParseIP("172.16.9.9")
	for b := 0; b < 5; b++ {
		for i := 0; i < 20; i++ {
			r := testRecord(uint32(b*300+i), byte(i), 80, 1)
			if err := s.Add(&r); err != nil {
				t.Fatal(err)
			}
		}
	}
	hot := testRecord(2*300+3, 9, 80, 1)
	hot.SrcIP = needle
	s.Add(&hot)
	s.Close()
	for _, p := range sidecarPaths(t, dir) {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	iv := flow.Interval{Start: 0, End: 1500}
	filter := mustFilter(t, "src ip 172.16.9.9")

	// First query: no sidecars → full scan of every segment, sidecars
	// rebuilt as a side effect.
	got, err := s2.Records(t.Context(), iv, filter)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != hot {
		t.Fatalf("pre-index query returned %v", got)
	}
	st := s2.Stats()
	if st.SegmentsScanned != 5 || st.SidecarsBuilt != 5 {
		t.Fatalf("lazy build: scanned %d, built %d, want 5/5 (stats %+v)",
			st.SegmentsScanned, st.SidecarsBuilt, st)
	}

	// Second query: the rebuilt sidecars prune everything but the hot bin.
	s2.ResetStats()
	got, err = s2.Records(t.Context(), iv, filter)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != hot {
		t.Fatalf("post-rebuild query returned %v", got)
	}
	if st = s2.Stats(); st.SegmentsPruned != 4 || st.SegmentsScanned != 1 {
		t.Fatalf("post-rebuild: pruned %d scanned %d, want 4/1", st.SegmentsPruned, st.SegmentsScanned)
	}
}

// TestCorruptSidecarFallback: garbage sidecars are ignored (correct
// results from a scan) and replaced by the rebuild.
func TestCorruptSidecarFallback(t *testing.T) {
	dir := t.TempDir()
	s, err := CreateFormat(dir, 300, DefaultSegmentFormat)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 3; b++ {
		r := testRecord(uint32(b*300+1), byte(b), 443, 4)
		s.Add(&r)
	}
	s.Close()
	for _, p := range sidecarPaths(t, dir) {
		if err := os.WriteFile(p, []byte("not a sidecar"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.Records(t.Context(), flow.Interval{Start: 0, End: 900}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("corrupt-sidecar query returned %d records, want 3", len(got))
	}
	if st := s2.Stats(); st.SidecarsBuilt != 3 {
		t.Fatalf("corrupt sidecars should be rebuilt, built %d (stats %+v)", st.SidecarsBuilt, st)
	}
	// The rebuilt files decode cleanly now.
	for _, p := range sidecarPaths(t, dir) {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) != idxSize {
			t.Fatalf("rebuilt sidecar %s has size %d, want %d", p, len(raw), idxSize)
		}
	}
}

// TestStaleSidecarAfterAppend: appending to a reopened segment invalidates
// its sidecar (size mismatch) until the next flush refreshes it; queries
// in between stay correct.
func TestStaleSidecarAfterAppend(t *testing.T) {
	dir := t.TempDir()
	s, _ := CreateFormat(dir, 300, DefaultSegmentFormat)
	r1 := testRecord(10, 1, 80, 1)
	s.Add(&r1)
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	r2 := testRecord(20, 2, 443, 2)
	if err := s2.Add(&r2); err != nil {
		t.Fatal(err)
	}
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}

	got, err := s2.Records(t.Context(), flow.Interval{Start: 0, End: 300}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("after append, %d records, want 2", len(got))
	}
	// The refreshed sidecar covers both records: an unfiltered Count is
	// pure pushdown and still sees both.
	s2.ResetStats()
	flows, _, _, err := s2.Count(t.Context(), flow.Interval{Start: 0, End: 300}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if flows != 2 {
		t.Fatalf("Count after append = %d, want 2", flows)
	}
	if st := s2.Stats(); st.SegmentsAggregated != 1 {
		t.Fatalf("refreshed sidecar should serve Count, stats %+v", st)
	}
}

// TestBuildIndexes: the eager bulk build indexes exactly the unindexed
// segments.
func TestBuildIndexes(t *testing.T) {
	dir := t.TempDir()
	s, _ := CreateFormat(dir, 300, DefaultSegmentFormat)
	for b := 0; b < 4; b++ {
		r := testRecord(uint32(b*300), byte(b), 80, 1)
		s.Add(&r)
	}
	s.Close()
	paths := sidecarPaths(t, dir)
	os.Remove(paths[0])
	os.Remove(paths[1])

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	built, err := s2.BuildIndexes(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if built != 2 {
		t.Fatalf("BuildIndexes built %d, want 2", built)
	}
	if got := len(sidecarPaths(t, dir)); got != 4 {
		t.Fatalf("store has %d sidecars after BuildIndexes, want 4", got)
	}
}
