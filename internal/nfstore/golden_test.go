package nfstore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/flow"
)

// goldenRecords builds the fixture record set deterministically — its own
// tiny LCG, no math/rand, so the fixtures never move when the standard
// library's generator changes. The set exercises both dictionary shapes
// (constant columns, small dictionaries, >256 distinct source ports
// forcing the raw fallback) and non-monotonic timestamps and counters.
func goldenRecords() []flow.Record {
	state := uint64(0x2545F4914F6CDD1D)
	next := func(mod uint64) uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return (state >> 33) % mod
	}
	recs := make([]flow.Record, 600)
	for i := range recs {
		recs[i] = flow.Record{
			Start:   uint32(next(300)),
			Dur:     uint32(next(10_000)),
			SrcIP:   flow.IPFromOctets(10, 0, byte(next(4)), byte(next(200))),
			DstIP:   flow.IPFromOctets(192, 0, 2, byte(next(30))),
			SrcPort: uint16(1024 + next(20_000)), // ~600 distinct: raw fallback
			DstPort: []uint16{22, 53, 80, 443}[next(4)],
			Proto:   []flow.Protocol{flow.ProtoTCP, flow.ProtoUDP, flow.ProtoICMP}[next(3)],
			Router:  uint16(next(4)),
			Anno:    flow.Annotation(next(3)),
			Packets: 1 + next(1_000_000),
		}
		recs[i].Bytes = recs[i].Packets * (40 + next(1400))
		if recs[i].Proto == flow.ProtoTCP {
			recs[i].Flags = uint8(next(64))
		}
	}
	return recs
}

func goldenPath(format uint16) string {
	name := map[uint16]string{FormatV1: "segment_v1.golden", FormatV2: "segment_v2.golden"}[format]
	return filepath.Join("testdata", name)
}

// writeGoldenSegment encodes the fixture records as a bin-0 segment of
// the given format through the production writer.
func writeGoldenSegment(tb testing.TB, format uint16) (path string, recs []flow.Record) {
	tb.Helper()
	dir := tb.TempDir()
	s, err := CreateFormat(dir, 300, format)
	if err != nil {
		tb.Fatal(err)
	}
	defer s.Close()
	recs = goldenRecords()
	for i := range recs {
		if err := s.Add(&recs[i]); err != nil {
			tb.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		tb.Fatal(err)
	}
	return s.segPath(0), recs
}

// TestGoldenSegments pins the on-disk bytes of both formats: a one-block
// segment of each, and a multi-block v2 segment with its sidecar. A
// fixture mismatch means the encoder output changed: that breaks every
// store already on disk and must come with a new format version, not a
// silent byte shift. Regenerate intentionally with UPDATE_GOLDEN=1.
func TestGoldenSegments(t *testing.T) {
	t.Run("v2-multiblock", testGoldenMultiBlock)
	for _, format := range []uint16{FormatV1, FormatV2} {
		path, recs := writeGoldenSegment(t, format)
		enc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		golden := goldenPath(format)

		if os.Getenv("UPDATE_GOLDEN") != "" {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, enc, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s (%d bytes)", golden, len(enc))
			continue
		}

		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing fixture (run with UPDATE_GOLDEN=1 to create): %v", err)
		}
		if !bytes.Equal(enc, want) {
			t.Errorf("v%d encoder output diverges from %s (%d vs %d bytes): "+
				"on-disk format changed — bump the format version instead",
				format, golden, len(enc), len(want))
		}

		// The fixture also decodes exactly, through a store that never
		// saw the writer: copy it in as bin 0 and read it back.
		dir := t.TempDir()
		s, err := CreateFormat(dir, 300, format)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(s.segPath(0), want, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := s.Records(t.Context(), flow.Interval{Start: 0, End: 300}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(recs) {
			t.Fatalf("v%d fixture decoded %d records, want %d", format, len(got), len(recs))
		}
		for i := range got {
			if got[i] != recs[i] {
				t.Fatalf("v%d fixture record %d:\n got %+v\nwant %+v", format, i, got[i], recs[i])
			}
		}
		s.Close()
	}
}

// multiBlockCards are the distinct SrcPort, DstPort, Router and Anno
// values of each block of the multi-block fixture: the dictionary edges
// (1, 2, 255, 256, 257) and the raw fallback (600) land on different
// columns in consecutive blocks, so a coder that carries state from one
// column or block into the next changes the bytes.
var multiBlockCards = [4][4]int{
	{600, 2, 1, 255},
	{256, 257, 255, 1},
	{1, 256, 257, 2},
	{257, 1, 2, 600},
}

// multiBlockRecords builds the multi-block fixture: three full blocks and
// a partial one of 1000 records, all in bin 0. Each dictionary column
// cycles through exactly its block's cardinality (37 is prime to every
// entry of multiBlockCards, so every value occurs).
func multiBlockRecords() []flow.Record {
	state := uint64(0x9E3779B97F4A7C15)
	next := func(mod uint64) uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return (state >> 33) % mod
	}
	recs := make([]flow.Record, 3*blockRecords+1000)
	for i := range recs {
		cards := multiBlockCards[i/blockRecords]
		col := func(c int, base uint16) uint16 { return base + uint16((i*37)%cards[c]) }
		recs[i] = flow.Record{
			Start:   uint32(next(300)),
			Dur:     uint32(next(5_000)),
			SrcIP:   flow.IPFromOctets(10, byte(next(3)), byte(next(256)), byte(next(256))),
			DstIP:   flow.IPFromOctets(192, 0, 2, byte(next(64))),
			SrcPort: col(0, 1024),
			DstPort: col(1, 20),
			Proto:   []flow.Protocol{flow.ProtoTCP, flow.ProtoUDP}[next(2)],
			Router:  col(2, 0),
			Anno:    flow.Annotation(col(3, 0)),
			Packets: 1 + next(1_000),
		}
		recs[i].Bytes = recs[i].Packets * (40 + next(1400))
		if recs[i].Proto == flow.ProtoTCP {
			recs[i].Flags = uint8(next(64))
		}
	}
	return recs
}

// testGoldenMultiBlock pins a v2 segment of several blocks and its
// zone-map sidecar. Records go in through Add with a Flush between the
// second and third block, the way a live store writes a bin across
// flushes; the sidecar summarizes every record, Blooms included, though
// the blocks carry none. Regenerate intentionally with UPDATE_GOLDEN=1.
func testGoldenMultiBlock(t *testing.T) {
	dir := t.TempDir()
	s, err := CreateFormat(dir, 300, FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recs := multiBlockRecords()
	for i := range recs {
		if i == 2*blockRecords {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Add(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct{ got, golden string }{
		{s.segPath(0), "segment_v2_multiblock.golden"},
		{s.idxPath(0), "segment_v2_multiblock.idx.golden"},
	} {
		enc, err := os.ReadFile(f.got)
		if err != nil {
			t.Fatal(err)
		}
		golden := filepath.Join("testdata", f.golden)
		if os.Getenv("UPDATE_GOLDEN") != "" {
			if err := os.WriteFile(golden, enc, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s (%d bytes)", golden, len(enc))
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing fixture (run with UPDATE_GOLDEN=1 to create): %v", err)
		}
		if !bytes.Equal(enc, want) {
			t.Errorf("%s diverges from %s (%d vs %d bytes): on-disk format changed",
				filepath.Base(f.got), golden, len(enc), len(want))
		}
	}

	// The fixture decodes exactly through a store that never saw the
	// writer, and its sidecar is current for it.
	rd, err := CreateFormat(t.TempDir(), 300, FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	for _, f := range []struct{ golden, dst string }{
		{"segment_v2_multiblock.golden", rd.segPath(0)},
		{"segment_v2_multiblock.idx.golden", rd.idxPath(0)},
	} {
		raw, err := os.ReadFile(filepath.Join("testdata", f.golden))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(f.dst, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := rd.Records(t.Context(), flow.Interval{Start: 0, End: 300}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("fixture decoded %d records, want %d", len(got), len(recs))
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("fixture record %d:\n got %+v\nwant %+v", i, got[i], recs[i])
		}
	}
	if z := rd.loadZoneMap(0); z == nil || z.count != uint64(len(recs)) {
		t.Fatalf("fixture sidecar not current for its segment: %+v", z)
	}
}
