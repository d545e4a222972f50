package nfstore

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/flow"
	"repro/internal/nffilter"
)

// decodeBlockRecords decodes one encoded block (header + payload) back
// into records through the same entry points the scan path uses.
func decodeBlockRecords(t *testing.T, blk []byte, proj nffilter.ColumnSet) []flow.Record {
	t.Helper()
	rd := blockReader{br: bufio.NewReader(bytes.NewReader(blk))}
	count, payload, err := rd.next()
	if err != nil {
		t.Fatalf("readBlock: %v", err)
	}
	var meta zoneMap
	if err := decodeBlockMeta(payload, count, &meta); err != nil {
		t.Fatalf("decodeBlockMeta: %v", err)
	}
	var batch Batch
	if err := decodeBlockColumns(payload[blockMetaSize:], count, proj, &batch); err != nil {
		t.Fatalf("decodeBlockColumns: %v", err)
	}
	out := make([]flow.Record, count)
	for i := range out {
		batch.fill(&out[i], i, proj)
	}
	return out
}

// TestBlockRoundTripProperty: random record blocks round-trip exactly
// through encode + full-projection decode, and the encoding is
// deterministic (identical input, identical bytes).
func TestBlockRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(600)
		recs := make([]flow.Record, n)
		for i := range recs {
			recs[i] = randRecord(rng, 10*300)
		}
		e := new(blockEncoder)
		blk := e.appendBlock(nil, recs)
		if again := e.appendBlock(nil, recs); !bytes.Equal(blk, again) {
			t.Fatalf("trial %d: encoding is not deterministic", trial)
		}
		got := decodeBlockRecords(t, blk, nffilter.AllColumns)
		for i := range recs {
			if got[i] != recs[i] {
				t.Fatalf("trial %d row %d:\n got %+v\nwant %+v", trial, i, got[i], recs[i])
			}
		}
	}
}

// TestBlockRoundTripExtremes: the wrapping delta codecs and the
// dictionary fallbacks must survive the value extremes — zero and
// max-u32 starts back to back, max-varint u64 counters, single-row
// blocks, single-value columns, and a port column with more than 256
// distinct values (the raw fallback).
func TestBlockRoundTripExtremes(t *testing.T) {
	maxU32 := ^uint32(0)
	maxU64 := ^uint64(0)
	cases := map[string][]flow.Record{
		"single-row": {
			{Start: maxU32, Dur: maxU32, SrcIP: flow.IP(maxU32), DstIP: flow.IP(maxU32),
				SrcPort: 0xffff, DstPort: 0xffff, Proto: 0xff, Flags: 0xff,
				Router: 0xffff, Anno: flow.Annotation(0xffff), Packets: maxU64, Bytes: maxU64},
		},
		"alternating-extremes": {
			{Start: 0, Packets: 0, Bytes: maxU64},
			{Start: maxU32, Packets: maxU64, Bytes: 0},
			{Start: 0, Packets: 0, Bytes: maxU64},
			{Start: 1, Packets: 1, Bytes: 1},
		},
		"max-varint-counters": {
			{Packets: maxU64, Bytes: maxU64},
			{Packets: maxU64 - 1, Bytes: 1},
			{Packets: maxU64, Bytes: maxU64 / 2},
		},
		"all-zero": {
			{}, {}, {},
		},
	}
	// >256 distinct source ports forces the u16 raw fallback; distinct
	// annos stay under 256 so both dictionary shapes appear in one block.
	var wide []flow.Record
	for i := 0; i < 400; i++ {
		wide = append(wide, flow.Record{SrcPort: uint16(i * 7), DstPort: 53, Anno: flow.Annotation(i % 5)})
	}
	cases["u16-raw-fallback"] = wide

	for name, recs := range cases {
		got := decodeBlockRecords(t, new(blockEncoder).appendBlock(nil, recs), nffilter.AllColumns)
		for i := range recs {
			if got[i] != recs[i] {
				t.Fatalf("%s row %d:\n got %+v\nwant %+v", name, i, got[i], recs[i])
			}
		}
	}
}

// TestBlockProjectionDecode: a projected decode returns exactly the
// requested columns and zeroes the rest, for every single-column
// projection.
func TestBlockProjectionDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	recs := make([]flow.Record, 100)
	for i := range recs {
		recs[i] = randRecord(rng, 3000)
	}
	blk := new(blockEncoder).appendBlock(nil, recs)
	for c := nffilter.Column(0); c < nffilter.NumColumns; c++ {
		proj := nffilter.ColumnSet(0).With(c)
		got := decodeBlockRecords(t, blk, proj)
		for i := range recs {
			var want flow.Record
			masked := recs[i]
			// Zero via fill's own contract: only the projected column
			// survives.
			(&Batch{
				n:       1,
				Start:   []uint32{masked.Start},
				Dur:     []uint32{masked.Dur},
				SrcIP:   []uint32{uint32(masked.SrcIP)},
				DstIP:   []uint32{uint32(masked.DstIP)},
				SrcPort: []uint16{masked.SrcPort},
				DstPort: []uint16{masked.DstPort},
				Proto:   []uint8{uint8(masked.Proto)},
				Flags:   []uint8{masked.Flags},
				Router:  []uint16{masked.Router},
				Anno:    []uint16{uint16(masked.Anno)},
				Packets: []uint64{masked.Packets},
				Bytes:   []uint64{masked.Bytes},
			}).fill(&want, 0, proj)
			if got[i] != want {
				t.Fatalf("column %v row %d:\n got %+v\nwant %+v", c, i, got[i], want)
			}
		}
	}
}

// TestBlockMetaMatchesZoneMap: the block meta round-trips the zone-map
// summary fields the pruning machinery reads.
func TestBlockMetaMatchesZoneMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	recs := make([]flow.Record, 200)
	var want zoneMap
	for i := range recs {
		recs[i] = randRecord(rng, 3000)
		want.add(&recs[i])
	}
	blk := new(blockEncoder).appendBlock(nil, recs)
	rd := blockReader{br: bufio.NewReader(bytes.NewReader(blk))}
	count, payload, err := rd.next()
	if err != nil {
		t.Fatal(err)
	}
	var got zoneMap
	if err := decodeBlockMeta(payload, count, &got); err != nil {
		t.Fatal(err)
	}
	// The block meta carries no Blooms and no covered size; align the
	// fields outside its scope, then the rest must match exactly.
	want.noBloom = true
	want.coveredSize = 0
	got.coveredSize = 0
	want.bloomSrc = bloom{}
	want.bloomDst = bloom{}
	if got != want {
		t.Fatalf("block meta diverges:\n got %+v\nwant %+v", got, want)
	}
}

// corruptCase mutates a valid encoded block and says what must happen.
type corruptCase struct {
	name   string
	mutate func([]byte) []byte
}

// TestBlockCorruptionDetected: every structural mutation of a block is an
// error — never a panic, never silently wrong rows.
func TestBlockCorruptionDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	recs := make([]flow.Record, 300)
	for i := range recs {
		recs[i] = randRecord(rng, 3000)
	}
	valid := new(blockEncoder).appendBlock(nil, recs)
	cases := []corruptCase{
		{"truncated-header", func(b []byte) []byte { return b[:blockHeaderSize-3] }},
		{"truncated-payload", func(b []byte) []byte { return b[:len(b)-5] }},
		{"bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"zero-count", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:], 0)
			return b
		}},
		{"huge-count", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:], maxBlockRecords+1)
			return b
		}},
		{"huge-payload-len", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], maxBlockPayload+1)
			return b
		}},
		{"checksum-flip", func(b []byte) []byte { b[len(b)-1] ^= 1; return b }},
	}
	for _, c := range cases {
		buf := c.mutate(append([]byte(nil), valid...))
		rd := blockReader{br: bufio.NewReader(bytes.NewReader(buf))}
		if _, _, err := rd.next(); err == nil || err == io.EOF {
			t.Errorf("%s: want error, got %v", c.name, err)
		}
	}
}

// TestBlockMangledSectionsDetected: corruption below the checksum — a
// decoder fed sections that lie about their own structure (the fuzzing
// surface) must error. The checksum is recomputed after each mutation so
// the section decoders themselves are what rejects the bytes.
func TestBlockMangledSectionsDetected(t *testing.T) {
	recs := []flow.Record{
		{Start: 1, SrcPort: 80, DstPort: 53, Proto: 6, Packets: 3, Bytes: 120},
		{Start: 2, SrcPort: 81, DstPort: 53, Proto: 17, Packets: 1, Bytes: 60},
		{Start: 3, SrcPort: 82, DstPort: 443, Proto: 6, Packets: 9, Bytes: 900},
	}
	valid := new(blockEncoder).appendBlock(nil, recs)
	reseal := func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[8:], uint32(len(b)-blockHeaderSize))
		binary.LittleEndian.PutUint32(b[12:], blockChecksum(b[blockHeaderSize:]))
		return b
	}
	sectionsAt := blockHeaderSize + blockMetaSize
	cases := []corruptCase{
		{"section-length-past-end", func(b []byte) []byte {
			b[sectionsAt] = 0xf0 // claims a 240-byte Start section
			return reseal(b)
		}},
		{"truncated-sections", func(b []byte) []byte {
			return reseal(b[:len(b)-3])
		}},
		{"trailing-garbage", func(b []byte) []byte {
			return reseal(append(b, 0xaa, 0xbb))
		}},
		{"payload-shorter-than-meta", func(b []byte) []byte {
			return reseal(b[:blockHeaderSize+blockMetaSize-10])
		}},
	}
	// Mangled dictionary: cardinality byte of the SrcPort section bumped
	// past the declared section. Find the SrcPort section by walking the
	// length prefixes like the decoder does.
	cases = append(cases, corruptCase{"mangled-dictionary", func(b []byte) []byte {
		off := sectionsAt
		for c := nffilter.Column(0); c < nffilter.ColSrcPort; c++ {
			l, n := binary.Uvarint(b[off:])
			off += n + int(l)
		}
		_, n := binary.Uvarint(b[off:]) // section length prefix
		b[off+n] = 0xff                 // cardinality varint now nonsense vs payload
		return reseal(b)
	}})
	for _, c := range cases {
		buf := c.mutate(append([]byte(nil), valid...))
		rd := blockReader{br: bufio.NewReader(bytes.NewReader(buf))}
		count, payload, err := rd.next()
		if err != nil {
			continue // rejected even earlier — fine
		}
		if c.name == "payload-shorter-than-meta" {
			var meta zoneMap
			if err := decodeBlockMeta(payload, count, &meta); err == nil {
				t.Errorf("%s: zone-map decode accepted short payload", c.name)
			}
			continue
		}
		var batch Batch
		if err := decodeBlockColumns(payload[blockMetaSize:], count, nffilter.AllColumns, &batch); err == nil {
			t.Errorf("%s: column decode accepted mangled sections", c.name)
		}
	}
}

// TestSegHeaderVersionErrors: decodeSegHeader must distinguish a segment
// from a future build (actionable "upgrade or migrate" message) from
// plain corruption, and reject both.
func TestSegHeaderVersionErrors(t *testing.T) {
	mk := func(version uint16) []byte {
		var hdr [segHeaderSize]byte
		encodeSegHeader(hdr[:], version, 300, 300)
		return hdr[:]
	}
	if _, _, v, err := decodeSegHeader(mk(FormatV1)); err != nil || v != FormatV1 {
		t.Fatalf("v1 header: version %d, err %v", v, err)
	}
	if _, _, v, err := decodeSegHeader(mk(FormatV2)); err != nil || v != FormatV2 {
		t.Fatalf("v2 header: version %d, err %v", v, err)
	}

	_, _, _, err := decodeSegHeader(mk(0))
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("version 0 must read as corruption, got: %v", err)
	}
	_, _, _, err = decodeSegHeader(mk(segVersionMax + 1))
	if err == nil || !strings.Contains(err.Error(), "newer than this build") ||
		!strings.Contains(err.Error(), "migrate") {
		t.Errorf("future version must say upgrade/migrate, got: %v", err)
	}
	_, _, _, err = decodeSegHeader(mk(FormatV1)[:segHeaderSize-1])
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("short header must say truncated, got: %v", err)
	}
	bad := mk(FormatV1)
	bad[0] ^= 0xff
	_, _, _, err = decodeSegHeader(bad)
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic must be reported, got: %v", err)
	}
}

// TestV2SegmentCorruptionSurfacesInQuery: block corruption reaches the
// Query caller as an error (and never a panic), same as the v1 truncation
// contract.
func TestV2SegmentCorruptionSurfacesInQuery(t *testing.T) {
	dir := t.TempDir()
	s, err := CreateFormat(dir, 300, FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		r := randRecord(rng, 300)
		if err := s.Add(&r); err != nil {
			t.Fatal(err)
		}
	}
	// Seal (not just Flush) so the bin has no open writer: scans of open
	// bins deliberately tolerate a short tail as an in-flight append, and
	// this test is about corruption of closed, durable segments.
	if err := s.Seal(0); err != nil {
		t.Fatal(err)
	}
	path := s.segPath(0)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func([]byte) []byte{
		"truncated-block": func(b []byte) []byte { return b[:len(b)-7] },
		"flipped-byte":    func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b },
		"bad-block-magic": func(b []byte) []byte { b[segHeaderSize] ^= 0xff; return b },
	}
	iv := flow.Interval{Start: 0, End: 300}
	for name, mutate := range mutations {
		if err := os.WriteFile(path, mutate(append([]byte(nil), raw...)), 0o644); err != nil {
			t.Fatal(err)
		}
		os.Remove(s.idxPath(0))
		err := s.Query(context.Background(), iv, nil, func(*flow.Record) error { return nil })
		if err == nil {
			t.Errorf("%s: corruption not detected by Query", name)
		}
	}
}

// TestV2EmptySegmentScans: a v2 segment holding only its header (zero
// blocks — the zero-row case) reads back as zero records, cleanly.
func TestV2EmptySegmentScans(t *testing.T) {
	dir := t.TempDir()
	s, err := CreateFormat(dir, 300, FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var hdr [segHeaderSize]byte
	encodeSegHeader(hdr[:], FormatV2, 0, 300)
	if err := os.WriteFile(s.segPath(0), hdr[:], 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := s.Records(context.Background(), flow.Interval{Start: 0, End: 300}, nil)
	if err != nil {
		t.Fatalf("scan of empty v2 segment: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("empty segment produced %d records", len(got))
	}
}
