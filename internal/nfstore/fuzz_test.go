package nfstore

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/flow"
	"repro/internal/nffilter"
)

// fuzzBlockSeeds are the in-code seed inputs for FuzzDecodeBlock; the
// same bytes are committed under testdata/fuzz/ (see
// TestWriteFuzzCorpus) so `go test -fuzz` starts from structure-aware
// corpora even when run from a clean checkout.
func fuzzBlockSeeds() [][]byte {
	recs := goldenRecords()
	seeds := [][]byte{
		new(blockEncoder).appendBlock(nil, recs[:1]),
		new(blockEncoder).appendBlock(nil, recs[:300]),
		new(blockEncoder).appendBlock(nil, recs),
		{},
		bytes.Repeat([]byte{0}, blockHeaderSize),
	}
	// A few structured mutants: flipped magic, inflated count, clipped tail.
	m := append([]byte(nil), seeds[1]...)
	m[0] ^= 0xff
	seeds = append(seeds, m)
	m = append([]byte(nil), seeds[1]...)
	m[4] = 0xff
	seeds = append(seeds, m, seeds[1][:len(seeds[1])/2])
	return seeds
}

// FuzzDecodeBlock drives the block decoder stack — header, zone-map
// meta, column sections, row materialization — over arbitrary bytes.
// Any input may error; none may panic or hang.
func FuzzDecodeBlock(f *testing.F) {
	for _, s := range fuzzBlockSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := blockReader{br: bufio.NewReader(bytes.NewReader(data))}
		count, payload, err := rd.next()
		if err != nil {
			return
		}
		var meta zoneMap
		if err := decodeBlockMeta(payload, count, &meta); err != nil {
			t.Fatalf("readBlock accepted a payload decodeBlockMeta rejects: %v", err)
		}
		var batch Batch
		if err := decodeBlockColumns(payload[blockMetaSize:], count, nffilter.AllColumns, &batch); err != nil {
			return
		}
		var r flow.Record
		for i := 0; i < count; i++ {
			batch.fill(&r, i, nffilter.AllColumns)
		}
	})
}

// oracleAppendBlock is the v2 block encoder blockEncoder replaced — a
// fresh slice per column and a Go map per u16 dictionary
// (oracleAppendDictU16) — kept as FuzzEncodeBlock's byte oracle. The
// delta, raw and u8 dictionary coders are shared: they are unchanged.
func oracleAppendBlock(dst []byte, recs []flow.Record) []byte {
	headerAt := len(dst)
	dst = append(dst, make([]byte, blockHeaderSize)...)
	payloadAt := len(dst)
	var zm zoneMap
	for i := range recs {
		zm.add(&recs[i])
	}
	dst = appendBlockMeta(dst, &zm)
	secs := [nffilter.NumColumns][]byte{
		nffilter.ColStart:   appendDeltaU32(nil, oracleColumn(recs, func(r *flow.Record) uint32 { return r.Start })),
		nffilter.ColDur:     appendDeltaU32(nil, oracleColumn(recs, func(r *flow.Record) uint32 { return r.Dur })),
		nffilter.ColSrcIP:   appendRawU32(nil, oracleColumn(recs, func(r *flow.Record) uint32 { return uint32(r.SrcIP) })),
		nffilter.ColDstIP:   appendRawU32(nil, oracleColumn(recs, func(r *flow.Record) uint32 { return uint32(r.DstIP) })),
		nffilter.ColSrcPort: oracleAppendDictU16(nil, oracleColumn(recs, func(r *flow.Record) uint16 { return r.SrcPort })),
		nffilter.ColDstPort: oracleAppendDictU16(nil, oracleColumn(recs, func(r *flow.Record) uint16 { return r.DstPort })),
		nffilter.ColProto:   appendDictU8(nil, oracleColumn(recs, func(r *flow.Record) uint8 { return uint8(r.Proto) })),
		nffilter.ColFlags:   appendDictU8(nil, oracleColumn(recs, func(r *flow.Record) uint8 { return r.Flags })),
		nffilter.ColRouter:  oracleAppendDictU16(nil, oracleColumn(recs, func(r *flow.Record) uint16 { return r.Router })),
		nffilter.ColAnno:    oracleAppendDictU16(nil, oracleColumn(recs, func(r *flow.Record) uint16 { return uint16(r.Anno) })),
		nffilter.ColPackets: appendDeltaU64(nil, oracleColumn(recs, func(r *flow.Record) uint64 { return r.Packets })),
		nffilter.ColBytes:   appendDeltaU64(nil, oracleColumn(recs, func(r *flow.Record) uint64 { return r.Bytes })),
	}
	for _, sec := range secs {
		dst = binary.AppendUvarint(dst, uint64(len(sec)))
		dst = append(dst, sec...)
	}
	payload := dst[payloadAt:]
	hdr := dst[headerAt:payloadAt]
	le := binary.LittleEndian
	le.PutUint32(hdr[0:], blockMagic)
	le.PutUint32(hdr[4:], uint32(len(recs)))
	le.PutUint32(hdr[8:], uint32(len(payload)))
	le.PutUint32(hdr[12:], blockChecksum(payload))
	return dst
}

// oracleColumn gathers one column of recs into a fresh slice.
func oracleColumn[T any](recs []flow.Record, get func(*flow.Record) T) []T {
	out := make([]T, len(recs))
	for i := range recs {
		out[i] = get(&recs[i])
	}
	return out
}

// oracleAppendDictU16 is the map-based u16 dictionary coder.
func oracleAppendDictU16(dst []byte, vals []uint16) []byte {
	var dict []uint16
	idx := make(map[uint16]uint8, 16)
	for _, v := range vals {
		if _, ok := idx[v]; !ok {
			if len(dict) == 256 {
				dict = nil
				break
			}
			idx[v] = uint8(len(dict))
			dict = append(dict, v)
		}
	}
	if dict == nil {
		dst = binary.AppendUvarint(dst, 0)
		for _, v := range vals {
			dst = binary.LittleEndian.AppendUint16(dst, v)
		}
		return dst
	}
	dst = binary.AppendUvarint(dst, uint64(len(dict)))
	for _, v := range dict {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	if len(dict) == 1 {
		return dst
	}
	for _, v := range vals {
		dst = append(dst, idx[v])
	}
	return dst
}

// encodeFuzzCards are the u16 dictionary-column cardinalities
// FuzzEncodeBlock draws from: the single-value and two-value shapes, the
// 256-entry dictionary limit on either side, and the raw fallback well
// past it.
var encodeFuzzCards = [...]int{1, 2, 255, 256, 257, 600}

// encodeFuzzBlocks derives 1–3 consecutive record blocks from fuzz bytes.
// The bytes pick each block's length and, per u16 dictionary column, its
// cardinality, base and odd stride; column i of a block cycles through
// exactly min(len, card) distinct values base + k·stride, so values
// collide across columns and blocks. The remaining columns come from a
// generator seeded by a hash of the bytes.
func encodeFuzzBlocks(data []byte) [][]flow.Record {
	at := 0
	param := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[at%len(data)]
		at++
		return int(b)
	}
	h := fnv.New64a()
	h.Write(data)
	state := h.Sum64()
	rnd := func(mod uint64) uint64 {
		state += 0x9e3779b97f4a7c15
		x := state
		x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
		x = (x ^ x>>27) * 0x94d049bb133111eb
		return (x ^ x>>31) % mod
	}
	blocks := make([][]flow.Record, 1+param()%3)
	for b := range blocks {
		n := 1 + (param()<<8|param())%blockRecords
		var cards [4]int
		var base, stride [4]uint16
		for c := range cards {
			cards[c] = encodeFuzzCards[param()%len(encodeFuzzCards)]
			base[c] = uint16(param())
			stride[c] = uint16(2*param() + 1)
		}
		col := func(c, i int) uint16 {
			k := i
			if i >= cards[c] {
				k = int(rnd(uint64(cards[c])))
			}
			return base[c] + uint16(k)*stride[c]
		}
		recs := make([]flow.Record, n)
		for i := range recs {
			recs[i] = flow.Record{
				Start:   uint32(rnd(1 << 32)),
				Dur:     uint32(rnd(10_000)),
				SrcIP:   flow.IP(rnd(1 << 32)),
				DstIP:   flow.IP(rnd(1 << 12)),
				SrcPort: col(0, i),
				DstPort: col(1, i),
				Proto:   flow.Protocol(rnd(4) * 17),
				Flags:   uint8(rnd(256)),
				Router:  col(2, i),
				Anno:    flow.Annotation(col(3, i)),
				Packets: rnd(1 << 40),
				Bytes:   rnd(1 << 50),
			}
		}
		blocks[b] = recs
	}
	return blocks
}

// FuzzEncodeBlock encodes 1–3 blocks derived from the fuzz bytes through
// one reused blockEncoder — a code-table entry left set by one column or
// block shows as wrong bytes in a later one — and checks every block two
// ways: it decodes back to its input, and its bytes equal the map-based
// oracle's.
func FuzzEncodeBlock(f *testing.F) {
	for k := range encodeFuzzCards {
		// Three full blocks whose columns walk the cardinality table.
		seed := []byte{2}
		for b := 0; b < 3; b++ {
			seed = append(seed, 0x0f, 0xff)
			for c := 0; c < 4; c++ {
				seed = append(seed, byte(k+b+c), byte(7*c), byte(b))
			}
		}
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	e := new(blockEncoder)
	f.Fuzz(func(t *testing.T, data []byte) {
		for b, recs := range encodeFuzzBlocks(data) {
			got := e.appendBlock(nil, recs)
			if want := oracleAppendBlock(nil, recs); !bytes.Equal(got, want) {
				t.Fatalf("block %d (%d records): encoder bytes differ from the map-based oracle", b, len(recs))
			}
			for i, r := range decodeBlockRecords(t, got, nffilter.AllColumns) {
				if r != recs[i] {
					t.Fatalf("block %d row %d:\n got %+v\nwant %+v", b, i, r, recs[i])
				}
			}
		}
	})
}

// fuzzSegmentSeeds: whole segment files, both formats, valid and broken.
func fuzzSegmentSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	for _, format := range []uint16{FormatV1, FormatV2} {
		var hdr [segHeaderSize]byte
		encodeSegHeader(hdr[:], format, 0, 300)
		seeds = append(seeds, hdr[:]) // header-only (empty segment)
		path, _ := writeGoldenSegment(tb, format)
		raw, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, raw, raw[:len(raw)-9])
	}
	var future [segHeaderSize]byte
	encodeSegHeader(future[:], segVersionMax+3, 0, 300)
	seeds = append(seeds, future[:], []byte("not a segment at all"))
	return seeds
}

// FuzzDecodeSegment plants arbitrary bytes as a bin-0 segment file and
// runs the full query path over them: header validation, per-format
// scan, lazy sidecar rebuild. Errors are expected; panics are bugs.
func FuzzDecodeSegment(f *testing.F) {
	for _, s := range fuzzSegmentSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		s, err := CreateFormat(dir, 300, FormatV2)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := os.WriteFile(s.segPath(0), data, 0o644); err != nil {
			t.Fatal(err)
		}
		iv := flow.Interval{Start: 0, End: 300}
		filter, err := nffilter.Parse("proto udp and dst port 53")
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		s.Query(ctx, iv, nil, func(*flow.Record) error { return nil })
		s.Query(ctx, iv, filter, func(*flow.Record) error { return nil })
		s.Count(ctx, iv, filter)
	})
}

// TestWriteFuzzCorpus materializes the in-code seeds as corpus files in
// `go test fuzz v1` encoding under testdata/fuzz/<Target>/, where the
// fuzzing engine picks them up. Gated: run with UPDATE_GOLDEN=1 after
// changing the seed sets; the files are committed.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("UPDATE_GOLDEN") == "" {
		t.Skip("corpus committed; set UPDATE_GOLDEN=1 to regenerate")
	}
	write := func(target string, seeds [][]byte) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(seed)))
			name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("wrote %d corpus files to %s", len(seeds), dir)
	}
	write("FuzzDecodeBlock", fuzzBlockSeeds())
	write("FuzzDecodeSegment", fuzzSegmentSeeds(t))
}
