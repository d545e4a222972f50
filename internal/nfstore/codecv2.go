package nfstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"repro/internal/flow"
	"repro/internal/nffilter"
)

// Segment format v2 stores records as self-delimiting compressed column
// blocks instead of fixed rows. Each block holds up to blockRecords
// records and carries:
//
//	block header:  magic(4) count(4) payloadLen(4) checksum(4)
//	payload:       block zone map (fixed blockMetaSize bytes)
//	               12 column sections, each uvarint(length) + bytes
//
// Column sections appear in nffilter.Column order. The length prefix
// makes unprojected columns skippable without decoding; the per-block
// zone map lets scans prune or aggregate whole blocks inside a segment.
// Encodings per column:
//
//	Start, Dur                       delta varints (first value uvarint,
//	                                 then zigzag deltas, wrapping u32)
//	SrcIP, DstIP                     raw little-endian u32
//	SrcPort, DstPort, Router, Anno   u16 dictionary (uvarint cardinality,
//	                                 value list, 1-byte indexes; a single
//	                                 value omits the indexes; cardinality
//	                                 marker 0 = raw little-endian u16)
//	Proto, Flags                     u8 dictionary (same scheme, always
//	                                 dictionary — at most 256 values)
//	Packets, Bytes                   delta varints (wrapping u64)
//
// The checksum is CRC-32C (Castagnoli) over the payload — hardware
// accelerated on amd64/arm64, it costs a fraction of the scan — so a
// truncated or mangled block is an error, never silently wrong rows. All
// decoder limits are validated before allocation: a hostile block
// errors, it cannot panic or balloon memory.

// Segment formats selectable per store (and per segment: a store may mix
// formats, each segment declares its own in the header version field).
const (
	// FormatV1 is the fixed-row format: 42-byte little-endian records.
	FormatV1 uint16 = 1
	// FormatV2 is the columnar format: compressed column blocks with
	// per-block zone maps.
	FormatV2 uint16 = 2
)

// DefaultSegmentFormat is what new stores (and stores whose metadata
// predates the format field) write for new segments.
const DefaultSegmentFormat = FormatV2

// segVersionMax is the newest segment format this build reads.
const segVersionMax = FormatV2

// blockMagic starts every v2 column block ("NFBK" little-endian).
const blockMagic = 0x4b42464e

// blockHeaderSize is the fixed block header: magic(4) count(4)
// payloadLen(4) checksum(4).
const blockHeaderSize = 16

// blockRecords is the target record count per block: large enough to
// amortize per-block metadata, small enough that min/max zone maps stay
// selective within a segment.
const blockRecords = 4096

// maxBlockRecords bounds the record count a decoder accepts per block.
const maxBlockRecords = 1 << 16

// maxBlockPayload bounds the payload length a decoder accepts — far
// above any writer-produced block, low enough that a hostile header
// cannot demand a huge allocation.
const maxBlockPayload = 1 << 24

// blockMetaSize is the fixed encoded size of a block's zone map: bounds,
// protocol bitmap, flag masks and volume totals (no Blooms — a block is
// small enough that range bounds carry the pruning).
const blockMetaSize = 126

// validFormat reports whether f names a known segment format.
func validFormat(f uint16) bool { return f == FormatV1 || f == FormatV2 }

// blockCRC is the block checksum polynomial table. Castagnoli, not the
// sidecar's FNV: the block checksum runs over every scanned byte, and
// CRC-32C has hardware support where FNV's serial multiply chain would
// dominate the whole scan.
var blockCRC = crc32.MakeTable(crc32.Castagnoli)

// blockChecksum is the integrity checksum over a block payload.
func blockChecksum(payload []byte) uint32 { return crc32.Checksum(payload, blockCRC) }

// growU32/growU16/growU8/growU64 size a column slice to n reusing capacity.
func growU32(s []uint32, n int) []uint32 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]uint32, n)
}

func growU16(s []uint16, n int) []uint16 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]uint16, n)
}

func growU8(s []uint8, n int) []uint8 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]uint8, n)
}

func growU64(s []uint64, n int) []uint64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]uint64, n)
}

// growBytes sizes a byte buffer to n reusing capacity.
func growBytes(b []byte, n int) []byte {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]byte, n)
}

// blockEncoder holds the v2 writer's reusable state. A Store owns one
// and uses it under s.mu; a migration rewrite makes its own.
type blockEncoder struct {
	// code maps a u16 value to its dictionary index+1 in the column being
	// encoded (0 = unseen). appendDictU16 zeroes every entry it set before
	// returning, so the table is all zero between columns.
	code [1 << 16]uint16
	dict []uint16 // the current column's distinct values
	cols Batch    // the block's records, gathered column by column
	sec  []byte   // the current column section, before its length prefix
}

// appendBlock encodes one block of records (1 ≤ len ≤ maxBlockRecords)
// onto dst: header, zone-map meta, then the column sections. The encoding
// is deterministic — dictionaries list values in first-occurrence order —
// so identical record sequences produce identical bytes. The block zone
// map gets bounds and totals only: blocks carry no Blooms.
func (e *blockEncoder) appendBlock(dst []byte, recs []flow.Record) []byte {
	headerAt := len(dst)
	dst = append(dst, make([]byte, blockHeaderSize)...)
	payloadAt := len(dst)

	n := len(recs)
	b := &e.cols
	b.Start, b.Dur = growU32(b.Start, n), growU32(b.Dur, n)
	b.SrcIP, b.DstIP = growU32(b.SrcIP, n), growU32(b.DstIP, n)
	b.SrcPort, b.DstPort = growU16(b.SrcPort, n), growU16(b.DstPort, n)
	b.Router, b.Anno = growU16(b.Router, n), growU16(b.Anno, n)
	b.Proto, b.Flags = growU8(b.Proto, n), growU8(b.Flags, n)
	b.Packets, b.Bytes = growU64(b.Packets, n), growU64(b.Bytes, n)
	var zm zoneMap
	for i := range recs {
		r := &recs[i]
		zm.addBounds(r)
		b.Start[i], b.Dur[i], b.SrcIP[i], b.DstIP[i] = r.Start, r.Dur, uint32(r.SrcIP), uint32(r.DstIP)
		b.SrcPort[i], b.DstPort[i], b.Router[i], b.Anno[i] = r.SrcPort, r.DstPort, r.Router, uint16(r.Anno)
		b.Proto[i], b.Flags[i], b.Packets[i], b.Bytes[i] = uint8(r.Proto), r.Flags, r.Packets, r.Bytes
	}
	dst = appendBlockMeta(dst, &zm)

	for c := nffilter.Column(0); c < nffilter.NumColumns; c++ {
		sec := e.sec[:0]
		switch c {
		case nffilter.ColStart:
			sec = appendDeltaU32(sec, b.Start)
		case nffilter.ColDur:
			sec = appendDeltaU32(sec, b.Dur)
		case nffilter.ColSrcIP:
			sec = appendRawU32(sec, b.SrcIP)
		case nffilter.ColDstIP:
			sec = appendRawU32(sec, b.DstIP)
		case nffilter.ColSrcPort:
			sec = e.appendDictU16(sec, b.SrcPort)
		case nffilter.ColDstPort:
			sec = e.appendDictU16(sec, b.DstPort)
		case nffilter.ColProto:
			sec = appendDictU8(sec, b.Proto)
		case nffilter.ColFlags:
			sec = appendDictU8(sec, b.Flags)
		case nffilter.ColRouter:
			sec = e.appendDictU16(sec, b.Router)
		case nffilter.ColAnno:
			sec = e.appendDictU16(sec, b.Anno)
		case nffilter.ColPackets:
			sec = appendDeltaU64(sec, b.Packets)
		case nffilter.ColBytes:
			sec = appendDeltaU64(sec, b.Bytes)
		}
		dst = binary.AppendUvarint(dst, uint64(len(sec)))
		dst = append(dst, sec...)
		e.sec = sec
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

// decodeBlockHeader validates a block header and returns the record
// count, payload length and payload checksum.
func decodeBlockHeader(hdr []byte) (count, payloadLen int, checksum uint32, err error) {
	le := binary.LittleEndian
	if got := le.Uint32(hdr[0:]); got != blockMagic {
		return 0, 0, 0, fmt.Errorf("bad block magic %#x", got)
	}
	count = int(le.Uint32(hdr[4:]))
	payloadLen = int(le.Uint32(hdr[8:]))
	if count == 0 || count > maxBlockRecords {
		return 0, 0, 0, fmt.Errorf("block record count %d out of range [1, %d]", count, maxBlockRecords)
	}
	if payloadLen < blockMetaSize || payloadLen > maxBlockPayload {
		return 0, 0, 0, fmt.Errorf("block payload length %d out of range [%d, %d]",
			payloadLen, blockMetaSize, maxBlockPayload)
	}
	return count, payloadLen, le.Uint32(hdr[12:]), nil
}

// appendBlockMeta encodes a block's zone map (bounds, protocol bitmap,
// flag masks, volume totals — no Blooms, no covered size: a block's
// extent is delimited by its own header).
func appendBlockMeta(dst []byte, z *zoneMap) []byte {
	at := len(dst)
	dst = append(dst, make([]byte, blockMetaSize)...)
	buf := dst[at:]
	le := binary.LittleEndian
	le.PutUint32(buf[0:], z.minStart)
	le.PutUint32(buf[4:], z.maxStart)
	le.PutUint32(buf[8:], z.minSrcIP)
	le.PutUint32(buf[12:], z.maxSrcIP)
	le.PutUint32(buf[16:], z.minDstIP)
	le.PutUint32(buf[20:], z.maxDstIP)
	le.PutUint16(buf[24:], z.minSrcPort)
	le.PutUint16(buf[26:], z.maxSrcPort)
	le.PutUint16(buf[28:], z.minDstPort)
	le.PutUint16(buf[30:], z.maxDstPort)
	le.PutUint16(buf[32:], z.minRouter)
	le.PutUint16(buf[34:], z.maxRouter)
	le.PutUint32(buf[36:], z.minDur)
	le.PutUint32(buf[40:], z.maxDur)
	le.PutUint64(buf[44:], z.minPackets)
	le.PutUint64(buf[52:], z.maxPackets)
	le.PutUint64(buf[60:], z.minBytes)
	le.PutUint64(buf[68:], z.maxBytes)
	copy(buf[76:108], z.protoBitmap[:])
	buf[108] = z.flagsOr
	buf[109] = z.flagsAnd
	le.PutUint64(buf[110:], z.packets)
	le.PutUint64(buf[118:], z.bytes)
	return dst
}

// decodeBlockMeta unpacks a block zone map from the front of a payload
// into z (reused across blocks). The decoded map has noBloom set: block
// IP pruning uses range bounds only.
func decodeBlockMeta(payload []byte, count int, z *zoneMap) error {
	if len(payload) < blockMetaSize {
		return fmt.Errorf("block payload %d bytes, need %d for zone map", len(payload), blockMetaSize)
	}
	buf := payload[:blockMetaSize]
	le := binary.LittleEndian
	*z = zoneMap{
		noBloom:    true,
		count:      uint64(count),
		minStart:   le.Uint32(buf[0:]),
		maxStart:   le.Uint32(buf[4:]),
		minSrcIP:   le.Uint32(buf[8:]),
		maxSrcIP:   le.Uint32(buf[12:]),
		minDstIP:   le.Uint32(buf[16:]),
		maxDstIP:   le.Uint32(buf[20:]),
		minSrcPort: le.Uint16(buf[24:]),
		maxSrcPort: le.Uint16(buf[26:]),
		minDstPort: le.Uint16(buf[28:]),
		maxDstPort: le.Uint16(buf[30:]),
		minRouter:  le.Uint16(buf[32:]),
		maxRouter:  le.Uint16(buf[34:]),
		minDur:     le.Uint32(buf[36:]),
		maxDur:     le.Uint32(buf[40:]),
		minPackets: le.Uint64(buf[44:]),
		maxPackets: le.Uint64(buf[52:]),
		minBytes:   le.Uint64(buf[60:]),
		maxBytes:   le.Uint64(buf[68:]),
		flagsOr:    buf[108],
		flagsAnd:   buf[109],
		packets:    le.Uint64(buf[110:]),
		bytes:      le.Uint64(buf[118:]),
	}
	copy(z.protoBitmap[:], buf[76:108])
	return nil
}

// decodeBlockColumns decodes the column sections after the zone-map meta
// into b, touching only the columns in dec (others are skipped via their
// length prefix and left stale in b). Every structural invariant is
// checked; a malformed section is an error, never a panic.
func decodeBlockColumns(sections []byte, count int, dec nffilter.ColumnSet, b *Batch) error {
	b.n = count
	off := 0
	for c := nffilter.Column(0); c < nffilter.NumColumns; c++ {
		secLen, n := binary.Uvarint(sections[off:])
		if n <= 0 || secLen > uint64(len(sections)-off-n) {
			return fmt.Errorf("column %s: bad section length", c)
		}
		off += n
		sec := sections[off : off+int(secLen)]
		off += int(secLen)
		if !dec.Has(c) {
			continue
		}
		var err error
		switch c {
		case nffilter.ColStart:
			b.Start = growU32(b.Start, count)
			err = decodeDeltaU32(sec, b.Start)
		case nffilter.ColDur:
			b.Dur = growU32(b.Dur, count)
			err = decodeDeltaU32(sec, b.Dur)
		case nffilter.ColSrcIP:
			b.SrcIP = growU32(b.SrcIP, count)
			err = decodeRawU32(sec, b.SrcIP)
		case nffilter.ColDstIP:
			b.DstIP = growU32(b.DstIP, count)
			err = decodeRawU32(sec, b.DstIP)
		case nffilter.ColSrcPort:
			b.SrcPort = growU16(b.SrcPort, count)
			err = decodeDictU16(sec, b.SrcPort)
		case nffilter.ColDstPort:
			b.DstPort = growU16(b.DstPort, count)
			err = decodeDictU16(sec, b.DstPort)
		case nffilter.ColProto:
			b.Proto = growU8(b.Proto, count)
			err = decodeDictU8(sec, b.Proto)
		case nffilter.ColFlags:
			b.Flags = growU8(b.Flags, count)
			err = decodeDictU8(sec, b.Flags)
		case nffilter.ColRouter:
			b.Router = growU16(b.Router, count)
			err = decodeDictU16(sec, b.Router)
		case nffilter.ColAnno:
			b.Anno = growU16(b.Anno, count)
			err = decodeDictU16(sec, b.Anno)
		case nffilter.ColPackets:
			b.Packets = growU64(b.Packets, count)
			err = decodeDeltaU64(sec, b.Packets)
		case nffilter.ColBytes:
			b.Bytes = growU64(b.Bytes, count)
			err = decodeDeltaU64(sec, b.Bytes)
		}
		if err != nil {
			return fmt.Errorf("column %s: %w", c, err)
		}
	}
	if off != len(sections) {
		return fmt.Errorf("%d trailing bytes after column sections", len(sections)-off)
	}
	return nil
}

// appendDeltaU32 encodes vals as uvarint(first) + zigzag varint deltas.
// Deltas wrap modulo 2³², so any value sequence round-trips.
func appendDeltaU32(dst []byte, vals []uint32) []byte {
	dst = binary.AppendUvarint(dst, uint64(vals[0]))
	for i := 1; i < len(vals); i++ {
		dst = binary.AppendVarint(dst, int64(int32(vals[i]-vals[i-1])))
	}
	return dst
}

// deltaVarint decodes the zigzag varint at sec[off:] without the call
// overhead of binary.Varint — this loop runs once per record per delta
// column, squarely on the scan's hot path. One-byte deltas return
// immediately; the continuation loop rejects the same inputs
// binary.Uvarint does (truncation, >64-bit values). Returns the delta,
// the new offset, and ok=false on a malformed or missing varint.
func deltaVarint(sec []byte, off int) (d int64, _ int, ok bool) {
	if off >= len(sec) {
		return 0, off, false
	}
	b := sec[off]
	off++
	if b < 0x80 {
		u := uint64(b)
		return int64(u>>1) ^ -int64(u&1), off, true
	}
	u := uint64(b & 0x7f)
	for s := uint(7); off < len(sec); s += 7 {
		b = sec[off]
		off++
		if b < 0x80 {
			if s == 63 && b > 1 {
				return 0, off, false // overflows 64 bits
			}
			u |= uint64(b) << s
			return int64(u>>1) ^ -int64(u&1), off, true
		}
		if s == 63 {
			return 0, off, false // more than 10 bytes
		}
		u |= uint64(b&0x7f) << s
	}
	return 0, off, false // truncated
}

// decodeDeltaU32 reverses appendDeltaU32 into out (len = record count).
func decodeDeltaU32(sec []byte, out []uint32) error {
	first, n := binary.Uvarint(sec)
	if n <= 0 || first > 0xffffffff {
		return fmt.Errorf("bad first value")
	}
	out[0] = uint32(first)
	off := n
	prev := uint32(first)
	for i := 1; i < len(out); i++ {
		d, next, ok := deltaVarint(sec, off)
		if !ok {
			return fmt.Errorf("bad delta at row %d", i)
		}
		off = next
		prev += uint32(d)
		out[i] = prev
	}
	if off != len(sec) {
		return fmt.Errorf("%d trailing bytes", len(sec)-off)
	}
	return nil
}

// appendDeltaU64 is appendDeltaU32 for u64 values (deltas wrap modulo 2⁶⁴).
func appendDeltaU64(dst []byte, vals []uint64) []byte {
	dst = binary.AppendUvarint(dst, vals[0])
	for i := 1; i < len(vals); i++ {
		dst = binary.AppendVarint(dst, int64(vals[i]-vals[i-1]))
	}
	return dst
}

// decodeDeltaU64 reverses appendDeltaU64 into out.
func decodeDeltaU64(sec []byte, out []uint64) error {
	first, n := binary.Uvarint(sec)
	if n <= 0 {
		return fmt.Errorf("bad first value")
	}
	out[0] = first
	off := n
	prev := first
	for i := 1; i < len(out); i++ {
		d, next, ok := deltaVarint(sec, off)
		if !ok {
			return fmt.Errorf("bad delta at row %d", i)
		}
		off = next
		prev += uint64(d)
		out[i] = prev
	}
	if off != len(sec) {
		return fmt.Errorf("%d trailing bytes", len(sec)-off)
	}
	return nil
}

// appendRawU32 encodes vals as little-endian u32s (IP columns: high
// cardinality, no point dictionary- or delta-coding).
func appendRawU32(dst []byte, vals []uint32) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint32(dst, v)
	}
	return dst
}

// decodeRawU32 reverses appendRawU32 into out.
func decodeRawU32(sec []byte, out []uint32) error {
	if len(sec) != 4*len(out) {
		return fmt.Errorf("section %d bytes, want %d", len(sec), 4*len(out))
	}
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(sec[4*i:])
	}
	return nil
}

// appendDictU16 dictionary-encodes a u16 column: uvarint cardinality,
// the distinct values (first-occurrence order, uvarint each), then one
// index byte per row. A single-value column omits the indexes; past 256
// distinct values it falls back to raw little-endian u16s, marked by
// cardinality 0. Codes come from e.code, whose set entries are cleared
// again on both paths before returning.
func (e *blockEncoder) appendDictU16(dst []byte, vals []uint16) []byte {
	code := &e.code
	dict := e.dict[:0]
	raw := false
	for _, v := range vals {
		if code[v] == 0 {
			if len(dict) == 256 {
				raw = true
				break
			}
			dict = append(dict, v)
			code[v] = uint16(len(dict))
		}
	}
	e.dict = dict
	if raw {
		dst = binary.AppendUvarint(dst, 0)
		at := len(dst)
		dst = slices.Grow(dst, 2*len(vals))[:at+2*len(vals)]
		for i, v := range vals {
			binary.LittleEndian.PutUint16(dst[at+2*i:], v)
		}
	} else {
		dst = binary.AppendUvarint(dst, uint64(len(dict)))
		for _, v := range dict {
			dst = binary.AppendUvarint(dst, uint64(v))
		}
		if len(dict) > 1 {
			at := len(dst)
			dst = slices.Grow(dst, len(vals))[:at+len(vals)]
			for i, v := range vals {
				dst[at+i] = uint8(code[v] - 1)
			}
		}
	}
	for _, v := range dict {
		code[v] = 0
	}
	return dst
}

// decodeDictU16 reverses appendDictU16 into out.
func decodeDictU16(sec []byte, out []uint16) error {
	card, n := binary.Uvarint(sec)
	if n <= 0 || card > 256 {
		return fmt.Errorf("bad dictionary cardinality")
	}
	off := n
	if card == 0 { // raw fallback
		if len(sec)-off != 2*len(out) {
			return fmt.Errorf("raw section %d bytes, want %d", len(sec)-off, 2*len(out))
		}
		for i := range out {
			out[i] = binary.LittleEndian.Uint16(sec[off+2*i:])
		}
		return nil
	}
	dict := make([]uint16, card)
	for i := range dict {
		v, n := binary.Uvarint(sec[off:])
		if n <= 0 || v > 0xffff {
			return fmt.Errorf("bad dictionary value %d", i)
		}
		dict[i] = uint16(v)
		off += n
	}
	if card == 1 {
		if off != len(sec) {
			return fmt.Errorf("%d trailing bytes", len(sec)-off)
		}
		for i := range out {
			out[i] = dict[0]
		}
		return nil
	}
	if len(sec)-off != len(out) {
		return fmt.Errorf("index section %d bytes, want %d", len(sec)-off, len(out))
	}
	for i := range out {
		ix := sec[off+i]
		if uint64(ix) >= card {
			return fmt.Errorf("index %d out of dictionary range %d", ix, card)
		}
		out[i] = dict[ix]
	}
	return nil
}

// appendDictU8 dictionary-encodes a u8 column (Proto, Flags). At most 256
// distinct byte values exist, so there is no raw fallback.
func appendDictU8(dst []byte, vals []uint8) []byte {
	var seen [256]bool
	var dict []uint8
	var idx [256]uint8
	for _, v := range vals {
		if !seen[v] {
			seen[v] = true
			idx[v] = uint8(len(dict))
			dict = append(dict, v)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(dict)))
	dst = append(dst, dict...)
	if len(dict) == 1 {
		return dst
	}
	for _, v := range vals {
		dst = append(dst, idx[v])
	}
	return dst
}

// decodeDictU8 reverses appendDictU8 into out.
func decodeDictU8(sec []byte, out []uint8) error {
	card, n := binary.Uvarint(sec)
	if n <= 0 || card == 0 || card > 256 {
		return fmt.Errorf("bad dictionary cardinality")
	}
	off := n
	if len(sec)-off < int(card) {
		return fmt.Errorf("dictionary truncated")
	}
	dict := sec[off : off+int(card)]
	off += int(card)
	if card == 1 {
		if off != len(sec) {
			return fmt.Errorf("%d trailing bytes", len(sec)-off)
		}
		for i := range out {
			out[i] = dict[0]
		}
		return nil
	}
	if len(sec)-off != len(out) {
		return fmt.Errorf("index section %d bytes, want %d", len(sec)-off, len(out))
	}
	for i := range out {
		ix := sec[off+i]
		if uint64(ix) >= card {
			return fmt.Errorf("index %d out of dictionary range %d", ix, card)
		}
		out[i] = dict[ix]
	}
	return nil
}
