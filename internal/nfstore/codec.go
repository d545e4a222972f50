package nfstore

import (
	"encoding/binary"
	"fmt"

	"repro/internal/flow"
)

// RecordSize is the fixed on-disk size of one encoded flow record.
const RecordSize = 42

// segMagic starts every segment file ("NFSG" little-endian).
const segMagic = 0x4753464e

// segHeaderSize is the fixed segment header: magic(4) version(2)
// reserved(2) binStart(4) binSeconds(4). The version field declares the
// body format: FormatV1 fixed rows or FormatV2 column blocks.
const segHeaderSize = 16

// encodeRecord packs r into buf, which must be at least RecordSize bytes.
// The layout is little-endian and position-fixed so that segment files are
// seekable by record index.
func encodeRecord(buf []byte, r *flow.Record) {
	_ = buf[RecordSize-1] // bounds hint
	binary.LittleEndian.PutUint32(buf[0:], r.Start)
	binary.LittleEndian.PutUint32(buf[4:], r.Dur)
	binary.LittleEndian.PutUint32(buf[8:], uint32(r.SrcIP))
	binary.LittleEndian.PutUint32(buf[12:], uint32(r.DstIP))
	binary.LittleEndian.PutUint16(buf[16:], r.SrcPort)
	binary.LittleEndian.PutUint16(buf[18:], r.DstPort)
	buf[20] = byte(r.Proto)
	buf[21] = r.Flags
	binary.LittleEndian.PutUint16(buf[22:], r.Router)
	binary.LittleEndian.PutUint16(buf[24:], uint16(r.Anno))
	binary.LittleEndian.PutUint64(buf[26:], r.Packets)
	binary.LittleEndian.PutUint64(buf[34:], r.Bytes)
}

// encodeSegHeader writes a segment header for the bin starting at
// binStart, declaring the given body format version.
func encodeSegHeader(buf []byte, version uint16, binStart, binSeconds uint32) {
	_ = buf[segHeaderSize-1]
	binary.LittleEndian.PutUint32(buf[0:], segMagic)
	binary.LittleEndian.PutUint16(buf[4:], version)
	binary.LittleEndian.PutUint16(buf[6:], 0)
	binary.LittleEndian.PutUint32(buf[8:], binStart)
	binary.LittleEndian.PutUint32(buf[12:], binSeconds)
}

// decodeSegHeader validates and unpacks a segment header, returning the
// body format version alongside the bin coordinates. The error message
// distinguishes corruption (bad magic, impossible version 0) from a
// well-formed segment written in a format newer than this build reads,
// and says what to do about the latter.
func decodeSegHeader(buf []byte) (binStart, binSeconds uint32, version uint16, err error) {
	if len(buf) < segHeaderSize {
		return 0, 0, 0, fmt.Errorf("nfstore: short segment header (%d bytes, want %d): file is truncated or not a segment", len(buf), segHeaderSize)
	}
	if got := binary.LittleEndian.Uint32(buf[0:]); got != segMagic {
		return 0, 0, 0, fmt.Errorf("nfstore: bad segment magic %#x (want %#x): file is corrupt or not a segment", got, segMagic)
	}
	v := binary.LittleEndian.Uint16(buf[4:])
	switch {
	case v == 0:
		return 0, 0, 0, fmt.Errorf("nfstore: segment declares version 0, which was never a valid format: header is corrupt")
	case v > segVersionMax:
		return 0, 0, 0, fmt.Errorf("nfstore: segment format version %d is newer than this build reads (supported: %d-%d): upgrade the reader, or rewrite the store with a newer build's migrate tool", v, FormatV1, segVersionMax)
	}
	return binary.LittleEndian.Uint32(buf[8:]), binary.LittleEndian.Uint32(buf[12:]), v, nil
}
