package nfstore

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/flow"
)

// The zone-map sidecar ("nfcapd.<bin>.idx") summarizes one segment file so
// queries can prune segments a filter provably cannot match and answer
// whole-segment aggregations without scanning. The design follows the
// zone-map/small-materialized-aggregate tradition of analytic stores: per
// column min/max bounds, a protocol bitmap, TCP-flag AND/OR masks, volume
// totals and small Bloom filters over the endpoint addresses.
//
// A sidecar covers a byte prefix of its segment file (CoveredSize). A
// segment that has grown past its sidecar invalidates it implicitly — the
// reader compares CoveredSize against the live file size and falls back to
// a full scan (rebuilding the sidecar opportunistically) on mismatch, so
// stale sidecars can never cause wrong pruning.

// bloomBytes is the size of each endpoint Bloom filter. 8192 bits with
// bloomHashes probes keeps the false-positive rate around 10% at the
// typical per-segment address cardinality (a few thousand), and the range
// bounds catch most prunable cases before the Bloom is even consulted.
const bloomBytes = 1024

// bloomHashes is the number of Bloom probes per inserted address.
const bloomHashes = 3

// idxMagic starts every sidecar file ("NFIX" little-endian).
const idxMagic = 0x5849464e

// idxVersion is the current sidecar format version.
const idxVersion = 1

// idxSize is the fixed encoded size of a sidecar: a 24-byte header
// (magic, version, bin, width, covered size), the scalar summaries, two
// Bloom filters and a trailing FNV-1a checksum.
const idxSize = 160 + 2*bloomBytes + 4

// bloom is a fixed-size Bloom filter over 32-bit values (IP addresses).
type bloom [bloomBytes]byte

// add inserts v.
func (b *bloom) add(v uint32) {
	h1, h2 := bloomHash(v)
	for i := 0; i < bloomHashes; i++ {
		bit := (h1 + uint64(i)*h2) % (bloomBytes * 8)
		b[bit/8] |= 1 << (bit % 8)
	}
}

// mayContain reports whether v may have been inserted (false positives
// possible, false negatives not).
func (b *bloom) mayContain(v uint32) bool {
	h1, h2 := bloomHash(v)
	for i := 0; i < bloomHashes; i++ {
		bit := (h1 + uint64(i)*h2) % (bloomBytes * 8)
		if b[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}

// bloomHash derives two independent 64-bit hashes from v (Kirsch-
// Mitzenmacher double hashing) via a SplitMix64 finalizer.
func bloomHash(v uint32) (h1, h2 uint64) {
	x := uint64(v) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x, x>>32 | x<<32 | 1 // h2 forced odd so probes spread
}

// zoneMap is the in-memory form of one segment's sidecar — and, with
// noBloom set, of one v2 column block's embedded zone map (blocks carry
// no Blooms; their IP pruning uses range bounds only).
type zoneMap struct {
	coveredSize int64  // segment bytes summarized (header + body), as written or read
	format      uint16 // segment body format the summary describes (0 = v1)
	noBloom     bool   // Blooms absent (block metas): IP pruning skips them

	count   uint64 // records
	packets uint64
	bytes   uint64

	minStart, maxStart     uint32
	minSrcIP, maxSrcIP     uint32
	minDstIP, maxDstIP     uint32
	minSrcPort, maxSrcPort uint16
	minDstPort, maxDstPort uint16
	minRouter, maxRouter   uint16
	minPackets, maxPackets uint64
	minBytes, maxBytes     uint64
	minDur, maxDur         uint32

	protoBitmap [32]byte // bit per IP protocol number seen
	flagsOr     uint8    // union of TCP flags seen
	flagsAnd    uint8    // intersection of TCP flags seen

	bloomSrc bloom
	bloomDst bloom
}

// newZoneMap returns an empty zone map (count 0, bounds unset).
func newZoneMap() *zoneMap { return &zoneMap{} }

// add folds one record into the summaries and the endpoint Blooms (a
// segment sidecar's map).
func (z *zoneMap) add(r *flow.Record) {
	z.addBounds(r)
	z.bloomSrc.add(uint32(r.SrcIP))
	z.bloomDst.add(uint32(r.DstIP))
}

// addBounds folds one record into the bounds, masks and totals but not
// the Blooms — all a v2 block's zone map holds.
func (z *zoneMap) addBounds(r *flow.Record) {
	if z.count == 0 {
		z.minStart, z.maxStart = r.Start, r.Start
		z.minSrcIP, z.maxSrcIP = uint32(r.SrcIP), uint32(r.SrcIP)
		z.minDstIP, z.maxDstIP = uint32(r.DstIP), uint32(r.DstIP)
		z.minSrcPort, z.maxSrcPort = r.SrcPort, r.SrcPort
		z.minDstPort, z.maxDstPort = r.DstPort, r.DstPort
		z.minRouter, z.maxRouter = r.Router, r.Router
		z.minPackets, z.maxPackets = r.Packets, r.Packets
		z.minBytes, z.maxBytes = r.Bytes, r.Bytes
		z.minDur, z.maxDur = r.Dur, r.Dur
		z.flagsAnd = r.Flags
	} else {
		z.minStart = min(z.minStart, r.Start)
		z.maxStart = max(z.maxStart, r.Start)
		z.minSrcIP = min(z.minSrcIP, uint32(r.SrcIP))
		z.maxSrcIP = max(z.maxSrcIP, uint32(r.SrcIP))
		z.minDstIP = min(z.minDstIP, uint32(r.DstIP))
		z.maxDstIP = max(z.maxDstIP, uint32(r.DstIP))
		z.minSrcPort = min(z.minSrcPort, r.SrcPort)
		z.maxSrcPort = max(z.maxSrcPort, r.SrcPort)
		z.minDstPort = min(z.minDstPort, r.DstPort)
		z.maxDstPort = max(z.maxDstPort, r.DstPort)
		z.minRouter = min(z.minRouter, r.Router)
		z.maxRouter = max(z.maxRouter, r.Router)
		z.minPackets = min(z.minPackets, r.Packets)
		z.maxPackets = max(z.maxPackets, r.Packets)
		z.minBytes = min(z.minBytes, r.Bytes)
		z.maxBytes = max(z.maxBytes, r.Bytes)
		z.minDur = min(z.minDur, r.Dur)
		z.maxDur = max(z.maxDur, r.Dur)
		z.flagsAnd &= r.Flags
	}
	z.count++
	z.packets += r.Packets
	z.bytes += r.Bytes
	z.protoBitmap[r.Proto/8] |= 1 << (r.Proto % 8)
	z.flagsOr |= r.Flags
}

// overlapsStart reports whether any summarized record start time can fall
// inside iv. An empty zone map overlaps nothing.
func (z *zoneMap) overlapsStart(iv flow.Interval) bool {
	return z.count > 0 && z.minStart < iv.End && z.maxStart >= iv.Start
}

// coversStarts reports whether iv contains every summarized record start,
// i.e. whether a time-windowed aggregation over iv may use the zone map's
// totals for the whole segment.
func (z *zoneMap) coversStarts(iv flow.Interval) bool {
	return z.count > 0 && iv.Start <= z.minStart && z.maxStart < iv.End
}

// protoCount returns how many distinct protocol numbers the bitmap holds.
func (z *zoneMap) protoCount() int {
	n := 0
	for _, b := range z.protoBitmap {
		for ; b != 0; b &= b - 1 {
			n++
		}
	}
	return n
}

// hasProto reports whether protocol p appears in the segment.
func (z *zoneMap) hasProto(p flow.Protocol) bool {
	return z.protoBitmap[p/8]&(1<<(p%8)) != 0
}

// encodeZoneMap serializes the zone map (including the sidecar header for
// the given bin) into a fresh idxSize buffer.
func encodeZoneMap(z *zoneMap, binStart, binSeconds uint32) []byte {
	buf := make([]byte, idxSize)
	le := binary.LittleEndian
	le.PutUint32(buf[0:], idxMagic)
	le.PutUint16(buf[4:], idxVersion)
	le.PutUint16(buf[6:], z.format)
	le.PutUint32(buf[8:], binStart)
	le.PutUint32(buf[12:], binSeconds)
	le.PutUint64(buf[16:], uint64(z.coveredSize))
	le.PutUint64(buf[24:], z.count)
	le.PutUint64(buf[32:], z.packets)
	le.PutUint64(buf[40:], z.bytes)
	le.PutUint32(buf[48:], z.minStart)
	le.PutUint32(buf[52:], z.maxStart)
	le.PutUint32(buf[56:], z.minSrcIP)
	le.PutUint32(buf[60:], z.maxSrcIP)
	le.PutUint32(buf[64:], z.minDstIP)
	le.PutUint32(buf[68:], z.maxDstIP)
	le.PutUint16(buf[72:], z.minSrcPort)
	le.PutUint16(buf[74:], z.maxSrcPort)
	le.PutUint16(buf[76:], z.minDstPort)
	le.PutUint16(buf[78:], z.maxDstPort)
	copy(buf[80:112], z.protoBitmap[:])
	buf[112] = z.flagsOr
	buf[113] = z.flagsAnd
	le.PutUint16(buf[114:], z.minRouter)
	le.PutUint16(buf[116:], z.maxRouter)
	le.PutUint64(buf[120:], z.minPackets)
	le.PutUint64(buf[128:], z.maxPackets)
	le.PutUint64(buf[136:], z.minBytes)
	le.PutUint64(buf[144:], z.maxBytes)
	le.PutUint32(buf[152:], z.minDur)
	le.PutUint32(buf[156:], z.maxDur)
	copy(buf[160:160+bloomBytes], z.bloomSrc[:])
	copy(buf[160+bloomBytes:160+2*bloomBytes], z.bloomDst[:])
	le.PutUint32(buf[idxSize-4:], idxChecksum(buf[:idxSize-4]))
	return buf
}

// decodeZoneMap validates and unpacks a sidecar for the expected bin.
func decodeZoneMap(buf []byte, binStart, binSeconds uint32) (*zoneMap, error) {
	if len(buf) != idxSize {
		return nil, fmt.Errorf("nfstore: sidecar size %d, want %d", len(buf), idxSize)
	}
	le := binary.LittleEndian
	if got := le.Uint32(buf[0:]); got != idxMagic {
		return nil, fmt.Errorf("nfstore: bad sidecar magic %#x", got)
	}
	if v := le.Uint16(buf[4:]); v != idxVersion {
		return nil, fmt.Errorf("nfstore: unsupported sidecar version %d", v)
	}
	if sum := le.Uint32(buf[idxSize-4:]); sum != idxChecksum(buf[:idxSize-4]) {
		return nil, fmt.Errorf("nfstore: sidecar checksum mismatch")
	}
	if gotBin, gotSec := le.Uint32(buf[8:]), le.Uint32(buf[12:]); gotBin != binStart || gotSec != binSeconds {
		return nil, fmt.Errorf("nfstore: sidecar is for bin %d width %d, want %d width %d",
			gotBin, gotSec, binStart, binSeconds)
	}
	z := &zoneMap{
		format:      le.Uint16(buf[6:]),
		coveredSize: int64(le.Uint64(buf[16:])),
		count:       le.Uint64(buf[24:]),
		packets:     le.Uint64(buf[32:]),
		bytes:       le.Uint64(buf[40:]),
		minStart:    le.Uint32(buf[48:]),
		maxStart:    le.Uint32(buf[52:]),
		minSrcIP:    le.Uint32(buf[56:]),
		maxSrcIP:    le.Uint32(buf[60:]),
		minDstIP:    le.Uint32(buf[64:]),
		maxDstIP:    le.Uint32(buf[68:]),
		minSrcPort:  le.Uint16(buf[72:]),
		maxSrcPort:  le.Uint16(buf[74:]),
		minDstPort:  le.Uint16(buf[76:]),
		maxDstPort:  le.Uint16(buf[78:]),
		flagsOr:     buf[112],
		flagsAnd:    buf[113],
		minRouter:   le.Uint16(buf[114:]),
		maxRouter:   le.Uint16(buf[116:]),
		minPackets:  le.Uint64(buf[120:]),
		maxPackets:  le.Uint64(buf[128:]),
		minBytes:    le.Uint64(buf[136:]),
		maxBytes:    le.Uint64(buf[144:]),
		minDur:      le.Uint32(buf[152:]),
		maxDur:      le.Uint32(buf[156:]),
	}
	copy(z.protoBitmap[:], buf[80:112])
	copy(z.bloomSrc[:], buf[160:160+bloomBytes])
	copy(z.bloomDst[:], buf[160+bloomBytes:160+2*bloomBytes])
	// Cross-check the covered size against the record count. Only the
	// fixed-row v1 format admits exact arithmetic (sidecars written before
	// the format field carry 0 there and are all v1); for columnar
	// segments the plausibility floor is one block.
	if z.format <= FormatV1 {
		if want := segHeaderSize + int64(z.count)*RecordSize; z.coveredSize != want {
			return nil, fmt.Errorf("nfstore: sidecar covers %d bytes but counts %d records", z.coveredSize, z.count)
		}
	} else if z.coveredSize < segHeaderSize+blockHeaderSize+blockMetaSize {
		return nil, fmt.Errorf("nfstore: sidecar covers %d bytes, too small for any %d-format segment", z.coveredSize, z.format)
	}
	return z, nil
}

// idxChecksum is the sidecar integrity checksum (FNV-1a over the payload).
func idxChecksum(payload []byte) uint32 {
	h := fnv.New32a()
	h.Write(payload)
	return h.Sum32()
}
