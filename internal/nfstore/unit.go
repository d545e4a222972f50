package nfstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/flow"
	"repro/internal/nffilter"
)

// A segment body is a sequence of units: v2 column blocks, or runs of up
// to blockRecords v1 fixed rows. appendUnit and unitReader are the one
// seam where the two formats differ; the writer, the migrator, the scan
// loop and the zone-map rebuild all work in units and never branch on
// the format themselves.

// appendUnit encodes recs (1 ≤ len ≤ blockRecords) as one unit of the
// given segment format onto dst.
func (e *blockEncoder) appendUnit(format uint16, dst []byte, recs []flow.Record) []byte {
	if format == FormatV2 {
		return e.appendBlock(dst, recs)
	}
	at := len(dst)
	dst = slices.Grow(dst, len(recs)*RecordSize)[:at+len(recs)*RecordSize]
	for i := range recs {
		encodeRecord(dst[at+i*RecordSize:], &recs[i])
	}
	return dst
}

// errTruncated marks a segment that ends partway through its header or a
// unit — either corruption (closed segment) or a writer's in-flight
// buffered append (open segment); scanUnits tells the two apart.
var errTruncated = errors.New("truncated")

// unitReader reads one segment file from a buffered reader positioned at
// its start: the header on the first next call, then the body one unit
// at a time.
type unitReader struct {
	blocks          blockReader
	bin, binSeconds uint32 // the coordinates the header must declare
	format          uint16 // body format (0 until the header is read)
	consumed        int64  // segment bytes read so far, header included

	meta  zoneMap // current v2 block's zone map
	unit  []byte  // current unit: v2 column sections or v1 rows
	count int
}

// header reads and validates the segment header: a file whose header
// disagrees with its name must never be read under that name.
func (u *unitReader) header() error {
	hdr, err := u.blocks.br.Peek(segHeaderSize)
	if err == io.EOF {
		return fmt.Errorf("%w segment header", errTruncated)
	} else if err != nil {
		return err
	}
	gotBin, gotBinSec, version, err := decodeSegHeader(hdr)
	if err != nil {
		return err
	}
	if gotBin != u.bin || gotBinSec != u.binSeconds {
		return fmt.Errorf("header mismatch (bin %d, width %d)", gotBin, gotBinSec)
	}
	_, _ = u.blocks.br.Discard(segHeaderSize)
	u.format, u.consumed = version, segHeaderSize
	return nil
}

// next advances to the next unit and returns its record count and, for
// v2 blocks, its zone map; v1 rows carry none (nil: nothing to prune or
// aggregate by). A clean end of the body returns io.EOF; a file that
// ends partway through the header or a unit returns errTruncated.
func (u *unitReader) next() (count int, meta *zoneMap, err error) {
	if u.format == 0 {
		if err := u.header(); err != nil {
			return 0, nil, err
		}
	}
	if u.format == FormatV2 {
		count, payload, err := u.blocks.next()
		if err != nil {
			return 0, nil, err
		}
		u.consumed += blockHeaderSize + int64(len(payload))
		if err := decodeBlockMeta(payload, count, &u.meta); err != nil {
			return 0, nil, err
		}
		u.unit, u.count = payload[blockMetaSize:], count
		return count, &u.meta, nil
	}
	br := u.blocks.br
	rows, err := br.Peek(blockRecords * RecordSize)
	n := len(rows) / RecordSize
	switch {
	case n > 0:
	case len(rows) == 0 && err == io.EOF:
		return 0, nil, io.EOF
	case err == io.EOF:
		return 0, nil, fmt.Errorf("%w row", errTruncated)
	default:
		return 0, nil, err
	}
	_, _ = br.Discard(n * RecordSize)
	u.consumed += int64(n * RecordSize)
	u.unit, u.count = rows[:n*RecordSize], n
	return n, nil, nil
}

// decode fills b with the current unit's columns in dec; columns outside
// dec are left stale. The unit is valid only until the next call to next.
func (u *unitReader) decode(dec nffilter.ColumnSet, b *Batch) error {
	if u.format == FormatV2 {
		return decodeBlockColumns(u.unit, u.count, dec, b)
	}
	decodeRows(u.unit, u.count, dec, b)
	return nil
}

// decodeRows gathers the columns in dec out of count fixed v1 rows (the
// encodeRecord layout) into b.
func decodeRows(rows []byte, count int, dec nffilter.ColumnSet, b *Batch) {
	b.n = count
	le := binary.LittleEndian
	for c := nffilter.Column(0); c < nffilter.NumColumns; c++ {
		if !dec.Has(c) {
			continue
		}
		switch c {
		case nffilter.ColStart:
			b.Start = growU32(b.Start, count)
			for i := range b.Start {
				b.Start[i] = le.Uint32(rows[i*RecordSize:])
			}
		case nffilter.ColDur:
			b.Dur = growU32(b.Dur, count)
			for i := range b.Dur {
				b.Dur[i] = le.Uint32(rows[i*RecordSize+4:])
			}
		case nffilter.ColSrcIP:
			b.SrcIP = growU32(b.SrcIP, count)
			for i := range b.SrcIP {
				b.SrcIP[i] = le.Uint32(rows[i*RecordSize+8:])
			}
		case nffilter.ColDstIP:
			b.DstIP = growU32(b.DstIP, count)
			for i := range b.DstIP {
				b.DstIP[i] = le.Uint32(rows[i*RecordSize+12:])
			}
		case nffilter.ColSrcPort:
			b.SrcPort = growU16(b.SrcPort, count)
			for i := range b.SrcPort {
				b.SrcPort[i] = le.Uint16(rows[i*RecordSize+16:])
			}
		case nffilter.ColDstPort:
			b.DstPort = growU16(b.DstPort, count)
			for i := range b.DstPort {
				b.DstPort[i] = le.Uint16(rows[i*RecordSize+18:])
			}
		case nffilter.ColProto:
			b.Proto = growU8(b.Proto, count)
			for i := range b.Proto {
				b.Proto[i] = rows[i*RecordSize+20]
			}
		case nffilter.ColFlags:
			b.Flags = growU8(b.Flags, count)
			for i := range b.Flags {
				b.Flags[i] = rows[i*RecordSize+21]
			}
		case nffilter.ColRouter:
			b.Router = growU16(b.Router, count)
			for i := range b.Router {
				b.Router[i] = le.Uint16(rows[i*RecordSize+22:])
			}
		case nffilter.ColAnno:
			b.Anno = growU16(b.Anno, count)
			for i := range b.Anno {
				b.Anno[i] = le.Uint16(rows[i*RecordSize+24:])
			}
		case nffilter.ColPackets:
			b.Packets = growU64(b.Packets, count)
			for i := range b.Packets {
				b.Packets[i] = le.Uint64(rows[i*RecordSize+26:])
			}
		case nffilter.ColBytes:
			b.Bytes = growU64(b.Bytes, count)
			for i := range b.Bytes {
				b.Bytes[i] = le.Uint64(rows[i*RecordSize+34:])
			}
		}
	}
}

// blockReader reads consecutive v2 column blocks from a buffered segment
// reader, validating each header and checksum. When a whole block fits
// in the reader's buffer, the payload is returned as a slice into that
// buffer, so the common path never copies block bytes; blocks larger
// than the buffer fall back to an owned scratch copy.
type blockReader struct {
	br      *bufio.Reader
	scratch []byte
}

// next returns the next block's record count and payload. A clean end of
// the segment returns io.EOF; anything short or mangled is an error. The
// payload is valid only until the following next call — callers must
// finish decoding a block before advancing.
func (r *blockReader) next() (count int, payload []byte, err error) {
	hdr, err := r.br.Peek(blockHeaderSize)
	if err != nil {
		if len(hdr) == 0 && err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w block header", errTruncated)
	}
	count, plen, sum, err := decodeBlockHeader(hdr)
	if err != nil {
		return 0, nil, err
	}
	if full, perr := r.br.Peek(blockHeaderSize + plen); perr == nil {
		payload = full[blockHeaderSize:]
		if blockChecksum(payload) != sum {
			return 0, nil, fmt.Errorf("block checksum mismatch")
		}
		_, _ = r.br.Discard(blockHeaderSize + plen)
		return count, payload, nil
	} else if perr != bufio.ErrBufferFull {
		return 0, nil, fmt.Errorf("%w block payload", errTruncated)
	}
	_, _ = r.br.Discard(blockHeaderSize)
	r.scratch = growBytes(r.scratch, plen)
	if _, err := io.ReadFull(r.br, r.scratch); err != nil {
		return 0, nil, fmt.Errorf("%w block payload", errTruncated)
	}
	if blockChecksum(r.scratch) != sum {
		return 0, nil, fmt.Errorf("block checksum mismatch")
	}
	return count, r.scratch, nil
}
