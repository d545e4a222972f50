package gen

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/flow"
	"repro/internal/stats"
)

// Real-trace replay: a reader for flow dumps in two formats — a
// simplified nfcapd-style binary framing ("NFTR") and nfdump-style CSV —
// mapping trace records into flow.Record so a captured trace can stand
// in for the synthetic background of a scenario (Scenario.Trace). The
// reader is strict: truncated records, bad timestamps, a non-monotonic
// clock or invalid counters are errors, never panics and never silently
// skipped records, because a replayed trace is ground truth for the eval
// matrix and must not degrade quietly.

// Binary trace framing: an 8-byte header (4-byte magic "NFTR", uint16
// little-endian version, uint16 reserved) followed by fixed 40-byte
// little-endian records.
const (
	traceMagic        = "NFTR"
	traceVersion      = 1
	traceHeaderSize   = 8
	traceRecordSize   = 40
	maxTraceRecords   = 1 << 24 // ~16M records; a corrupt length cannot OOM the reader
	csvTimeLayout     = "2006-01-02 15:04:05"
	csvTimeLayoutFrac = "2006-01-02 15:04:05.000"
)

// ErrEmptyTrace is returned for a structurally valid trace holding no
// records: replay rebases the scenario clock onto the first record, so
// an empty trace has no meaning.
var ErrEmptyTrace = errors.New("gen: trace holds no records")

// Trace is a parsed flow trace ready for replay: records ordered by
// non-decreasing start time, each individually valid.
type Trace struct {
	Records []flow.Record
}

// ReadTrace parses a flow dump, sniffing the format from the leading
// bytes: the "NFTR" magic selects the binary format, anything else is
// parsed as CSV with an nfdump-style header row. Every record must carry
// a nonzero timestamp, satisfy flow.Record.Validate, and start no
// earlier than its predecessor (flow dumps are written in capture
// order); any violation is a descriptive error. Replayed records are
// annotated flow.AnnoBackground regardless of input — a trace carries no
// synthetic ground truth.
func ReadTrace(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(traceMagic))
	if err == nil && string(head) == traceMagic {
		return readTraceBinary(br)
	}
	return readTraceCSV(br)
}

// readTraceBinary parses the NFTR framing. Record layout (all
// little-endian): start u32, dur u32, srcIP u32, dstIP u32, srcPort u16,
// dstPort u16, proto u8, flags u8, router u16, packets u64, bytes u64.
func readTraceBinary(r io.Reader) (*Trace, error) {
	var header [traceHeaderSize]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return nil, fmt.Errorf("gen: trace: truncated header: %w", err)
	}
	if version := binary.LittleEndian.Uint16(header[4:6]); version != traceVersion {
		return nil, fmt.Errorf("gen: trace: unsupported binary trace version %d (want %d)", version, traceVersion)
	}
	t := &Trace{}
	var buf [traceRecordSize]byte
	for i := 0; ; i++ {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("gen: trace: record %d truncated: %w", i, err)
		}
		if i >= maxTraceRecords {
			return nil, fmt.Errorf("gen: trace: more than %d records", maxTraceRecords)
		}
		rec := flow.Record{
			Start:   binary.LittleEndian.Uint32(buf[0:4]),
			Dur:     binary.LittleEndian.Uint32(buf[4:8]),
			SrcIP:   flow.IP(binary.LittleEndian.Uint32(buf[8:12])),
			DstIP:   flow.IP(binary.LittleEndian.Uint32(buf[12:16])),
			SrcPort: binary.LittleEndian.Uint16(buf[16:18]),
			DstPort: binary.LittleEndian.Uint16(buf[18:20]),
			Proto:   flow.Protocol(buf[20]),
			Flags:   buf[21],
			Router:  binary.LittleEndian.Uint16(buf[22:24]),
			Packets: binary.LittleEndian.Uint64(buf[24:32]),
			Bytes:   binary.LittleEndian.Uint64(buf[32:40]),
		}
		if err := appendTraceRecord(t, i, &rec); err != nil {
			return nil, err
		}
	}
	if len(t.Records) == 0 {
		return nil, ErrEmptyTrace
	}
	return t, nil
}

// csv column roles, resolved from the header row by alias.
const (
	colTS = iota
	colSrcIP
	colDstIP
	colSrcPort
	colDstPort
	colProto
	colFlags
	colDur
	colRouter
	colPackets
	colBytes
	numCols
)

// csvAliases maps nfdump-style header names (lowercased) to column
// roles; unknown columns are ignored.
var csvAliases = map[string]int{
	"ts": colTS, "tstart": colTS, "start": colTS, "first": colTS,
	"sa": colSrcIP, "srcip": colSrcIP, "srcaddr": colSrcIP,
	"da": colDstIP, "dstip": colDstIP, "dstaddr": colDstIP,
	"sp": colSrcPort, "srcport": colSrcPort,
	"dp": colDstPort, "dstport": colDstPort,
	"pr": colProto, "proto": colProto, "prot": colProto,
	"flg": colFlags, "flags": colFlags,
	"td": colDur, "dur": colDur, "duration": colDur,
	"rtr": colRouter, "router": colRouter, "in": colRouter,
	"ipkt": colPackets, "pkt": colPackets, "packets": colPackets,
	"ibyt": colBytes, "byt": colBytes, "bytes": colBytes,
}

// csvRequired are the roles a CSV header must bind (the rest are
// optional and default to zero).
var csvRequired = []struct {
	role int
	name string
}{
	{colTS, "ts"}, {colSrcIP, "sa"}, {colDstIP, "da"},
	{colSrcPort, "sp"}, {colDstPort, "dp"}, {colProto, "pr"},
	{colPackets, "ipkt"}, {colBytes, "ibyt"},
}

// readTraceCSV parses the nfdump-style CSV format: a header row naming
// the columns (see csvAliases), then one record per row.
func readTraceCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		if err == io.EOF {
			return nil, ErrEmptyTrace
		}
		return nil, fmt.Errorf("gen: trace: csv header: %w", err)
	}
	cols := make([]int, numCols)
	for i := range cols {
		cols[i] = -1
	}
	for idx, name := range header {
		if role, ok := csvAliases[strings.ToLower(strings.TrimSpace(name))]; ok && cols[role] < 0 {
			cols[role] = idx
		}
	}
	for _, req := range csvRequired {
		if cols[req.role] < 0 {
			return nil, fmt.Errorf("gen: trace: csv header missing %q column (have %v)", req.name, header)
		}
	}

	t := &Trace{}
	for i := 0; ; i++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("gen: trace: csv row %d: %w", i+1, err)
		}
		if i >= maxTraceRecords {
			return nil, fmt.Errorf("gen: trace: more than %d records", maxTraceRecords)
		}
		rec, err := parseCSVRecord(row, cols)
		if err != nil {
			return nil, fmt.Errorf("gen: trace: csv row %d: %w", i+1, err)
		}
		if err := appendTraceRecord(t, i, rec); err != nil {
			return nil, err
		}
	}
	if len(t.Records) == 0 {
		return nil, ErrEmptyTrace
	}
	return t, nil
}

// parseCSVRecord maps one CSV row into a flow.Record using the resolved
// column bindings.
func parseCSVRecord(row []string, cols []int) (*flow.Record, error) {
	field := func(role int) string {
		idx := cols[role]
		if idx < 0 || idx >= len(row) {
			return ""
		}
		return strings.TrimSpace(row[idx])
	}
	start, err := parseTraceTime(field(colTS))
	if err != nil {
		return nil, err
	}
	srcIP, err := flow.ParseIP(field(colSrcIP))
	if err != nil {
		return nil, fmt.Errorf("srcip: %w", err)
	}
	dstIP, err := flow.ParseIP(field(colDstIP))
	if err != nil {
		return nil, fmt.Errorf("dstip: %w", err)
	}
	srcPort, err := parseUintField("srcport", field(colSrcPort), math.MaxUint16)
	if err != nil {
		return nil, err
	}
	dstPort, err := parseUintField("dstport", field(colDstPort), math.MaxUint16)
	if err != nil {
		return nil, err
	}
	proto, err := flow.ParseProtocol(field(colProto))
	if err != nil {
		return nil, err
	}
	packets, err := parseUintField("packets", field(colPackets), math.MaxUint64)
	if err != nil {
		return nil, err
	}
	bytesV, err := parseUintField("bytes", field(colBytes), math.MaxUint64)
	if err != nil {
		return nil, err
	}
	rec := &flow.Record{
		Start:   start,
		SrcIP:   srcIP,
		DstIP:   dstIP,
		SrcPort: uint16(srcPort),
		DstPort: uint16(dstPort),
		Proto:   proto,
		Packets: packets,
		Bytes:   bytesV,
	}
	if s := field(colFlags); s != "" {
		v, err := parseUintField("flags", s, math.MaxUint8)
		if err != nil {
			return nil, err
		}
		rec.Flags = uint8(v)
	}
	if s := field(colDur); s != "" {
		d, err := strconv.ParseFloat(s, 64)
		if !(err == nil && d >= 0 && d <= math.MaxUint32) {
			return nil, fmt.Errorf("duration %q not a non-negative number of seconds", s)
		}
		rec.Dur = uint32(d * 1000) // nfdump reports seconds; Record.Dur is ms
	}
	if s := field(colRouter); s != "" {
		v, err := parseUintField("router", s, math.MaxUint16)
		if err != nil {
			return nil, err
		}
		rec.Router = uint16(v)
	}
	return rec, nil
}

// parseTraceTime accepts unix seconds or nfdump's wall-clock layouts
// (with or without fractional seconds), both interpreted as UTC.
func parseTraceTime(s string) (uint32, error) {
	if s == "" {
		return 0, errors.New("empty timestamp")
	}
	if secs, err := strconv.ParseUint(s, 10, 64); err == nil {
		if secs == 0 || secs > math.MaxUint32 {
			return 0, fmt.Errorf("timestamp %q out of range", s)
		}
		return uint32(secs), nil
	}
	for _, layout := range []string{csvTimeLayout, csvTimeLayoutFrac} {
		if ts, err := time.Parse(layout, s); err == nil {
			secs := ts.Unix()
			if secs <= 0 || secs > math.MaxUint32 {
				return 0, fmt.Errorf("timestamp %q out of range", s)
			}
			return uint32(secs), nil
		}
	}
	return 0, fmt.Errorf("timestamp %q not unix seconds or %q", s, csvTimeLayout)
}

// parseUintField parses one bounded unsigned CSV field.
func parseUintField(name, s string, maxVal uint64) (uint64, error) {
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil || v > maxVal {
		return 0, fmt.Errorf("%s %q not an unsigned integer <= %d", name, s, maxVal)
	}
	return v, nil
}

// appendTraceRecord validates one parsed record and appends it, holding
// the whole-trace invariants (nonzero monotone clock, per-record
// validity).
func appendTraceRecord(t *Trace, i int, rec *flow.Record) error {
	if rec.Start == 0 {
		return fmt.Errorf("gen: trace: record %d has zero timestamp", i)
	}
	if err := rec.Validate(); err != nil {
		return fmt.Errorf("gen: trace: record %d: %w", i, err)
	}
	if n := len(t.Records); n > 0 && rec.Start < t.Records[n-1].Start {
		return fmt.Errorf("gen: trace: record %d starts at %d, before record %d at %d (non-monotonic clock)",
			i, rec.Start, n-1, t.Records[n-1].Start)
	}
	rec.Anno = flow.AnnoBackground
	t.Records = append(t.Records, *rec)
	return nil
}

// EncodeTraceBinary serializes records into the NFTR binary trace
// format (the inverse of the binary reader).
func EncodeTraceBinary(recs []flow.Record) []byte {
	var b bytes.Buffer
	b.WriteString(traceMagic)
	var header [4]byte
	binary.LittleEndian.PutUint16(header[0:2], traceVersion)
	b.Write(header[:])
	var buf [traceRecordSize]byte
	for i := range recs {
		r := &recs[i]
		binary.LittleEndian.PutUint32(buf[0:4], r.Start)
		binary.LittleEndian.PutUint32(buf[4:8], r.Dur)
		binary.LittleEndian.PutUint32(buf[8:12], uint32(r.SrcIP))
		binary.LittleEndian.PutUint32(buf[12:16], uint32(r.DstIP))
		binary.LittleEndian.PutUint16(buf[16:18], r.SrcPort)
		binary.LittleEndian.PutUint16(buf[18:20], r.DstPort)
		buf[20] = uint8(r.Proto)
		buf[21] = r.Flags
		binary.LittleEndian.PutUint16(buf[22:24], r.Router)
		binary.LittleEndian.PutUint64(buf[24:32], r.Packets)
		binary.LittleEndian.PutUint64(buf[32:40], r.Bytes)
		b.Write(buf[:])
	}
	return b.Bytes()
}

// EncodeTraceCSV serializes records into the CSV trace format with the
// canonical nfdump-style header.
func EncodeTraceCSV(recs []flow.Record) []byte {
	var b bytes.Buffer
	b.WriteString("ts,td,sa,da,sp,dp,pr,flg,rtr,ipkt,ibyt\n")
	for i := range recs {
		r := &recs[i]
		fmt.Fprintf(&b, "%d,%.3f,%s,%s,%d,%d,%d,%d,%d,%d,%d\n",
			r.Start, float64(r.Dur)/1000, r.SrcIP, r.DstIP,
			r.SrcPort, r.DstPort, uint8(r.Proto), r.Flags, r.Router,
			r.Packets, r.Bytes)
	}
	return b.Bytes()
}

// SynthTraceRecords generates a heavy-tailed replay trace with the
// background model's traffic shape (Zipf host/server/port popularity,
// Pareto flow sizes): the stand-in for a captured backbone trace in the
// replayed-trace catalog scenarios and the trace-format tests. The
// records start at a deliberately historic origin — far from any
// scenario clock — so replay only works if the rebasing does.
func SynthTraceRecords(rng *stats.RNG, bins int, binSec uint32, flowsPerBin int) []flow.Record {
	cfg := Background{NumPoPs: 3, FlowsPerBin: flowsPerBin}
	if err := cfg.validate(); err != nil {
		panic(err) // only reachable with NumPoPs > 64
	}
	g := newBackgroundGen(cfg)
	const origin = 900_000_000 // 1998-07-09, long before any catalog clock
	var recs []flow.Record
	for b := 0; b < bins; b++ {
		iv := flow.Interval{
			Start: origin + uint32(b)*binSec,
			End:   origin + uint32(b+1)*binSec,
		}
		for pop := 0; pop < cfg.NumPoPs; pop++ {
			emit := func(r *flow.Record) error {
				recs = append(recs, *r)
				return nil
			}
			if err := g.emitBin(rng.Fork(uint64(b)<<16|uint64(pop)), iv, pop, b, emit); err != nil {
				panic(err) // emit never fails
			}
		}
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Start < recs[j].Start })
	return recs
}
