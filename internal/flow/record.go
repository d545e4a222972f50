package flow

import (
	"errors"
	"fmt"
	"time"
)

// Protocol is an IP protocol number (the NetFlow "prot" field).
type Protocol uint8

// Protocol numbers for the transports that appear in the paper's anomaly
// catalogue (scans and SYN floods are TCP, point-to-point floods UDP, and
// some reflector traffic ICMP).
const (
	ProtoICMP Protocol = 1
	ProtoTCP  Protocol = 6
	ProtoUDP  Protocol = 17
)

// String returns the conventional protocol mnemonic, falling back to the
// decimal number for protocols outside the catalogue.
func (p Protocol) String() string {
	switch p {
	case ProtoICMP:
		return "icmp"
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	default:
		return fmt.Sprintf("proto-%d", uint8(p))
	}
}

// ParseProtocol parses a protocol mnemonic ("tcp", "udp", "icmp") or a
// decimal protocol number.
func ParseProtocol(s string) (Protocol, error) {
	switch s {
	case "icmp", "ICMP":
		return ProtoICMP, nil
	case "tcp", "TCP":
		return ProtoTCP, nil
	case "udp", "UDP":
		return ProtoUDP, nil
	}
	var n int
	if _, err := fmt.Sscanf(s, "%d", &n); err != nil || n < 0 || n > 255 {
		return 0, fmt.Errorf("flow: unknown protocol %q", s)
	}
	return Protocol(n), nil
}

// TCP flag bits as exported in NetFlow records. Only the bits the anomaly
// injectors and the SYN-flood drill-down use are named.
const (
	TCPFin uint8 = 1 << 0
	TCPSyn uint8 = 1 << 1
	TCPRst uint8 = 1 << 2
	TCPPsh uint8 = 1 << 3
	TCPAck uint8 = 1 << 4
	TCPUrg uint8 = 1 << 5
)

// FiveTuple identifies a flow: the classic NetFlow aggregation key.
type FiveTuple struct {
	SrcIP   IP
	DstIP   IP
	SrcPort uint16
	DstPort uint16
	Proto   Protocol
}

// String renders the tuple in the familiar "src:port -> dst:port/proto" form.
func (t FiveTuple) String() string {
	return fmt.Sprintf("%s:%d -> %s:%d/%s", t.SrcIP, t.SrcPort, t.DstIP, t.DstPort, t.Proto)
}

// Annotation is the synthetic ground-truth label carried by generated
// records. Real NetFlow has no such field; the evaluation harness needs it
// to score extraction precision/recall. Zero means background traffic, any
// other value identifies the injected anomaly the record belongs to.
type Annotation uint16

// AnnoBackground marks a record as background (non-anomalous) traffic.
const AnnoBackground Annotation = 0

// Record is one stored flow record. The layout mirrors the fields of a
// NetFlow v5 record that the paper's pipeline consumes, plus the ingress
// point-of-presence (GEANT exports from 18 PoPs) and the synthetic
// ground-truth annotation.
type Record struct {
	Start   uint32 // flow start, Unix seconds
	Dur     uint32 // flow duration, milliseconds
	SrcIP   IP
	DstIP   IP
	SrcPort uint16
	DstPort uint16
	Proto   Protocol
	Flags   uint8  // cumulative TCP flags (0 for non-TCP)
	Router  uint16 // ingress PoP index
	Anno    Annotation
	Packets uint64
	Bytes   uint64
}

// Tuple returns the record's 5-tuple key.
func (r *Record) Tuple() FiveTuple {
	return FiveTuple{SrcIP: r.SrcIP, DstIP: r.DstIP, SrcPort: r.SrcPort, DstPort: r.DstPort, Proto: r.Proto}
}

// StartTime returns the flow start as a time.Time in UTC.
func (r *Record) StartTime() time.Time {
	return time.Unix(int64(r.Start), 0).UTC()
}

// IsAnomalous reports whether the record carries a non-background
// ground-truth annotation.
func (r *Record) IsAnomalous() bool { return r.Anno != AnnoBackground }

// Validation errors returned by Record.Validate.
var (
	ErrZeroPackets       = errors.New("flow: record has zero packets")
	ErrBytesBelowPackets = errors.New("flow: record has fewer bytes than packets")
)

// Validate checks the invariants the store relies on: every flow carries at
// least one packet, and at least one byte per packet (the minimum IP header
// alone is 20 bytes, but sampled-and-renormalized records may round down,
// so only the weak bound is enforced).
func (r *Record) Validate() error {
	if r.Packets == 0 {
		return ErrZeroPackets
	}
	if r.Bytes < r.Packets {
		return ErrBytesBelowPackets
	}
	return nil
}

// String renders the record in an nfdump-like single-line form.
func (r *Record) String() string {
	return fmt.Sprintf("%s %s pkts=%d bytes=%d pop=%d",
		r.StartTime().Format("2006-01-02 15:04:05"), r.Tuple(), r.Packets, r.Bytes, r.Router)
}

// Interval is a half-open time window [Start, End) in Unix seconds. Alarms
// and store queries are expressed in intervals aligned to the measurement
// bin (300 s in the GEANT deployment).
type Interval struct {
	Start uint32
	End   uint32
}

// Contains reports whether the instant t (Unix seconds) falls inside the
// interval.
func (iv Interval) Contains(t uint32) bool { return t >= iv.Start && t < iv.End }

// Overlaps reports whether two intervals share any instant.
func (iv Interval) Overlaps(other Interval) bool {
	return iv.Start < other.End && other.Start < iv.End
}

// String renders the interval as "[start, end)" in RFC 3339 form.
func (iv Interval) String() string {
	return fmt.Sprintf("[%s, %s)",
		time.Unix(int64(iv.Start), 0).UTC().Format(time.RFC3339),
		time.Unix(int64(iv.End), 0).UTC().Format(time.RFC3339))
}
