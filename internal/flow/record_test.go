package flow

import "testing"

func sampleRecord() Record {
	return Record{
		Start:   1_260_000_000,
		Dur:     1500,
		SrcIP:   MustParseIP("10.191.64.165"),
		DstIP:   MustParseIP("10.13.137.129"),
		SrcPort: 55548,
		DstPort: 80,
		Proto:   ProtoTCP,
		Flags:   TCPSyn,
		Router:  3,
		Packets: 2,
		Bytes:   120,
	}
}

func TestRecordValidate(t *testing.T) {
	r := sampleRecord()
	if err := r.Validate(); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	bad := r
	bad.Packets = 0
	if err := bad.Validate(); err != ErrZeroPackets {
		t.Fatalf("zero packets: got %v, want ErrZeroPackets", err)
	}
	bad = r
	bad.Bytes = r.Packets - 1
	if err := bad.Validate(); err != ErrBytesBelowPackets {
		t.Fatalf("bytes<packets: got %v, want ErrBytesBelowPackets", err)
	}
}

func TestRecordTimes(t *testing.T) {
	r := sampleRecord()
	if got := r.StartTime(); got.Unix() != int64(r.Start) {
		t.Fatalf("StartTime = %v", got)
	}
	if !r.StartTime().Equal(r.StartTime().UTC()) {
		t.Fatal("StartTime must be UTC")
	}
}

func TestAnnotation(t *testing.T) {
	r := sampleRecord()
	if r.IsAnomalous() {
		t.Fatal("background record reported anomalous")
	}
	r.Anno = 7
	if !r.IsAnomalous() {
		t.Fatal("annotated record not reported anomalous")
	}
}

func TestIntervalContainsOverlaps(t *testing.T) {
	iv := Interval{Start: 100, End: 200}
	if !iv.Contains(100) || iv.Contains(200) || !iv.Contains(199) || iv.Contains(99) {
		t.Fatal("Contains must treat the interval as half-open [start,end)")
	}
	cases := []struct {
		other Interval
		want  bool
	}{
		{Interval{0, 100}, false},
		{Interval{0, 101}, true},
		{Interval{199, 300}, true},
		{Interval{200, 300}, false},
		{Interval{120, 130}, true},
		{Interval{100, 200}, true},
	}
	for _, c := range cases {
		if got := iv.Overlaps(c.other); got != c.want {
			t.Errorf("Overlaps(%v) = %v, want %v", c.other, got, c.want)
		}
	}
}

func TestProtocolString(t *testing.T) {
	if ProtoTCP.String() != "tcp" || ProtoUDP.String() != "udp" || ProtoICMP.String() != "icmp" {
		t.Fatal("mnemonics wrong")
	}
	if Protocol(47).String() != "proto-47" {
		t.Fatalf("fallback = %q", Protocol(47).String())
	}
}

func TestParseProtocol(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Protocol
		ok   bool
	}{
		{"tcp", ProtoTCP, true}, {"UDP", ProtoUDP, true}, {"icmp", ProtoICMP, true},
		{"47", Protocol(47), true}, {"256", 0, false}, {"bogus", 0, false},
	} {
		got, err := ParseProtocol(c.in)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("ParseProtocol(%q) = %v, %v", c.in, got, err)
		}
	}
}
