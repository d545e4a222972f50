package nffilter

import (
	"strings"
	"testing"

	"repro/internal/flow"
)

// rec builds a test record with handy defaults.
func rec(mod func(*flow.Record)) *flow.Record {
	r := &flow.Record{
		Start:   1_260_000_000,
		Dur:     2000,
		SrcIP:   flow.MustParseIP("10.191.64.165"),
		DstIP:   flow.MustParseIP("10.13.137.129"),
		SrcPort: 55548,
		DstPort: 80,
		Proto:   flow.ProtoTCP,
		Flags:   flow.TCPSyn | flow.TCPAck,
		Router:  3,
		Packets: 10,
		Bytes:   4000,
	}
	if mod != nil {
		mod(r)
	}
	return r
}

func TestParseAndMatch(t *testing.T) {
	cases := []struct {
		filter string
		want   bool
	}{
		{"any", true},
		{"src ip 10.191.64.165", true},
		{"src ip 10.191.64.166", false},
		{"dst ip 10.13.137.129", true},
		{"ip 10.13.137.129", true}, // either side
		{"ip 10.191.64.165", true}, // either side
		{"ip 1.2.3.4", false},
		{"src net 10.191.0.0/16", true},
		{"src net 10.13.0.0/16", false},
		{"net 10.13.0.0/16", true},
		{"dst port 80", true},
		{"dst port 81", false},
		{"port 80", true},
		{"port 55548", true},
		{"src port 80", false},
		{"dst port < 1024", true},
		{"src port < 1024", false},
		{"port >= 55548", true},
		{"dst port != 80", false},
		{"proto tcp", true},
		{"proto udp", false},
		{"proto 6", true},
		{"packets > 5", true},
		{"packets > 10", false},
		{"packets >= 10", true},
		{"bytes = 4000", true},
		{"bytes == 4000", true},
		{"duration < 3000", true},
		{"router 3", true},
		{"router != 3", false},
		{"flags S", true},
		{"flags SA", true},
		{"flags F", false},
		{"not flags F", true},
		{"src ip 10.191.64.165 and dst port 80", true},
		{"src ip 10.191.64.165 and dst port 81", false},
		{"dst port 81 or dst port 80", true},
		{"dst port 81 or dst port 82", false},
		{"(dst port 81 or dst port 80) and proto tcp", true},
		{"(dst port 81 or dst port 80) and proto udp", false},
		{"not (proto udp or proto icmp)", true},
		{"src ip 10.191.64.165 and dst ip 10.13.137.129 and src port 55548 and proto tcp", true},
	}
	r := rec(nil)
	for _, c := range cases {
		f, err := Parse(c.filter)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.filter, err)
			continue
		}
		if got := f.Match(r); got != c.want {
			t.Errorf("Match(%q) = %v, want %v", c.filter, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"bogus",
		"src",
		"src ip",
		"ip 1.2.3",
		"ip 1.2.3.4.5",
		"net 10.0.0.0/33",
		"port 65536",
		"port abc",
		"proto frob",
		"src proto tcp",
		"src packets > 5",
		"dst any",
		"flags XYZ",
		"src ip 1.2.3.4 and",
		"(src ip 1.2.3.4",
		"src ip 1.2.3.4)",
		"packets ! 5",
		"port = = 80",
		"ip 1.2.3.4 extra",
		"@",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", s)
		} else if _, ok := err.(*SyntaxError); !ok {
			t.Errorf("Parse(%q) error is %T, want *SyntaxError", s, err)
		}
	}
}

func TestSyntaxErrorMessage(t *testing.T) {
	_, err := Parse("src ip banana")
	if err == nil {
		t.Fatal("expected error")
	}
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if se.Offset != 7 {
		t.Errorf("Offset = %d, want 7", se.Offset)
	}
	if !strings.Contains(se.Error(), "src ip banana") {
		t.Errorf("message %q should quote the input", se.Error())
	}
}

func TestStringRoundTrip(t *testing.T) {
	// Rendering then reparsing must preserve semantics. We check against a
	// panel of records rather than string equality, which would be brittle.
	filters := []string{
		"any",
		"src ip 10.191.64.165 and dst port 80",
		"(proto udp and packets > 1000000) or dst net 10.13.0.0/16",
		"not (src port < 1024 or flags S)",
		"dst port 81 or dst port 80 and proto tcp",
		"not any",
		"router 3 and bytes >= 4000 and duration < 3000",
		"port != 443",
	}
	records := []*flow.Record{
		rec(nil),
		rec(func(r *flow.Record) { r.Proto = flow.ProtoUDP; r.Packets = 2_000_000 }),
		rec(func(r *flow.Record) { r.SrcPort = 80; r.DstPort = 55548 }),
		rec(func(r *flow.Record) { r.Flags = 0; r.Router = 9 }),
		rec(func(r *flow.Record) { r.DstIP = flow.MustParseIP("192.0.2.1") }),
	}
	for _, src := range filters {
		f1, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		f2, err := Parse(f1.String())
		if err != nil {
			t.Fatalf("reparse of %q (rendered %q): %v", src, f1.String(), err)
		}
		for i, r := range records {
			if f1.Match(r) != f2.Match(r) {
				t.Errorf("filter %q: record %d disagrees after round trip (rendered %q)",
					src, i, f1.String())
			}
		}
	}
}

func TestPrecedence(t *testing.T) {
	// "a or b and c" must parse as "a or (b and c)".
	f, err := Parse("dst port 9999 or dst port 80 and proto tcp")
	if err != nil {
		t.Fatal(err)
	}
	if !f.Match(rec(nil)) {
		t.Fatal("expected match: (dst port 80 and proto tcp) holds")
	}
	udp := rec(func(r *flow.Record) { r.Proto = flow.ProtoUDP })
	if f.Match(udp) {
		t.Fatal("udp record matches neither disjunct")
	}
}

func TestFromNode(t *testing.T) {
	n := &And{Kids: []Node{
		&IPMatch{Dir: DirSrc, Addr: flow.MustParseIP("10.191.64.165")},
		&PortMatch{Dir: DirDst, Op: CmpEq, Port: 80},
	}}
	f := FromNode(n)
	if !f.Match(rec(nil)) {
		t.Fatal("programmatic filter must match")
	}
	if _, err := Parse(f.String()); err != nil {
		t.Fatalf("rendered programmatic filter must reparse: %v", err)
	}
	if !FromNode(nil).Match(rec(nil)) {
		t.Fatal("FromNode(nil) must match anything")
	}
}

func TestEmptyConjunctsRender(t *testing.T) {
	if got := (&And{}).String(); got != "any" {
		t.Errorf("empty And renders %q", got)
	}
	if got := (&Or{}).String(); got != "not any" {
		t.Errorf("empty Or renders %q", got)
	}
	if (&Or{}).Eval(rec(nil)) {
		t.Error("empty Or must match nothing")
	}
	if !(&And{}).Eval(rec(nil)) {
		t.Error("empty And must match everything")
	}
}

func TestFlagsFormat(t *testing.T) {
	m := &FlagsMatch{Mask: flow.TCPSyn | flow.TCPAck}
	if m.String() != "flags AS" {
		t.Errorf("FlagsMatch renders %q", m.String())
	}
	if (&FlagsMatch{Mask: 0}).String() != "flags 0" {
		t.Errorf("zero mask renders %q", (&FlagsMatch{Mask: 0}).String())
	}
}
