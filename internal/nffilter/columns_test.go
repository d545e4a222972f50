package nffilter

import (
	"testing"

	"repro/internal/flow"
)

func TestRequiresPerNode(t *testing.T) {
	col := func(cs ...Column) ColumnSet {
		var s ColumnSet
		for _, c := range cs {
			s = s.With(c)
		}
		return s
	}
	cases := []struct {
		name string
		node Node
		want ColumnSet
	}{
		{"nil", nil, 0},
		{"any", Any{}, 0},
		{"any-ptr", &Any{}, 0},
		{"ip-src", &IPMatch{Dir: DirSrc, Addr: 1}, col(ColSrcIP)},
		{"ip-dst", &IPMatch{Dir: DirDst, Addr: 1}, col(ColDstIP)},
		{"ip-either", &IPMatch{Addr: 1}, col(ColSrcIP, ColDstIP)},
		{"net-src", &NetMatch{Dir: DirSrc}, col(ColSrcIP)},
		{"port-dst", &PortMatch{Dir: DirDst, Port: 53}, col(ColDstPort)},
		{"port-either", &PortMatch{Port: 53}, col(ColSrcPort, ColDstPort)},
		{"proto", &ProtoMatch{Proto: 17}, col(ColProto)},
		{"flags", &FlagsMatch{Mask: 0x02}, col(ColFlags)},
		{"packets", &CounterMatch{Field: FieldPackets, Op: CmpGt, Value: 1}, col(ColPackets)},
		{"bytes", &CounterMatch{Field: FieldBytes, Op: CmpGt, Value: 1}, col(ColBytes)},
		{"duration", &CounterMatch{Field: FieldDuration, Op: CmpGt, Value: 1}, col(ColDur)},
		{"router", &CounterMatch{Field: FieldRouter, Op: CmpEq, Value: 1}, col(ColRouter)},
		{"unknown-counter-field", &CounterMatch{Field: CounterField(99)}, AllColumns},
		{"and-union", &And{Kids: []Node{
			&ProtoMatch{Proto: 17}, &PortMatch{Dir: DirDst, Port: 53},
		}}, col(ColProto, ColDstPort)},
		{"or-union", &Or{Kids: []Node{
			&IPMatch{Dir: DirSrc, Addr: 1}, &FlagsMatch{Mask: 2},
		}}, col(ColSrcIP, ColFlags)},
		{"not-passthrough", &Not{Kid: &ProtoMatch{Proto: 6}}, col(ColProto)},
		{"unknown-node", unknownNode{}, AllColumns},
	}
	for _, c := range cases {
		if got := Requires(c.node); got != c.want {
			t.Errorf("%s: Requires = %v, want %v", c.name, got, c.want)
		}
	}
}

// unknownNode stands in for a future AST node Requires has never heard
// of — projection must go conservative, not wrong.
type unknownNode struct{}

func (unknownNode) Eval(*flow.Record) bool { return true }
func (unknownNode) String() string         { return "unknown" }

func TestFilterColumnsFromSyntax(t *testing.T) {
	cases := []struct {
		src  string
		want ColumnSet
	}{
		{"any", 0},
		{"proto udp and dst port 53", ColumnSet(0).With(ColProto).With(ColDstPort)},
		{"src ip 10.0.0.1 or dst net 10.0.0.0/8", ColumnSet(0).With(ColSrcIP).With(ColDstIP)},
		{"not flags S", ColumnSet(0).With(ColFlags)},
		{"packets > 100 and duration < 2000", ColumnSet(0).With(ColPackets).With(ColDur)},
	}
	for _, c := range cases {
		f, err := Parse(c.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.src, err)
		}
		if got := Requires(f.Root()); got != c.want {
			t.Errorf("Requires(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestColumnSetString(t *testing.T) {
	if got := ColumnSet(0).String(); got != "none" {
		t.Errorf("empty set = %q", got)
	}
	s := ColumnSet(0).With(ColSrcIP).With(ColDstPort)
	if got := s.String(); got != "SrcIP+DstPort" {
		t.Errorf("set = %q", got)
	}
	for c := Column(0); c < NumColumns; c++ {
		if !AllColumns.Has(c) {
			t.Errorf("AllColumns missing %v", c)
		}
	}
}
