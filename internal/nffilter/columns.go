package nffilter

import "strings"

// Column projection: a filter AST can report exactly which record fields
// its evaluation touches, so a columnar storage engine decodes only those
// columns. The analysis is conservative — an unknown node type claims
// every column, which costs decode work but never correctness.

// Column identifies one field of a flow.Record for projection purposes.
// The constants enumerate the record's twelve on-disk columns in their
// canonical storage order.
type Column uint8

// Record columns, in canonical storage order.
const (
	ColStart Column = iota
	ColDur
	ColSrcIP
	ColDstIP
	ColSrcPort
	ColDstPort
	ColProto
	ColFlags
	ColRouter
	ColAnno
	ColPackets
	ColBytes
	// NumColumns is the number of record columns.
	NumColumns
)

// String names the column after its flow.Record field.
func (c Column) String() string {
	names := [...]string{"Start", "Dur", "SrcIP", "DstIP", "SrcPort", "DstPort",
		"Proto", "Flags", "Router", "Anno", "Packets", "Bytes"}
	if int(c) < len(names) {
		return names[c]
	}
	return "Column?"
}

// ColumnSet is a bitmask of record columns.
type ColumnSet uint16

// AllColumns holds every record column.
const AllColumns ColumnSet = 1<<NumColumns - 1

// Has reports whether the set contains c.
func (s ColumnSet) Has(c Column) bool { return s&(1<<c) != 0 }

// With returns the set extended by c.
func (s ColumnSet) With(c Column) ColumnSet { return s | 1<<c }

// String renders the set as a +-joined column list ("SrcIP+DstPort").
func (s ColumnSet) String() string {
	if s == 0 {
		return "none"
	}
	var parts []string
	for c := Column(0); c < NumColumns; c++ {
		if s.Has(c) {
			parts = append(parts, c.String())
		}
	}
	return strings.Join(parts, "+")
}

// Requires reports the set of record columns evaluating n may read. A nil
// node requires nothing; an unrecognized node type (or counter field)
// conservatively requires every column, so projection can never change
// what a filter matches.
func Requires(n Node) ColumnSet {
	switch t := n.(type) {
	case nil:
		return 0
	case *And:
		var s ColumnSet
		for _, k := range t.Kids {
			s |= Requires(k)
		}
		return s
	case *Or:
		var s ColumnSet
		for _, k := range t.Kids {
			s |= Requires(k)
		}
		return s
	case *Not:
		return Requires(t.Kid)
	case Any, *Any:
		return 0
	case *IPMatch:
		return dirCols(t.Dir, ColSrcIP, ColDstIP)
	case *NetMatch:
		return dirCols(t.Dir, ColSrcIP, ColDstIP)
	case *PortMatch:
		return dirCols(t.Dir, ColSrcPort, ColDstPort)
	case *ProtoMatch:
		return ColumnSet(0).With(ColProto)
	case *CounterMatch:
		switch t.Field {
		case FieldPackets:
			return ColumnSet(0).With(ColPackets)
		case FieldBytes:
			return ColumnSet(0).With(ColBytes)
		case FieldDuration:
			return ColumnSet(0).With(ColDur)
		case FieldRouter:
			return ColumnSet(0).With(ColRouter)
		default:
			return AllColumns
		}
	case *FlagsMatch:
		return ColumnSet(0).With(ColFlags)
	default:
		return AllColumns
	}
}

// dirCols resolves a direction qualifier to the column(s) it reads.
func dirCols(d Dir, src, dst Column) ColumnSet {
	switch d {
	case DirSrc:
		return ColumnSet(0).With(src)
	case DirDst:
		return ColumnSet(0).With(dst)
	default:
		return ColumnSet(0).With(src).With(dst)
	}
}
