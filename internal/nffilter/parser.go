package nffilter

import (
	"fmt"
	"strconv"

	"repro/internal/flow"
)

// Filter is a parsed, immutable filter expression.
type Filter struct {
	root Node
	src  string
}

// Parse compiles a filter expression. The grammar, in decreasing binding
// strength:
//
//	primary := '(' expr ')' | 'not' primary | predicate
//	conj    := primary { 'and' primary }
//	expr    := conj { 'or' conj }
//
// with predicates:
//
//	[src|dst] ip ADDR          [src|dst] net CIDR
//	[src|dst] port [CMP] NUM   proto NAME|NUM
//	packets CMP NUM            bytes CMP NUM
//	duration CMP NUM           router [CMP] NUM
//	flags LETTERS              any
func Parse(src string) (*Filter, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	root, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind != tokEOF {
		return nil, p.errf(t.pos, "unexpected %s %q after expression", t.kind, t.text)
	}
	return &Filter{root: root, src: src}, nil
}

// FromNode wraps a programmatically built AST in a Filter. The extraction
// engine uses this to turn itemsets into drill-down filters without going
// through text.
func FromNode(n Node) *Filter {
	if n == nil {
		n = Any{}
	}
	return &Filter{root: n, src: n.String()}
}

// Match reports whether the record satisfies the filter.
func (f *Filter) Match(r *flow.Record) bool { return f.root.Eval(r) }

// Root returns the filter's AST root.
func (f *Filter) Root() Node { return f.root }

// String renders the filter back to parseable syntax.
func (f *Filter) String() string { return f.root.String() }

type parser struct {
	src  string
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) advance() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) errf(pos int, format string, args ...any) error {
	return &SyntaxError{Input: p.src, Offset: pos, Msg: fmt.Sprintf(format, args...)}
}

// acceptWord consumes the next token when it is the given keyword.
func (p *parser) acceptWord(word string) bool {
	if t := p.peek(); t.kind == tokWord && t.text == word {
		p.advance()
		return true
	}
	return false
}

func (p *parser) parseExpr() (Node, error) {
	left, err := p.parseConj()
	if err != nil {
		return nil, err
	}
	kids := []Node{left}
	for p.acceptWord("or") {
		right, err := p.parseConj()
		if err != nil {
			return nil, err
		}
		kids = append(kids, right)
	}
	if len(kids) == 1 {
		return kids[0], nil
	}
	return &Or{Kids: kids}, nil
}

func (p *parser) parseConj() (Node, error) {
	left, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	kids := []Node{left}
	for p.acceptWord("and") {
		right, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		kids = append(kids, right)
	}
	if len(kids) == 1 {
		return kids[0], nil
	}
	return &And{Kids: kids}, nil
}

func (p *parser) parsePrimary() (Node, error) {
	t := p.peek()
	switch {
	case t.kind == tokLParen:
		p.advance()
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if closer := p.advance(); closer.kind != tokRParen {
			return nil, p.errf(closer.pos, "expected ')', got %s", closer.kind)
		}
		return inner, nil
	case t.kind == tokWord && t.text == "not":
		p.advance()
		inner, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return &Not{Kid: inner}, nil
	case t.kind == tokWord:
		return p.parsePredicate()
	default:
		return nil, p.errf(t.pos, "expected predicate, got %s", t.kind)
	}
}

func (p *parser) parsePredicate() (Node, error) {
	t := p.advance() // the keyword word
	dir := DirEither
	switch t.text {
	case "src":
		dir = DirSrc
		t = p.advance()
	case "dst":
		dir = DirDst
		t = p.advance()
	}
	if t.kind != tokWord {
		return nil, p.errf(t.pos, "expected field keyword, got %s", t.kind)
	}
	switch t.text {
	case "any":
		if dir != DirEither {
			return nil, p.errf(t.pos, "'any' takes no direction")
		}
		return Any{}, nil
	case "ip":
		a := p.advance()
		if a.kind != tokAddr {
			return nil, p.errf(a.pos, "expected IPv4 address after 'ip', got %s", a.kind)
		}
		ip, err := flow.ParseIP(a.text)
		if err != nil {
			return nil, p.errf(a.pos, "%v", err)
		}
		return &IPMatch{Dir: dir, Addr: ip}, nil
	case "net":
		a := p.advance()
		if a.kind != tokCIDR && a.kind != tokAddr {
			return nil, p.errf(a.pos, "expected CIDR prefix after 'net', got %s", a.kind)
		}
		pref, err := flow.ParsePrefix(a.text)
		if err != nil {
			return nil, p.errf(a.pos, "%v", err)
		}
		return &NetMatch{Dir: dir, Prefix: pref}, nil
	case "port":
		op, value, err := p.parseCmpNumber(65535)
		if err != nil {
			return nil, err
		}
		return &PortMatch{Dir: dir, Op: op, Port: uint16(value)}, nil
	case "proto":
		if dir != DirEither {
			return nil, p.errf(t.pos, "'proto' takes no direction")
		}
		a := p.advance()
		if a.kind != tokWord && a.kind != tokNumber {
			return nil, p.errf(a.pos, "expected protocol after 'proto', got %s", a.kind)
		}
		proto, err := flow.ParseProtocol(a.text)
		if err != nil {
			return nil, p.errf(a.pos, "%v", err)
		}
		return &ProtoMatch{Proto: proto}, nil
	case "packets", "bytes", "duration", "router":
		if dir != DirEither {
			return nil, p.errf(t.pos, "%q takes no direction", t.text)
		}
		var field CounterField
		switch t.text {
		case "packets":
			field = FieldPackets
		case "bytes":
			field = FieldBytes
		case "duration":
			field = FieldDuration
		case "router":
			field = FieldRouter
		}
		op, value, err := p.parseCmpNumber(1<<63 - 1)
		if err != nil {
			return nil, err
		}
		return &CounterMatch{Field: field, Op: op, Value: value}, nil
	case "flags":
		if dir != DirEither {
			return nil, p.errf(t.pos, "'flags' takes no direction")
		}
		a := p.advance()
		// "flags 0" denotes the empty mask (matches every record); letter
		// strings denote required flag bits.
		if a.kind == tokNumber && a.text == "0" {
			return &FlagsMatch{Mask: 0}, nil
		}
		if a.kind != tokWord {
			return nil, p.errf(a.pos, "expected flag letters after 'flags', got %s", a.kind)
		}
		mask, ok := parseFlags(a.text)
		if !ok {
			return nil, p.errf(a.pos, "invalid flag letters %q (use U A P R S F)", a.text)
		}
		return &FlagsMatch{Mask: mask}, nil
	default:
		return nil, p.errf(t.pos, "unknown field %q", t.text)
	}
}

// parseCmpNumber parses an optional comparison operator (default '=')
// followed by a number bounded by max.
func (p *parser) parseCmpNumber(max uint64) (CmpOp, uint64, error) {
	op := CmpEq
	if t := p.peek(); t.kind == tokCmp {
		p.advance()
		var ok bool
		op, ok = parseCmp(t.text)
		if !ok {
			return 0, 0, p.errf(t.pos, "invalid comparison %q", t.text)
		}
	}
	t := p.advance()
	if t.kind != tokNumber {
		return 0, 0, p.errf(t.pos, "expected number, got %s", t.kind)
	}
	v, err := strconv.ParseUint(t.text, 10, 64)
	if err != nil || v > max {
		return 0, 0, p.errf(t.pos, "number %q out of range (max %d)", t.text, max)
	}
	return op, v, nil
}
