package nfstore

import (
	"repro/internal/flow"
	"repro/internal/nffilter"
)

// Vectorized filter evaluation: a filter AST is evaluated over a whole
// decoded column block at once, producing a selection mask, before any
// row is materialized. Semantics are exactly Node.Eval applied per row —
// the cross-format property tests pin this. ASTs containing node types
// the evaluator does not know fall back to per-row Eval on fully decoded
// records (vecSupported gates the fast path; nffilter.Requires already
// forces a full decode for such ASTs).

// vecSupported reports whether the vectorized evaluator handles every
// node of the AST.
func vecSupported(n nffilter.Node) bool {
	switch t := n.(type) {
	case *nffilter.And:
		for _, k := range t.Kids {
			if !vecSupported(k) {
				return false
			}
		}
		return true
	case *nffilter.Or:
		for _, k := range t.Kids {
			if !vecSupported(k) {
				return false
			}
		}
		return true
	case *nffilter.Not:
		return vecSupported(t.Kid)
	case nffilter.Any, *nffilter.Any:
		return true
	case *nffilter.IPMatch, *nffilter.NetMatch, *nffilter.PortMatch,
		*nffilter.ProtoMatch, *nffilter.FlagsMatch:
		return true
	case *nffilter.CounterMatch:
		switch t.Field {
		case nffilter.FieldPackets, nffilter.FieldBytes,
			nffilter.FieldDuration, nffilter.FieldRouter:
			return true
		}
		return false
	default:
		return false
	}
}

// vecEvaluator evaluates a supported AST over one column batch, reusing
// mask buffers across blocks.
type vecEvaluator struct {
	b    *Batch
	free [][]bool
}

// alloc returns a mask sized to the current batch.
func (e *vecEvaluator) alloc() []bool {
	if n := len(e.free); n > 0 {
		m := e.free[n-1]
		e.free = e.free[:n-1]
		if cap(m) >= e.b.n {
			return m[:e.b.n]
		}
	}
	return make([]bool, e.b.n)
}

// release returns a mask to the pool.
func (e *vecEvaluator) release(m []bool) { e.free = append(e.free, m) }

// eval returns the selection mask for n over the current batch. The
// caller owns the returned mask until it releases it. n must be
// vecSupported.
func (e *vecEvaluator) eval(n nffilter.Node) []bool {
	switch t := n.(type) {
	case *nffilter.And:
		if len(t.Kids) == 0 { // empty And matches everything
			m := e.alloc()
			for i := range m {
				m[i] = true
			}
			return m
		}
		m := e.eval(t.Kids[0]) // first kid writes the mask directly
		for _, kid := range t.Kids[1:] {
			e.andInto(kid, m)
		}
		return m
	case *nffilter.Or:
		if len(t.Kids) == 0 { // empty Or matches nothing
			m := e.alloc()
			for i := range m {
				m[i] = false
			}
			return m
		}
		m := e.eval(t.Kids[0])
		for _, kid := range t.Kids[1:] {
			k := e.eval(kid)
			for i := range m {
				m[i] = m[i] || k[i]
			}
			e.release(k)
		}
		return m
	case *nffilter.Not:
		m := e.eval(t.Kid)
		for i := range m {
			m[i] = !m[i]
		}
		return m
	case nffilter.Any, *nffilter.Any:
		m := e.alloc()
		for i := range m {
			m[i] = true
		}
		return m
	case *nffilter.IPMatch:
		return e.evalIP(t)
	case *nffilter.NetMatch:
		return e.evalNet(t)
	case *nffilter.PortMatch:
		return e.evalPort(t)
	case *nffilter.ProtoMatch:
		m := e.alloc()
		p := uint8(t.Proto)
		for i, v := range e.b.Proto {
			m[i] = v == p
		}
		return m
	case *nffilter.CounterMatch:
		return e.evalCounter(t)
	case *nffilter.FlagsMatch:
		m := e.alloc()
		for i, v := range e.b.Flags {
			m[i] = v&t.Mask == t.Mask
		}
		return m
	default:
		// vecSupported gates this path; reaching it is a programming error.
		panic("nfstore: vectorized eval on unsupported node")
	}
}

// andInto narrows m in place to the rows n also matches: afterwards
// m[i] == m[i] && Eval(n, row i). Leaf predicates skip rows the
// conjunction has already rejected — for a selective first conjunct that
// avoids most of the comparison work. Node types without a masked
// variant fall back to eval plus a combine pass, which computes the same
// thing.
func (e *vecEvaluator) andInto(n nffilter.Node, m []bool) {
	switch t := n.(type) {
	case *nffilter.And:
		for _, kid := range t.Kids {
			e.andInto(kid, m)
		}
	case nffilter.Any, *nffilter.Any:
		// conjunction with "any" is a no-op
	case *nffilter.ProtoMatch:
		p := uint8(t.Proto)
		for i, v := range e.b.Proto {
			m[i] = m[i] && v == p
		}
	case *nffilter.FlagsMatch:
		for i, v := range e.b.Flags {
			m[i] = m[i] && v&t.Mask == t.Mask
		}
	case *nffilter.IPMatch:
		a := uint32(t.Addr)
		switch t.Dir {
		case nffilter.DirSrc:
			for i, v := range e.b.SrcIP {
				m[i] = m[i] && v == a
			}
		case nffilter.DirDst:
			for i, v := range e.b.DstIP {
				m[i] = m[i] && v == a
			}
		default:
			for i := range m {
				m[i] = m[i] && (e.b.SrcIP[i] == a || e.b.DstIP[i] == a)
			}
		}
	case *nffilter.PortMatch:
		// Exact-port conjuncts ("dst port 53") are the common shape; the
		// specialized compare keeps the loop branch-free where the generic
		// cmpApply switch would not be.
		if t.Op == nffilter.CmpEq {
			pv := t.Port
			switch t.Dir {
			case nffilter.DirSrc:
				for i, v := range e.b.SrcPort {
					m[i] = m[i] && v == pv
				}
			case nffilter.DirDst:
				for i, v := range e.b.DstPort {
					m[i] = m[i] && v == pv
				}
			default:
				for i := range m {
					m[i] = m[i] && (e.b.SrcPort[i] == pv || e.b.DstPort[i] == pv)
				}
			}
			return
		}
		c := uint64(t.Port)
		switch t.Dir {
		case nffilter.DirSrc:
			for i, v := range e.b.SrcPort {
				m[i] = m[i] && cmpApply(t.Op, uint64(v), c)
			}
		case nffilter.DirDst:
			for i, v := range e.b.DstPort {
				m[i] = m[i] && cmpApply(t.Op, uint64(v), c)
			}
		default:
			for i := range m {
				m[i] = m[i] && (cmpApply(t.Op, uint64(e.b.SrcPort[i]), c) ||
					cmpApply(t.Op, uint64(e.b.DstPort[i]), c))
			}
		}
	default:
		k := e.eval(n)
		for i := range m {
			m[i] = m[i] && k[i]
		}
		e.release(k)
	}
}

// evalIP vectorizes an exact-address match.
func (e *vecEvaluator) evalIP(t *nffilter.IPMatch) []bool {
	m := e.alloc()
	a := uint32(t.Addr)
	switch t.Dir {
	case nffilter.DirSrc:
		for i, v := range e.b.SrcIP {
			m[i] = v == a
		}
	case nffilter.DirDst:
		for i, v := range e.b.DstIP {
			m[i] = v == a
		}
	default:
		for i := range m {
			m[i] = e.b.SrcIP[i] == a || e.b.DstIP[i] == a
		}
	}
	return m
}

// evalNet vectorizes a CIDR match.
func (e *vecEvaluator) evalNet(t *nffilter.NetMatch) []bool {
	m := e.alloc()
	switch t.Dir {
	case nffilter.DirSrc:
		for i, v := range e.b.SrcIP {
			m[i] = t.Prefix.Contains(flow.IP(v))
		}
	case nffilter.DirDst:
		for i, v := range e.b.DstIP {
			m[i] = t.Prefix.Contains(flow.IP(v))
		}
	default:
		for i := range m {
			m[i] = t.Prefix.Contains(flow.IP(e.b.SrcIP[i])) ||
				t.Prefix.Contains(flow.IP(e.b.DstIP[i]))
		}
	}
	return m
}

// evalPort vectorizes a port comparison (DirEither is a per-row
// disjunction, mirroring PortMatch.Eval).
func (e *vecEvaluator) evalPort(t *nffilter.PortMatch) []bool {
	m := e.alloc()
	c := uint64(t.Port)
	switch t.Dir {
	case nffilter.DirSrc:
		for i, v := range e.b.SrcPort {
			m[i] = cmpApply(t.Op, uint64(v), c)
		}
	case nffilter.DirDst:
		for i, v := range e.b.DstPort {
			m[i] = cmpApply(t.Op, uint64(v), c)
		}
	default:
		for i := range m {
			m[i] = cmpApply(t.Op, uint64(e.b.SrcPort[i]), c) ||
				cmpApply(t.Op, uint64(e.b.DstPort[i]), c)
		}
	}
	return m
}

// evalCounter vectorizes a counter comparison.
func (e *vecEvaluator) evalCounter(t *nffilter.CounterMatch) []bool {
	m := e.alloc()
	switch t.Field {
	case nffilter.FieldPackets:
		for i, v := range e.b.Packets {
			m[i] = cmpApply(t.Op, v, t.Value)
		}
	case nffilter.FieldBytes:
		for i, v := range e.b.Bytes {
			m[i] = cmpApply(t.Op, v, t.Value)
		}
	case nffilter.FieldDuration:
		for i, v := range e.b.Dur {
			m[i] = cmpApply(t.Op, uint64(v), t.Value)
		}
	case nffilter.FieldRouter:
		for i, v := range e.b.Router {
			m[i] = cmpApply(t.Op, uint64(v), t.Value)
		}
	}
	return m
}

// cmpApply mirrors nffilter's CmpOp semantics (unknown operators match
// nothing, like CmpOp.apply).
func cmpApply(op nffilter.CmpOp, a, b uint64) bool {
	switch op {
	case nffilter.CmpEq:
		return a == b
	case nffilter.CmpNe:
		return a != b
	case nffilter.CmpLt:
		return a < b
	case nffilter.CmpLe:
		return a <= b
	case nffilter.CmpGt:
		return a > b
	case nffilter.CmpGe:
		return a >= b
	default:
		return false
	}
}
