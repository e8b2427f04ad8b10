package engine

import (
	"fmt"
	"strings"
)

// String renders the expression in a compact SQL-ish syntax for Explain
// output and error messages.
func (x *Expr) String() string {
	var b strings.Builder
	x.format(&b)
	return b.String()
}

// binOpNames maps binary expression kinds to their infix symbol.
var binOpNames = map[exprKind]string{
	eAdd: "+", eSub: "-", eMul: "*", eDiv: "/",
	eEq: "=", eNe: "<>", eLt: "<", eLe: "<=", eGt: ">", eGe: ">=",
}

func (x *Expr) format(b *strings.Builder) {
	switch x.kind {
	case eCol:
		b.WriteString(x.name)
	case eConstI:
		fmt.Fprintf(b, "%d", x.i)
	case eConstF:
		fmt.Fprintf(b, "%g", x.f)
	case eConstS:
		fmt.Fprintf(b, "'%s'", x.s)
	case eAdd, eSub, eMul, eDiv, eEq, eNe, eLt, eLe, eGt, eGe:
		b.WriteByte('(')
		x.args[0].format(b)
		b.WriteString(" " + binOpNames[x.kind] + " ")
		x.args[1].format(b)
		b.WriteByte(')')
	case eAnd, eOr:
		op := " AND "
		if x.kind == eOr {
			op = " OR "
		}
		b.WriteByte('(')
		for i, a := range x.args {
			if i > 0 {
				b.WriteString(op)
			}
			a.format(b)
		}
		b.WriteByte(')')
	case eNot:
		b.WriteString("NOT ")
		x.args[0].format(b)
	case eBetween:
		x.args[0].format(b)
		b.WriteString(" BETWEEN ")
		x.args[1].format(b)
		b.WriteString(" AND ")
		x.args[2].format(b)
	case eInInt:
		x.args[0].format(b)
		b.WriteString(" IN (")
		for i, v := range x.ints {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(b, "%d", v)
		}
		b.WriteByte(')')
	case eInStr:
		x.args[0].format(b)
		b.WriteString(" IN (")
		for i, v := range x.strs {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(b, "'%s'", v)
		}
		b.WriteByte(')')
	case eLike, eNotLike:
		x.args[0].format(b)
		if x.kind == eNotLike {
			b.WriteString(" NOT")
		}
		fmt.Fprintf(b, " LIKE '%s'", x.s)
	case eIf:
		b.WriteString("CASE WHEN ")
		x.args[0].format(b)
		b.WriteString(" THEN ")
		x.args[1].format(b)
		b.WriteString(" ELSE ")
		x.args[2].format(b)
		b.WriteString(" END")
	case eYear:
		b.WriteString("YEAR(")
		x.args[0].format(b)
		b.WriteByte(')')
	case eSubstr:
		b.WriteString("SUBSTR(")
		x.args[0].format(b)
		fmt.Fprintf(b, ", %d, %d)", x.ints[0], x.ints[1])
	case eToF:
		b.WriteString("FLOAT(")
		x.args[0].format(b)
		b.WriteByte(')')
	case eParam:
		fmt.Fprintf(b, "?%d", x.i)
	default:
		fmt.Fprintf(b, "expr(%d)", x.kind)
	}
}

// aggKindNames maps aggregate kinds to their SQL function name.
var aggKindNames = [...]string{"sum", "count", "min", "max", "avg"}

func (a AggDef) describe() string {
	name := aggKindNames[a.Kind]
	if a.E == nil {
		return fmt.Sprintf("%s(*) AS %s", name, a.Name)
	}
	return fmt.Sprintf("%s(%s) AS %s", name, a.E, a.Name)
}

// Explain renders the plan as an operator tree: one line per operator
// with join kinds, keys, payloads and filters, suitable for asserting
// optimizer behavior in tests and for a server-side "explain" option.
func (p *Plan) Explain() string {
	if p.root == nil {
		return p.Name + " (no result node)\n"
	}
	var b strings.Builder
	b.WriteString(p.Name)
	if len(p.sortKeys) > 0 {
		b.WriteString(" order by [")
		for i, k := range p.sortKeys {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(k.Name)
			if k.Desc {
				b.WriteString(" desc")
			}
		}
		b.WriteByte(']')
	}
	if p.limit > 0 {
		fmt.Fprintf(&b, " limit %d", p.limit)
	} else if p.limit == LimitZero {
		b.WriteString(" limit 0")
	}
	b.WriteByte('\n')
	explainNode(&b, p.root, "", "")
	return b.String()
}

// explainNode prints n at the given indentation, then its children.
// branchPrefix prefixes n's own line; childIndent prefixes descendants.
func explainNode(b *strings.Builder, n *Node, branchPrefix, childIndent string) {
	b.WriteString(branchPrefix)
	b.WriteString(describeNode(n))
	if n.estRows > 0 {
		fmt.Fprintf(b, " est=%.0f", n.estRows)
	}
	b.WriteByte('\n')
	children := childrenOf(n)
	for i, c := range children {
		last := i == len(children)-1
		bp, ci := childIndent+"├─ ", childIndent+"│  "
		if last {
			bp, ci = childIndent+"└─ ", childIndent+"   "
		}
		explainNode(b, c, bp, ci)
	}
}

func childrenOf(n *Node) []*Node {
	switch n.kind {
	case nJoin:
		return []*Node{n.child, n.build}
	case nUnion:
		return n.children
	case nScan, nUnmatched:
		return nil
	default:
		return []*Node{n.child}
	}
}

func describeNode(n *Node) string {
	switch n.kind {
	case nScan:
		s := fmt.Sprintf("scan(%s) cols=%v", n.table.Name, regNames(n.out))
		if n.filter != nil {
			s += " filter: " + n.filter.String()
			if n.table.HasZoneMaps() {
				if pred := compileZonePrune(n.filter, n.out, n.scanSrc); pred != nil {
					kept, total := zoneScanCounts(n.table, pred)
					s += fmt.Sprintf(" [segments %d/%d]", kept, total)
				}
			}
		}
		return s
	case nFilter:
		return "filter: " + n.pred.String()
	case nMap:
		return fmt.Sprintf("map %s = %s", n.mapEx.Name, n.mapEx.E)
	case nProject:
		return fmt.Sprintf("project %v", n.cols)
	case nJoin:
		var kb strings.Builder
		for i := range n.probeKeys {
			if i > 0 {
				kb.WriteString(", ")
			}
			fmt.Fprintf(&kb, "%s = %s", n.probeKeys[i], n.buildKeys[i])
		}
		s := fmt.Sprintf("hashjoin %s on [%s]", n.joinKind, kb.String())
		if len(n.payload) > 0 {
			s += fmt.Sprintf(" payload=%v", n.payload)
		}
		if n.residual != nil {
			s += " residual: " + n.residual.String()
		}
		return s
	case nAgg:
		var gb strings.Builder
		for i, g := range n.groups {
			if i > 0 {
				gb.WriteString(", ")
			}
			if g.E.kind == eCol && g.E.name == g.Name {
				gb.WriteString(g.Name)
			} else {
				fmt.Fprintf(&gb, "%s AS %s", g.E, g.Name)
			}
		}
		var ab strings.Builder
		for i, a := range n.aggs {
			if i > 0 {
				ab.WriteString(", ")
			}
			ab.WriteString(a.describe())
		}
		return fmt.Sprintf("groupby [%s] aggs [%s]", gb.String(), ab.String())
	case nUnion:
		return fmt.Sprintf("union (%d inputs)", len(n.children))
	case nMaterialize:
		// A shared node: Explain's tree walk prints it (and its subtree)
		// once per consumer, but the subtree executes exactly once.
		return "materialize (shared; executes once)"
	case nUnmatched:
		return fmt.Sprintf("unmatched(%s) cols=%v", n.joinRef.build.outName(), n.cols)
	case nExchange:
		return describeExchange(n)
	default:
		return fmt.Sprintf("node(%d)", n.kind)
	}
}

// outName labels a subtree for Unmatched explain lines: the table name
// for scans, else a generic marker.
func (n *Node) outName() string {
	if n.kind == nScan {
		return n.table.Name
	}
	return "build"
}
