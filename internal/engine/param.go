package engine

import "fmt"

// This file implements parameterized plans: a plan holding Param
// placeholders is an immutable template (safe to cache and share across
// clients); BindArgs stamps out a per-execution copy with the
// placeholders replaced by constants. Only the operator nodes and the
// expressions that actually contain parameters are copied — column data,
// schemas and key/payload lists are shared with the template.

// visitParams walks every expression of the plan and reports each
// placeholder (possibly repeatedly, if one parameter is referenced in
// several expressions).
func (p *Plan) visitParams(f func(idx int, t Type)) {
	seen := map[*Node]bool{}
	var walkExpr func(x *Expr)
	walkExpr = func(x *Expr) {
		if x == nil {
			return
		}
		if x.kind == eParam {
			f(int(x.i), x.ptype)
		}
		for _, a := range x.args {
			walkExpr(a)
		}
	}
	var walkNode func(n *Node)
	walkNode = func(n *Node) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		walkExpr(n.filter)
		walkExpr(n.pred)
		walkExpr(n.mapEx.E)
		walkExpr(n.residual)
		for _, k := range n.probeKeys {
			walkExpr(k)
		}
		for _, k := range n.buildKeys {
			walkExpr(k)
		}
		for _, g := range n.groups {
			walkExpr(g.E)
		}
		for _, a := range n.aggs {
			walkExpr(a.E)
		}
		walkNode(n.child)
		walkNode(n.build)
		walkNode(n.joinRef)
		for _, c := range n.children {
			walkNode(c)
		}
	}
	walkNode(p.root)
}

// NumParams returns the number of parameter placeholders the plan
// expects (the highest ?N ordinal).
func (p *Plan) NumParams() int {
	n := 0
	p.visitParams(func(idx int, _ Type) {
		if idx > n {
			n = idx
		}
	})
	return n
}

// paramTypesMemo caches ParamTypes' result on the plan.
type paramTypesMemo struct {
	types []Type
	err   error
}

// ParamTypes returns the declared type of each placeholder, indexed
// ?1..?N, and an error if an ordinal is unused or declared with two
// conflicting types. The result is memoized: plans are immutable once
// built, and cached templates are bound on every request.
func (p *Plan) ParamTypes() ([]Type, error) {
	if m := p.paramTypes.Load(); m != nil {
		return m.types, m.err
	}
	types, err := p.computeParamTypes()
	p.paramTypes.Store(&paramTypesMemo{types: types, err: err})
	return types, err
}

func (p *Plan) computeParamTypes() ([]Type, error) {
	n := p.NumParams()
	types := make([]Type, n)
	bound := make([]bool, n)
	var err error
	p.visitParams(func(idx int, t Type) {
		if idx < 1 {
			err = fmt.Errorf("engine: bad parameter ordinal ?%d", idx)
			return
		}
		if bound[idx-1] && types[idx-1] != t {
			err = fmt.Errorf("engine: parameter ?%d used with conflicting types %v and %v", idx, types[idx-1], t)
			return
		}
		bound[idx-1], types[idx-1] = true, t
	})
	if err != nil {
		return nil, err
	}
	for i, ok := range bound {
		if !ok {
			return nil, fmt.Errorf("engine: parameter ?%d is never used (ordinals must be dense)", i+1)
		}
	}
	return types, nil
}

// coerceArg converts one caller-supplied argument (typically decoded
// from JSON) to the placeholder's declared type. Integer placeholders
// additionally accept "YYYY-MM-DD" strings, matching date literals.
func coerceArg(idx int, t Type, arg any) (Val, error) {
	switch t {
	case TInt:
		switch v := arg.(type) {
		case int:
			return Val{I: int64(v)}, nil
		case int64:
			return Val{I: v}, nil
		case float64:
			if v != float64(int64(v)) {
				return Val{}, fmt.Errorf("engine: parameter ?%d wants an integer, got %v", idx, v)
			}
			return Val{I: int64(v)}, nil
		case string:
			if !DateShaped(v) {
				return Val{}, fmt.Errorf("engine: parameter ?%d wants an integer or a 'YYYY-MM-DD' date, got %q", idx, v)
			}
			return Val{I: ParseDate(v)}, nil
		}
	case TFloat:
		switch v := arg.(type) {
		case int:
			return Val{F: float64(v)}, nil
		case int64:
			return Val{F: float64(v)}, nil
		case float64:
			return Val{F: v}, nil
		}
	case TStr:
		if v, ok := arg.(string); ok {
			return Val{S: v}, nil
		}
	}
	return Val{}, fmt.Errorf("engine: parameter ?%d wants %v, got %T", idx, t, arg)
}

// DateShaped reports whether s looks like "YYYY-MM-DD" — the rule under
// which string arguments bind to integer (date) parameters. Exported so
// clients deciding how to render a value (e.g. loadgen inlining params
// as literals) apply exactly the server's rule. ParseDate itself panics
// on malformed input; parameters come from clients.
func DateShaped(s string) bool {
	if len(s) != 10 || s[4] != '-' || s[7] != '-' {
		return false
	}
	for i := 0; i < len(s); i++ {
		if i == 4 || i == 7 {
			continue
		}
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	m := int(s[5]-'0')*10 + int(s[6]-'0')
	d := int(s[8]-'0')*10 + int(s[9]-'0')
	return m >= 1 && m <= 12 && d >= 1 && d <= 31
}

// BindArgs returns an executable copy of the plan with every placeholder
// replaced by the corresponding argument (args[0] binds ?1). A plan
// without placeholders is returned unchanged — and then must be given no
// arguments. The receiver is never mutated, so one cached template can
// serve concurrent executions.
func (p *Plan) BindArgs(args ...any) (*Plan, error) {
	types, err := p.ParamTypes()
	if err != nil {
		return nil, err
	}
	if len(args) != len(types) {
		return nil, fmt.Errorf("engine: plan %q wants %d parameters, got %d", p.Name, len(types), len(args))
	}
	if len(types) == 0 {
		return p, nil
	}
	vals := make([]Val, len(types))
	for i, t := range types {
		v, err := coerceArg(i+1, t, args[i])
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	b := &planBinder{vals: vals, types: types, nodes: map[*Node]*Node{}}
	np := &Plan{Name: p.Name, sortKeys: p.sortKeys, limit: p.limit}
	b.plan = np
	np.root = b.node(p.root)
	return np, nil
}

type planBinder struct {
	plan  *Plan
	vals  []Val
	types []Type
	nodes map[*Node]*Node
}

// expr substitutes placeholders, sharing any subtree that contains none.
func (b *planBinder) expr(x *Expr) *Expr {
	if x == nil {
		return nil
	}
	if x.kind == eParam {
		i := int(x.i) - 1
		switch b.types[i] {
		case TInt:
			return ConstI(b.vals[i].I)
		case TFloat:
			return ConstF(b.vals[i].F)
		default:
			return ConstS(b.vals[i].S)
		}
	}
	var changed []*Expr
	for i, a := range x.args {
		na := b.expr(a)
		if na != a && changed == nil {
			changed = append([]*Expr{}, x.args...)
		}
		if changed != nil {
			changed[i] = na
		}
	}
	if changed == nil {
		return x
	}
	nx := *x
	nx.args = changed
	return &nx
}

func (b *planBinder) exprs(xs []*Expr) []*Expr {
	if len(xs) == 0 {
		return xs
	}
	out := make([]*Expr, len(xs))
	for i, x := range xs {
		out[i] = b.expr(x)
	}
	return out
}

// node deep-copies the operator DAG (memoized, so shared subtrees stay
// shared) with expressions substituted.
func (b *planBinder) node(n *Node) *Node {
	if n == nil {
		return nil
	}
	if nn, ok := b.nodes[n]; ok {
		return nn
	}
	nn := &Node{}
	*nn = *n
	b.nodes[n] = nn
	nn.plan = b.plan
	nn.filter = b.expr(n.filter)
	nn.pred = b.expr(n.pred)
	nn.mapEx = NamedExpr{Name: n.mapEx.Name, E: b.expr(n.mapEx.E)}
	nn.residual = b.expr(n.residual)
	nn.probeKeys = b.exprs(n.probeKeys)
	nn.buildKeys = b.exprs(n.buildKeys)
	if len(n.groups) > 0 {
		nn.groups = make([]NamedExpr, len(n.groups))
		for i, g := range n.groups {
			nn.groups[i] = NamedExpr{Name: g.Name, E: b.expr(g.E)}
		}
	}
	if len(n.aggs) > 0 {
		nn.aggs = make([]AggDef, len(n.aggs))
		for i, a := range n.aggs {
			nn.aggs[i] = AggDef{Name: a.Name, Kind: a.Kind, E: b.expr(a.E)}
		}
	}
	nn.child = b.node(n.child)
	nn.build = b.node(n.build)
	nn.joinRef = b.node(n.joinRef)
	if len(n.children) > 0 {
		nn.children = make([]*Node, len(n.children))
		for i, c := range n.children {
			nn.children[i] = b.node(c)
		}
	}
	return nn
}
