package engine

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/storage"
)

// Plan is a hand-built physical query plan: a DAG of relational operator
// nodes with an optional terminal ORDER BY / LIMIT. Plans correspond to
// what HyPer's optimizer emits for the benchmark queries — hash joins
// everywhere, no indexes (§5.1).
type Plan struct {
	Name string

	root     *Node
	sortKeys []SortKey
	limit    int

	// paramTypes memoizes ParamTypes so per-request binding of cached
	// plan templates does not re-walk the operator DAG.
	paramTypes atomic.Pointer[paramTypesMemo]
}

// NewPlan creates an empty plan.
func NewPlan(name string) *Plan { return &Plan{Name: name} }

// SortKey orders the terminal result by the named output column.
type SortKey struct {
	Name string
	Desc bool
}

// Asc and Desc are SortKey helpers.
func Asc(name string) SortKey  { return SortKey{Name: name} }
func Desc(name string) SortKey { return SortKey{Name: name, Desc: true} }

// NamedExpr is an expression with an output name.
type NamedExpr struct {
	Name string
	E    *Expr
}

// N builds a NamedExpr.
func N(name string, e *Expr) NamedExpr { return NamedExpr{Name: name, E: e} }

// AggKind enumerates aggregate functions.
type AggKind uint8

const (
	// AggSum sums the expression.
	AggSum AggKind = iota
	// AggCount counts tuples (expression ignored).
	AggCount
	// AggMin takes the minimum.
	AggMin
	// AggMax takes the maximum.
	AggMax
	// AggAvg averages the expression.
	AggAvg
)

// AggDef is one aggregate output.
type AggDef struct {
	Name string
	Kind AggKind
	E    *Expr // nil allowed for AggCount
}

// Sum / Count / Min / Max / Avg are AggDef helpers.
func Sum(name string, e *Expr) AggDef   { return AggDef{Name: name, Kind: AggSum, E: e} }
func Count(name string) AggDef          { return AggDef{Name: name, Kind: AggCount} }
func MinOf(name string, e *Expr) AggDef { return AggDef{Name: name, Kind: AggMin, E: e} }
func MaxOf(name string, e *Expr) AggDef { return AggDef{Name: name, Kind: AggMax, E: e} }
func Avg(name string, e *Expr) AggDef   { return AggDef{Name: name, Kind: AggAvg, E: e} }

// JoinKind selects the hash-join variant (§4.1: "outer join is a minor
// variation... semi and anti joins are implemented similarly").
type JoinKind uint8

const (
	// JoinInner emits one row per matching build tuple.
	JoinInner JoinKind = iota
	// JoinSemi emits the probe row once if any build tuple matches.
	JoinSemi
	// JoinAnti emits the probe row if no build tuple matches.
	JoinAnti
	// JoinMark is an inner join that additionally marks matched build
	// tuples, enabling an Unmatched scan afterwards (build-side outer
	// join via the paper's match markers).
	JoinMark
	// JoinOuterProbe preserves the probe side: unmatched probe rows
	// are emitted with zero-valued payload (probe-side outer join).
	JoinOuterProbe
)

// AggAlgo selects the physical aggregation implementation.
type AggAlgo uint8

const (
	// AggShared is the default two-phase aggregation: capacity-capped
	// thread-local pre-aggregation spilling cold keys to partitions
	// (§4.4). Best for low group cardinality.
	AggShared AggAlgo = iota
	// AggPartitioned keys every worker's table by the group hash up
	// front (Memarzia et al.'s partitioned strategy): no capacity cap
	// and no spill path, at the cost of one table per partition per
	// worker. Best for high group cardinality.
	AggPartitioned
)

// String names the aggregation algorithm for Explain output.
func (a AggAlgo) String() string {
	switch a {
	case AggShared:
		return "shared"
	case AggPartitioned:
		return "partitioned"
	default:
		return fmt.Sprintf("AggAlgo(%d)", uint8(a))
	}
}

// String names the join kind for Explain output and error messages.
func (k JoinKind) String() string {
	switch k {
	case JoinInner:
		return "inner"
	case JoinSemi:
		return "semi"
	case JoinAnti:
		return "anti"
	case JoinMark:
		return "mark"
	case JoinOuterProbe:
		return "outer"
	default:
		return fmt.Sprintf("JoinKind(%d)", uint8(k))
	}
}

type nodeKind uint8

const (
	nScan nodeKind = iota
	nFilter
	nMap
	nJoin
	nAgg
	nUnion
	nUnmatched
	nProject
	nMaterialize
	nExchange
)

// Node is one operator of a plan.
type Node struct {
	plan *Plan
	kind nodeKind
	out  []Reg // output schema

	// scan
	table   *storage.Table
	scanSrc []int // table column indexes, parallel to out
	filter  *Expr // pushed-down predicate (may be nil)
	// stream, when set, turns the scan into a stream scan: the table is
	// a schema-only stub and morsels arrive through the source while the
	// producing side (a peer node, a sibling pipeline) is still running.
	stream *StreamSource

	// filter / map
	child *Node
	pred  *Expr
	mapEx NamedExpr

	// join (per-compile runtime state lives in compiler.joins, so one
	// Plan may be compiled concurrently by many sessions)
	build     *Node
	probeKeys []*Expr
	buildKeys []*Expr
	payload   []string
	joinKind  JoinKind
	residual  *Expr

	// aggregation algorithm (nAgg)
	aggAlgo AggAlgo

	// physWhy is the physical-selection rationale for this aggregation,
	// rendered by Explain so cost decisions are pinnable in tests. Empty
	// for hand-built plans.
	physWhy string

	// unmatched scan
	joinRef *Node
	cols    []string

	// aggregation
	groups []NamedExpr
	aggs   []AggDef

	// union
	children []*Node

	// exchange
	exKind  ExchangeKind
	exKeys  []string
	exNodes int

	// estRows is the optimizer's estimated output cardinality (0 = not
	// annotated). Explain renders it so plan choices are testable.
	estRows float64
}

// SetEst annotates the node with an estimated output cardinality and
// returns the node for chaining. Cost-based optimizers set it; hand-built
// plans may leave it unset.
func (n *Node) SetEst(rows float64) *Node {
	n.estRows = rows
	return n
}

// Est returns the node's estimated output cardinality (0 when the plan
// was built without estimates).
func (n *Node) Est() float64 { return n.estRows }

// Schema returns the node's output schema. Plan builders layered above
// the engine (the SQL front end's derived tables) use it to type nested
// plan fragments.
func (n *Node) Schema() []Reg { return n.out }

// schemaResolver lets expressions be type-checked against a schema at
// plan-build time by compiling them with a throwaway resolver.
type schemaResolver []Reg

func (s schemaResolver) resolve(name string) (int, Type) {
	for i, r := range s {
		if r.Name == name {
			return i, r.Type
		}
	}
	panic(fmt.Sprintf("engine: unknown column %q (have %v)", name, regNames(s)))
}

func regNames(rs []Reg) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Name
	}
	return out
}

// typeOf infers an expression's type against a schema, validating all
// column references.
func typeOf(e *Expr, schema []Reg) Type {
	_, t := e.compile(schemaResolver(schema))
	return t
}

// Scan reads the listed columns of a table. A column may be renamed with
// "src AS alias" (needed for self joins).
func (p *Plan) Scan(t *storage.Table, cols ...string) *Node {
	n := &Node{plan: p, kind: nScan, table: t}
	for _, c := range cols {
		src, alias := c, c
		if i := strings.Index(strings.ToUpper(c), " AS "); i >= 0 {
			src, alias = strings.TrimSpace(c[:i]), strings.TrimSpace(c[i+4:])
		}
		ci := t.Col(src)
		n.scanSrc = append(n.scanSrc, ci)
		n.out = append(n.out, Reg{Name: alias, Type: typeOfCol(t.Schema[ci].Type)})
	}
	return n
}

// ScanStream reads the listed columns from a stream source instead of a
// static table: t is a schema-only stub that types the stream, and the
// rows arrive through src while the producer is still running — the
// receiving end of an exchange edge. Real mode only.
func (p *Plan) ScanStream(src *StreamSource, t *storage.Table, cols ...string) *Node {
	n := p.Scan(t, cols...)
	n.stream = src
	return n
}

// Filter keeps rows satisfying the predicate. Filters directly above a
// scan are fused into the scan pipeline (there are no operator boundaries
// inside a pipeline anyway; this merely avoids an extra closure).
func (n *Node) Filter(pred *Expr) *Node {
	mustBool(typeOf(pred, n.out), "filter predicate")
	if n.kind == nScan && n.filter == nil {
		n.filter = pred
		return n
	}
	if n.kind == nScan {
		n.filter = And(n.filter, pred)
		return n
	}
	return &Node{plan: n.plan, kind: nFilter, child: n, pred: pred, out: n.out}
}

// Map appends a computed column.
func (n *Node) Map(name string, e *Expr) *Node {
	t := typeOf(e, n.out)
	out := append(append([]Reg{}, n.out...), Reg{Name: name, Type: t})
	return &Node{plan: n.plan, kind: nMap, child: n, mapEx: N(name, e), out: out}
}

// HashJoin probes a hash table built over `build`. probeKeys and
// buildKeys are positionally matched equality keys; payload lists build
// columns carried into the output (inner/mark/outer joins only).
func (n *Node) HashJoin(build *Node, kind JoinKind, probeKeys, buildKeys []*Expr, payload ...string) *Node {
	if len(probeKeys) != len(buildKeys) || len(probeKeys) == 0 {
		panic("engine: join key lists must be equal-length and non-empty")
	}
	for i := range probeKeys {
		pt := typeOf(probeKeys[i], n.out)
		bt := typeOf(buildKeys[i], build.out)
		if pt != bt {
			panic(fmt.Sprintf("engine: join key %d type mismatch %v vs %v", i, pt, bt))
		}
	}
	if (kind == JoinSemi || kind == JoinAnti) && len(payload) > 0 {
		panic("engine: semi/anti joins carry no payload")
	}
	out := append([]Reg{}, n.out...)
	for _, name := range payload {
		_, t := schemaResolver(build.out).resolve(name)
		out = append(out, Reg{Name: name, Type: t})
	}
	return &Node{
		plan: n.plan, kind: nJoin, child: n, build: build,
		probeKeys: probeKeys, buildKeys: buildKeys, payload: payload,
		joinKind: kind, out: out,
	}
}

// WithAggAlgo selects the physical aggregation algorithm. Global
// aggregates (no group keys) always use the shared path — there is only
// one group, so partitioning is meaningless.
func (n *Node) WithAggAlgo(a AggAlgo) *Node {
	if n.kind != nAgg {
		panic("engine: WithAggAlgo on non-aggregation")
	}
	if a == AggPartitioned && len(n.groups) == 0 {
		panic("engine: partitioned aggregation requires group keys")
	}
	n.aggAlgo = a
	return n
}

// WithPhysNote records the aggregation-strategy rationale; Explain
// renders it after the operator description so plan pins can assert the
// cost justification, not just the outcome.
func (n *Node) WithPhysNote(why string) *Node {
	if n.kind != nAgg {
		panic("engine: WithPhysNote applies to aggregations")
	}
	n.physWhy = why
	return n
}

// WithResidual adds a non-equality predicate evaluated per candidate
// match; it may reference probe columns and payload columns. For
// semi/anti joins without payload it may reference the columns listed in
// the payload of the join's build schema — pass them via payload on a
// JoinSemi? Instead, semi/anti residuals reference build columns loaded
// into scratch payload registers; list those columns with
// ResidualPayload.
func (n *Node) WithResidual(e *Expr) *Node {
	if n.kind != nJoin {
		panic("engine: WithResidual on non-join")
	}
	n.residual = e
	return n
}

// ResidualPayload declares build columns needed only by the residual
// predicate of a semi/anti join. They are loaded into registers for the
// residual but are not part of the output schema.
func (n *Node) ResidualPayload(cols ...string) *Node {
	if n.kind != nJoin || (n.joinKind != JoinSemi && n.joinKind != JoinAnti) {
		panic("engine: ResidualPayload only applies to semi/anti joins")
	}
	n.payload = append(n.payload, cols...)
	return n
}

// Unmatched scans the build side of a JoinMark join after its probe
// completed, emitting the listed build columns of tuples that never
// matched (the second half of a build-side outer join).
func (p *Plan) Unmatched(join *Node, cols ...string) *Node {
	if join.kind != nJoin || join.joinKind != JoinMark {
		panic("engine: Unmatched requires a JoinMark join")
	}
	n := &Node{plan: p, kind: nUnmatched, joinRef: join, cols: cols}
	for _, c := range cols {
		_, t := schemaResolver(join.build.out).resolve(c)
		n.out = append(n.out, Reg{Name: c, Type: t})
	}
	return n
}

// Project narrows and reorders the output to the named columns. It is a
// pure schema operation: registers stay in place, only the result schema
// (what sinks materialize) changes, so it costs nothing at execution
// time. The SQL front end uses it to honor SELECT-list order.
func (n *Node) Project(cols ...string) *Node {
	if len(cols) == 0 {
		panic("engine: empty projection")
	}
	out := make([]Reg, len(cols))
	seen := make(map[string]bool, len(cols))
	for i, c := range cols {
		if seen[c] {
			panic(fmt.Sprintf("engine: duplicate column %q in projection", c))
		}
		seen[c] = true
		_, t := schemaResolver(n.out).resolve(c)
		out[i] = Reg{Name: c, Type: t}
	}
	return &Node{plan: n.plan, kind: nProject, child: n, cols: cols, out: out}
}

// Materialize buffers n's output once per execution; every consumer then
// scans the buffered rows. It is the plan-level sharing point for a
// common sub-plan referenced more than once (a view used twice — TPC-H
// Q15's revenue view): the subtree executes exactly once, so all
// consumers observe identical rows. That matters beyond cost: parallel
// floating-point aggregation is order-sensitive, so two recomputations
// of the same SUM can differ in the last bits — an equality between a
// view row and an aggregate over the view is only exact when both sides
// read one materialization.
func (p *Plan) Materialize(n *Node) *Node {
	return &Node{plan: p, kind: nMaterialize, child: n, out: n.out}
}

// GroupBy aggregates with the two-phase parallel algorithm (§4.4).
// Passing no groups computes a single global aggregate row.
func (n *Node) GroupBy(groups []NamedExpr, aggs []AggDef) *Node {
	var out []Reg
	for _, g := range groups {
		out = append(out, Reg{Name: g.Name, Type: typeOf(g.E, n.out)})
	}
	for _, a := range aggs {
		out = append(out, Reg{Name: a.Name, Type: aggOutType(a, n.out)})
	}
	return &Node{plan: n.plan, kind: nAgg, child: n, groups: groups, aggs: aggs, out: out}
}

func aggOutType(a AggDef, schema []Reg) Type {
	switch a.Kind {
	case AggCount:
		return TInt
	case AggAvg:
		return TFloat
	default:
		if a.E == nil {
			panic(fmt.Sprintf("engine: aggregate %q needs an expression", a.Name))
		}
		t := typeOf(a.E, schema)
		if t == TStr {
			panic(fmt.Sprintf("engine: aggregate %q over string", a.Name))
		}
		return t
	}
}

// Union concatenates nodes with identical output schemas. When one input
// is an Unmatched scan, list it after the join's probe path.
func (p *Plan) Union(nodes ...*Node) *Node {
	if len(nodes) == 0 {
		panic("engine: empty union")
	}
	first := nodes[0].out
	for _, n := range nodes[1:] {
		if len(n.out) != len(first) {
			panic("engine: union arity mismatch")
		}
		for i := range first {
			if n.out[i].Name != first[i].Name || n.out[i].Type != first[i].Type {
				panic(fmt.Sprintf("engine: union schema mismatch at %d: %v vs %v", i, n.out[i], first[i]))
			}
		}
	}
	return &Node{plan: p, kind: nUnion, children: nodes, out: first}
}

// Return sets the plan's result node.
func (p *Plan) Return(n *Node) *Plan {
	p.root = n
	return p
}

// LimitZero is the ReturnSorted limit value for an explicit LIMIT 0:
// the plan's schema is produced but no rows are returned. It is distinct
// from 0, which (for compatibility with hand-built plans) means "no
// limit".
const LimitZero = -1

// ReturnSorted sets the result node with a terminal ORDER BY and
// optional LIMIT (0 = no limit, LimitZero = return no rows), executed
// by the parallel sort operator (§4.5).
func (p *Plan) ReturnSorted(n *Node, limit int, keys ...SortKey) *Plan {
	for _, k := range keys {
		schemaResolver(n.out).resolve(k.Name)
	}
	p.root = n
	p.sortKeys = keys
	p.limit = limit
	return p
}

// OutputSchema returns the schema of the plan's result.
func (p *Plan) OutputSchema() []Reg {
	if p.root == nil {
		panic("engine: plan has no result node")
	}
	return p.root.out
}
