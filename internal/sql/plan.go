package sql

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/engine"
	"repro/internal/storage"
)

// Compile parses, binds, optimizes and lowers one SELECT statement into
// an executable engine plan. The result is a plain engine.Plan, so SQL
// queries execute exactly as morsel-driven as hand-built plans.
func Compile(query string, cat Catalog) (*engine.Plan, error) {
	return CompileNamed(query, "sql", cat)
}

// CompileNamed compiles with an explicit plan name (used by the server
// for stats labeling).
func CompileNamed(query, name string, cat Catalog) (*engine.Plan, error) {
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return PlanSelect(stmt, name, cat)
}

// Physical is empty and PlanSelectOpts ignores it; both exist only so
// the wall-clock benchmark (benchmark/layers.go), which may not change
// alongside the engine, keeps compiling. The engine picks each
// aggregation's table from its group estimate.
type Physical struct{}

// PlanSelectOpts is PlanSelect; see Physical.
func PlanSelectOpts(stmt *Select, name string, cat Catalog, _ Physical) (*engine.Plan, error) {
	return PlanSelect(stmt, name, cat)
}

// PlanSelect binds, optimizes and lowers a parsed statement.
func PlanSelect(stmt *Select, name string, cat Catalog) (p *engine.Plan, err error) {
	// The engine's plan builders report type errors by panicking (plan
	// literals are normally programmer-controlled); SQL comes from
	// clients, so convert the remaining panics into errors.
	defer func() {
		if r := recover(); r != nil {
			p, err = nil, fmt.Errorf("sql: invalid query: %v", r)
		}
	}()
	pl := &planner{cat: cat, name: name, ep: engine.NewPlan(name)}
	return pl.plan(stmt)
}

// maxSubDepth bounds planner recursion through scalar subqueries and
// derived tables (the parser's expression-depth guard bounds the same
// nesting syntactically; this is the semantic backstop).
const maxSubDepth = 16

// buildTree is the build side of one hash join: a relation's (filtered,
// pruned) scan, optionally probing nested builds of its own — the bushy
// dimension subtrees the hand-built TPC-H plans use (nation under
// customer under orders, all built before the fact table probes).
type buildTree struct {
	t     *baseTable
	steps []*joinStep // nested joins applied to t's pipeline
	est   float64     // estimated output cardinality of the subtree
}

// members appends the subtree's relations in probe-pipeline order.
func (bt *buildTree) members(out []*baseTable) []*baseTable {
	out = append(out, bt.t)
	for _, s := range bt.steps {
		out = s.tree.members(out)
	}
	return out
}

// joinStep is one hash join of a probe chain: the chain probes a hash
// table built over tree's output.
type joinStep struct {
	tree      *buildTree
	kind      engine.JoinKind
	probeKeys []Expr  // chain-side key expressions
	buildKeys []Expr  // tree-side key expressions
	est       float64 // estimated chain cardinality after this join
}

// subJoinSpec is a semi/anti join derived from EXISTS / IN (SELECT ...).
// Simple subqueries (one base table, no grouping) carry the table plus
// the correlation split; complex IN subqueries (grouped, HAVING, joined,
// nested subqueries in their WHERE, derived tables) are planned whole by
// a nested planner and carry the lowered build in node/buildReg instead.
type subJoinSpec struct {
	t         *baseTable
	anti      bool
	probeKeys []Expr
	buildKeys []Expr
	local     []Expr // build-only conjuncts
	residual  []Expr // conjuncts over probe and build columns
	resPay    map[string]bool
	sc        *scope // sub scope (build table + outer)

	node     *engine.Node // pre-planned build (complex IN subqueries)
	buildReg string       // its output register joined against

	// onScan is the relation whose scan the join runs on (placeSubs);
	// nil attaches it after the whole join chain.
	onScan *baseTable
}

func (s *subJoinSpec) kind() engine.JoinKind {
	if s.anti {
		return engine.JoinAnti
	}
	return engine.JoinSemi
}

// outerSpec is a LEFT OUTER JOIN appendage. The preserved side is the
// main chain; t is the nullable side. flag, when set, names a register
// that is 1 on matched rows and 0 on null-extended ones — COUNT over a
// column of t lowers to SUM(flag), reproducing SQL's count-non-NULL
// semantics in an engine without NULLs.
type outerSpec struct {
	t         *baseTable
	probeKeys []Expr
	buildKeys []Expr
	flag      string
}

// scalarSpec is one scalar subquery lowered to a build-side plan
// fragment: uncorrelated subqueries join through the k=1 cross-join
// trick (both sides gain a constant key), correlated ones group the
// subquery by its correlation columns and join on them. The delivered
// value lands in register outName.
type scalarSpec struct {
	at        *SubqueryExpr
	node      *engine.Node // lowered subquery (build side)
	outName   string       // register delivering the scalar value
	probeKeys []Expr       // outer correlation exprs (empty = uncorrelated)
	buildKeys []string     // inner group-key registers, parallel to probeKeys
	// countLike marks a bare COUNT subquery: its value on unmatched
	// probe rows is 0 (not NULL), so the attach join must preserve those
	// rows and zero-fill — engine.JoinOuterProbe does exactly that.
	countLike bool
}

// edge is one equality conjunct usable as a hash-join key pair.
type edge struct {
	conj   Expr
	l, r   Expr
	lt, rt map[*baseTable]bool
	used   bool
}

type planner struct {
	cat  Catalog
	name string
	// ep is the engine plan every lowered fragment lands in. Nested
	// planners (scalar subqueries, derived tables) share the enclosing
	// plan, so their pipelines schedule like any other build side.
	ep       *engine.Plan
	subDepth int

	sc     *scope
	inner  []*baseTable // join-graph relations (comma / INNER JOIN)
	outers []*outerSpec

	local    map[*baseTable][]Expr
	edges    []*edge
	residual []Expr
	subs     []*subJoinSpec

	// Scalar subqueries: scalars attach to the probe chain before
	// aggregation, postScalars after it (HAVING / select-list uses in
	// grouped queries). scalarRegs rewrites each occurrence to the
	// register its join delivers; scalarConjs are WHERE conjuncts
	// containing scalar subqueries, filtered after the attach joins.
	scalars     []*scalarSpec
	postScalars []*scalarSpec
	scalarRegs  map[string]string
	scalarConjs []Expr

	// countFlags maps astString(COUNT(col)) over a LEFT JOIN's nullable
	// column to the outer join's match-flag register.
	countFlags map[string]string

	// allRefs collects every referenced column per table: the pruned
	// scan list. lateRefs collects references occurring above the join
	// chain (select, group, having, order, residual filters, subquery
	// and outer-join probe sides): the payload candidates.
	allRefs  map[*baseTable]map[string]bool
	lateRefs map[*baseTable]map[string]bool

	// pipeRegs tracks the probe pipeline's register names with their
	// provider, to reject name collisions (e.g. two joined tables both
	// contributing a referenced column "name") at bind time — the
	// engine only detects duplicate registers by panicking during
	// compilation, outside PlanSelect's recover.
	pipeRegs map[string]string

	// cardMemo caches per-relation post-filter cardinality estimates
	// (the ordering loop asks repeatedly).
	cardMemo map[*baseTable]float64
}

// claimReg claims one register name in the given pipeline's register set.
func claimReg(regs map[string]string, name, provider string) error {
	if prev, ok := regs[name]; ok {
		return &ParseError{Msg: fmt.Sprintf(
			"column name %q is provided by both %s and %s; rename one side with AS (joined tables must not share referenced column names)",
			name, prev, provider)}
	}
	regs[name] = provider
	return nil
}

// addPipeReg claims one register name of the main probe pipeline.
func (pl *planner) addPipeReg(name, provider string) error {
	return claimReg(pl.pipeRegs, name, provider)
}

// plan lowers a complete top-level statement, including its terminal
// ORDER BY / LIMIT.
func (pl *planner) plan(stmt *Select) (*engine.Plan, error) {
	n, items, outputs, err := pl.planNode(stmt)
	if err != nil {
		return nil, err
	}
	return pl.finishPlan(n, stmt, items, outputs)
}

// planNode binds, optimizes and lowers one SELECT body to a plan node
// (everything except the terminal ORDER BY / LIMIT). Nested planners
// call it for scalar subqueries and derived tables.
func (pl *planner) planNode(stmt *Select) (*engine.Node, []SelectItem, []string, error) {
	if err := pl.bindFrom(stmt); err != nil {
		return nil, nil, nil, err
	}
	items, err := pl.expandStar(stmt)
	if err != nil {
		return nil, nil, nil, err
	}
	pl.local = make(map[*baseTable][]Expr)
	pl.allRefs = make(map[*baseTable]map[string]bool)
	pl.lateRefs = make(map[*baseTable]map[string]bool)
	pl.scalarRegs = make(map[string]string)
	pl.countFlags = make(map[string]string)

	// ---- classify WHERE (and inner ON) conjuncts: pushdown vs join
	// edge vs residual vs subquery join.
	var conjuncts []Expr
	for _, ft := range stmt.From {
		if ft.On != nil && ft.Join == "inner" {
			conjuncts = append(conjuncts, splitConjuncts(ft.On)...)
		}
	}
	conjuncts = append(conjuncts, splitConjuncts(stmt.Where)...)
	for _, c := range conjuncts {
		if err := pl.classify(c); err != nil {
			return nil, nil, nil, err
		}
	}

	// ---- LEFT JOIN ON clauses.
	for _, o := range pl.outers {
		if err := pl.bindOuterOn(o); err != nil {
			return nil, nil, nil, err
		}
	}

	// ---- scalar subqueries in the select list / HAVING, and COUNT
	// semantics over nullable LEFT JOIN columns.
	if err := pl.findItemScalars(stmt, items); err != nil {
		return nil, nil, nil, err
	}
	if err := pl.analyzeOuterCounts(stmt, items); err != nil {
		return nil, nil, nil, err
	}

	// ---- reference collection for projection pruning and payloads.
	outputs, err := outputNames(items)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, item := range items {
		if err := pl.noteRefs(item.E, true); err != nil {
			return nil, nil, nil, err
		}
	}
	for _, g := range stmt.GroupBy {
		// A bare column matching a select alias groups by that item's
		// expression (already noted above).
		if c, ok := g.(*Col); ok && c.Table == "" && containsStr(outputs, c.Name) {
			continue
		}
		if err := pl.noteRefs(g, true); err != nil {
			return nil, nil, nil, err
		}
	}
	if stmt.Having != nil {
		// HAVING may reference select aliases and aggregate outputs;
		// unresolvable names are validated post-aggregation where the
		// alias scope exists.
		pl.noteRefsLenient(stmt.Having)
	}
	for _, k := range stmt.OrderBy {
		// Order keys referencing select aliases or aggregates resolve
		// later; only note direct column references.
		if c, ok := k.E.(*Col); ok {
			if t, _ := pl.sc.resolve(c); t != nil {
				pl.note(t, c.Name, true)
			}
		}
	}
	for _, r := range pl.residual {
		if err := pl.noteRefs(r, true); err != nil {
			return nil, nil, nil, err
		}
	}
	for _, r := range pl.scalarConjs {
		if err := pl.noteRefs(r, true); err != nil {
			return nil, nil, nil, err
		}
	}
	for _, preds := range pl.local {
		for _, pr := range preds {
			if err := pl.noteRefs(pr, false); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	for _, e := range pl.edges {
		if err := pl.noteRefs(e.conj, false); err != nil {
			return nil, nil, nil, err
		}
	}
	// A subquery join on a relation's scan reads its probe keys there:
	// early references, not payload.
	root := pl.placeSubs()
	for _, s := range pl.subs {
		for _, k := range s.probeKeys {
			if err := pl.noteRefs(k, s.onScan == nil); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	for _, o := range pl.outers {
		for _, k := range o.probeKeys {
			if err := pl.noteRefs(k, true); err != nil {
				return nil, nil, nil, err
			}
		}
		// Build keys feed the nullable side's scan even when nothing else
		// references them.
		for _, k := range o.buildKeys {
			if err := pl.noteRefs(k, false); err != nil {
				return nil, nil, nil, err
			}
		}
	}

	// ---- per-relation column renaming: referenced columns provided by
	// more than one FROM relation get private registers.
	pl.renameDuplicateColumns()

	// ---- join order + build-side selection, then lower.
	steps, err := pl.orderJoins(root)
	if err != nil {
		return nil, nil, nil, err
	}
	n, err := pl.lowerChain(pl.ep, root, steps)
	if err != nil {
		return nil, nil, nil, err
	}
	n, err = pl.finishNode(n, stmt, items, outputs)
	if err != nil {
		return nil, nil, nil, err
	}
	return n, items, outputs, nil
}

func containsStr(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// bindFrom resolves FROM tables against the catalog.
func (pl *planner) bindFrom(stmt *Select) error {
	if len(stmt.From) == 0 {
		return &ParseError{Msg: "query has no FROM clause"}
	}
	pl.sc = &scope{}
	seen := map[string]bool{}
	for _, ft := range stmt.From {
		if ft.Sub != nil {
			if ft.Join == "left" {
				return &ParseError{Msg: "a derived table cannot be the nullable side of a LEFT JOIN", Line: ft.Line, Col: ft.Col}
			}
			if seen[ft.Alias] {
				return &ParseError{Msg: fmt.Sprintf("duplicate table %q in FROM (alias one of them)", ft.Alias), Line: ft.Line, Col: ft.Col}
			}
			seen[ft.Alias] = true
			if err := pl.bindDerived(ft); err != nil {
				return err
			}
			continue
		}
		t, ok := pl.cat(ft.Name)
		if !ok {
			return &ParseError{Msg: fmt.Sprintf("unknown table %q", ft.Name), Line: ft.Line, Col: ft.Col}
		}
		alias := ft.Alias
		if alias == "" {
			alias = ft.Name
		}
		if seen[alias] {
			return &ParseError{Msg: fmt.Sprintf("duplicate table %q in FROM (alias one of them)", alias), Line: ft.Line, Col: ft.Col}
		}
		seen[alias] = true
		bt := &baseTable{ref: ft, t: t, alias: alias, cols: map[string]int{}}
		for i, c := range t.Schema {
			bt.cols[c.Name] = i
		}
		pl.sc.tables = append(pl.sc.tables, bt)
		if ft.Join == "left" {
			pl.outers = append(pl.outers, &outerSpec{t: bt})
		} else {
			pl.inner = append(pl.inner, bt)
		}
	}
	return nil
}

// storageTypeOf maps an engine register type to its storage column type
// (dates are day-number ints throughout the system).
func storageTypeOf(t engine.Type) storage.ColType {
	switch t {
	case engine.TInt:
		return storage.I64
	case engine.TFloat:
		return storage.F64
	default:
		return storage.Str
	}
}

// bindDerived plans a FROM (SELECT ...) AS alias subquery into the
// shared engine plan and binds its output schema as a pseudo table, so
// the outer query resolves, filters and aggregates over it like any
// base relation.
func (pl *planner) bindDerived(ft FromTable) error {
	if pl.subDepth >= maxSubDepth {
		return &ParseError{Msg: "subqueries nest too deeply", Line: ft.Line, Col: ft.Col}
	}
	if len(ft.Sub.OrderBy) > 0 || ft.Sub.HasLimit {
		return &ParseError{Msg: "ORDER BY / LIMIT inside a derived table has no effect; move it to the outer query", Line: ft.Line, Col: ft.Col}
	}
	sp := &planner{cat: pl.cat, name: pl.name, ep: pl.ep, subDepth: pl.subDepth + 1}
	node, _, outs, err := sp.planNode(ft.Sub)
	if err != nil {
		return err
	}
	if len(ft.ColAliases) > 0 {
		if len(ft.ColAliases) != len(outs) {
			return &ParseError{Msg: fmt.Sprintf("derived table %q lists %d column aliases for %d output columns",
				ft.Alias, len(ft.ColAliases), len(outs)), Line: ft.Line, Col: ft.Col}
		}
		est := node.Est()
		adup := map[string]bool{}
		for i, alias := range ft.ColAliases {
			if adup[alias] {
				return &ParseError{Msg: fmt.Sprintf("duplicate column alias %q in derived table %q", alias, ft.Alias), Line: ft.Line, Col: ft.Col}
			}
			adup[alias] = true
			if alias != outs[i] {
				if containsStr(outs, alias) {
					return &ParseError{Msg: fmt.Sprintf("column alias %q collides with another output of derived table %q; rename inside the subquery", alias, ft.Alias), Line: ft.Line, Col: ft.Col}
				}
				node = node.Map(alias, engine.Col(outs[i])).SetEst(est)
			}
		}
		node = node.Project(ft.ColAliases...).SetEst(est)
		outs = ft.ColAliases
	}
	schema := make(storage.Schema, len(outs))
	for i, r := range node.Schema() {
		schema[i] = storage.ColDef{Name: r.Name, Type: storageTypeOf(r.Type)}
	}
	bt := &baseTable{
		ref: ft, t: &storage.Table{Name: ft.Alias, Schema: schema},
		alias: ft.Alias, cols: map[string]int{},
		derived: node, derivedEst: node.Est(),
	}
	for i, c := range schema {
		bt.cols[c.Name] = i
	}
	pl.sc.tables = append(pl.sc.tables, bt)
	pl.inner = append(pl.inner, bt)
	return nil
}

// renameDuplicateColumns assigns private registers ("$alias.col") to
// referenced columns that more than one FROM relation provides, so two
// roles of the same table (nation n1, nation n2 — TPC-H Q7/Q8) coexist
// in one pipeline. All expression binding goes through baseTable.reg,
// so qualified references resolve to the role's own register. Derived
// tables keep their output names (their registers are fixed by the
// subquery plan): a base/derived clash renames the base side only, and
// two derived tables sharing an output name still collide at register
// claim time with the rename-with-AS error.
func (pl *planner) renameDuplicateColumns() {
	providers := map[string][]*baseTable{}
	for _, t := range pl.sc.tables {
		for col := range pl.allRefs[t] {
			providers[col] = append(providers[col], t)
		}
	}
	for col, ts := range providers {
		if len(ts) < 2 {
			continue
		}
		for _, t := range ts {
			if t.derived != nil {
				continue
			}
			if t.regs == nil {
				t.regs = map[string]string{}
			}
			t.regs[col] = "$" + t.alias + "." + col
		}
	}
}

func (pl *planner) expandStar(stmt *Select) ([]SelectItem, error) {
	if !stmt.Star {
		return stmt.Items, nil
	}
	if len(stmt.GroupBy) > 0 {
		return nil, &ParseError{Msg: "SELECT * cannot be combined with GROUP BY"}
	}
	var items []SelectItem
	for _, t := range pl.sc.tables {
		for _, c := range t.t.Schema {
			// Qualified by the providing relation, so SELECT * works when
			// two relations share column names (self joins); outputNames
			// uniquifies the result names (id, id_2, ...).
			items = append(items, SelectItem{E: &Col{Table: t.alias, Name: c.Name}})
		}
	}
	return items, nil
}

// splitConjuncts flattens nested ANDs into a conjunct list.
func splitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*Bin); ok && b.Op == "and" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []Expr{e}
}

// tablesOf resolves every column of e in the planner scope and returns
// the owning tables. Unknown columns are an error.
func (pl *planner) tablesOf(e Expr) (map[*baseTable]bool, error) {
	out := map[*baseTable]bool{}
	var werr error
	walk(e, func(x Expr) {
		if werr != nil {
			return
		}
		if c, ok := x.(*Col); ok {
			t, _, err := pl.sc.resolveUp(c)
			if err != nil {
				werr = err
				return
			}
			out[t] = true
		}
	})
	return out, werr
}

// note records a column reference for scan pruning (and, when late, for
// join payloads).
func (pl *planner) note(t *baseTable, col string, late bool) {
	m := pl.allRefs[t]
	if m == nil {
		m = map[string]bool{}
		pl.allRefs[t] = m
	}
	m[col] = true
	if late {
		m = pl.lateRefs[t]
		if m == nil {
			m = map[string]bool{}
			pl.lateRefs[t] = m
		}
		m[col] = true
	}
}

// noteRefsLenient notes resolvable columns and silently skips names
// that only exist post-aggregation (aliases, aggregate outputs).
func (pl *planner) noteRefsLenient(e Expr) {
	walk(e, func(x Expr) {
		if c, ok := x.(*Col); ok {
			if t, _ := pl.sc.resolve(c); t != nil {
				pl.note(t, c.Name, true)
			}
		}
	})
}

func (pl *planner) noteRefs(e Expr, late bool) error {
	var werr error
	walk(e, func(x Expr) {
		if werr != nil {
			return
		}
		if c, ok := x.(*Col); ok {
			t, _, err := pl.sc.resolveUp(c)
			if err != nil {
				werr = err
				return
			}
			pl.note(t, c.Name, late)
		}
	})
	return werr
}

// classify routes one WHERE conjunct: subquery join, single-table filter
// (pushed below joins), two-sided equality (join edge), or residual.
func (pl *planner) classify(c Expr) error {
	// Normalize NOT(EXISTS ...) / NOT(x IN ...) written with explicit
	// parentheses.
	if n, ok := c.(*Not); ok {
		switch inner := n.E.(type) {
		case *Exists:
			c = &Exists{position: inner.position, Sub: inner.Sub, Invert: !inner.Invert}
		case *InSelect:
			c = &InSelect{position: inner.position, E: inner.E, Sub: inner.Sub, Invert: !inner.Invert}
		}
	}
	switch x := c.(type) {
	case *Exists:
		return pl.bindSubquery(x.Sub, nil, x.Invert, x)
	case *InSelect:
		return pl.bindSubquery(x.Sub, x.E, x.Invert, x)
	}
	if containsAgg(c) {
		return errAt(c, "aggregates are not allowed in WHERE (use HAVING)")
	}
	if sub := firstScalarSub(c); sub != nil {
		// The conjunct compares against scalar subquery values: plan each
		// subquery as a build fragment and evaluate the conjunct after
		// the attach joins deliver the values.
		var werr error
		walk(c, func(x Expr) {
			if werr != nil {
				return
			}
			if s, ok := x.(*SubqueryExpr); ok {
				var spec *scalarSpec
				if spec, werr = pl.processScalarSub(s, false); werr != nil {
					return
				}
				// A correlated non-COUNT scalar has no representable
				// value on unmatched rows (SQL says NULL); the inner
				// attach join drops them instead, which matches SQL's
				// three-valued logic only when the whole conjunct is a
				// plain comparison that would evaluate to unknown →
				// not-selected. Under OR/NOT the row could survive in
				// SQL, so reject rather than silently drop it.
				if len(spec.probeKeys) > 0 && !spec.countLike && !nullRejecting(c) {
					werr = errAt(s, "a correlated non-COUNT scalar subquery is only supported in a plain comparison conjunct (under OR/NOT its NULL-on-unmatched value could keep the row, which the engine cannot represent)")
				}
			}
		})
		if werr != nil {
			return werr
		}
		pl.scalarConjs = append(pl.scalarConjs, c)
		return nil
	}
	tabs, err := pl.tablesOf(c)
	if err != nil {
		return err
	}
	for t := range tabs {
		if pl.isOuterTable(t) {
			// Filters over LEFT JOIN columns must not be pushed below
			// the preserving join; evaluate them after it.
			pl.residual = append(pl.residual, c)
			return nil
		}
	}
	switch len(tabs) {
	case 0:
		pl.residual = append(pl.residual, c)
		return nil
	case 1:
		for t := range tabs {
			pl.local[t] = append(pl.local[t], c)
		}
		return nil
	}
	if b, ok := c.(*Bin); ok && b.Op == "=" {
		lt, lerr := pl.tablesOf(b.L)
		rt, rerr := pl.tablesOf(b.R)
		if lerr == nil && rerr == nil && len(lt) > 0 && len(rt) > 0 && disjoint(lt, rt) &&
			(len(lt) == 1 || len(rt) == 1) {
			pl.edges = append(pl.edges, &edge{conj: c, l: b.L, r: b.R, lt: lt, rt: rt})
			return nil
		}
	}
	pl.residual = append(pl.residual, c)
	return nil
}

func (pl *planner) isOuterTable(t *baseTable) bool {
	for _, o := range pl.outers {
		if o.t == t {
			return true
		}
	}
	return false
}

func disjoint(a, b map[*baseTable]bool) bool {
	for t := range a {
		if b[t] {
			return false
		}
	}
	return true
}

// bindOuterOn splits a LEFT JOIN's ON clause into build-side filters and
// equality key pairs.
func (pl *planner) bindOuterOn(o *outerSpec) error {
	if o.t.ref.On == nil {
		return &ParseError{Msg: fmt.Sprintf("LEFT JOIN %q needs an ON clause", o.t.alias), Line: o.t.ref.Line, Col: o.t.ref.Col}
	}
	for _, c := range splitConjuncts(o.t.ref.On) {
		tabs, err := pl.tablesOf(c)
		if err != nil {
			return err
		}
		if len(tabs) == 1 && tabs[o.t] {
			pl.local[o.t] = append(pl.local[o.t], c)
			continue
		}
		b, ok := c.(*Bin)
		if ok && b.Op == "=" {
			lt, _ := pl.tablesOf(b.L)
			rt, _ := pl.tablesOf(b.R)
			switch {
			case len(rt) == 1 && rt[o.t] && !lt[o.t]:
				o.probeKeys = append(o.probeKeys, b.L)
				o.buildKeys = append(o.buildKeys, b.R)
				continue
			case len(lt) == 1 && lt[o.t] && !rt[o.t]:
				o.probeKeys = append(o.probeKeys, b.R)
				o.buildKeys = append(o.buildKeys, b.L)
				continue
			}
		}
		return errAt(c, "unsupported LEFT JOIN condition (want equality key pairs and build-side filters)")
	}
	if len(o.probeKeys) == 0 {
		return &ParseError{Msg: fmt.Sprintf("LEFT JOIN %q has no equality key in ON", o.t.alias), Line: o.t.ref.Line, Col: o.t.ref.Col}
	}
	return nil
}

// complexSub reports whether an EXISTS / IN subquery needs the general
// planning path: grouping, HAVING, explicit joins, several relations,
// derived tables, or subqueries nested inside its own WHERE.
func complexSub(sub *Select) bool {
	if len(sub.From) != 1 || sub.From[0].Sub != nil || sub.From[0].Join != "" ||
		len(sub.GroupBy) > 0 || sub.Having != nil {
		return true
	}
	nested := false
	for _, c := range splitConjuncts(sub.Where) {
		walk(c, func(x Expr) {
			switch x.(type) {
			case *Exists, *InSelect, *SubqueryExpr:
				nested = true
			}
		})
	}
	return nested
}

// bindGeneralIn plans a complex IN subquery whole — parse tree through
// the nested planner, grouping, HAVING, its own subqueries and all —
// and joins the outer expression against its single output column as a
// semi (IN) or anti (NOT IN) hash join. The subquery must be
// uncorrelated: it is planned in its own scope, so outer column
// references fail to resolve.
func (pl *planner) bindGeneralIn(sub *Select, inExpr Expr, invert bool, at Expr) error {
	if pl.subDepth >= maxSubDepth {
		return errAt(at, "subqueries nest too deeply")
	}
	if len(sub.OrderBy) > 0 || sub.HasLimit {
		return errAt(at, "ORDER BY / LIMIT inside an IN subquery has no effect; remove it")
	}
	if sub.Star || len(sub.Items) != 1 {
		return errAt(at, "IN subqueries must select exactly one column")
	}
	if containsAgg(inExpr) {
		return errAt(inExpr, "aggregates are not allowed in IN expressions")
	}
	sp := &planner{cat: pl.cat, name: pl.name, ep: pl.ep, subDepth: pl.subDepth + 1}
	node, _, outs, err := sp.planNode(sub)
	if err != nil {
		return err
	}
	pl.subs = append(pl.subs, &subJoinSpec{
		anti:      invert,
		probeKeys: []Expr{inExpr},
		node:      node,
		buildReg:  outs[0],
	})
	return nil
}

// bindSubquery turns EXISTS / IN (SELECT ...) into a semi or anti join
// spec: correlation equalities become key pairs, build-only conjuncts
// filter the build scan, and mixed conjuncts become join residuals.
// Complex IN subqueries route through bindGeneralIn.
func (pl *planner) bindSubquery(sub *Select, inExpr Expr, invert bool, at Expr) error {
	if complexSub(sub) {
		if inExpr == nil {
			return errAt(at, "EXISTS subqueries must scan exactly one base table (grouped, joined or nested subqueries are only supported with IN)")
		}
		return pl.bindGeneralIn(sub, inExpr, invert, at)
	}
	// complexSub already routed grouped/HAVING bodies away; only the
	// pointless trailing clauses remain to validate here.
	if len(sub.OrderBy) > 0 || sub.HasLimit {
		return errAt(at, "ORDER BY / LIMIT inside an EXISTS/IN subquery has no effect; remove it")
	}
	ft := sub.From[0]
	tab, ok := pl.cat(ft.Name)
	if !ok {
		return &ParseError{Msg: fmt.Sprintf("unknown table %q", ft.Name), Line: ft.Line, Col: ft.Col}
	}
	alias := ft.Alias
	if alias == "" {
		alias = ft.Name
	}
	bt := &baseTable{ref: ft, t: tab, alias: alias, cols: map[string]int{}}
	for i, c := range tab.Schema {
		bt.cols[c.Name] = i
	}
	spec := &subJoinSpec{
		t: bt, anti: invert, resPay: map[string]bool{},
		sc: &scope{tables: []*baseTable{bt}, outer: pl.sc},
	}
	if inExpr != nil {
		// x IN (SELECT col FROM ...): the select column is a build key.
		if sub.Star || len(sub.Items) != 1 {
			return errAt(at, "IN subqueries must select exactly one column")
		}
		c, ok := sub.Items[0].E.(*Col)
		if !ok {
			return errAt(sub.Items[0].E, "IN subqueries must select a plain column")
		}
		if owner, err := spec.sc.resolve(c); err != nil {
			return err
		} else if owner == nil {
			return errAt(c, "unknown column %q in subquery table %q", c.Name, alias)
		}
		if containsAgg(inExpr) {
			return errAt(inExpr, "aggregates are not allowed in IN expressions")
		}
		spec.probeKeys = append(spec.probeKeys, inExpr)
		spec.buildKeys = append(spec.buildKeys, c)
	}
	for _, c := range splitConjuncts(sub.Where) {
		inner, outer, err := spec.splitRefs(c)
		if err != nil {
			return err
		}
		switch {
		case !outer:
			spec.local = append(spec.local, c)
			continue
		case !inner:
			return errAt(c, "subquery predicates must reference the subquery table")
		}
		if b, ok := c.(*Bin); ok && b.Op == "=" {
			li, lo, _ := spec.splitRefs(b.L)
			ri, ro, _ := spec.splitRefs(b.R)
			switch {
			case ri && !ro && !li:
				spec.probeKeys = append(spec.probeKeys, b.L)
				spec.buildKeys = append(spec.buildKeys, b.R)
				continue
			case li && !lo && !ri:
				spec.probeKeys = append(spec.probeKeys, b.R)
				spec.buildKeys = append(spec.buildKeys, b.L)
				continue
			}
		}
		// Mixed, non-equality correlation: join residual over probe
		// registers plus build columns loaded for the residual. Outer
		// columns referenced only here still need to reach the probe
		// pipeline — note them as late references.
		spec.residual = append(spec.residual, c)
		var werr error
		walk(c, func(x Expr) {
			cc, ok := x.(*Col)
			if !ok || werr != nil {
				return
			}
			owner, depth, err := spec.sc.resolveUp(cc)
			if err != nil {
				werr = err
				return
			}
			if depth == 0 && owner == bt {
				spec.resPay[cc.Name] = true
			} else {
				pl.note(owner, cc.Name, true)
			}
		})
		if werr != nil {
			return werr
		}
	}
	if len(spec.probeKeys) == 0 {
		return errAt(at, "EXISTS subqueries must be correlated through at least one equality with the outer query")
	}
	pl.subs = append(pl.subs, spec)
	return nil
}

// containsColName reports whether any expression references a column of
// the given (subquery-local) name.
func containsColName(es []Expr, name string) bool {
	found := false
	for _, e := range es {
		walk(e, func(x Expr) {
			if c, ok := x.(*Col); ok && c.Name == name {
				found = true
			}
		})
	}
	return found
}

// splitRefs reports whether e references subquery-table columns and/or
// outer columns.
func (s *subJoinSpec) splitRefs(e Expr) (inner, outer bool, err error) {
	walk(e, func(x Expr) {
		if err != nil {
			return
		}
		c, ok := x.(*Col)
		if !ok {
			return
		}
		t, depth, rerr := s.sc.resolveUp(c)
		if rerr != nil {
			err = rerr
			return
		}
		if depth == 0 && t == s.t {
			inner = true
		} else {
			outer = true
		}
	})
	return inner, outer, err
}

// firstScalarSub returns the first scalar subquery in e, or nil.
func firstScalarSub(e Expr) *SubqueryExpr {
	var found *SubqueryExpr
	walk(e, func(x Expr) {
		if s, ok := x.(*SubqueryExpr); ok && found == nil {
			found = s
		}
	})
	return found
}

// nullRejecting reports whether the conjunct is a plain comparison (or
// BETWEEN): shapes that evaluate to unknown → not-selected when an
// operand is SQL-NULL, so dropping unmatched rows at the attach join is
// observationally equivalent.
func nullRejecting(c Expr) bool {
	switch x := c.(type) {
	case *Bin:
		switch x.Op {
		case "=", "<>", "<", "<=", ">", ">=":
			return true
		}
	case *Between:
		return !x.Invert
	}
	return false
}

// andExprs rebuilds a conjunction from a conjunct list (nil for empty).
func andExprs(conjs []Expr) Expr {
	var out Expr
	for _, c := range conjs {
		if out == nil {
			out = c
			continue
		}
		line, col := c.pos()
		out = &Bin{position: position{Line: line, Col: col}, Op: "and", L: out, R: c}
	}
	return out
}

// findItemScalars routes scalar subqueries appearing in the select list
// and HAVING. In a grouped query they attach after aggregation (the k=1
// join runs over group rows — Q11's HAVING against a grand total);
// subqueries inside aggregate arguments attach before it. GROUP BY may
// not contain them at all.
func (pl *planner) findItemScalars(stmt *Select, items []SelectItem) error {
	for _, g := range stmt.GroupBy {
		if s := firstScalarSub(g); s != nil {
			return errAt(s, "scalar subqueries are not supported in GROUP BY")
		}
	}
	for _, k := range stmt.OrderBy {
		if s := firstScalarSub(k.E); s != nil {
			return errAt(s, "scalar subqueries are not supported in ORDER BY; select the value with an alias and order by the alias")
		}
	}
	aggMode := len(stmt.GroupBy) > 0
	for _, item := range items {
		if containsAgg(item.E) {
			aggMode = true
		}
	}
	// Subqueries inside aggregate arguments bind pre-aggregation.
	inAgg := map[int]bool{}
	markAggArgs := func(e Expr) {
		walk(e, func(x Expr) {
			if c, ok := x.(*Call); ok && isAggCall(c) {
				for _, a := range c.Args {
					walk(a, func(y Expr) {
						if s, ok := y.(*SubqueryExpr); ok {
							inAgg[s.ID] = true
						}
					})
				}
			}
		})
	}
	process := func(e Expr) error {
		markAggArgs(e)
		var werr error
		walk(e, func(x Expr) {
			if werr != nil {
				return
			}
			if s, ok := x.(*SubqueryExpr); ok {
				var spec *scalarSpec
				if spec, werr = pl.processScalarSub(s, aggMode && !inAgg[s.ID]); werr != nil {
					return
				}
				// Outside WHERE, a correlated scalar's value is observed
				// on every row: only a bare COUNT has a representable
				// (zero) value for rows without a match.
				if len(spec.probeKeys) > 0 && !spec.countLike {
					werr = errAt(s, "a correlated scalar subquery outside WHERE must be a single COUNT (other aggregates would be NULL for unmatched rows, which the engine cannot represent)")
				}
			}
		})
		return werr
	}
	for _, item := range items {
		if err := process(item.E); err != nil {
			return err
		}
	}
	if stmt.Having != nil {
		if err := process(stmt.Having); err != nil {
			return err
		}
	}
	return nil
}

// processScalarSub plans one scalar subquery occurrence. The subquery
// must compute a single aggregate row — that is what makes it scalar
// without NULL machinery. Uncorrelated subqueries later join via the
// k=1 cross-join trick; correlated ones are decorrelated by grouping on
// their correlation columns (inner-column = outer-expression equalities)
// and joining on those keys.
func (pl *planner) processScalarSub(x *SubqueryExpr, postAgg bool) (*scalarSpec, error) {
	if pl.subDepth >= maxSubDepth {
		return nil, errAt(x, "subqueries nest too deeply")
	}
	sub := x.Sub
	switch {
	case sub.Star || len(sub.Items) != 1:
		return nil, errAt(x, "a scalar subquery must select exactly one expression")
	case !containsAgg(sub.Items[0].E):
		return nil, errAt(x, "a scalar subquery must compute an aggregate (the engine's single-row guarantee)")
	case len(sub.GroupBy) > 0 || sub.Having != nil:
		return nil, errAt(x, "GROUP BY / HAVING inside a scalar subquery could yield several rows; correlate it instead")
	case len(sub.OrderBy) > 0 || sub.HasLimit || sub.Distinct:
		return nil, errAt(x, "ORDER BY / LIMIT / DISTINCT are meaningless in a single-row scalar subquery")
	}
	outName := fmt.Sprintf("$scalar%d", x.ID)
	for _, ft := range sub.From {
		if ft.Sub != nil {
			// The subquery ranges over a derived table (Q15's MAX over the
			// revenue view): plan the whole body with a nested planner.
			// Correlation into the enclosing query is not supported here —
			// the nested scope has no outer, so such references fail to
			// resolve with a positioned error.
			return pl.planScalarOverDerived(x, sub, outName, postAgg)
		}
	}
	// Bind the subquery's FROM for correlation splitting.
	subSc := &scope{outer: pl.sc}
	for _, ft := range sub.From {
		t, ok := pl.cat(ft.Name)
		if !ok {
			return nil, &ParseError{Msg: fmt.Sprintf("unknown table %q", ft.Name), Line: ft.Line, Col: ft.Col}
		}
		alias := ft.Alias
		if alias == "" {
			alias = ft.Name
		}
		bt := &baseTable{ref: ft, t: t, alias: alias, cols: map[string]int{}}
		for i, c := range t.Schema {
			bt.cols[c.Name] = i
		}
		subSc.tables = append(subSc.tables, bt)
	}
	refSides := func(e Expr) (inner, outer bool, err error) {
		walk(e, func(cx Expr) {
			if err != nil {
				return
			}
			c, ok := cx.(*Col)
			if !ok {
				return
			}
			_, depth, rerr := subSc.resolveUp(c)
			if rerr != nil {
				err = rerr
				return
			}
			if depth == 0 {
				inner = true
			} else {
				outer = true
			}
		})
		return inner, outer, err
	}
	var locals []Expr
	var probeKeys []Expr
	var corrCols []*Col
	for _, c := range splitConjuncts(sub.Where) {
		if s := firstScalarSub(c); s != nil {
			return nil, errAt(s, "scalar subqueries cannot nest inside another scalar subquery's WHERE")
		}
		_, outer, err := refSides(c)
		if err != nil {
			return nil, err
		}
		if !outer {
			locals = append(locals, c)
			continue
		}
		b, ok := c.(*Bin)
		if ok && b.Op == "=" {
			li, lo, _ := refSides(b.L)
			ri, ro, _ := refSides(b.R)
			lc, lIsCol := b.L.(*Col)
			rc, rIsCol := b.R.(*Col)
			switch {
			case rIsCol && ri && !ro && !li:
				probeKeys = append(probeKeys, b.L)
				corrCols = append(corrCols, rc)
				continue
			case lIsCol && li && !lo && !ri:
				probeKeys = append(probeKeys, b.R)
				corrCols = append(corrCols, lc)
				continue
			}
		}
		return nil, errAt(c, "unsupported correlated predicate in a scalar subquery (want subquery-column = outer-expression equalities)")
	}
	if postAgg && len(probeKeys) > 0 {
		return nil, errAt(x, "a correlated scalar subquery is only supported in WHERE (not in the select list or HAVING of a grouped query)")
	}
	// A bare COUNT subquery is 0 — not NULL — on unmatched rows, which
	// the outer-probe attach join's zero-fill reproduces exactly.
	countLike := false
	if c, ok := sub.Items[0].E.(*Call); ok && c.Name == "COUNT" {
		countLike = true
	}
	synth := &Select{From: sub.From, Where: andExprs(locals)}
	var buildKeys []string
	keySeen := map[string]bool{}
	for _, bc := range corrCols {
		if !keySeen[bc.Name] {
			keySeen[bc.Name] = true
			synth.Items = append(synth.Items, SelectItem{E: bc})
			synth.GroupBy = append(synth.GroupBy, bc)
		}
		buildKeys = append(buildKeys, bc.Name)
	}
	synth.Items = append(synth.Items, SelectItem{E: sub.Items[0].E, As: outName})
	sp := &planner{cat: pl.cat, name: pl.name, ep: pl.ep, subDepth: pl.subDepth + 1}
	node, _, _, err := sp.planNode(synth)
	if err != nil {
		return nil, err
	}
	// Outer columns the correlation keys read must reach the probe
	// pipeline.
	for _, pk := range probeKeys {
		if err := pl.noteRefs(pk, true); err != nil {
			return nil, err
		}
	}
	return pl.registerScalar(&scalarSpec{at: x, node: node, outName: outName,
		probeKeys: probeKeys, buildKeys: buildKeys, countLike: countLike}, postAgg), nil
}

// registerScalar books one lowered scalar subquery: the occurrence
// rewrites to its value register, and the spec queues for attachment
// before (WHERE, aggregate arguments) or after (select list / HAVING of
// a grouped query) aggregation.
func (pl *planner) registerScalar(spec *scalarSpec, postAgg bool) *scalarSpec {
	pl.scalarRegs[astString(spec.at)] = spec.outName
	if postAgg {
		pl.postScalars = append(pl.postScalars, spec)
	} else {
		pl.scalars = append(pl.scalars, spec)
	}
	return spec
}

// planScalarOverDerived plans an uncorrelated scalar subquery whose FROM
// contains a derived table. When the derived body is identical to a
// derived table of the outer FROM, the aggregate computes over that
// SAME fragment, materialized once (shareScalarView). Otherwise the
// whole body (derived table, filters, the single aggregate) lowers
// through a nested planner into the shared plan. Either way the one-row
// result attaches with the k=1 cross-join trick.
func (pl *planner) planScalarOverDerived(x *SubqueryExpr, sub *Select, outName string, postAgg bool) (*scalarSpec, error) {
	if spec, ok := pl.shareScalarView(x, sub, outName, postAgg); ok {
		return spec, nil
	}
	synth := &Select{
		From:  sub.From,
		Where: sub.Where,
		Items: []SelectItem{{E: sub.Items[0].E, As: outName}},
	}
	sp := &planner{cat: pl.cat, name: pl.name, ep: pl.ep, subDepth: pl.subDepth + 1}
	node, _, _, err := sp.planNode(synth)
	if err != nil {
		return nil, err
	}
	countLike := false
	if c, ok := sub.Items[0].E.(*Call); ok && c.Name == "COUNT" {
		countLike = true
	}
	return pl.registerScalar(&scalarSpec{at: x, node: node, outName: outName, countLike: countLike}, postAgg), nil
}

// shareScalarView recognizes (SELECT agg(v.col) FROM <derived> AS v)
// whose derived body is byte-identical (canonically rendered) to a
// derived table of the outer FROM — the shape produced by substituting
// one view definition twice, TPC-H Q15's revenue view — and aggregates
// over that same fragment, wrapped in engine.Materialize so it executes
// once. Sharing is not just cheaper: parallel floating-point summation
// is order-sensitive, so only identical rows make an outer equality
// against the aggregate (total_revenue = MAX(total_revenue)) exact.
func (pl *planner) shareScalarView(x *SubqueryExpr, sub *Select, outName string, postAgg bool) (*scalarSpec, bool) {
	if len(sub.From) != 1 || sub.From[0].Sub == nil || sub.Where != nil {
		return nil, false
	}
	ft := sub.From[0]
	call, ok := sub.Items[0].E.(*Call)
	if !ok || !isAggCall(call) || call.Star || call.Distinct || len(call.Args) != 1 {
		return nil, false
	}
	col, ok := call.Args[0].(*Col)
	if !ok || (col.Table != "" && col.Table != ft.Alias) {
		return nil, false
	}
	body := selString(ft.Sub)
	for _, bt := range pl.sc.tables {
		if bt.derived == nil || bt.ref.Sub == nil {
			continue
		}
		if selString(bt.ref.Sub) != body || !slices.Equal(bt.ref.ColAliases, ft.ColAliases) {
			continue
		}
		if _, ok := bt.cols[col.Name]; !ok {
			continue
		}
		if !bt.materialized {
			est := bt.derived.Est()
			bt.derived = pl.ep.Materialize(bt.derived).SetEst(est)
			bt.materialized = true
		}
		def := engine.AggDef{Name: outName, Kind: aggFuncs[call.Name], E: engine.Col(col.Name)}
		node := bt.derived.GroupBy(nil, []engine.AggDef{def}).SetEst(1)
		spec := &scalarSpec{at: x, node: node, outName: outName, countLike: call.Name == "COUNT"}
		return pl.registerScalar(spec, postAgg), true
	}
	return nil, false
}

// analyzeOuterCounts handles SQL's NULL-aware aggregate semantics over
// a LEFT JOIN's nullable columns in an engine without NULLs: COUNT(col)
// maps to the join's 0/1 match flag (null-extended rows contribute 0,
// not 1); SUM needs nothing (zero-extension adds 0); AVG/MIN/MAX would
// silently aggregate the phantom zeros, so they are rejected. COUNT(*)
// counts every row, including null-extended ones — a plain count.
func (pl *planner) analyzeOuterCounts(stmt *Select, items []SelectItem) error {
	if len(pl.outers) == 0 {
		return nil
	}
	check := func(e Expr) error {
		var werr error
		walk(e, func(x Expr) {
			if werr != nil {
				return
			}
			c, ok := x.(*Call)
			if !ok || !isAggCall(c) || c.Star || len(c.Args) != 1 {
				return
			}
			tabs, err := pl.tablesOf(c.Args[0])
			if err != nil {
				return // post-aggregation names; validated later
			}
			var outer *outerSpec
			for t := range tabs {
				for _, o := range pl.outers {
					if o.t == t {
						outer = o
					}
				}
			}
			if outer == nil {
				return
			}
			switch {
			case c.Name == "AVG" || c.Name == "MIN" || c.Name == "MAX":
				werr = errAt(c, "%s over a LEFT JOIN's nullable column would aggregate zero-filled unmatched rows (SQL ignores NULLs); filter the join to an inner join or restructure with a derived table", c.Name)
				return
			case c.Distinct:
				// The two-phase dedup lowering never reads countFlags, so
				// the zero-extension value would count as a real distinct
				// value; reject rather than silently over-count.
				werr = errAt(c, "COUNT(DISTINCT ...) over a LEFT JOIN's nullable column would count zero-filled unmatched rows as a distinct value; restructure with a derived table")
				return
			case c.Name == "SUM":
				return // zero-extension contributes 0: SQL-equivalent
			}
			if _, isCol := c.Args[0].(*Col); !isCol || len(tabs) != 1 {
				werr = errAt(c, "COUNT over an expression mixing LEFT JOIN columns is not supported; COUNT a plain column of the joined table")
				return
			}
			if outer.flag == "" {
				outer.flag = fmt.Sprintf("$match%d", len(pl.countFlags)+1)
			}
			pl.countFlags[astString(c)] = outer.flag
		})
		return werr
	}
	for _, item := range items {
		if err := check(item.E); err != nil {
			return err
		}
	}
	if stmt.Having != nil {
		if err := check(stmt.Having); err != nil {
			return err
		}
	}
	return nil
}

// probeRoot picks the relation with the largest estimated *post-filter*
// cardinality to drive the probe pipeline (morsel parallelism scales
// with probe size).
func (pl *planner) probeRoot() *baseTable {
	root := pl.inner[0]
	for _, t := range pl.inner[1:] {
		if pl.baseCard(t) > pl.baseCard(root) {
			root = t
		}
	}
	return root
}

// placeSubs puts each subquery semi/anti join whose probe keys all read
// one inner relation T on T's scan, so the join filters T before T's own
// joins and its selectivity counts in T's estimate (baseCard) — Q18's
// IN (... HAVING ...) then shrinks the orders build instead of the
// finished chain. A join with a residual, one over the probe root, and
// one keyed on LEFT JOIN columns stay after the chain. It returns the
// probe root, chosen with the placed joins' selectivity.
func (pl *planner) placeSubs() *baseTable {
	for _, s := range pl.subs {
		s.onScan = pl.subOwner(s)
	}
	root := pl.probeRoot()
	for _, s := range pl.subs {
		if s.onScan == root {
			s.onScan = nil
			delete(pl.cardMemo, root)
		}
	}
	return root
}

// subOwner returns the inner relation owning every probe-key column of a
// residual-free subquery join, or nil.
func (pl *planner) subOwner(s *subJoinSpec) *baseTable {
	if len(s.residual) > 0 {
		return nil
	}
	var owner *baseTable
	mixed := false
	for _, k := range s.probeKeys {
		walk(k, func(x Expr) {
			if c, ok := x.(*Col); ok {
				t, _, err := pl.sc.resolveUp(c)
				if err != nil || (owner != nil && t != owner) {
					mixed = true
				}
				owner = t
			}
		})
	}
	if mixed || !slices.Contains(pl.inner, owner) {
		return nil
	}
	return owner
}

// orderJoins picks the join order cost-based: builds attach to the probe
// root greedily by smallest estimated join output, so the most selective
// dimensions filter the chain first. Relations that can only reach the
// chain through their pick are folded into its build subtree (bushy
// dimension subtrees, matching the hand-built TPC-H plans).
func (pl *planner) orderJoins(root *baseTable) ([]*joinStep, error) {
	if len(pl.inner) == 1 {
		return nil, nil
	}
	chain := map[*baseTable]bool{root: true}
	avail := map[*baseTable]bool{}
	for _, t := range pl.inner {
		if t != root {
			avail[t] = true
		}
	}
	chainCard := pl.baseCard(root)
	steps := pl.attach(chain, avail, &chainCard)
	for _, t := range pl.inner {
		if avail[t] {
			return nil, &ParseError{
				Msg:  fmt.Sprintf("table %q is not connected to the rest of the query by any equality join predicate (cross joins are not supported)", t.alias),
				Line: t.ref.Line, Col: t.ref.Col,
			}
		}
	}
	// Equalities never consumed (both sides ended up inside the chain
	// before either was a build) fall back to residual filters.
	for _, e := range pl.edges {
		if !e.used {
			pl.residual = append(pl.residual, e.conj)
			if err := pl.noteRefs(e.conj, true); err != nil {
				return nil, err
			}
		}
	}
	return steps, nil
}

// attach greedily joins available relations into the chain whose current
// estimated cardinality is *chainCard, consuming join edges and members
// from avail. Each iteration considers every relation joinable to the
// chain, estimates the join's output cardinality, and picks the smallest
// (ties: smaller post-filter build, then FROM order — deterministic).
// Before the pick becomes a build it recursively absorbs its dominated
// dimension subtree. Used for the fact chain and, recursively, inside
// each build subtree.
func (pl *planner) attach(chain, avail map[*baseTable]bool, chainCard *float64) []*joinStep {
	var steps []*joinStep
	for {
		var best *baseTable
		var bestOut float64
		for _, t := range pl.inner {
			if !avail[t] || !pl.joinable(t, chain) {
				continue
			}
			out := pl.candidateOut(*chainCard, t, chain)
			if best == nil || out < bestOut ||
				(out == bestOut && pl.baseCard(t) < pl.baseCard(best)) {
				best, bestOut = t, out
			}
		}
		if best == nil {
			return steps
		}
		delete(avail, best)

		// Bushy subtree: relations that can only reach the chain through
		// best join below it, before the chain probes it.
		subChain := map[*baseTable]bool{best: true}
		subAvail := map[*baseTable]bool{}
		for _, m := range pl.dominatedBy(best, chain, avail) {
			delete(avail, m)
			subAvail[m] = true
		}
		subCard := pl.baseCard(best)
		subSteps := pl.attach(subChain, subAvail, &subCard)
		for m := range subAvail {
			avail[m] = true // not joinable below best; surface at the top level
		}

		step := &joinStep{tree: &buildTree{t: best, steps: subSteps, est: subCard}, kind: engine.JoinInner}
		for _, e := range pl.edges {
			if e.used {
				continue
			}
			if probe, build, ok := e.orient(best, chain); ok {
				e.used = true
				step.probeKeys = append(step.probeKeys, probe)
				step.buildKeys = append(step.buildKeys, build)
			}
		}
		*chainCard = pl.joinCard(*chainCard, subCard, step.probeKeys, step.buildKeys, engine.JoinInner)
		step.est = *chainCard
		for m := range subChain {
			chain[m] = true
		}
		steps = append(steps, step)
	}
}

// candidateOut estimates the chain cardinality after joining t (using
// t's post-filter cardinality; its subtree, if any, usually shrinks it
// further, so this is a conservative ranking key).
func (pl *planner) candidateOut(chainCard float64, t *baseTable, chain map[*baseTable]bool) float64 {
	var pk, bk []Expr
	for _, e := range pl.edges {
		if e.used {
			continue
		}
		if probe, build, ok := e.orient(t, chain); ok {
			pk = append(pk, probe)
			bk = append(bk, build)
		}
	}
	return pl.joinCard(chainCard, pl.baseCard(t), pk, bk, engine.JoinInner)
}

// dominatedBy returns the available relations whose every join path to
// the chain passes through t — t's dimension subtree. Computed as the
// avail relations a chain-rooted reachability sweep cannot reach once t
// is removed from the join graph.
func (pl *planner) dominatedBy(t *baseTable, chain, avail map[*baseTable]bool) []*baseTable {
	reach := map[*baseTable]bool{}
	var queue []*baseTable
	for c := range chain {
		reach[c] = true
		queue = append(queue, c)
	}
	edgeTables := func(e *edge) []*baseTable {
		var ts []*baseTable
		for x := range e.lt {
			ts = append(ts, x)
		}
		for x := range e.rt {
			ts = append(ts, x)
		}
		return ts
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range pl.edges {
			ts := edgeTables(e)
			touches := false
			for _, x := range ts {
				if x == cur {
					touches = true
					break
				}
			}
			if !touches {
				continue
			}
			for _, x := range ts {
				if x != t && avail[x] && !reach[x] {
					reach[x] = true
					queue = append(queue, x)
				}
			}
		}
	}
	var out []*baseTable
	for _, x := range pl.inner {
		if avail[x] && !reach[x] {
			out = append(out, x)
		}
	}
	return out
}

func (pl *planner) joinable(t *baseTable, inChain map[*baseTable]bool) bool {
	for _, e := range pl.edges {
		if e.used {
			continue
		}
		if _, _, ok := e.orient(t, inChain); ok {
			return true
		}
	}
	return false
}

// orient returns (probe side, build side) if the edge joins `build` to
// the chain: one side references only `build`, the other only chain
// tables.
func (e *edge) orient(build *baseTable, inChain map[*baseTable]bool) (Expr, Expr, bool) {
	only := func(m map[*baseTable]bool, t *baseTable) bool { return len(m) == 1 && m[t] }
	within := func(m map[*baseTable]bool) bool {
		for t := range m {
			if !inChain[t] {
				return false
			}
		}
		return true
	}
	if only(e.rt, build) && within(e.lt) {
		return e.l, e.r, true
	}
	if only(e.lt, build) && within(e.rt) {
		return e.r, e.l, true
	}
	return nil, nil, false
}

// scanCols lists the pruned scan column set of t in schema order.
func (pl *planner) scanCols(t *baseTable) ([]string, error) {
	refs := pl.allRefs[t]
	if len(refs) == 0 {
		// The engine cannot scan zero columns; fall back to the
		// narrowest one (e.g. EXISTS over an unfiltered table).
		return []string{t.t.Schema[0].Name}, nil
	}
	cols := make([]string, 0, len(refs))
	for c := range refs {
		cols = append(cols, c)
	}
	sort.Slice(cols, func(i, j int) bool { return t.cols[cols[i]] < t.cols[cols[j]] })
	return cols, nil
}

// payloadColNames lists build columns of t carried past its join, in
// schema order: every late reference (select, grouping, ordering,
// residual filters, later probe keys).
func (pl *planner) payloadColNames(t *baseTable, extraLate map[string]bool) []string {
	refs := map[string]bool{}
	for c := range pl.lateRefs[t] {
		refs[c] = true
	}
	for c := range extraLate {
		refs[c] = true
	}
	cols := make([]string, 0, len(refs))
	for c := range refs {
		cols = append(cols, c)
	}
	sort.Slice(cols, func(i, j int) bool { return t.cols[cols[i]] < t.cols[cols[j]] })
	return cols
}

// payloadCols is payloadColNames mapped to pipeline registers (renamed
// columns ride under their private names).
func (pl *planner) payloadCols(t *baseTable, extraLate map[string]bool) []string {
	cols := pl.payloadColNames(t, extraLate)
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = t.reg(c)
	}
	return out
}

// bindAll binds conjuncts with the given binder and ANDs them.
func bindAll(bd *binder, preds []Expr) (*engine.Expr, error) {
	var out []*engine.Expr
	for _, p := range preds {
		e, err := bd.bind(p)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	if len(out) == 0 {
		return nil, nil
	}
	return engine.And(out...), nil
}

// lowerScan emits the pruned, filtered scan of t, annotated with its
// estimated post-filter cardinality, followed by the subquery joins
// placed on it. A derived table's "scan" is its pre-lowered subquery
// fragment.
func (pl *planner) lowerScan(ep *engine.Plan, t *baseTable, bd *binder) (*engine.Node, error) {
	var n *engine.Node
	if t.derived != nil {
		n = t.derived
	} else {
		cols, err := pl.scanCols(t)
		if err != nil {
			return nil, err
		}
		specs := make([]string, len(cols))
		for i, c := range cols {
			if r := t.reg(c); r != c {
				specs[i] = c + " AS " + r
			} else {
				specs[i] = c
			}
		}
		n = ep.Scan(t.t, specs...)
	}
	pred, err := bindAll(bd, pl.local[t])
	if err != nil {
		return nil, err
	}
	if pred != nil {
		n = n.Filter(pred)
	}
	n.SetEst(estFilteredCard(t, pl.local[t]))
	for _, s := range pl.subs {
		if s.onScan == t {
			if n, err = pl.lowerSub(ep, n, s); err != nil {
				return nil, err
			}
		}
	}
	return n, nil
}

// treePayload lists the build columns a subtree's output must carry into
// the probing pipeline: every late reference of every member.
func (pl *planner) treePayload(tree *buildTree) []string {
	var cols []string
	for _, m := range tree.members(nil) {
		cols = append(cols, pl.payloadCols(m, nil)...)
	}
	return cols
}

// lowerTree lowers one build subtree: the root's scan probing its nested
// builds, with registers claimed in the subtree's private pipeline.
func (pl *planner) lowerTree(ep *engine.Plan, tree *buildTree, bd *binder) (*engine.Node, error) {
	n, err := pl.lowerScan(ep, tree.t, bd)
	if err != nil {
		return nil, err
	}
	if len(tree.steps) == 0 {
		return n, nil
	}
	regs := map[string]string{}
	cols, err := pl.scanCols(tree.t)
	if err != nil {
		return nil, err
	}
	for _, c := range cols {
		if err := claimReg(regs, tree.t.reg(c), fmt.Sprintf("table %q", tree.t.alias)); err != nil {
			return nil, err
		}
	}
	return pl.lowerSteps(ep, n, tree.steps, regs, bd)
}

// lowerSteps lowers an ordered list of join steps onto pipeline n, whose
// register names live in regs.
func (pl *planner) lowerSteps(ep *engine.Plan, n *engine.Node, steps []*joinStep, regs map[string]string, bd *binder) (*engine.Node, error) {
	for _, st := range steps {
		build, err := pl.lowerTree(ep, st.tree, bd)
		if err != nil {
			return nil, err
		}
		probe := make([]*engine.Expr, len(st.probeKeys))
		bkeys := make([]*engine.Expr, len(st.buildKeys))
		var keyCols []string
		for i := range st.probeKeys {
			if probe[i], err = bd.bind(st.probeKeys[i]); err != nil {
				return nil, err
			}
			if bkeys[i], err = bd.bind(st.buildKeys[i]); err != nil {
				return nil, err
			}
			if c, ok := st.buildKeys[i].(*Col); ok {
				keyCols = append(keyCols, c.Name)
			}
		}
		payload := pl.treePayload(st.tree)
		for _, c := range payload {
			if err := claimReg(regs, c, fmt.Sprintf("table %q", st.tree.t.alias)); err != nil {
				return nil, err
			}
		}
		// Build-side selection refinement: a join that carries no
		// payload and provably matches at most one build row per probe
		// (its keys cover a bare build table's declared unique key) is an
		// existence test — run it as a semi join, halving hash-table
		// traffic.
		if len(payload) == 0 && len(st.tree.steps) == 0 && st.tree.t.t.HasUniqueKey(keyCols) {
			st.kind = engine.JoinSemi
		}
		n = n.HashJoin(build, st.kind, probe, bkeys, payload...).SetEst(st.est)
	}
	return n, nil
}

// lowerChain lowers the probe root, the ordered inner join steps (each
// build side a bushy subtree), the LEFT JOIN appendages, the subquery
// semi/anti joins, and the residual filters.
func (pl *planner) lowerChain(ep *engine.Plan, root *baseTable, steps []*joinStep) (*engine.Node, error) {
	bd := &binder{sc: pl.sc, rewrite: pl.scalarRegs}

	// A probe key column owned by the root of the pipeline that
	// evaluates it comes straight from that root's scan; a key column
	// owned by any other relation was delivered by an earlier build's
	// payload and must be noted late so that join carries it. Keys of
	// nested joins are scoped to their own subtree pipeline — marking
	// them late globally would drag dead columns through every
	// enclosing hash table. (Known residual: lateRefs is global, so a
	// key owned by a non-root subtree member still rides one extra
	// level, into the enclosing join's payload — only reachable with
	// cross-edges between dominated dimensions.)
	var noteKeys func(pipeRoot *baseTable, steps []*joinStep) error
	noteKeys = func(pipeRoot *baseTable, steps []*joinStep) error {
		for _, st := range steps {
			for _, k := range st.probeKeys {
				var werr error
				walk(k, func(x Expr) {
					if werr != nil {
						return
					}
					if c, ok := x.(*Col); ok {
						t, _, err := pl.sc.resolveUp(c)
						if err != nil {
							werr = err
							return
						}
						pl.note(t, c.Name, t != pipeRoot)
					}
				})
				if werr != nil {
					return werr
				}
			}
			if err := noteKeys(st.tree.t, st.tree.steps); err != nil {
				return err
			}
		}
		return nil
	}
	if err := noteKeys(root, steps); err != nil {
		return nil, err
	}

	pl.pipeRegs = map[string]string{}
	if root.derived != nil {
		for _, c := range root.t.Schema {
			if err := pl.addPipeReg(c.Name, fmt.Sprintf("derived table %q", root.alias)); err != nil {
				return nil, err
			}
		}
	} else {
		rootCols, err := pl.scanCols(root)
		if err != nil {
			return nil, err
		}
		for _, c := range rootCols {
			if err := pl.addPipeReg(root.reg(c), fmt.Sprintf("table %q", root.alias)); err != nil {
				return nil, err
			}
		}
	}

	n, err := pl.lowerScan(ep, root, bd)
	if err != nil {
		return nil, err
	}
	n, err = pl.lowerSteps(ep, n, steps, pl.pipeRegs, bd)
	if err != nil {
		return nil, err
	}
	for _, o := range pl.outers {
		// Build-side selection for the outer join (§4.1: outer join is a
		// minor variation of hash join, on either side): when the
		// preserved chain is the smaller input, build the hash table over
		// it and probe with the nullable side, marking matched build
		// tuples; the Unmatched scan then null-extends the rest. When the
		// chain is larger, keep it as the probe and zero-extend unmatched
		// probe rows.
		if len(pl.outers) == 1 && n.Est() <= pl.baseCard(o.t) {
			n, err = pl.lowerOuterMark(ep, n, o, bd)
		} else {
			n, err = pl.lowerOuterProbe(ep, n, o, bd)
		}
		if err != nil {
			return nil, err
		}
	}
	for _, s := range pl.subs {
		if s.onScan != nil {
			continue // lowered on its relation's scan
		}
		n, err = pl.lowerSub(ep, n, s)
		if err != nil {
			return nil, err
		}
	}
	for _, s := range pl.scalars {
		n, err = pl.attachScalar(n, s, bd, pl.addPipeReg)
		if err != nil {
			return nil, err
		}
	}
	cur := n.Est()
	residual := append(append([]Expr{}, pl.residual...), pl.scalarConjs...)
	res, err := bindAll(bd, residual)
	if err != nil {
		return nil, err
	}
	if res != nil {
		for range residual {
			cur *= selDefault
		}
		n = n.Filter(res).SetEst(max(cur, 1))
	}
	return n, nil
}

// lowerOuterProbe lowers a LEFT JOIN preserving the probe chain:
// unmatched probe rows pass through with zero-valued payload. The match
// flag, when required by COUNT semantics, is a constant-1 payload column
// that zero-extends to 0.
func (pl *planner) lowerOuterProbe(ep *engine.Plan, n *engine.Node, o *outerSpec, bd *binder) (*engine.Node, error) {
	build, err := pl.lowerScan(ep, o.t, bd)
	if err != nil {
		return nil, err
	}
	if o.flag != "" {
		build = build.Map(o.flag, engine.ConstI(1)).SetEst(build.Est())
	}
	probe := make([]*engine.Expr, len(o.probeKeys))
	bkeys := make([]*engine.Expr, len(o.buildKeys))
	for i := range o.probeKeys {
		if probe[i], err = bd.bind(o.probeKeys[i]); err != nil {
			return nil, err
		}
		if bkeys[i], err = bd.bind(o.buildKeys[i]); err != nil {
			return nil, err
		}
	}
	payload := pl.payloadCols(o.t, nil)
	if o.flag != "" {
		payload = append(payload, o.flag)
	}
	for _, c := range payload {
		if err := pl.addPipeReg(c, fmt.Sprintf("table %q", o.t.alias)); err != nil {
			return nil, err
		}
	}
	cur := pl.joinCard(n.Est(), build.Est(), o.probeKeys, o.buildKeys, engine.JoinOuterProbe)
	return n.HashJoin(build, engine.JoinOuterProbe, probe, bkeys, payload...).SetEst(cur), nil
}

// zeroConst returns the zero value literal for one column of t (the
// null-extension value in an engine without NULLs).
func zeroConst(t *baseTable, col string) *engine.Expr {
	switch t.t.Schema[t.cols[col]].Type {
	case storage.I64:
		return engine.ConstI(0)
	case storage.F64:
		return engine.ConstF(0)
	default:
		return engine.ConstS("")
	}
}

// lowerOuterMark lowers a LEFT JOIN as a build-side outer join, the
// paper's match-marker scheme: the preserved chain becomes the build
// side of a JoinMark probed by the nullable side's scan; matched pairs
// stream through the probe pipeline, and an Unmatched scan emits the
// never-matched chain tuples with the nullable side's columns
// zero-extended. Both branches union into one pipeline.
func (pl *planner) lowerOuterMark(ep *engine.Plan, chain *engine.Node, o *outerSpec, bd *binder) (*engine.Node, error) {
	chainEst := chain.Est()
	// The chain columns needed downstream ride as the mark join's payload
	// and reappear in the Unmatched scan.
	var chainCols []string
	seen := map[string]bool{}
	for _, t := range pl.inner {
		for _, c := range pl.payloadCols(t, nil) {
			if !seen[c] {
				seen[c] = true
				chainCols = append(chainCols, c)
			}
		}
	}
	probe, err := pl.lowerScan(ep, o.t, bd)
	if err != nil {
		return nil, err
	}
	pKeys := make([]*engine.Expr, len(o.buildKeys))
	bKeys := make([]*engine.Expr, len(o.probeKeys))
	for i := range o.probeKeys {
		// Roles swap: the nullable side's key exprs drive the probe, the
		// chain's key exprs index the hash table.
		if pKeys[i], err = bd.bind(o.buildKeys[i]); err != nil {
			return nil, err
		}
		if bKeys[i], err = bd.bind(o.probeKeys[i]); err != nil {
			return nil, err
		}
	}
	// The pipeline is re-rooted at the nullable side's scan.
	regs := map[string]string{}
	scanCols, err := pl.scanCols(o.t)
	if err != nil {
		return nil, err
	}
	for _, c := range scanCols {
		if err := claimReg(regs, o.t.reg(c), fmt.Sprintf("table %q", o.t.alias)); err != nil {
			return nil, err
		}
	}
	for _, c := range chainCols {
		if err := claimReg(regs, c, "the preserved join side"); err != nil {
			return nil, err
		}
	}
	matchedEst := pl.joinCard(pl.baseCard(o.t), chainEst, o.buildKeys, o.probeKeys, engine.JoinInner)
	unmatchedEst := pl.markUnmatchedEst(chainEst, pl.baseCard(o.t), o.buildKeys, o.probeKeys)
	join := probe.HashJoin(chain, engine.JoinMark, pKeys, bKeys, chainCols...).SetEst(matchedEst)
	matched := join
	if o.flag != "" {
		if err := claimReg(regs, o.flag, "the LEFT JOIN match flag"); err != nil {
			return nil, err
		}
		matched = matched.Map(o.flag, engine.ConstI(1)).SetEst(matchedEst)
	}
	un := ep.Unmatched(join, chainCols...).SetEst(unmatchedEst)
	bLate := make([]string, 0)
	for _, c := range pl.payloadColNames(o.t, nil) {
		un = un.Map(o.t.reg(c), zeroConst(o.t, c)).SetEst(unmatchedEst)
		bLate = append(bLate, o.t.reg(c))
	}
	if o.flag != "" {
		un = un.Map(o.flag, engine.ConstI(0)).SetEst(unmatchedEst)
	}
	outCols := append(append([]string{}, chainCols...), bLate...)
	if o.flag != "" {
		outCols = append(outCols, o.flag)
	}
	union := ep.Union(
		matched.Project(outCols...).SetEst(matchedEst),
		un.Project(outCols...).SetEst(unmatchedEst),
	).SetEst(matchedEst + unmatchedEst)
	pl.pipeRegs = regs
	return union, nil
}

// attachScalar joins one scalar subquery's value into the pipeline.
// claim registers the new value register in the active pipeline's
// register set.
func (pl *planner) attachScalar(n *engine.Node, s *scalarSpec, bd *binder, claim func(name, provider string) error) (*engine.Node, error) {
	est := n.Est()
	if len(s.probeKeys) == 0 {
		// k=1 cross-join trick: both sides gain a constant key, the
		// single aggregate row joins to every pipeline row.
		k := s.outName + "$k"
		if err := claim(k, "a scalar subquery"); err != nil {
			return nil, err
		}
		if err := claim(s.outName, "a scalar subquery"); err != nil {
			return nil, err
		}
		build := s.node.Map(k, engine.ConstI(1)).SetEst(max(s.node.Est(), 1))
		n = n.Map(k, engine.ConstI(1)).SetEst(est)
		return n.HashJoin(build, engine.JoinInner,
			[]*engine.Expr{engine.Col(k)}, []*engine.Expr{engine.Col(k)}, s.outName).SetEst(est), nil
	}
	probe := make([]*engine.Expr, len(s.probeKeys))
	bkeys := make([]*engine.Expr, len(s.probeKeys))
	for i, pk := range s.probeKeys {
		var err error
		if probe[i], err = bd.bind(pk); err != nil {
			return nil, err
		}
		bkeys[i] = engine.Col(s.buildKeys[i])
	}
	if err := claim(s.outName, "a scalar subquery"); err != nil {
		return nil, err
	}
	// Grouping on the correlation keys makes them unique on the build
	// side: at most one match per probe row. Rows without a match: a
	// bare-COUNT subquery's SQL value there is 0, so the outer-probe
	// join preserves them with its zero-fill; any other aggregate's
	// value would be NULL, and the inner join drops the row — callers
	// only allow that where SQL's unknown → not-selected agrees.
	kind := engine.JoinInner
	if s.countLike {
		kind = engine.JoinOuterProbe
	}
	return n.HashJoin(s.node, kind, probe, bkeys, s.outName).SetEst(est), nil
}

func (pl *planner) lowerSub(ep *engine.Plan, n *engine.Node, s *subJoinSpec) (*engine.Node, error) {
	if s.node != nil {
		// Complex IN subquery: the nested planner already lowered the
		// build side; join the probe expression against its output.
		bd := &binder{sc: pl.sc}
		probe, err := bd.bind(s.probeKeys[0])
		if err != nil {
			return nil, err
		}
		return n.HashJoin(s.node, s.kind(),
			[]*engine.Expr{probe}, []*engine.Expr{engine.Col(s.buildReg)}).SetEst(pl.subJoinCard(n.Est(), s)), nil
	}
	// The build scan needs key, filter and residual columns.
	refs := map[string]bool{}
	collect := func(e Expr) {
		walk(e, func(x Expr) {
			if c, ok := x.(*Col); ok {
				if owner, _ := s.sc.resolve(c); owner == s.t {
					refs[c.Name] = true
				}
			}
		})
	}
	for _, k := range s.buildKeys {
		collect(k)
	}
	for _, f := range s.local {
		collect(f)
	}
	for _, r := range s.residual {
		collect(r)
	}
	// A residual-payload column whose name is already a probe-pipeline
	// register (a self-join: Q21's l2.l_suppkey <> l1.l_suppkey) is
	// scanned under an alias, so both sides stay addressable.
	aliasOf := map[string]string{}
	for c := range s.resPay {
		if _, taken := pl.pipeRegs[c]; taken {
			aliasOf[c] = fmt.Sprintf("$%s.%s", s.t.alias, c)
		}
	}
	cols := make([]string, 0, len(refs))
	for c := range refs {
		// Scan under the base name when keys or local filters read it, or
		// when it is an unaliased residual column; a column referenced
		// only by the residual and aliased is scanned under the alias
		// alone.
		if aliasOf[c] == "" || containsColName(s.buildKeys, c) || containsColName(s.local, c) {
			cols = append(cols, c)
		}
	}
	if len(cols) == 0 && len(aliasOf) == 0 {
		cols = []string{s.t.t.Schema[0].Name}
	}
	sort.Slice(cols, func(i, j int) bool { return s.t.cols[cols[i]] < s.t.cols[cols[j]] })
	var aliased []string
	for c, a := range aliasOf {
		aliased = append(aliased, fmt.Sprintf("%s AS %s", c, a))
	}
	sort.Strings(aliased)
	cols = append(cols, aliased...)

	// Rewrite residual references to aliased registers.
	var subRewrite map[string]string
	if len(aliasOf) > 0 {
		subRewrite = map[string]string{}
		for _, r := range s.residual {
			walk(r, func(x Expr) {
				c, ok := x.(*Col)
				if !ok {
					return
				}
				if owner, depth, err := s.sc.resolveUp(c); err == nil && depth == 0 && owner == s.t {
					if a := aliasOf[c.Name]; a != "" {
						subRewrite[astString(c)] = a
					}
				}
			})
		}
	}

	subBd := &binder{sc: s.sc, rewrite: subRewrite}
	build := ep.Scan(s.t.t, cols...)
	pred, err := bindAll(subBd, s.local)
	if err != nil {
		return nil, err
	}
	if pred != nil {
		build = build.Filter(pred)
	}
	build.SetEst(estFilteredCard(s.t, s.local))
	outerBd := &binder{sc: pl.sc}
	probe := make([]*engine.Expr, len(s.probeKeys))
	bkeys := make([]*engine.Expr, len(s.buildKeys))
	for i := range s.probeKeys {
		if probe[i], err = outerBd.bind(s.probeKeys[i]); err != nil {
			return nil, err
		}
		if bkeys[i], err = subBd.bind(s.buildKeys[i]); err != nil {
			return nil, err
		}
	}
	n = n.HashJoin(build, s.kind(), probe, bkeys).SetEst(pl.subJoinCard(n.Est(), s))
	if len(s.residual) > 0 {
		pay := make([]string, 0, len(s.resPay))
		for c := range s.resPay {
			if a := aliasOf[c]; a != "" {
				pay = append(pay, a)
			} else {
				pay = append(pay, c)
			}
		}
		sort.Strings(pay)
		// Residual payload columns become probe-pipeline registers.
		for _, c := range pay {
			if err := pl.addPipeReg(c, fmt.Sprintf("subquery over %q", s.t.alias)); err != nil {
				return nil, err
			}
		}
		n = n.ResidualPayload(pay...)
		res, err := bindAll(subBd, s.residual)
		if err != nil {
			return nil, err
		}
		n = n.WithResidual(res)
	}
	return n, nil
}
