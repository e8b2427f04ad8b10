package sql

import (
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/storage"
)

// This file is the distributed planner: it splits a finished single-node
// engine plan into per-node fragments connected by exchanges, for a
// cluster of morseld processes each holding a shard of the large tables
// (small tables are replicated on every node). Placement is cost-based
// in the classic distributed-join sense, using the same cardinality
// estimates the single-node optimizer already attaches to plan nodes:
//
//   local       — the build side is replicated, or co-partitioned with
//                 the probe chain on the join key: no rows move.
//   partition   — the probe key is the probe table's partition attribute:
//                 re-partition only the build side by the key, shipping
//                 est_build · (N-1)/N rows.
//   broadcast   — ship the whole build side to every node,
//                 est_build · (N-1) rows; always legal, always last.
//
// Partition therefore wins over broadcast whenever it is legal (its cost
// is a factor N lower for the same build side), mirroring the engine's
// NUMA-locality goal one level up: morsels stay where their data lives,
// and the exchange only moves the small side of each join.

// ErrNotDistributable marks plans the distributed planner does not
// handle (unions, build-side outer joins, aggregates over sharded data
// below another operator, ...). Callers fall back to single-node
// execution on the coordinator, which holds the full dataset.
var ErrNotDistributable = errors.New("sql: plan is not distributable")

// ShardInfo describes one hash-sharded table: the partition attribute
// (must be its storage partition key) and the table's partition count.
type ShardInfo struct {
	PartKey string
	Parts   int
}

// ClusterTopo describes the cluster the planner targets: the node count
// and which tables are sharded (all others are replicated everywhere).
type ClusterTopo struct {
	Nodes   int
	Sharded map[string]ShardInfo
}

// DistStage is one pre-computed build-side fragment. Every node runs the
// fragment over its shards, then ships the result: a broadcast stage
// sends all rows to all nodes (the union is the complete build side); a
// partition stage routes each row to exchange.OwnerOfKey(row[KeyCol],
// Parts, nodes), landing build rows on the node that owns the matching
// probe rows. Receivers stream the rows from an inbox named Name into
// the downstream fragment's scan of that name.
type DistStage struct {
	Name      string
	Plan      []byte // engine.EncodePlan of the fragment
	Schema    storage.Schema
	Broadcast bool
	KeyCol    string // partition stages: routing column of the output
	Parts     int    // partition stages: probe table's partition count
	Est       float64
}

// DistPlan is a distributed execution plan: stages in dependency order,
// then the main fragment on every node, then a gather to the
// coordinator, which runs Final over the gathered rows. Every exchange
// edge streams: receivers ingest rows as frames arrive (a hash-join
// build fills incrementally, the finalize aggregation merges partials as
// they land), because every consumer this planner emits accepts
// incremental input.
type DistPlan struct {
	Nodes      int
	Stages     []*DistStage
	Main       []byte // engine.EncodePlan of the per-node main fragment
	MainName   string
	MainSchema storage.Schema
	// Final builds the coordinator plan over the gather stream: the
	// distributed aggregation's merge phase plus the original plan's
	// post-aggregation operators, ORDER BY and LIMIT. It scans the stream
	// while main fragments are still shipping, so the finalize phase
	// overlaps remote execution.
	Final func(gather *engine.StreamSource) *engine.Plan
	// TopK is the per-node row bound pushed into the main fragment when
	// the query is ORDER BY + LIMIT without aggregation: each node sorts
	// locally and ships at most TopK rows (engine.LimitZero for LIMIT
	// 0). 0 means no pushdown.
	TopK int
	// Combined is the whole distributed plan as one tree with inline
	// Exchange operators — what EXPLAIN renders, and a locally executable
	// twin used by parity tests (exchanges degrade to pipeline breakers).
	Combined *engine.Plan
}

// distributor carries the rebuild state: the fragment under construction
// (redirected while a stage fragment is being built) and the fixed
// combined plan, which inlines every stage under an Exchange marker.
type distributor struct {
	topo   ClusterTopo
	frag   *engine.Plan
	comb   *engine.Plan
	stages []*DistStage
}

// pair is one operator rebuilt into both targets, with the probe chain's
// sharding facts threaded alongside: whether the chain's root scan is
// sharded, and the surviving output alias of its partition attribute.
type pair struct {
	f, c        *engine.Node
	rootSharded bool
	key         string // partition-attr alias in the output ("" = lost)
	parts       int
}

// Distribute splits p for the given topology. The plan must be fully
// bound (no parameters). On ErrNotDistributable the caller should run p
// as-is on the coordinator.
func Distribute(p *engine.Plan, topo ClusterTopo) (dp *DistPlan, err error) {
	if topo.Nodes < 2 {
		return nil, fmt.Errorf("%w: cluster has %d node(s)", ErrNotDistributable, topo.Nodes)
	}
	if p.Root() == nil {
		return nil, fmt.Errorf("%w: plan has no result node", ErrNotDistributable)
	}
	// The engine's plan builders panic on schema errors; the rebuild is
	// faithful so none are expected, but a planner bug must degrade to
	// single-node execution, not kill the server.
	defer func() {
		if r := recover(); r != nil {
			dp, err = nil, fmt.Errorf("%w: rebuild failed: %v", ErrNotDistributable, r)
		}
	}()

	// ---- split the probe spine at the lowest aggregation.
	var spine []*engine.Node
	for n := p.Root(); n != nil; n = n.Input() {
		spine = append(spine, n)
	}
	aggIdx := -1
	for i, n := range spine {
		if n.Kind() == engine.KindAgg {
			aggIdx = i // last hit = lowest agg
		}
	}
	for i := 0; i < aggIdx; i++ {
		switch spine[i].Kind() {
		case engine.KindFilter, engine.KindMap, engine.KindProject:
		default:
			return nil, fmt.Errorf("%w: %s above the aggregation", ErrNotDistributable, spine[i].Kind())
		}
	}

	d := &distributor{
		topo: topo,
		frag: engine.NewPlan(p.Name + "$main"),
		comb: engine.NewPlan(p.Name),
	}
	below := p.Root()
	if aggIdx >= 0 {
		below = spine[aggIdx].Input()
	}
	pp, err := d.rebuild(below)
	if err != nil {
		return nil, err
	}
	if !pp.rootSharded {
		return nil, fmt.Errorf("%w: probe chain scans no sharded table", ErrNotDistributable)
	}

	keys, limit := p.SortSpec()
	dp = &DistPlan{Nodes: topo.Nodes, MainName: d.frag.Name}

	if aggIdx < 0 {
		// No aggregation: ship raw rows, sort/limit on the coordinator.
		// With ORDER BY + LIMIT, push the top-k down into every node's
		// fragment: each node sorts its shard locally (the one barrier
		// the fragment keeps) and ships at most k rows, so the gather
		// moves N·k rows instead of the full probe output. Any row in
		// the global top k is within its own node's top k, so the
		// coordinator's re-sort over the union is exact.
		if len(keys) > 0 && limit != 0 && allInSchema(keys, pp.f.Schema()) {
			d.frag.ReturnSorted(pp.f, limit, keys...)
			dp.TopK = limit
		} else {
			d.frag.Return(pp.f)
		}
		dp.MainSchema = d.frag.OutSchema()
		d.comb.ReturnSorted(
			pp.c.Exchange(engine.ExchangeGather, nil, topo.Nodes).SetEst(below.Est()),
			limit, keys...)
		dp.Final = func(src *engine.StreamSource) *engine.Plan {
			fp := engine.NewPlan(p.Name + "$final")
			fp.ReturnSorted(dp.scanGather(fp, src), limit, keys...)
			return fp
		}
	} else {
		split := splitAgg(spine[aggIdx])

		fPart := pp.f.GroupBy(split.groups, split.partial).SetEst(split.est)
		d.frag.Return(fPart)
		dp.MainSchema = d.frag.OutSchema()

		cPart := pp.c.GroupBy(split.groups, split.partial).SetEst(split.est)
		cn := cPart.Exchange(engine.ExchangeGather, nil, topo.Nodes).
			SetEst(split.est * float64(topo.Nodes))
		cn = split.finalize(cn)
		cn = replayAbove(cn, spine[:max(aggIdx, 0)])
		d.comb.ReturnSorted(cn, limit, keys...)

		above := spine[:aggIdx]
		dp.Final = func(src *engine.StreamSource) *engine.Plan {
			fp := engine.NewPlan(p.Name + "$final")
			n := split.finalize(dp.scanGather(fp, src))
			fp.ReturnSorted(replayAbove(n, above), limit, keys...)
			return fp
		}
	}

	var encErr error
	dp.Main, encErr = engine.EncodePlan(d.frag)
	if encErr != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotDistributable, encErr)
	}
	dp.Stages = d.stages
	dp.Combined = d.comb
	return dp, nil
}

// scanGather opens a finalize plan with a scan of the gather stream,
// typed by the main fragment's output schema.
func (dp *DistPlan) scanGather(fp *engine.Plan, src *engine.StreamSource) *engine.Node {
	stub := &storage.Table{Name: "$gather", Schema: dp.MainSchema}
	return fp.ScanStream(src, stub, schemaSpecs(dp.MainSchema)...)
}

// aggSplit is a distributed aggregation: the partial phase runs inside
// every node's main fragment, the finalize phase on the coordinator.
type aggSplit struct {
	groups  []engine.NamedExpr
	aggs    []engine.AggDef
	partial []engine.AggDef
	// est is the single-node aggregation's group estimate. Every phase
	// carries it, because the engine picks each aggregation's table from
	// its estimate: the partials and the merge then run on the engine the
	// single-node plan would, whatever the merge's input estimates.
	est float64
}

// splitAgg decomposes each aggregate into a per-node partial and a
// coordinator merge. SUM/MIN/MAX are self-decomposable; AVG becomes a
// partial SUM merged as sum-of-sums over count-of-counts; COUNT drops
// out of the partial phase entirely — the engine counts rows once per
// group anyway, so one hidden COUNT ($dist_n) serves every COUNT and
// every AVG divisor.
func splitAgg(agg *engine.Node) *aggSplit {
	groups, aggs := agg.AggInfo()
	s := &aggSplit{groups: groups, aggs: aggs, est: agg.Est()}
	for _, a := range aggs {
		switch a.Kind {
		case engine.AggSum, engine.AggAvg:
			s.partial = append(s.partial, engine.Sum(a.Name, a.E))
		case engine.AggMin:
			s.partial = append(s.partial, engine.MinOf(a.Name, a.E))
		case engine.AggMax:
			s.partial = append(s.partial, engine.MaxOf(a.Name, a.E))
		case engine.AggCount:
			// replaced by $dist_n
		}
	}
	s.partial = append(s.partial, engine.Count("$dist_n"))
	return s
}

// finalize appends the merge phase onto a node scanning partial rows.
func (s *aggSplit) finalize(n *engine.Node) *engine.Node {
	if len(s.groups) == 0 {
		// A global aggregate emits exactly one row per node even over an
		// empty shard, with MIN/MAX coerced to zero — poison for the
		// merge. $dist_n = 0 identifies those rows; dropping them is
		// exact, and if every shard was empty the merge's own empty-input
		// row reproduces single-node semantics.
		n = n.Filter(engine.Gt(engine.Col("$dist_n"), engine.ConstI(0)))
	}
	var fGroups []engine.NamedExpr
	for _, g := range s.groups {
		fGroups = append(fGroups, engine.N(g.Name, engine.Col(g.Name)))
	}
	var fAggs []engine.AggDef
	var avgs []engine.AggDef
	var outNames []string
	for _, g := range s.groups {
		outNames = append(outNames, g.Name)
	}
	for _, a := range s.aggs {
		outNames = append(outNames, a.Name)
		switch a.Kind {
		case engine.AggSum:
			fAggs = append(fAggs, engine.Sum(a.Name, engine.Col(a.Name)))
		case engine.AggMin:
			fAggs = append(fAggs, engine.MinOf(a.Name, engine.Col(a.Name)))
		case engine.AggMax:
			fAggs = append(fAggs, engine.MaxOf(a.Name, engine.Col(a.Name)))
		case engine.AggCount:
			fAggs = append(fAggs, engine.Sum(a.Name, engine.Col("$dist_n")))
		case engine.AggAvg:
			fAggs = append(fAggs, engine.Sum(a.Name+"$s", engine.Col(a.Name)))
			avgs = append(avgs, a)
		}
	}
	fAggs = append(fAggs, engine.Sum("$dist_n$t", engine.Col("$dist_n")))
	n = n.GroupBy(fGroups, fAggs).SetEst(s.est)
	for _, a := range avgs {
		n = n.Map(a.Name, engine.Div(
			engine.ToFloat(engine.Col(a.Name+"$s")),
			engine.ToFloat(engine.Col("$dist_n$t"))))
	}
	return n.Project(outNames...)
}

// replayAbove re-applies the original plan's post-aggregation operators
// (spine indices are root-first, so walk backwards).
func replayAbove(n *engine.Node, above []*engine.Node) *engine.Node {
	for i := len(above) - 1; i >= 0; i-- {
		switch o := above[i]; o.Kind() {
		case engine.KindFilter:
			n = n.Filter(o.FilterPred())
		case engine.KindMap:
			ne := o.MapInfo()
			n = n.Map(ne.Name, ne.E)
		case engine.KindProject:
			n = n.Project(o.ProjectCols()...)
		}
		if est := above[i].Est(); est > 0 {
			n.SetEst(est)
		}
	}
	return n
}

// rebuild reconstructs n into both the current fragment and the combined
// plan, deciding join placement along the way.
func (d *distributor) rebuild(n *engine.Node) (pair, error) {
	switch n.Kind() {
	case engine.KindScan:
		t, cols, filter := n.ScanInfo()
		specs := make([]string, len(cols))
		for i, c := range cols {
			specs[i] = c.Spec()
		}
		p := pair{f: d.frag.Scan(t, specs...), c: d.comb.Scan(t, specs...)}
		if filter != nil {
			p.f, p.c = p.f.Filter(filter), p.c.Filter(filter)
		}
		if info, ok := d.topo.Sharded[t.Name]; ok {
			p.rootSharded, p.parts = true, info.Parts
			for _, c := range cols {
				if c.Src == info.PartKey {
					p.key = c.As
				}
			}
		}
		p.f.SetEst(n.Est())
		p.c.SetEst(n.Est())
		return p, nil

	case engine.KindFilter:
		p, err := d.rebuild(n.Input())
		if err != nil {
			return pair{}, err
		}
		p.f = p.f.Filter(n.FilterPred()).SetEst(n.Est())
		p.c = p.c.Filter(n.FilterPred()).SetEst(n.Est())
		return p, nil

	case engine.KindMap:
		p, err := d.rebuild(n.Input())
		if err != nil {
			return pair{}, err
		}
		ne := n.MapInfo()
		p.f = p.f.Map(ne.Name, ne.E).SetEst(n.Est())
		p.c = p.c.Map(ne.Name, ne.E).SetEst(n.Est())
		return p, nil

	case engine.KindProject:
		p, err := d.rebuild(n.Input())
		if err != nil {
			return pair{}, err
		}
		cols := n.ProjectCols()
		if p.key != "" && !containsStr(cols, p.key) {
			p.key = ""
		}
		p.f = p.f.Project(cols...).SetEst(n.Est())
		p.c = p.c.Project(cols...).SetEst(n.Est())
		return p, nil

	case engine.KindJoin:
		return d.rebuildJoin(n)

	case engine.KindAgg:
		// An aggregation inside a fragment (a build subtree or below
		// another operator) would emit per-shard partial groups where
		// complete groups are required.
		return pair{}, fmt.Errorf("%w: aggregation over sharded data below the main split", ErrNotDistributable)

	default:
		return pair{}, fmt.Errorf("%w: %s operator", ErrNotDistributable, n.Kind())
	}
}

// rebuildJoin places one hash join: local (replicated or co-partitioned
// build), partition exchange, or broadcast exchange.
func (d *distributor) rebuildJoin(n *engine.Node) (pair, error) {
	ji := n.JoinInfo()
	if ji.Kind == engine.JoinMark {
		// The matching Unmatched scan reads build-side state that a
		// distributed build would scatter across nodes.
		return pair{}, fmt.Errorf("%w: mark join", ErrNotDistributable)
	}
	probe, err := d.rebuild(n.Input())
	if err != nil {
		return pair{}, err
	}
	build := n.BuildInput()
	bSharded, bKey, bParts, err := d.analyze(build)
	if err != nil {
		return pair{}, err
	}

	join := func(p pair, bf, bc *engine.Node) pair {
		attach := func(pn, bn *engine.Node) *engine.Node {
			var j *engine.Node
			if ji.Kind == engine.JoinSemi || ji.Kind == engine.JoinAnti {
				j = pn.HashJoin(bn, ji.Kind, ji.ProbeKeys, ji.BuildKeys)
				if len(ji.Payload) > 0 {
					j = j.ResidualPayload(ji.Payload...)
				}
			} else {
				j = pn.HashJoin(bn, ji.Kind, ji.ProbeKeys, ji.BuildKeys, ji.Payload...)
			}
			if ji.Residual != nil {
				j = j.WithResidual(ji.Residual)
			}
			return j.SetEst(n.Est())
		}
		p.f, p.c = attach(p.f, bf), attach(p.c, bc)
		return p
	}

	if !bSharded {
		// Local: the build side scans only replicated tables — every node
		// computes the identical hash table from its own full copies.
		bp, err := d.rebuild(build)
		if err != nil {
			return pair{}, err
		}
		return join(probe, bp.f, bp.c), nil
	}

	if pk, bk, ok := singleColKeys(ji); ok &&
		probe.key != "" && pk == probe.key &&
		bKey != "" && bk == bKey && bParts == probe.parts {
		// Local: co-partitioned. Matching keys hash to the same storage
		// partition on both sides and shards take partitions i%N, so every
		// build row already lives on the node that probes for it.
		bp, err := d.rebuild(build)
		if err != nil {
			return pair{}, err
		}
		return join(probe, bp.f, bp.c), nil
	}

	// The build side must move: prefer re-partitioning it by the join key
	// (ships est·(N-1)/N rows) over broadcasting (est·(N-1)) whenever the
	// probe side's partitioning makes routed rows land correctly.
	partition := false
	var routeKey string
	if pk, bk, ok := singleColKeys(ji); ok && probe.key != "" && pk == probe.key {
		if isIntCol(build.Schema(), bk) {
			// Cross-node routing hashes int64 keys only: string hashing is
			// per-process (seeded) and would disagree between nodes.
			partition, routeKey = true, bk
		}
	}

	stage := &DistStage{
		Name:      fmt.Sprintf("$x%d", len(d.stages)+1),
		Broadcast: !partition,
		KeyCol:    routeKey,
		Parts:     probe.parts,
		Est:       build.Est(),
	}
	saved := d.frag
	d.frag = engine.NewPlan(stage.Name)
	bp, err := d.rebuild(build)
	d.frag, saved = saved, d.frag
	if err != nil {
		return pair{}, err
	}
	if !bp.rootSharded {
		// A stage whose spine roots at a replicated scan would emit the
		// full result once per node — N-fold duplication.
		return pair{}, fmt.Errorf("%w: exchanged build side roots at a replicated table", ErrNotDistributable)
	}
	saved.Return(bp.f)
	enc, encErr := engine.EncodePlan(saved)
	if encErr != nil {
		return pair{}, fmt.Errorf("%w: %v", ErrNotDistributable, encErr)
	}
	stage.Plan = enc
	stage.Schema = saved.OutSchema()
	d.stages = append(d.stages, stage)

	// Fragment side: the build becomes a scan of the stage's inbox stream.
	stub := &storage.Table{Name: stage.Name, Schema: stage.Schema}
	inbox := d.frag.Scan(stub, schemaSpecs(stage.Schema)...).SetEst(build.Est())

	// Combined side: the original subtree under an exchange marker.
	kind, keys := engine.ExchangeBroadcast, []string(nil)
	if partition {
		kind, keys = engine.ExchangePartition, []string{routeKey}
	}
	cx := bp.c.Exchange(kind, keys, d.topo.Nodes).SetEst(build.Est())
	return join(probe, inbox, cx), nil
}

// allInSchema reports whether every sort key names a column of the
// fragment's output schema (a pushed-down top-k must sort on what the
// fragment ships).
func allInSchema(keys []engine.SortKey, schema []engine.Reg) bool {
	for _, k := range keys {
		found := false
		for _, r := range schema {
			if r.Name == k.Name {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// analyze inspects a build subtree without rebuilding it: does it touch
// a sharded table, and which output column (if any) is the partition
// attribute of its probe-spine root.
func (d *distributor) analyze(n *engine.Node) (sharded bool, key string, parts int, err error) {
	switch n.Kind() {
	case engine.KindScan:
		t, cols, _ := n.ScanInfo()
		if info, ok := d.topo.Sharded[t.Name]; ok {
			sharded, parts = true, info.Parts
			for _, c := range cols {
				if c.Src == info.PartKey {
					key = c.As
				}
			}
		}
		return sharded, key, parts, nil
	case engine.KindFilter, engine.KindMap:
		return d.analyze(n.Input())
	case engine.KindProject:
		sharded, key, parts, err = d.analyze(n.Input())
		if key != "" && !containsStr(n.ProjectCols(), key) {
			key = ""
		}
		return sharded, key, parts, err
	case engine.KindJoin:
		sharded, key, parts, err = d.analyze(n.Input())
		if err != nil {
			return false, "", 0, err
		}
		bs, _, _, berr := d.analyze(n.BuildInput())
		return sharded || bs, key, parts, berr
	case engine.KindAgg:
		s, _, _, err := d.analyze(n.Input())
		return s, "", 0, err
	case engine.KindUnion:
		for _, c := range n.UnionInputs() {
			s, _, _, cerr := d.analyze(c)
			if cerr != nil {
				return false, "", 0, cerr
			}
			sharded = sharded || s
		}
		return sharded, "", 0, nil
	default:
		// materialize/unmatched/exchange: the rebuild will reject these;
		// report sharded so replicated-inlining does not swallow them.
		return true, "", 0, nil
	}
}

// singleColKeys extracts a join's key pair when it is a single bare
// column on each side — the only shape placement can reason about.
func singleColKeys(ji engine.JoinInfo) (probe, build string, ok bool) {
	if len(ji.ProbeKeys) != 1 {
		return "", "", false
	}
	p, pok := ji.ProbeKeys[0].ColName()
	b, bok := ji.BuildKeys[0].ColName()
	return p, b, pok && bok
}

func isIntCol(schema []engine.Reg, name string) bool {
	for _, r := range schema {
		if r.Name == name {
			return r.Type == engine.TInt
		}
	}
	return false
}

func schemaSpecs(s storage.Schema) []string {
	cols := make([]string, len(s))
	for i, c := range s {
		cols[i] = c.Name
	}
	return cols
}
