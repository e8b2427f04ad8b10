package engine

import (
	"fmt"

	"repro/internal/storage"
)

// This file is the read-only plan inspection API. Optimizer layers above
// the engine (the SQL front end's distributed planner) walk finished
// plans to split them at exchange boundaries; they need to see operator
// structure without engine internals leaking into their package.

// NodeKind is the exported operator discriminator.
type NodeKind uint8

const (
	KindScan NodeKind = iota
	KindFilter
	KindMap
	KindJoin
	KindAgg
	KindUnion
	KindUnmatched
	KindProject
	KindMaterialize
	KindExchange
)

// String names the node kind.
func (k NodeKind) String() string {
	switch k {
	case KindScan:
		return "scan"
	case KindFilter:
		return "filter"
	case KindMap:
		return "map"
	case KindJoin:
		return "join"
	case KindAgg:
		return "agg"
	case KindUnion:
		return "union"
	case KindUnmatched:
		return "unmatched"
	case KindProject:
		return "project"
	case KindMaterialize:
		return "materialize"
	case KindExchange:
		return "exchange"
	default:
		return fmt.Sprintf("NodeKind(%d)", uint8(k))
	}
}

var kindNames = map[nodeKind]NodeKind{
	nScan: KindScan, nFilter: KindFilter, nMap: KindMap, nJoin: KindJoin,
	nAgg: KindAgg, nUnion: KindUnion, nUnmatched: KindUnmatched,
	nProject: KindProject, nMaterialize: KindMaterialize, nExchange: KindExchange,
}

// Kind returns the operator kind.
func (n *Node) Kind() NodeKind { return kindNames[n.kind] }

// Root returns the plan's result node.
func (p *Plan) Root() *Node { return p.root }

// OutSchema returns the plan's output columns as a storage schema: the
// schema of the partitions RunToStream ships.
func (p *Plan) OutSchema() storage.Schema { return storageSchema(p.root.out) }

// SortSpec returns the plan's terminal ORDER BY keys and LIMIT
// (0 = no limit, LimitZero = LIMIT 0).
func (p *Plan) SortSpec() ([]SortKey, int) { return p.sortKeys, p.limit }

// Input returns the operator's pipeline input: the probe side for joins,
// the single child otherwise, nil for scans and unmatched scans.
func (n *Node) Input() *Node { return n.child }

// BuildInput returns a join's build-side subtree (nil otherwise).
func (n *Node) BuildInput() *Node { return n.build }

// UnionInputs returns a union's inputs (nil otherwise).
func (n *Node) UnionInputs() []*Node { return n.children }

// ScanCol is one column read by a scan: the table column and its output
// alias (equal unless the plan renamed it with "src AS alias").
type ScanCol struct {
	Src string
	As  string
}

// Spec renders the column in the form Plan.Scan accepts.
func (c ScanCol) Spec() string {
	if c.Src == c.As {
		return c.Src
	}
	return c.Src + " AS " + c.As
}

// ScanInfo returns a scan's table, column list and fused filter
// (nil filter when none). Panics on non-scan nodes.
func (n *Node) ScanInfo() (*storage.Table, []ScanCol, *Expr) {
	if n.kind != nScan {
		panic("engine: ScanInfo on " + n.Kind().String())
	}
	cols := make([]ScanCol, len(n.scanSrc))
	for i, ci := range n.scanSrc {
		cols[i] = ScanCol{Src: n.table.Schema[ci].Name, As: n.out[i].Name}
	}
	return n.table, cols, n.filter
}

// FilterPred returns a filter's predicate.
func (n *Node) FilterPred() *Expr {
	if n.kind != nFilter {
		panic("engine: FilterPred on " + n.Kind().String())
	}
	return n.pred
}

// MapInfo returns a map's computed column.
func (n *Node) MapInfo() NamedExpr {
	if n.kind != nMap {
		panic("engine: MapInfo on " + n.Kind().String())
	}
	return n.mapEx
}

// JoinInfo describes a join for plan rewriting.
type JoinInfo struct {
	Kind      JoinKind
	ProbeKeys []*Expr
	BuildKeys []*Expr
	// Payload lists build columns carried into the output; for semi/anti
	// joins it lists the residual-only payload (ResidualPayload).
	Payload  []string
	Residual *Expr
}

// JoinInfo returns the join's keys, kind, payload and residual.
func (n *Node) JoinInfo() JoinInfo {
	if n.kind != nJoin {
		panic("engine: JoinInfo on " + n.Kind().String())
	}
	return JoinInfo{
		Kind: n.joinKind, ProbeKeys: n.probeKeys, BuildKeys: n.buildKeys,
		Payload: n.payload, Residual: n.residual,
	}
}

// AggInfo returns an aggregation's groups and aggregates.
func (n *Node) AggInfo() ([]NamedExpr, []AggDef) {
	if n.kind != nAgg {
		panic("engine: AggInfo on " + n.Kind().String())
	}
	return n.groups, n.aggs
}

// ProjectCols returns a projection's output column list.
func (n *Node) ProjectCols() []string {
	if n.kind != nProject {
		panic("engine: ProjectCols on " + n.Kind().String())
	}
	return n.cols
}

// ExchangeInfo returns an exchange's kind, routing keys and node count.
func (n *Node) ExchangeInfo() (ExchangeKind, []string, int) {
	if n.kind != nExchange {
		panic("engine: ExchangeInfo on " + n.Kind().String())
	}
	return n.exKind, n.exKeys, n.exNodes
}

// ColName reports whether the expression is a bare column reference and,
// if so, its name. Placement decisions (is this join key the table's
// partition attribute?) depend on it.
func (x *Expr) ColName() (string, bool) {
	if x != nil && x.kind == eCol {
		return x.name, true
	}
	return "", false
}
