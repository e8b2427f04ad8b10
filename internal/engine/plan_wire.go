package engine

import (
	"encoding/json"
	"fmt"

	"repro/internal/storage"
)

// This file implements the plan wire format: a JSON encoding of bound
// (parameter-free) plans, used to ship fragment plans to peer morseld
// nodes. Tables are encoded by name and re-resolved against the
// receiving node's catalog — which is exactly how a fragment comes to
// scan the receiver's *shard* of a table, or a receive-side inbox, where
// the coordinator's plan referenced the full relation.

type wireExpr struct {
	Op    string      `json:"op"`
	Name  string      `json:"name,omitempty"`
	I     int64       `json:"i,omitempty"`
	F     float64     `json:"f,omitempty"`
	S     string      `json:"s,omitempty"`
	Args  []*wireExpr `json:"args,omitempty"`
	Strs  []string    `json:"strs,omitempty"`
	Ints  []int64     `json:"ints,omitempty"`
	PType string      `json:"ptype,omitempty"`
}

var exprOpNames = map[exprKind]string{
	eCol: "col", eConstI: "ci", eConstF: "cf", eConstS: "cs",
	eAdd: "add", eSub: "sub", eMul: "mul", eDiv: "div",
	eEq: "eq", eNe: "ne", eLt: "lt", eLe: "le", eGt: "gt", eGe: "ge",
	eAnd: "and", eOr: "or", eNot: "not", eBetween: "between",
	eInInt: "inint", eInStr: "instr", eLike: "like", eNotLike: "notlike",
	eIf: "if", eYear: "year", eSubstr: "substr", eToF: "tofloat",
	eParam: "param",
}

var exprOpKinds = func() map[string]exprKind {
	m := make(map[string]exprKind, len(exprOpNames))
	for k, v := range exprOpNames {
		m[v] = k
	}
	return m
}()

var typeNames = map[Type]string{TInt: "int", TFloat: "float", TStr: "str"}

var typeByName = map[string]Type{"int": TInt, "float": TFloat, "str": TStr}

func encodeExpr(x *Expr) *wireExpr {
	if x == nil {
		return nil
	}
	w := &wireExpr{Op: exprOpNames[x.kind], Name: x.name, I: x.i, F: x.f, S: x.s,
		Strs: x.strs, Ints: x.ints}
	if x.kind == eParam {
		w.PType = typeNames[x.ptype]
	}
	for _, a := range x.args {
		w.Args = append(w.Args, encodeExpr(a))
	}
	return w
}

func decodeExpr(w *wireExpr) (*Expr, error) {
	if w == nil {
		return nil, nil
	}
	kind, ok := exprOpKinds[w.Op]
	if !ok {
		return nil, fmt.Errorf("engine: unknown expression op %q", w.Op)
	}
	x := &Expr{kind: kind, name: w.Name, i: w.I, f: w.F, s: w.S, strs: w.Strs, ints: w.Ints}
	if kind == eParam {
		t, ok := typeByName[w.PType]
		if !ok {
			return nil, fmt.Errorf("engine: unknown param type %q", w.PType)
		}
		x.ptype = t
	}
	for _, a := range w.Args {
		da, err := decodeExpr(a)
		if err != nil {
			return nil, err
		}
		x.args = append(x.args, da)
	}
	return x, nil
}

type wireNamed struct {
	Name string    `json:"name"`
	E    *wireExpr `json:"e"`
}

type wireAgg struct {
	Name string    `json:"name"`
	Kind string    `json:"kind"`
	E    *wireExpr `json:"e,omitempty"`
}

var aggWireNames = map[AggKind]string{
	AggSum: "sum", AggCount: "count", AggMin: "min", AggMax: "max", AggAvg: "avg",
}

var aggWireKinds = func() map[string]AggKind {
	m := make(map[string]AggKind, len(aggWireNames))
	for k, v := range aggWireNames {
		m[v] = k
	}
	return m
}()

var joinWireNames = map[JoinKind]string{
	JoinInner: "inner", JoinSemi: "semi", JoinAnti: "anti",
	JoinMark: "mark", JoinOuterProbe: "outer",
}

var joinWireKinds = func() map[string]JoinKind {
	m := make(map[string]JoinKind, len(joinWireNames))
	for k, v := range joinWireNames {
		m[v] = k
	}
	return m
}()

var exchangeWireNames = map[ExchangeKind]string{
	ExchangePartition: "partition", ExchangeBroadcast: "broadcast", ExchangeGather: "gather",
}

var exchangeWireKinds = func() map[string]ExchangeKind {
	m := make(map[string]ExchangeKind, len(exchangeWireNames))
	for k, v := range exchangeWireNames {
		m[v] = k
	}
	return m
}()

// wireNode is one operator; node ids are 1-based positions in the plan's
// node array (0 = none), and children always precede parents.
type wireNode struct {
	Kind string  `json:"kind"`
	Est  float64 `json:"est,omitempty"`

	Child    int   `json:"child,omitempty"`
	Build    int   `json:"build,omitempty"`
	JoinRef  int   `json:"joinRef,omitempty"`
	Children []int `json:"children,omitempty"`

	Table  string    `json:"table,omitempty"`
	Cols   []string  `json:"cols,omitempty"`
	Filter *wireExpr `json:"filter,omitempty"`

	Pred    *wireExpr `json:"pred,omitempty"`
	MapName string    `json:"mapName,omitempty"`
	MapExpr *wireExpr `json:"mapExpr,omitempty"`

	Join      string      `json:"join,omitempty"`
	ProbeKeys []*wireExpr `json:"probeKeys,omitempty"`
	BuildKeys []*wireExpr `json:"buildKeys,omitempty"`
	Payload   []string    `json:"payload,omitempty"`
	Residual  *wireExpr   `json:"residual,omitempty"`

	Groups  []wireNamed `json:"groups,omitempty"`
	Aggs    []wireAgg   `json:"aggs,omitempty"`
	AggAlgo string      `json:"aggAlgo,omitempty"`

	PhysWhy string `json:"physWhy,omitempty"`

	Exchange string   `json:"exchange,omitempty"`
	ExKeys   []string `json:"exKeys,omitempty"`
	ExNodes  int      `json:"exNodes,omitempty"`
}

type wireSort struct {
	Name string `json:"name"`
	Desc bool   `json:"desc,omitempty"`
}

type wirePlan struct {
	Name  string     `json:"name"`
	Sort  []wireSort `json:"sort,omitempty"`
	Limit int        `json:"limit,omitempty"`
	Nodes []wireNode `json:"nodes"`
}

// EncodePlan serializes a plan for shipping to a peer node. The plan
// must be bound (parameter-free is not required — placeholders survive
// the wire — but peers cannot bind them) and must not contain
// Materialize-shared subtrees' runtime state; sharing itself is
// preserved (a node referenced twice encodes once).
func EncodePlan(p *Plan) ([]byte, error) {
	if p.root == nil {
		return nil, fmt.Errorf("engine: plan %q has no result node", p.Name)
	}
	wp := &wirePlan{Name: p.Name, Limit: p.limit}
	for _, k := range p.sortKeys {
		wp.Sort = append(wp.Sort, wireSort{Name: k.Name, Desc: k.Desc})
	}
	ids := map[*Node]int{}
	var enc func(n *Node) (int, error)
	enc = func(n *Node) (int, error) {
		if n == nil {
			return 0, nil
		}
		if id, ok := ids[n]; ok {
			return id, nil
		}
		var wn wireNode
		var err error
		if wn.Child, err = enc(n.child); err != nil {
			return 0, err
		}
		if wn.Build, err = enc(n.build); err != nil {
			return 0, err
		}
		if wn.JoinRef, err = enc(n.joinRef); err != nil {
			return 0, err
		}
		for _, c := range n.children {
			id, err := enc(c)
			if err != nil {
				return 0, err
			}
			wn.Children = append(wn.Children, id)
		}
		wn.Est = n.estRows
		switch n.kind {
		case nScan:
			wn.Kind = "scan"
			wn.Table = n.table.Name
			for i, ci := range n.scanSrc {
				wn.Cols = append(wn.Cols, ScanCol{Src: n.table.Schema[ci].Name, As: n.out[i].Name}.Spec())
			}
			wn.Filter = encodeExpr(n.filter)
		case nFilter:
			wn.Kind = "filter"
			wn.Pred = encodeExpr(n.pred)
		case nMap:
			wn.Kind = "map"
			wn.MapName = n.mapEx.Name
			wn.MapExpr = encodeExpr(n.mapEx.E)
		case nJoin:
			wn.Kind = "join"
			wn.Join = joinWireNames[n.joinKind]
			for _, k := range n.probeKeys {
				wn.ProbeKeys = append(wn.ProbeKeys, encodeExpr(k))
			}
			for _, k := range n.buildKeys {
				wn.BuildKeys = append(wn.BuildKeys, encodeExpr(k))
			}
			wn.Payload = n.payload
			wn.Residual = encodeExpr(n.residual)
		case nAgg:
			wn.Kind = "agg"
			if n.aggAlgo != AggShared {
				wn.AggAlgo = n.aggAlgo.String()
			}
			wn.PhysWhy = n.physWhy
			for _, g := range n.groups {
				wn.Groups = append(wn.Groups, wireNamed{Name: g.Name, E: encodeExpr(g.E)})
			}
			for _, a := range n.aggs {
				wn.Aggs = append(wn.Aggs, wireAgg{Name: a.Name, Kind: aggWireNames[a.Kind], E: encodeExpr(a.E)})
			}
		case nUnion:
			wn.Kind = "union"
		case nUnmatched:
			wn.Kind = "unmatched"
			wn.Cols = n.cols
		case nProject:
			wn.Kind = "project"
			wn.Cols = n.cols
		case nMaterialize:
			wn.Kind = "materialize"
		case nExchange:
			wn.Kind = "exchange"
			wn.Exchange = exchangeWireNames[n.exKind]
			wn.ExKeys = n.exKeys
			wn.ExNodes = n.exNodes
		default:
			return 0, fmt.Errorf("engine: cannot encode node kind %v", n.Kind())
		}
		wp.Nodes = append(wp.Nodes, wn)
		ids[n] = len(wp.Nodes)
		return len(wp.Nodes), nil
	}
	if _, err := enc(p.root); err != nil {
		return nil, err
	}
	return json.Marshal(wp)
}

// DecodePlan reconstructs a plan, resolving table names through lookup —
// the receiving node's catalog of shard views, replicated tables and
// exchange inboxes. Schema mismatches (a plan built against a different
// catalog) return an error.
func DecodePlan(data []byte, lookup func(name string) (*storage.Table, bool)) (*Plan, error) {
	return DecodePlanStreams(data, lookup, nil)
}

// DecodePlanStreams is DecodePlan with streaming inputs: a scan whose
// table name appears in streams becomes a stream scan bound to that
// source at execution time (the stub table from lookup only types it),
// so the fragment consumes a peer's stage output as it arrives instead
// of waiting for the stage to finish.
func DecodePlanStreams(data []byte, lookup func(name string) (*storage.Table, bool), streams map[string]*StreamSource) (p *Plan, err error) {
	var wp wirePlan
	if err := json.Unmarshal(data, &wp); err != nil {
		return nil, fmt.Errorf("engine: bad wire plan: %w", err)
	}
	if len(wp.Nodes) == 0 {
		return nil, fmt.Errorf("engine: wire plan %q has no nodes", wp.Name)
	}
	// Plan builders panic on schema errors; a wire plan is external
	// input, so surface them as errors.
	defer func() {
		if r := recover(); r != nil {
			p, err = nil, fmt.Errorf("engine: wire plan %q does not type-check: %v", wp.Name, r)
		}
	}()
	np := NewPlan(wp.Name)
	nodes := make([]*Node, len(wp.Nodes))
	ref := func(id int) (*Node, error) {
		if id == 0 {
			return nil, nil
		}
		if id < 1 || id > len(nodes) || nodes[id-1] == nil {
			return nil, fmt.Errorf("engine: wire plan %q: bad node ref %d", wp.Name, id)
		}
		return nodes[id-1], nil
	}
	for i, wn := range wp.Nodes {
		if i >= 1<<16 {
			return nil, fmt.Errorf("engine: wire plan %q too large", wp.Name)
		}
		child, err := ref(wn.Child)
		if err != nil {
			return nil, err
		}
		build, err := ref(wn.Build)
		if err != nil {
			return nil, err
		}
		joinRef, err := ref(wn.JoinRef)
		if err != nil {
			return nil, err
		}
		var n *Node
		switch wn.Kind {
		case "scan":
			tab, ok := lookup(wn.Table)
			if !ok {
				return nil, fmt.Errorf("engine: wire plan %q references unknown table %q", wp.Name, wn.Table)
			}
			n = np.Scan(tab, wn.Cols...)
			if src, ok := streams[wn.Table]; ok {
				n.stream = src
			}
			if wn.Filter != nil {
				pred, err := decodeExpr(wn.Filter)
				if err != nil {
					return nil, err
				}
				n = n.Filter(pred)
			}
		case "filter":
			pred, err := decodeExpr(wn.Pred)
			if err != nil {
				return nil, err
			}
			if child == nil {
				return nil, fmt.Errorf("engine: filter without child")
			}
			n = child.Filter(pred)
		case "map":
			e, err := decodeExpr(wn.MapExpr)
			if err != nil {
				return nil, err
			}
			if child == nil {
				return nil, fmt.Errorf("engine: map without child")
			}
			n = child.Map(wn.MapName, e)
		case "join":
			jk, ok := joinWireKinds[wn.Join]
			if !ok {
				return nil, fmt.Errorf("engine: unknown join kind %q", wn.Join)
			}
			if child == nil || build == nil {
				return nil, fmt.Errorf("engine: join missing inputs")
			}
			pk := make([]*Expr, len(wn.ProbeKeys))
			bk := make([]*Expr, len(wn.BuildKeys))
			for i, k := range wn.ProbeKeys {
				if pk[i], err = decodeExpr(k); err != nil {
					return nil, err
				}
			}
			for i, k := range wn.BuildKeys {
				if bk[i], err = decodeExpr(k); err != nil {
					return nil, err
				}
			}
			if jk == JoinSemi || jk == JoinAnti {
				n = child.HashJoin(build, jk, pk, bk)
				if len(wn.Payload) > 0 {
					n = n.ResidualPayload(wn.Payload...)
				}
			} else {
				n = child.HashJoin(build, jk, pk, bk, wn.Payload...)
			}
			if wn.Residual != nil {
				res, err := decodeExpr(wn.Residual)
				if err != nil {
					return nil, err
				}
				n = n.WithResidual(res)
			}
		case "agg":
			if child == nil {
				return nil, fmt.Errorf("engine: agg without child")
			}
			groups := make([]NamedExpr, len(wn.Groups))
			for i, g := range wn.Groups {
				e, err := decodeExpr(g.E)
				if err != nil {
					return nil, err
				}
				groups[i] = NamedExpr{Name: g.Name, E: e}
			}
			aggs := make([]AggDef, len(wn.Aggs))
			for i, a := range wn.Aggs {
				ak, ok := aggWireKinds[a.Kind]
				if !ok {
					return nil, fmt.Errorf("engine: unknown aggregate kind %q", a.Kind)
				}
				e, err := decodeExpr(a.E)
				if err != nil {
					return nil, err
				}
				aggs[i] = AggDef{Name: a.Name, Kind: ak, E: e}
			}
			n = child.GroupBy(groups, aggs)
			switch wn.AggAlgo {
			case "":
			case "partitioned":
				n = n.WithAggAlgo(AggPartitioned)
			default:
				return nil, fmt.Errorf("engine: unknown aggregation algorithm %q", wn.AggAlgo)
			}
			if wn.PhysWhy != "" {
				n = n.WithPhysNote(wn.PhysWhy)
			}
		case "union":
			subs := make([]*Node, len(wn.Children))
			for i, id := range wn.Children {
				if subs[i], err = ref(id); err != nil {
					return nil, err
				}
				if subs[i] == nil {
					return nil, fmt.Errorf("engine: union with nil input")
				}
			}
			n = np.Union(subs...)
		case "unmatched":
			if joinRef == nil {
				return nil, fmt.Errorf("engine: unmatched without join reference")
			}
			n = np.Unmatched(joinRef, wn.Cols...)
		case "project":
			if child == nil {
				return nil, fmt.Errorf("engine: project without child")
			}
			n = child.Project(wn.Cols...)
		case "materialize":
			if child == nil {
				return nil, fmt.Errorf("engine: materialize without child")
			}
			n = np.Materialize(child)
		case "exchange":
			ek, ok := exchangeWireKinds[wn.Exchange]
			if !ok {
				return nil, fmt.Errorf("engine: unknown exchange kind %q", wn.Exchange)
			}
			if child == nil {
				return nil, fmt.Errorf("engine: exchange without child")
			}
			n = child.Exchange(ek, wn.ExKeys, wn.ExNodes)
		default:
			return nil, fmt.Errorf("engine: unknown wire node kind %q", wn.Kind)
		}
		if wn.Est > 0 {
			n.SetEst(wn.Est)
		}
		nodes[i] = n
	}
	np.root = nodes[len(nodes)-1]
	for _, k := range wp.Sort {
		np.sortKeys = append(np.sortKeys, SortKey{Name: k.Name, Desc: k.Desc})
	}
	np.limit = wp.Limit
	// Re-validate sort keys against the decoded root schema.
	for _, k := range np.sortKeys {
		schemaResolver(np.root.out).resolve(k.Name)
	}
	return np, nil
}
