// Package core is the public face of the morsel-driven query evaluation
// framework: it bundles a simulated NUMA machine, a scheduling
// configuration, and the query engine into a System, and re-exports the
// core of the plan-building vocabulary so simple applications only import
// one package.
//
// Quick start:
//
//	sys := core.NewSystem(core.Nehalem())
//	b := core.NewTableBuilder("orders", core.Schema{
//		{Name: "id", Type: core.I64},
//		{Name: "amount", Type: core.F64},
//	}, 16, "id")
//	// ... b.Append(...) ...
//	orders := sys.Register(b)
//
//	p := core.NewPlan("total")
//	p.Return(p.Scan(orders, "amount").
//		GroupBy(nil, []core.AggDef{core.Sum("total", core.Col("amount"))}))
//	res, stats := sys.Run(p)
package core

import (
	"repro/internal/dispatch"
	"repro/internal/engine"
	"repro/internal/numa"
	"repro/internal/storage"
)

// Machine selection.

// Nehalem returns the paper's fully connected 4-socket evaluation machine.
func Nehalem() *numa.Machine { return numa.NehalemEXMachine() }

// SandyBridge returns the paper's partially connected 4-socket machine.
func SandyBridge() *numa.Machine { return numa.SandyBridgeEPMachine() }

// Re-exported types: storage.
type (
	// Schema declares table columns.
	Schema = storage.Schema
	// ColDef is one column declaration.
	ColDef = storage.ColDef
	// Row is one tuple for table loading.
	Row = storage.Row
	// Table is a NUMA-partitioned relation.
	Table = storage.Table
	// Placement selects the NUMA placement policy.
	Placement = storage.Placement
)

// Column physical types.
const (
	I64 = storage.I64
	F64 = storage.F64
	Str = storage.Str
)

// Placement policies (§5.3).
const (
	NUMAAware   = storage.NUMAAware
	OSDefault   = storage.OSDefault
	Interleaved = storage.Interleaved
)

// Re-exported types: plans and execution.
type (
	// Plan is a physical query plan.
	Plan = engine.Plan
	// Node is a plan operator.
	Node = engine.Node
	// Expr is a scalar expression.
	Expr = engine.Expr
	// NamedExpr names an expression (group-by keys).
	NamedExpr = engine.NamedExpr
	// AggDef declares an aggregate output.
	AggDef = engine.AggDef
	// SortKey orders terminal results.
	SortKey = engine.SortKey
	// JoinKind selects the hash-join variant.
	JoinKind = engine.JoinKind
	// Result is a materialized query result.
	Result = engine.Result
	// QueryStats reports time and NUMA traffic of one execution.
	QueryStats = engine.QueryStats
	// Val is one runtime value.
	Val = engine.Val
)

// Join kinds.
const (
	JoinInner = engine.JoinInner
	JoinSemi  = engine.JoinSemi
)

// Plan building vocabulary. Richer expressions come from SQL
// (internal/sql) or from the engine package's full builder API.
var (
	NewPlan = engine.NewPlan
	Col     = engine.Col
	ConstI  = engine.ConstI
	ConstF  = engine.ConstF
	ConstS  = engine.ConstS
	Mul     = engine.Mul
	Eq      = engine.Eq
	Lt      = engine.Lt
	Gt      = engine.Gt
	N       = engine.N
	Sum     = engine.Sum
	Count   = engine.Count
	MaxOf   = engine.MaxOf
	Avg     = engine.Avg
	Asc     = engine.Asc
	Desc    = engine.Desc
)

// NewTableBuilder creates a hash-partitioned table builder (nparts
// partitions, partitioned on keyCol; "" = round-robin).
func NewTableBuilder(name string, schema Schema, nparts int, keyCol string) *storage.Builder {
	return storage.NewBuilder(name, schema, nparts, keyCol)
}

// Options configures a System.
type Options struct {
	// Workers is the worker-thread count (default: all hardware
	// threads).
	Workers int
	// MorselRows is the morsel size (default 100k, the paper's value).
	MorselRows int
	// Placement is the table placement policy used by Register.
	Placement Placement
	// RealExecution runs queries on goroutines with wall-clock timing
	// instead of the deterministic virtual-time simulator.
	RealExecution bool
	// Trace records per-morsel scheduling events.
	Trace bool
}

// System is a ready-to-query morsel-driven engine instance on a simulated
// NUMA machine.
type System struct {
	Machine *numa.Machine
	opts    Options
}

// NewSystem creates a system with default options.
func NewSystem(m *numa.Machine, opts ...Options) *System {
	s := &System{Machine: m}
	if len(opts) > 0 {
		s.opts = opts[0]
	}
	return s
}

// Register finalizes a table builder onto this system's sockets.
func (s *System) Register(b *storage.Builder) *Table {
	return b.Build(s.opts.Placement, s.Machine.Topo.Sockets)
}

// session builds the underlying engine session.
func (s *System) session() *engine.Session {
	es := engine.NewSession(s.Machine)
	es.Dispatch = dispatch.Config{
		Workers:    s.opts.Workers,
		MorselRows: s.opts.MorselRows,
		Trace:      s.opts.Trace,
	}
	if s.opts.RealExecution {
		es.Mode = engine.Real
	}
	return es
}

// Run executes a plan to completion. Safe for concurrent use: each call
// builds a private session, dispatcher, and worker pool. For queries that
// should share one worker pool at morsel granularity, use Exec.
func (s *System) Run(p *Plan) (*Result, QueryStats) {
	return s.session().Run(p)
}

// Session exposes the full engine session for advanced use (custom
// dispatch configuration, plan-driven baseline, simulation arrivals).
func (s *System) Session() *engine.Session { return s.session() }

// Exec creates a started shared executor: one long-lived dispatcher and
// real worker pool serving many concurrent queries with elastic,
// priority-weighted worker sharing at morsel boundaries. This is the
// entry point for servers; callers own the returned Exec and must Close
// it.
func (s *System) Exec() *engine.Exec { return engine.NewExec(s.session()) }
