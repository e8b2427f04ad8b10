package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dispatch"
	"repro/internal/storage"
)

// Differential and boundary tests for the scan front end (kernel.go):
// every selection kernel against the row evaluator it re-reads, the chunk
// loop at its boundaries, and the batch aggregation sink against the row
// sink, bit for bit.

// kernelFixture is one partition with the values kernels get wrong: NaN,
// signed zeros and infinities, the int64 extremes, empty and equal-prefix
// strings.
func kernelFixture(rng *rand.Rand, n int) ([]Reg, []*storage.Column) {
	ints := []int64{0, 1, -1, 2, 3, 7, 24, 100, math.MinInt64, math.MaxInt64, 1 << 53, 1<<53 + 1}
	flts := []float64{0, math.Copysign(0, -1), 1, -1, 2.5, 7, 24, 0.05, 0.07, math.NaN(),
		math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64, 1 << 53}
	strs := []string{"", "a", "ab", "abc", "abd", "b", "MAIL", "SHIP", "AIR", "AIR REG", strings.Repeat("x", 40)}
	regs := []Reg{{"i", TInt}, {"j", TInt}, {"f", TFloat}, {"g", TFloat}, {"s", TStr}, {"t", TStr}}
	cols := make([]*storage.Column, len(regs))
	for k, r := range regs {
		cols[k] = storage.NewColumn(r.Name, r.Type.colType())
	}
	for r := 0; r < n; r++ {
		cols[0].AppendI64(ints[rng.Intn(len(ints))])
		cols[1].AppendI64(ints[rng.Intn(len(ints))])
		cols[2].AppendF64(flts[rng.Intn(len(flts))])
		cols[3].AppendF64(flts[rng.Intn(len(flts))])
		cols[4].AppendStr(strs[rng.Intn(len(strs))])
		cols[5].AppendStr(strs[rng.Intn(len(strs))])
	}
	return regs, cols
}

// kernelPipe is a scan pipeline context over the given registers, column
// k backing register k.
func kernelPipe(regs []Reg) *pipeCtx {
	pc := (&compiler{workers: 1, sockets: 1}).newPipe()
	pc.scanCols = make([]int, len(regs))
	for k, r := range regs {
		pc.addReg(r.Name, r.Type)
		pc.scanCols[k] = k
	}
	return pc
}

// bound returns x with its ? placeholders replaced the way BindArgs does.
func bound(x *Expr, types []Type, vals ...Val) *Expr {
	return (&planBinder{vals: vals, types: types}).expr(x)
}

var cmpOps = []func(a, b *Expr) *Expr{Eq, Ne, Lt, Le, Gt, Ge}

// typedConjuncts are predicates that must compile to a typed kernel.
func typedConjuncts() []*Expr {
	var xs []*Expr
	nan, negZero := ConstF(math.NaN()), ConstF(math.Copysign(0, -1))
	for _, op := range cmpOps {
		xs = append(xs,
			op(Col("i"), ConstI(2)), op(ConstI(2), Col("i")), op(Col("i"), ConstI(math.MinInt64)),
			op(Col("i"), ConstF(2.5)), op(Col("i"), ConstF(1<<53)), op(Col("i"), nan), // int column, float constant
			op(Col("f"), ConstF(2.5)), op(ConstF(2.5), Col("f")), op(Col("f"), ConstI(7)),
			op(Col("f"), nan), op(nan, Col("f")), op(Col("f"), negZero), op(Col("f"), ConstF(math.Inf(1))),
			op(Col("i"), Col("j")), op(Col("f"), Col("g")), op(Col("i"), Col("f")), op(Col("f"), Col("i")),
			bound(op(Col("i"), Param(1, TInt)), []Type{TInt}, Val{I: 3}),
			bound(op(Col("f"), Param(1, TFloat)), []Type{TFloat}, Val{F: 0.05}),
		)
	}
	xs = append(xs,
		Between(Col("i"), ConstI(1), ConstI(24)), Between(Col("i"), ConstI(5), ConstI(1)),
		Between(Col("i"), ConstF(0.5), ConstI(24)), Between(Col("i"), ConstI(0), nan),
		Between(Col("f"), ConstF(0.05), ConstF(0.07)), Between(Col("f"), ConstI(-1), ConstI(7)),
		Between(Col("f"), nan, ConstF(7)), Between(Col("f"), negZero, ConstF(0)),
		Between(Col("f"), ConstF(math.Inf(-1)), ConstF(math.Inf(1))),
		Eq(Col("s"), ConstS("ab")), Ne(Col("s"), ConstS("ab")), Eq(ConstS(""), Col("s")), Eq(Col("s"), ConstS("abc")),
		bound(Eq(Col("s"), Param(1, TStr)), []Type{TStr}, Val{S: "MAIL"}),
		InInt(Col("i")), InInt(Col("i"), 7), InInt(Col("i"), 7, 7, 1), InInt(Col("i"), math.MinInt64, 3),
		InInt(Col("i"), 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 24, 24), // past inSetLinearMax: the map
		InStr(Col("s")), InStr(Col("s"), "MAIL"), InStr(Col("s"), "MAIL", "SHIP", "MAIL"), InStr(Col("s"), "", "ab"),
		InStr(Col("s"), "a", "ab", "abc", "abd", "b", "c", "d", "e", "f", "AIR REG"),
	)
	return xs
}

// genericConjuncts have no typed kernel and run through the row
// evaluator over late-filled registers.
func genericConjuncts() []*Expr {
	return []*Expr{
		Or(Lt(Col("i"), ConstI(0)), Eq(Col("s"), ConstS("b"))),
		Not(Le(Col("f"), ConstF(1))),
		Like(Col("s"), "a%"), NotLike(Col("t"), "%b%"),
		Lt(Add(Col("i"), ConstI(1)), Col("j")), // wraps at MaxInt64
		Gt(Mul(Col("f"), Col("g")), ConstF(1)),
		Eq(If(Gt(Col("i"), ConstI(2)), Col("f"), Col("g")), ConstF(7)),
		Between(Col("s"), ConstS("a"), ConstS("abd")),
		Lt(Col("s"), Col("t")), Ge(Col("s"), ConstS("ab")),
		Between(Col("i"), Col("j"), ConstI(100)),
		Eq(ConstI(1), ConstI(1)), ConstI(0),
	}
}

// TestSelectionKernelsMatchRowEvaluator runs each conjunct's kernels over
// chunks of the fixture — from the identity selection into a separate
// buffer, and in place over a sparse selection — and demands exactly the
// rows the row evaluator keeps. A float <= or >= kernel written as a
// plain IEEE compare fails here on the NaN rows.
func TestSelectionKernelsMatchRowEvaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 3000
	regs, cols := kernelFixture(rng, n)
	pc := kernelPipe(regs)
	all := make([]int, len(regs))
	for k := range all {
		all[k] = k
	}
	fillAll := pc.fillFor(all)
	e := newEctx(len(regs), 1, nil)
	e.scanScratch = borrowScanScratch(0, 0)

	check := func(x *Expr, wantTyped bool) {
		t.Helper()
		if k, _ := typedKernel(pc, x); (k != nil) != wantTyped {
			t.Errorf("%s: typed kernel = %v, want %v", x, k != nil, wantTyped)
		}
		fn, _ := x.compile(pc)
		kernels := compileFilter(pc, x)
		for _, chunk := range []struct{ base, n int }{{0, 0}, {5, 1}, {17, 1500}, {n - scanChunkRows, scanChunkRows}} {
			b := &colBatch{cols: cols, base: chunk.base, n: chunk.n}
			var want, wantSparse []int32
			for r := 0; r < chunk.n; r++ {
				fillAll.row(e, cols, chunk.base+r)
				if fn(e).I != 0 {
					want = append(want, int32(r))
					if r%3 == 0 {
						wantSparse = append(wantSparse, int32(r))
					}
				}
			}
			sel := identitySel[:chunk.n]
			for _, k := range kernels {
				sel = e.sel[:k(e, b, sel, e.sel[:])]
			}
			if !slices.Equal(sel, want) {
				t.Errorf("%s on rows [%d,%d): kept %d rows, row evaluator %d", x, chunk.base, chunk.base+chunk.n, len(sel), len(want))
			}
			sparse := e.sel[:0]
			for r := 0; r < chunk.n; r += 3 {
				sparse = append(sparse, int32(r))
			}
			for _, k := range kernels {
				sparse = sparse[:k(e, b, sparse, sparse)]
			}
			if !slices.Equal(sparse, wantSparse) {
				t.Errorf("%s in place on rows [%d,%d): kept %d rows, row evaluator %d", x, chunk.base, chunk.base+chunk.n, len(sparse), len(wantSparse))
			}
		}
	}
	for _, x := range typedConjuncts() {
		check(x, true)
	}
	for _, x := range genericConjuncts() {
		check(x, false)
	}
	// Whole filters: conjunctions mixing ranks, nested ANDs included.
	typed, generic := typedConjuncts(), genericConjuncts()
	for i := 0; i < 200; i++ {
		var xs []*Expr
		for k := 2 + rng.Intn(3); k > 0; k-- {
			if rng.Intn(4) == 0 {
				xs = append(xs, generic[rng.Intn(len(generic))])
			} else {
				xs = append(xs, typed[rng.Intn(len(typed))])
			}
		}
		check(And(xs[0], And(xs[1:]...)), false)
	}
}

func TestInSet(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 2, inSetLinearMax, inSetLinearMax + 1, 40} {
		vals := make([]int64, n)
		strs := make([]string, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(n + 2)) // duplicates likely
			strs[i] = fmt.Sprint("v", vals[i])
		}
		is, ss := newInSet(vals), newInSet(strs)
		if (is.m != nil) != (n > inSetLinearMax) {
			t.Errorf("%d values: map = %v", n, is.m != nil)
		}
		for v := int64(-1); v < int64(n+3); v++ {
			if got, want := is.has(v), slices.Contains(vals, v); got != want {
				t.Errorf("%d ints: has(%d) = %v, want %v", n, v, got, want)
			}
			if got, want := ss.has(fmt.Sprint("v", v)), slices.Contains(vals, v); got != want {
				t.Errorf("%d strings: has(v%d) = %v, want %v", n, v, got, want)
			}
		}
	}
}

// TestLateRegisterFill pins part two of the front end: a register becomes
// a Val only if a downstream consumer resolved it; columns only the filter
// reads do not.
func TestLateRegisterFill(t *testing.T) {
	regs := []Reg{{"a", TInt}, {"b", TFloat}, {"c", TStr}, {"d", TInt}}
	c := &compiler{workers: 1, sockets: 1}
	filter := And(Gt(Col("a"), ConstI(0)), Like(Col("c"), "x%"))
	pc, _ := c.scanPipe(regs, nil, filter, func(pc *pipeCtx) consumer {
		pc.resolve("b")
		pc.resolve("d")
		return consumer{row: func(*Ectx) {}}
	})
	if want := []bool{false, true, false, true}; !slices.Equal(pc.used, want) {
		t.Errorf("registers filled for consumers: %v, want %v", pc.used, want)
	}
}

// chunkTable is one partition of n rows: k = row number, alt = k%2,
// v = k/4 (exact in binary), tag = one of three strings.
func chunkTable(n int) *storage.Table {
	cols := []*storage.Column{
		storage.NewColumn("k", storage.I64), storage.NewColumn("alt", storage.I64),
		storage.NewColumn("v", storage.F64), storage.NewColumn("tag", storage.Str),
	}
	for i := 0; i < n; i++ {
		cols[0].AppendI64(int64(i))
		cols[1].AppendI64(int64(i % 2))
		cols[2].AppendF64(float64(i) / 4)
		cols[3].AppendStr([]string{"x", "yy", ""}[i%3])
	}
	return &storage.Table{Name: "chunks", Schema: storage.Schema{
		{Name: "k", Type: storage.I64}, {Name: "alt", Type: storage.I64},
		{Name: "v", Type: storage.F64}, {Name: "tag", Type: storage.Str},
	}, Parts: []*storage.Partition{{Home: 0, Worker: -1, Cols: cols}}}
}

// TestScanChunkBoundaries scans single-morsel tables whose length sits on
// every side of the chunk size, under filters keeping no, all and
// alternating rows (typed and generic), into a row consumer and into the
// batch sink.
func TestScanChunkBoundaries(t *testing.T) {
	filters := []struct {
		name string
		pred *Expr
		keep func(k int) bool
	}{
		{"unfiltered", nil, func(int) bool { return true }},
		{"none", Lt(Col("k"), ConstI(0)), func(int) bool { return false }},
		{"all", Ge(Col("k"), ConstI(0)), func(int) bool { return true }},
		{"alternating", Eq(Col("alt"), ConstI(0)), func(k int) bool { return k%2 == 0 }},
		{"alternating-generic", Or(Eq(Col("alt"), ConstI(1)), Lt(Col("k"), ConstI(0))), func(k int) bool { return k%2 == 1 }},
		{"typed-then-generic", And(Ge(Col("k"), ConstI(3)), Not(Eq(Col("tag"), ConstS("yy")))), func(k int) bool { return k >= 3 && k%3 != 1 }},
	}
	for _, n := range []int{0, 1, scanChunkRows - 1, scanChunkRows, scanChunkRows + 1, 3*scanChunkRows + 7} {
		tbl := chunkTable(n)
		for _, f := range filters {
			var wantKeys []int64
			var wantSum float64
			for k := 0; k < n; k++ {
				if f.keep(k) {
					wantKeys = append(wantKeys, int64(k))
					wantSum += float64(k) / 4
				}
			}
			s := newTestSession(Sim)
			s.Dispatch.Workers, s.Dispatch.MorselRows = 1, 1<<20
			scan := func(p *Plan) *Node {
				node := p.Scan(tbl, "k", "alt", "v", "tag")
				if f.pred != nil {
					node = node.Filter(f.pred)
				}
				return node
			}
			p := NewPlan("rows")
			p.Return(scan(p).Project("k", "v"))
			res, _ := s.Run(p)
			var gotKeys []int64
			for _, row := range res.Rows() {
				gotKeys = append(gotKeys, row[0].I)
				if row[1].F != float64(row[0].I)/4 {
					t.Fatalf("n=%d %s: row k=%d carries v=%v", n, f.name, row[0].I, row[1].F)
				}
			}
			if !slices.Equal(gotKeys, wantKeys) {
				t.Errorf("n=%d %s: row consumer saw %d rows, want %d", n, f.name, len(gotKeys), len(wantKeys))
			}
			p = NewPlan("agg")
			p.Return(scan(p).GroupBy(nil, []AggDef{Count("n"), Sum("s", Col("v")), MaxOf("m", Col("k"))}))
			res, _ = s.Run(p)
			wantMax := int64(0)
			if len(wantKeys) > 0 {
				wantMax = wantKeys[len(wantKeys)-1]
			}
			if res.NumRows() != 1 {
				t.Fatalf("n=%d %s: global aggregate returned %d rows", n, f.name, res.NumRows())
			}
			if row := res.Rows()[0]; row[0].I != int64(len(wantKeys)) || row[1].F != wantSum || row[2].I != wantMax {
				t.Errorf("n=%d %s: batch sink got (%d, %v, %d), want (%d, %v, %d)", n, f.name,
					row[0].I, row[1].F, row[2].I, len(wantKeys), wantSum, wantMax)
			}
		}
	}
}

// sinkTable is the input of the sink differential: int, float and string
// key candidates, a date, and float / int measures including NaN and the
// infinities in v.
func sinkTable(rng *rand.Rand, n, keyRange int) *storage.Table {
	b := storage.NewBuilder("sink", storage.Schema{
		{Name: "k", Type: storage.I64}, {Name: "tag", Type: storage.Str}, {Name: "fk", Type: storage.F64},
		{Name: "d", Type: storage.I64}, {Name: "v", Type: storage.F64}, {Name: "w", Type: storage.F64},
		{Name: "q", Type: storage.I64},
	}, 1+rng.Intn(4), "k")
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	for i := 0; i < n; i++ {
		k := int64(rng.Intn(keyRange))
		v := math.Round(rng.NormFloat64()*1000) / 7
		if rng.Intn(200) == 0 {
			v = special[rng.Intn(len(special))]
		}
		b.Append(storage.Row{k, fmt.Sprintf("t%d", k%5), float64(k%11) / 4, ParseDate("1995-01-01") + int64(rng.Intn(900)),
			v, rng.Float64(), int64(rng.Intn(50)) - 10})
	}
	return b.Build(storage.NUMAAware, 4)
}

var sinkCols = []string{"k", "tag", "fk", "d", "v", "w", "q"}

// sinkShapes are (group keys, aggregates) pairs: no, one and several
// keys of every type, computed keys, shared subexpressions, int
// arithmetic and CASE inputs, COUNT-only.
func sinkShapes() []struct {
	groups []NamedExpr
	aggs   []AggDef
} {
	disc := Mul(Col("v"), Sub(ConstI(1), Col("w")))
	return []struct {
		groups []NamedExpr
		aggs   []AggDef
	}{
		{nil, allAggs},
		{nil, []AggDef{Count("n")}},
		{[]NamedExpr{N("k", Col("k"))}, allAggs},
		{[]NamedExpr{N("tag", Col("tag")), N("fk", Col("fk"))},
			[]AggDef{Sum("a", disc), Sum("b", Mul(disc, Add(ConstF(1), Col("w")))), Avg("c", Col("w")), Avg("c2", Col("w")), Count("n")}},
		{[]NamedExpr{N("y", Year(Col("d"))), N("p", Substr(Col("tag"), 1, 1))},
			[]AggDef{Sum("qs", Mul(Col("q"), Add(Col("q"), ConstI(3)))), MinOf("lo", Col("q")), MaxOf("hi", Div(Col("q"), ConstI(4))),
				Sum("cs", If(Gt(Col("v"), ConstF(0)), Col("v"), ConstF(0))), Sum("mix", Mul(Add(Col("q"), ConstI(1)), Col("w")))}},
		{[]NamedExpr{N("k", Col("k")), N("tag", Col("tag"))}, []AggDef{Count("n")}},
	}
}

// exactRows renders a result with floats as their bit patterns, sorted.
func exactRows(r *Result) []string {
	out := make([]string, r.NumRows())
	for i, row := range r.Rows() {
		var b strings.Builder
		for j, v := range row {
			switch r.Schema[j].Type {
			case TInt:
				fmt.Fprintf(&b, "%d|", v.I)
			case TFloat:
				fmt.Fprintf(&b, "%016x|", math.Float64bits(v.F))
			default:
				fmt.Fprintf(&b, "%q|", v.S)
			}
		}
		out[i] = b.String()
	}
	slices.Sort(out)
	return out
}

// viaRowSink builds the aggregation over a pass-through Map, which puts
// an operator between the scan and the sink and so forces the row entry;
// the extra column is projected away again.
func viaRowSink(n *Node, groups []NamedExpr, aggs []AggDef) *Node {
	return viaRowSinkAlgo(n, groups, aggs, aggEngines[0])
}

func viaRowSinkAlgo(n *Node, groups []NamedExpr, aggs []AggDef, algo aggChoice) *Node {
	var names []string
	for _, g := range groups {
		names = append(names, g.Name)
	}
	for _, a := range aggs {
		names = append(names, a.Name)
	}
	return n.Map("$one", ConstI(1)).GroupBy(groups, aggs).SetEst(algo.est).Project(names...)
}

// aggChoice selects one aggregation engine the way the compiler does:
// through the aggregation's group estimate.
type aggChoice struct {
	name string
	est  float64
}

func (a aggChoice) String() string { return a.name }

// aggEngines are both engines' phase 1, which share the batch and the row
// sink; the partitioned one needs group keys.
var aggEngines = []aggChoice{{"shared", 0}, {"partitioned", partitionedAggMinGroups}}

// TestBatchSinkMatchesRowSink is the differential for part three: every
// shape, under filters keeping nothing, one group, and most rows, through
// both engines — the shared one with its pre-aggregation table at its
// default and shrunk until most keys take the cold path — on the simulator
// and on one real worker, byte for byte.
func TestBatchSinkMatchesRowSink(t *testing.T) {
	old := DefaultPreAggCapacity
	defer func() { DefaultPreAggCapacity = old }()
	rng := rand.New(rand.NewSource(3))
	tbl := sinkTable(rng, 9000, 300)
	filters := []*Expr{nil, Lt(Col("k"), ConstI(0)), Eq(Col("k"), ConstI(17)), And(Ge(Col("k"), ConstI(20)), Like(Col("tag"), "t%"))}
	for _, algo := range aggEngines {
		for _, capacity := range []int{old, 0, 1, 5} {
			if algo.name == "partitioned" && capacity != old {
				continue // it has no capacity
			}
			DefaultPreAggCapacity = capacity
			for si, shape := range sinkShapes() {
				if algo.name == "partitioned" && len(shape.groups) == 0 {
					continue
				}
				for fi, pred := range filters {
					for _, mode := range []Mode{Sim, Real} {
						s := newTestSession(mode)
						s.Dispatch.Workers, s.Dispatch.MorselRows = 1, 1500
						scan := func(p *Plan) *Node {
							node := p.Scan(tbl, sinkCols...)
							if pred != nil {
								node = node.Filter(pred)
							}
							return node
						}
						p := NewPlan("batch")
						p.Return(scan(p).GroupBy(shape.groups, shape.aggs).SetEst(algo.est))
						got, _ := s.Run(p)
						p = NewPlan("rows")
						p.Return(viaRowSinkAlgo(scan(p), shape.groups, shape.aggs, algo))
						want, _ := s.Run(p)
						if len(shape.groups) == 0 && got.NumRows() != 1 {
							t.Errorf("shape %d filter %d: global aggregate returned %d rows", si, fi, got.NumRows())
						}
						if g, w := exactRows(got), exactRows(want); !slices.Equal(g, w) {
							t.Errorf("%v capacity %d shape %d filter %d mode %v: batch sink differs from row sink\n got %v\nwant %v",
								algo, capacity, si, fi, mode, firstDiff(g, w), firstDiff(w, g))
						}
					}
				}
			}
		}
	}
}

// firstDiff returns the first row of a missing from b, for error output.
func firstDiff(a, b []string) string {
	for _, r := range a {
		if !slices.Contains(b, r) {
			return r
		}
	}
	return fmt.Sprintf("(%d rows, all present)", len(a))
}

// TestBatchSinkAcrossWorkers runs a grouped shape through both engines on
// several real workers (the race job's target): per-worker sums now depend
// on which worker took which morsel, so floats are compared with a
// tolerance.
func TestBatchSinkAcrossWorkers(t *testing.T) {
	old := DefaultPreAggCapacity
	defer func() { DefaultPreAggCapacity = old }()
	rng := rand.New(rand.NewSource(4))
	b := storage.NewBuilder("w", storage.Schema{
		{Name: "k", Type: storage.I64}, {Name: "tag", Type: storage.Str}, {Name: "v", Type: storage.F64},
	}, 6, "k")
	want := map[string]*oracleAcc{}
	for i := 0; i < 20000; i++ {
		k, v := int64(rng.Intn(400)), math.Round(rng.NormFloat64()*1000)/10
		tag := fmt.Sprintf("g%d", k%7)
		b.Append(storage.Row{k, tag, v})
		if k >= 10 {
			id := fmt.Sprintf("%d|%s", k, tag)
			if want[id] == nil {
				want[id] = &oracleAcc{}
			}
			want[id].add(v)
		}
	}
	tbl := b.Build(storage.NUMAAware, 4)
	for _, algo := range aggEngines {
		for _, capacity := range []int{old, 3} {
			DefaultPreAggCapacity = capacity
			for _, workers := range []int{2, 8} {
				s := newTestSession(Real)
				s.Dispatch.Workers, s.Dispatch.MorselRows = workers, 700
				p := NewPlan("q")
				p.Return(p.Scan(tbl, "k", "tag", "v").Filter(Ge(Col("k"), ConstI(10))).
					GroupBy([]NamedExpr{N("k", Col("k")), N("tag", Col("tag"))}, allAggs).SetEst(algo.est))
				res, _ := s.Run(p)
				if res.NumRows() != len(want) {
					t.Fatalf("%v capacity %d, %d workers: %d groups, want %d", algo, capacity, workers, res.NumRows(), len(want))
				}
				for _, row := range res.Rows() {
					if o := want[fmt.Sprintf("%d|%s", row[0].I, row[1].S)]; o == nil || !o.matches(row, 2) {
						t.Fatalf("%v capacity %d, %d workers: group (%d, %s) wrong", algo, capacity, workers, row[0].I, row[1].S)
					}
				}
			}
		}
	}
}

// TestBatchSinkOverEverySource runs one grouped aggregation through the
// batch sink and through the row sink over each kind of column source the
// scan body serves: a zone-pruned sealed table, a pinned delta prefix, a
// stream scan and a matscan.
func TestBatchSinkOverEverySource(t *testing.T) {
	groups := []NamedExpr{N("b", Substr(Col("s"), 1, 5))}
	aggs := []AggDef{Count("n"), Sum("sf", Col("f")), MaxOf("hi", Col("v")), Avg("a", Mul(Col("f"), Col("f")))}
	pred := And(Ge(Col("v"), ConstI(700)), Lt(Col("f"), ConstF(3000)))
	run := func(label string, build func(p *Plan, batch bool) *Node, exec func(p *Plan) *Result) {
		t.Helper()
		var res [2]*Result
		for i, batch := range []bool{true, false} {
			p := NewPlan(label)
			node := build(p, batch)
			if batch {
				node = node.GroupBy(groups, aggs)
			} else {
				node = viaRowSink(node, groups, aggs)
			}
			p.Return(node)
			res[i] = exec(p)
		}
		if res[0].NumRows() == 0 {
			t.Errorf("%s: no groups", label)
		}
		if g, w := exactRows(res[0]), exactRows(res[1]); !slices.Equal(g, w) {
			t.Errorf("%s: batch sink differs from row sink\n got %v\nwant %v", label, firstDiff(g, w), firstDiff(w, g))
		}
	}
	oneWorker := func(mode Mode) *Session {
		s := newTestSession(mode)
		s.Dispatch.Workers, s.Dispatch.MorselRows = 1, 900
		return s
	}
	simRun := func(p *Plan) *Result { r, _ := oneWorker(Sim).Run(p); return r }

	zoned := zonedFixture(8000, 4, 256, true)
	run("zone-pruned", func(p *Plan, _ bool) *Node { return p.Scan(zoned, "v", "f", "s").Filter(pred) }, simRun)

	run("matscan", func(p *Plan, _ bool) *Node {
		return p.Materialize(p.Scan(zoned, "v", "f", "s").Filter(pred))
	}, simRun)

	// Pinned delta prefix: two committed batches are visible, the third,
	// appended after the pin, is not.
	live := zonedFixture(2000, 2, 256, true)
	deltaRows := func(from, to int) []storage.Row {
		var rows []storage.Row
		for i := from; i < to; i++ {
			rows = append(rows, storage.Row{int64(i), float64(i) / 2, fmt.Sprintf("k%06d", i)})
		}
		return rows
	}
	for _, r := range [][2]int{{2000, 2600}, {2600, 3100}} {
		if _, err := live.Delta().Append(deltaRows(r[0], r[1])); err != nil {
			t.Fatal(err)
		}
	}
	snap := storage.PinTables(map[string]*storage.Table{"zt": live})
	if _, err := live.Delta().Append(deltaRows(3100, 5000)); err != nil {
		t.Fatal(err)
	}
	x := NewExec(oneWorker(Real))
	defer x.Close()
	run("pinned delta", func(p *Plan, _ bool) *Node { return p.Scan(live, "v", "f", "s").Filter(pred) },
		func(p *Plan) *Result {
			res, _, err := x.RunSnap(context.Background(), p, 0, snap)
			if err != nil {
				t.Fatal(err)
			}
			var n int64
			for _, row := range res.Rows() {
				n += row[1].I
			}
			if want := int64(3100 - 700 - 256); n != want { // the fixture's 256-row NaN band fails f < 3000
				t.Errorf("pinned delta: counted %d rows, want %d", n, want)
			}
			return res
		})

	run("stream scan", func(p *Plan, _ bool) *Node {
		src := NewStreamSource("test")
		src.Feed(zoned.Parts...)
		src.Close(nil)
		stub := &storage.Table{Name: "$in", Schema: zoned.Schema}
		return p.ScanStream(src, stub, "v", "f", "s").Filter(pred)
	}, func(p *Plan) *Result {
		res, _, err := x.Run(context.Background(), p, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res
	})
}

// TestLongStringGroupKey: a group key of 65 536 bytes or more used to
// come back cut to its length mod 65 536, mis-parsing every key column
// after it.
func TestLongStringGroupKey(t *testing.T) {
	long := []string{strings.Repeat("a", 70000), strings.Repeat("a", 70001), strings.Repeat("b", 65535), "short"}
	b := storage.NewBuilder("long", storage.Schema{
		{Name: "s", Type: storage.Str}, {Name: "k", Type: storage.I64}, {Name: "v", Type: storage.F64},
	}, 2, "k")
	for i := 0; i < 40; i++ {
		b.Append(storage.Row{long[i%len(long)], int64(i % 2), 1.0})
	}
	tbl := b.Build(storage.NUMAAware, 4)
	for _, twoKeys := range []bool{false, true} {
		groups := []NamedExpr{N("s", Col("s"))}
		if twoKeys {
			groups = append(groups, N("k", Col("k")))
		}
		for _, rowSink := range []bool{false, true} {
			p := NewPlan("long")
			node := p.Scan(tbl, "s", "k", "v")
			if rowSink {
				node = viaRowSink(node, groups, []AggDef{Count("n")})
			} else {
				node = node.GroupBy(groups, []AggDef{Count("n")})
			}
			p.Return(node)
			res, _ := newTestSession(Sim).Run(p)
			got := map[string]int64{}
			for _, row := range res.Rows() {
				id := fmt.Sprint(len(row[0].S), row[0].S[:1])
				if twoKeys {
					id += fmt.Sprint("/", row[1].I)
				}
				got[id] += row[len(row)-1].I
			}
			want := map[string]int64{"70000a": 10, "70001a": 10, "65535b": 10, "5s": 10}
			if twoKeys { // i%4 fixes i%2: each string meets one k only
				want = map[string]int64{"70000a/0": 10, "70001a/1": 10, "65535b/0": 10, "5s/1": 10}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("two keys %v, row sink %v: groups %v, want %v", twoKeys, rowSink, got, want)
			}
		}
	}
}

// TestScanMorselAllocatesNothing: selection, vectors, group ids and the
// placed rows' inputs are borrowed from the scratch pool, so once the
// worker's context and the groups exist a morsel through filter kernels
// and the batch sink of either engine allocates nothing — the shared
// engine's table and cold path, and the partitioned engine's tables.
func TestScanMorselAllocatesNothing(t *testing.T) {
	old := DefaultPreAggCapacity
	defer func() { DefaultPreAggCapacity = old }()
	tbl := chunkTable(3*scanChunkRows + 7)
	s := newTestSession(Sim)
	c := &compiler{sess: s, workers: 1, sockets: s.Machine.Topo.Sockets}
	p := NewPlan("alloc")
	agg := p.Scan(tbl, "k", "alt", "v", "tag").
		Filter(And(Eq(Col("alt"), ConstI(0)), Ne(Col("tag"), ConstS("yy")), Like(Col("tag"), "%"))).
		GroupBy([]NamedExpr{N("tag", Col("tag"))}, []AggDef{Count("n"), Sum("s", Mul(Col("v"), Col("v"))), MaxOf("m", Col("k"))})
	scan := agg.child
	d := dispatch.NewDispatcher(s.Machine, dispatch.Config{Workers: 1})
	w := dispatch.NewSimRunner(d, dispatch.SimConfig{}).Workers()[0]
	m := storage.Morsel{Part: tbl.Parts[0], Begin: 0, End: tbl.Parts[0].Rows()}
	for _, capacity := range []int{old, 1} {
		DefaultPreAggCapacity = capacity
		sa := c.newSharedAgg(agg)
		pa := c.newPartAgg(agg)
		for _, eng := range []aggEngine{sa, pa} {
			_, body := c.scanPipe(scan.out, scan.scanSrc, scan.filter, func(pc *pipeCtx) consumer {
				return consumer{batch: sa.rt.batchSink(pc, eng)}
			})
			body(w, m) // creates the context and the groups
			if allocs := morselAllocs(20, func() {
				if capacity == 1 {
					for i := range sa.spills[0] {
						sa.spills[0][i].reset() // the cold key's spill run would grow
					}
				}
				body(w, m)
			}); allocs != 0 {
				t.Errorf("%T, capacity %d: a steady-state morsel allocates %v times", eng, capacity, allocs)
			}
		}
		groups := 0
		for _, tab := range pa.parts[0] {
			if tab != nil {
				groups += tab.len()
			}
		}
		if got := sa.locals[0].len(); got != min(2, capacity) || groups != 2 {
			t.Errorf("capacity %d: %d shared groups, %d partitioned ones; want %d and 2", capacity, got, groups, min(2, capacity))
		}
	}
}
