package engine

import (
	"sync/atomic"
	"testing"

	"repro/internal/dispatch"
	"repro/internal/numa"
	"repro/internal/storage"
)

// Edge cases and failure injection: empty inputs, degenerate limits,
// cancellation mid-pipeline, and pathological configurations.

func emptyTable() *storage.Table {
	b := storage.NewBuilder("empty", storage.Schema{
		{Name: "k", Type: storage.I64},
		{Name: "v", Type: storage.F64},
	}, 4, "k")
	return b.Build(storage.NUMAAware, 4)
}

func oneRowTable(k int64, v float64) *storage.Table {
	b := storage.NewBuilder("one", storage.Schema{
		{Name: "k", Type: storage.I64},
		{Name: "v", Type: storage.F64},
	}, 4, "k")
	b.Append(storage.Row{k, v})
	return b.Build(storage.NUMAAware, 4)
}

func TestEmptyScan(t *testing.T) {
	s := newTestSession(Sim)
	p := NewPlan("empty")
	p.Return(p.Scan(emptyTable(), "k", "v"))
	res, _ := s.Run(p)
	if res.NumRows() != 0 {
		t.Fatalf("rows = %d", res.NumRows())
	}
}

func TestEmptyBuildSide(t *testing.T) {
	orders := ordersTable(500, 20)
	s := newTestSession(Sim)
	for _, kind := range []JoinKind{JoinInner, JoinSemi, JoinAnti, JoinOuterProbe} {
		p := NewPlan("emptybuild")
		build := p.Scan(emptyTable(), "k", "v")
		var n *Node
		switch kind {
		case JoinInner, JoinOuterProbe:
			n = p.Scan(orders, "o_cust").
				HashJoin(build, kind, []*Expr{Col("o_cust")}, []*Expr{Col("k")}, "v")
		default:
			n = p.Scan(orders, "o_cust").
				HashJoin(build, kind, []*Expr{Col("o_cust")}, []*Expr{Col("k")})
		}
		p.Return(n.GroupBy(nil, []AggDef{Count("n")}))
		res, _ := s.Run(p)
		got := res.Rows()[0][0].I
		var want int64
		switch kind {
		case JoinInner, JoinSemi:
			want = 0
		case JoinAnti, JoinOuterProbe:
			want = 500 // everything unmatched / preserved
		}
		if got != want {
			t.Errorf("kind %d: count = %d, want %d", kind, got, want)
		}
	}
}

func TestEmptyProbeSide(t *testing.T) {
	cust := custTable(50)
	s := newTestSession(Sim)
	p := NewPlan("emptyprobe")
	build := p.Scan(cust, "c_id")
	n := p.Scan(emptyTable(), "k", "v").
		HashJoin(build, JoinInner, []*Expr{Col("k")}, []*Expr{Col("c_id")}).
		GroupBy(nil, []AggDef{Count("n")})
	p.Return(n)
	res, _ := s.Run(p)
	if res.Rows()[0][0].I != 0 {
		t.Fatalf("count = %d", res.Rows()[0][0].I)
	}
}

func TestEmptySort(t *testing.T) {
	s := newTestSession(Sim)
	p := NewPlan("emptysort")
	p.ReturnSorted(p.Scan(emptyTable(), "k", "v"), 0, Asc("k"))
	res, _ := s.Run(p)
	if res.NumRows() != 0 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	// Top-k over empty input.
	p2 := NewPlan("emptytopk")
	p2.ReturnSorted(p2.Scan(emptyTable(), "k", "v"), 5, Desc("v"))
	res2, _ := s.Run(p2)
	if res2.NumRows() != 0 {
		t.Fatalf("topk rows = %d", res2.NumRows())
	}
}

func TestTopKLimitLargerThanInput(t *testing.T) {
	s := newTestSession(Sim)
	p := NewPlan("bigk")
	p.ReturnSorted(p.Scan(oneRowTable(1, 2.5), "k", "v"), 100, Asc("k"))
	res, _ := s.Run(p)
	if res.NumRows() != 1 {
		t.Fatalf("rows = %d, want 1", res.NumRows())
	}
}

func TestLimitOne(t *testing.T) {
	tbl := ordersTable(1000, 21)
	s := newTestSession(Sim)
	p := NewPlan("limit1")
	p.ReturnSorted(p.Scan(tbl, "o_id", "o_amount"), 1, Desc("o_amount"))
	res, _ := s.Run(p)
	if res.NumRows() != 1 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	// Verify it really is the maximum.
	var max float64
	for _, part := range tbl.Parts {
		for _, v := range part.Cols[2].Flts {
			if v > max {
				max = v
			}
		}
	}
	if res.Rows()[0][1].F != max {
		t.Fatalf("limit-1 = %f, want max %f", res.Rows()[0][1].F, max)
	}
}

func TestSortWithManyDuplicates(t *testing.T) {
	// Duplicate keys across separator boundaries must appear exactly
	// once each (the parallel merge partitions by separator).
	b := storage.NewBuilder("dups", storage.Schema{
		{Name: "k", Type: storage.I64},
		{Name: "id", Type: storage.I64},
	}, 8, "id")
	const n = 5000
	for i := 0; i < n; i++ {
		b.Append(storage.Row{int64(i % 3), int64(i)}) // only 3 distinct keys
	}
	tbl := b.Build(storage.NUMAAware, 4)
	s := newTestSession(Sim)
	s.Dispatch.Workers = 16
	p := NewPlan("dupsort")
	p.ReturnSorted(p.Scan(tbl, "k", "id"), 0, Asc("k"))
	res, _ := s.Run(p)
	if res.NumRows() != n {
		t.Fatalf("rows = %d, want %d", res.NumRows(), n)
	}
	seen := map[int64]bool{}
	prev := int64(-1)
	for _, row := range res.Rows() {
		if row[0].I < prev {
			t.Fatalf("sort order violated")
		}
		prev = row[0].I
		if seen[row[1].I] {
			t.Fatalf("row id %d duplicated by parallel merge", row[1].I)
		}
		seen[row[1].I] = true
	}
}

func TestStringSortKeys(t *testing.T) {
	b := storage.NewBuilder("strs", storage.Schema{{Name: "s", Type: storage.Str}}, 4, "")
	words := []string{"pear", "apple", "fig", "banana", "", "apple"}
	for _, w := range words {
		b.Append(storage.Row{w})
	}
	s := newTestSession(Sim)
	p := NewPlan("strsort")
	p.ReturnSorted(p.Scan(b.Build(storage.NUMAAware, 4), "s"), 0, Asc("s"))
	res, _ := s.Run(p)
	want := []string{"", "apple", "apple", "banana", "fig", "pear"}
	for i, row := range res.Rows() {
		if row[0].S != want[i] {
			t.Fatalf("position %d = %q, want %q", i, row[0].S, want[i])
		}
	}
}

func TestFloatJoinKeys(t *testing.T) {
	// Equality joins on float keys (TPC-H Q2's min-cost pattern).
	b := storage.NewBuilder("costs", storage.Schema{
		{Name: "pk", Type: storage.I64},
		{Name: "cost", Type: storage.F64},
	}, 4, "pk")
	b.Append(storage.Row{int64(1), 10.55})
	b.Append(storage.Row{int64(1), 11.20})
	b.Append(storage.Row{int64(2), 3.33})
	tbl := b.Build(storage.NUMAAware, 4)

	s := newTestSession(Sim)
	p := NewPlan("floatkey")
	minCost := p.Scan(tbl, "pk AS mk", "cost AS mc").
		GroupBy([]NamedExpr{N("mk", Col("mk"))}, []AggDef{MinOf("mc", Col("mc"))})
	n := p.Scan(tbl, "pk", "cost").
		HashJoin(minCost, JoinSemi,
			[]*Expr{Col("pk"), Col("cost")},
			[]*Expr{Col("mk"), Col("mc")}).
		GroupBy(nil, []AggDef{Count("n")})
	p.Return(n)
	res, _ := s.Run(p)
	if got := res.Rows()[0][0].I; got != 2 { // one min row per part key
		t.Fatalf("min-cost rows = %d, want 2", got)
	}
}

func TestUnionOfThree(t *testing.T) {
	s := newTestSession(Sim)
	p := NewPlan("union3")
	mk := func(v int64) *Node {
		return p.Scan(oneRowTable(v, float64(v)), "k", "v")
	}
	u := p.Union(mk(1), mk(2), mk(3)).GroupBy(nil, []AggDef{Count("n"), Sum("s", Col("v"))})
	p.Return(u)
	res, _ := s.Run(p)
	if res.Rows()[0][0].I != 3 || res.Rows()[0][1].F != 6 {
		t.Fatalf("union3 = %v", res.Rows()[0])
	}
}

func TestCancellationMidQuery(t *testing.T) {
	// Cancel a query from inside its own pipeline after a few morsels:
	// the query must terminate promptly without completing.
	tbl := ordersTable(50000, 22)
	s := newTestSession(Sim)
	s.Dispatch.MorselRows = 200
	d := dispatch.NewDispatcher(s.Machine, s.Dispatch)

	var morsels atomic.Int64
	p := NewPlan("cancelme")
	p.Return(p.Scan(tbl, "o_id").GroupBy(nil, []AggDef{Count("n")}))
	cp := s.Compile(p)
	// Wrap the first job's Run to trigger cancellation.
	jobs := cp.Query.Jobs()
	orig := jobs[0].Run
	jobs[0].Run = func(w *dispatch.Worker, m storage.Morsel) {
		if morsels.Add(1) == 5 {
			d.Cancel(cp.Query)
		}
		orig(w, m)
	}
	r := dispatch.NewSimRunner(d, dispatch.SimConfig{})
	r.Run(dispatch.Arrival{Query: cp.Query})
	if !cp.Query.Canceled() {
		t.Fatal("query not canceled")
	}
	total := int64(50000 / 200)
	if m := morsels.Load(); m >= total {
		t.Fatalf("all %d morsels ran despite cancellation", m)
	}
}

func TestTinyPreAggCapacityStress(t *testing.T) {
	// Capacity 1 promotes every worker at its second group — the two-phase
	// aggregation must still be exact.
	old := DefaultPreAggCapacity
	DefaultPreAggCapacity = 1
	defer func() { DefaultPreAggCapacity = old }()

	tbl := ordersTable(3000, 23)
	s := newTestSession(Sim)
	p := NewPlan("promote")
	p.Return(p.Scan(tbl, "o_cust").
		GroupBy([]NamedExpr{N("c", Col("o_cust"))}, []AggDef{Count("n")}))
	res, _ := s.Run(p)
	want := map[int64]int64{}
	for _, part := range tbl.Parts {
		for _, c := range part.Cols[1].Ints {
			want[c]++
		}
	}
	if res.NumRows() != len(want) {
		t.Fatalf("groups = %d, want %d", res.NumRows(), len(want))
	}
	for _, row := range res.Rows() {
		if want[row[0].I] != row[1].I {
			t.Fatalf("group %d = %d, want %d", row[0].I, row[1].I, want[row[0].I])
		}
	}
}

func TestManyWorkersFewRows(t *testing.T) {
	// More workers than rows: no deadlock, exact results.
	s := NewSession(numa.NehalemEXMachine())
	s.Dispatch.Workers = 64
	s.Dispatch.MorselRows = 1
	p := NewPlan("tiny")
	p.Return(p.Scan(oneRowTable(7, 1.5), "k", "v").
		GroupBy(nil, []AggDef{Sum("s", Col("v"))}))
	res, _ := s.Run(p)
	if res.Rows()[0][0].F != 1.5 {
		t.Fatalf("sum = %f", res.Rows()[0][0].F)
	}
}

func TestGroupByStringAndNegativeInts(t *testing.T) {
	b := storage.NewBuilder("neg", storage.Schema{
		{Name: "g", Type: storage.I64},
		{Name: "s", Type: storage.Str},
	}, 4, "")
	b.Append(storage.Row{int64(-5), "x"})
	b.Append(storage.Row{int64(-5), "x"})
	b.Append(storage.Row{int64(3), ""})
	tbl := b.Build(storage.NUMAAware, 4)
	s := newTestSession(Sim)
	p := NewPlan("negkeys")
	p.Return(p.Scan(tbl, "g", "s").
		GroupBy([]NamedExpr{N("g", Col("g")), N("s", Col("s"))}, []AggDef{Count("n")}))
	res, _ := s.Run(p)
	if res.NumRows() != 2 {
		t.Fatalf("groups = %d", res.NumRows())
	}
	for _, row := range res.Rows() {
		switch row[0].I {
		case -5:
			if row[1].S != "x" || row[2].I != 2 {
				t.Fatalf("bad group: %v", row)
			}
		case 3:
			if row[1].S != "" || row[2].I != 1 {
				t.Fatalf("bad group: %v", row)
			}
		default:
			t.Fatalf("unexpected group %d", row[0].I)
		}
	}
}

func TestResidualPayloadNotInOutput(t *testing.T) {
	// Semi-join residual payload columns are scratch, not output.
	orders := ordersTable(500, 24)
	cust := custTable(100)
	s := newTestSession(Sim)
	p := NewPlan("respayload")
	build := p.Scan(cust, "c_id", "c_discount")
	n := p.Scan(orders, "o_cust").
		HashJoin(build, JoinSemi, []*Expr{Col("o_cust")}, []*Expr{Col("c_id")}).
		ResidualPayload("c_discount").
		WithResidual(Lt(Col("c_discount"), ConstF(0.09)))
	p.Return(n)
	res, _ := s.Run(p)
	if len(res.Schema) != 1 || res.Schema[0].Name != "o_cust" {
		t.Fatalf("schema = %v, want just o_cust", res.Schema)
	}
	if res.NumRows() == 0 {
		t.Fatal("semi join with residual found nothing")
	}
}

func TestPlanValidationPanics(t *testing.T) {
	tbl := oneRowTable(1, 1)
	cases := []func(){
		func() { // unknown column
			p := NewPlan("bad")
			p.Scan(tbl, "nosuch")
		},
		func() { // mismatched join key arity
			p := NewPlan("bad")
			a := p.Scan(tbl, "k")
			b := p.Scan(tbl, "k AS k2")
			a.HashJoin(b, JoinInner, []*Expr{Col("k")}, nil)
		},
		func() { // payload on semi join
			p := NewPlan("bad")
			a := p.Scan(tbl, "k")
			b := p.Scan(tbl, "k AS k2", "v AS v2")
			a.HashJoin(b, JoinSemi, []*Expr{Col("k")}, []*Expr{Col("k2")}, "v2")
		},
		func() { // union arity mismatch
			p := NewPlan("bad")
			a := p.Scan(tbl, "k")
			b := p.Scan(tbl, "k AS k2", "v")
			p.Union(a, b)
		},
		func() { // sort key not in schema
			p := NewPlan("bad")
			p.ReturnSorted(p.Scan(tbl, "k"), 0, Asc("missing"))
		},
		func() { // duplicate column without alias
			p := NewPlan("bad")
			a := p.Scan(tbl, "k", "v")
			b := p.Scan(tbl, "k", "v")
			n := a.HashJoin(b, JoinInner, []*Expr{Col("k")}, []*Expr{Col("k")}, "v")
			s := newTestSession(Sim)
			s.Compile(p.Return(n))
		},
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}
