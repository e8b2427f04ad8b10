package engine

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/numa"
	"repro/internal/storage"
)

// ---- test fixtures ----------------------------------------------------

// ordersTable builds a small synthetic orders table.
func ordersTable(n int, seed int64) *storage.Table {
	rng := rand.New(rand.NewSource(seed))
	b := storage.NewBuilder("orders", storage.Schema{
		{Name: "o_id", Type: storage.I64},
		{Name: "o_cust", Type: storage.I64},
		{Name: "o_amount", Type: storage.F64},
		{Name: "o_status", Type: storage.Str},
	}, 8, "o_id")
	statuses := []string{"OPEN", "SHIPPED", "DONE"}
	for i := 0; i < n; i++ {
		b.Append(storage.Row{
			int64(i),
			int64(rng.Intn(n/10 + 1)),
			math.Round(rng.Float64()*10000) / 100,
			statuses[rng.Intn(3)],
		})
	}
	return b.Build(storage.NUMAAware, 4)
}

// custTable builds customers 0..n-1 with a region string.
func custTable(n int) *storage.Table {
	b := storage.NewBuilder("customer", storage.Schema{
		{Name: "c_id", Type: storage.I64},
		{Name: "c_region", Type: storage.Str},
		{Name: "c_discount", Type: storage.F64},
	}, 8, "c_id")
	regions := []string{"EU", "US", "ASIA"}
	for i := 0; i < n; i++ {
		b.Append(storage.Row{int64(i), regions[i%3], float64(i%10) / 100})
	}
	return b.Build(storage.NUMAAware, 4)
}

func newTestSession(mode Mode) *Session {
	s := NewSession(numa.NehalemEXMachine())
	s.Mode = mode
	s.Dispatch.Workers = 8
	s.Dispatch.MorselRows = 500
	return s
}

// rowsToStrings canonicalizes result rows for order-insensitive
// comparison.
func rowsToStrings(r *Result) []string {
	out := make([]string, r.NumRows())
	for i := range out {
		out[i] = r.Row(i)
	}
	sort.Strings(out)
	return out
}

func sameRows(t *testing.T, got *Result, want []string, label string) {
	t.Helper()
	g := rowsToStrings(got)
	if len(g) != len(want) {
		t.Fatalf("%s: got %d rows, want %d\ngot: %v\nwant: %v", label, len(g), len(want), g, want)
	}
	w := append([]string{}, want...)
	sort.Strings(w)
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: row %d differs\ngot:  %s\nwant: %s", label, i, g[i], w[i])
		}
	}
}

// ---- scans, filters, maps ----------------------------------------------

func TestScanFilterCount(t *testing.T) {
	tbl := ordersTable(5000, 1)
	for _, mode := range []Mode{Sim, Real} {
		s := newTestSession(mode)
		p := NewPlan("count-shipped")
		n := p.Scan(tbl, "o_id", "o_status").
			Filter(Eq(Col("o_status"), ConstS("SHIPPED"))).
			GroupBy(nil, []AggDef{Count("n")})
		p.Return(n)
		res, stats := s.Run(p)
		// Reference.
		want := int64(0)
		for _, part := range tbl.Parts {
			for _, st := range part.Cols[3].Strs {
				if st == "SHIPPED" {
					want++
				}
			}
		}
		if res.NumRows() != 1 || res.Rows()[0][0].I != want {
			t.Fatalf("mode %d: count = %v, want %d", mode, res.Rows(), want)
		}
		if stats.ReadBytes == 0 || stats.TimeNs <= 0 {
			t.Errorf("mode %d: missing stats: %+v", mode, stats)
		}
	}
}

func TestMapAndArithmetic(t *testing.T) {
	tbl := ordersTable(1000, 2)
	s := newTestSession(Sim)
	p := NewPlan("revenue")
	n := p.Scan(tbl, "o_amount").
		Map("double", Mul(Col("o_amount"), ConstF(2))).
		GroupBy(nil, []AggDef{Sum("s", Col("double")), Sum("orig", Col("o_amount"))})
	p.Return(n)
	res, _ := s.Run(p)
	r := res.Rows()[0]
	if math.Abs(r[0].F-2*r[1].F) > 1e-6 {
		t.Fatalf("double sum %f != 2 * %f", r[0].F, r[1].F)
	}
}

// ---- joins --------------------------------------------------------------

func TestInnerJoin(t *testing.T) {
	orders := ordersTable(2000, 3)
	cust := custTable(201)
	for _, mode := range []Mode{Sim, Real} {
		s := newTestSession(mode)
		p := NewPlan("join")
		c := p.Scan(cust, "c_id", "c_region")
		n := p.Scan(orders, "o_id", "o_cust").
			HashJoin(c, JoinInner, []*Expr{Col("o_cust")}, []*Expr{Col("c_id")}, "c_region").
			GroupBy([]NamedExpr{N("region", Col("c_region"))}, []AggDef{Count("n")})
		p.Return(n)
		res, _ := s.Run(p)

		// Reference: count orders per customer region.
		region := map[int64]string{}
		for _, part := range cust.Parts {
			for i, id := range part.Cols[0].Ints {
				region[id] = part.Cols[1].Strs[i]
			}
		}
		want := map[string]int64{}
		for _, part := range orders.Parts {
			for _, cid := range part.Cols[1].Ints {
				if r, ok := region[cid]; ok {
					want[r]++
				}
			}
		}
		var wantRows []string
		for r, n := range want {
			wantRows = append(wantRows, fmt.Sprintf("%s | %d", r, n))
		}
		sameRows(t, res, wantRows, fmt.Sprintf("mode %d", mode))
	}
}

func TestSemiAntiJoinPartition(t *testing.T) {
	// semi(orders ⋉ cust) + anti(orders ▷ cust) = orders, for any
	// subset of customers.
	orders := ordersTable(3000, 4)
	cust := custTable(97) // customers 0..96; orders reference 0..300
	s := newTestSession(Sim)

	count := func(kind JoinKind) int64 {
		p := NewPlan("semi-anti")
		c := p.Scan(cust, "c_id")
		n := p.Scan(orders, "o_cust").
			HashJoin(c, kind, []*Expr{Col("o_cust")}, []*Expr{Col("c_id")}).
			GroupBy(nil, []AggDef{Count("n")})
		p.Return(n)
		res, _ := s.Run(p)
		return res.Rows()[0][0].I
	}
	semi := count(JoinSemi)
	anti := count(JoinAnti)
	if semi+anti != int64(orders.Rows()) {
		t.Fatalf("semi (%d) + anti (%d) != total (%d)", semi, anti, orders.Rows())
	}
	// Reference semi count.
	want := int64(0)
	for _, part := range orders.Parts {
		for _, cid := range part.Cols[1].Ints {
			if cid < 97 {
				want++
			}
		}
	}
	if semi != want {
		t.Fatalf("semi = %d, want %d", semi, want)
	}
	if anti == 0 {
		t.Fatal("anti join found nothing; test data degenerate")
	}
}

func TestJoinResidualPredicate(t *testing.T) {
	orders := ordersTable(2000, 5)
	cust := custTable(300)
	s := newTestSession(Sim)
	// Inner join with residual: only matches where o_amount > 50 AND
	// customer discount < 0.05.
	p := NewPlan("residual")
	c := p.Scan(cust, "c_id", "c_discount")
	n := p.Scan(orders, "o_cust", "o_amount").
		HashJoin(c, JoinInner, []*Expr{Col("o_cust")}, []*Expr{Col("c_id")}, "c_discount").
		WithResidual(Lt(Col("c_discount"), ConstF(0.05))).
		Filter(Gt(Col("o_amount"), ConstF(50))).
		GroupBy(nil, []AggDef{Count("n")})
	p.Return(n)
	res, _ := s.Run(p)

	disc := map[int64]float64{}
	for _, part := range cust.Parts {
		for i, id := range part.Cols[0].Ints {
			disc[id] = part.Cols[2].Flts[i]
		}
	}
	want := int64(0)
	for _, part := range orders.Parts {
		for i, cid := range part.Cols[1].Ints {
			d, ok := disc[cid]
			if ok && d < 0.05 && part.Cols[2].Flts[i] > 50 {
				want++
			}
		}
	}
	if got := res.Rows()[0][0].I; got != want {
		t.Fatalf("residual join count = %d, want %d", got, want)
	}
}

func TestMarkJoinWithUnmatchedScan(t *testing.T) {
	// The q13 pattern: count orders per customer including zero-order
	// customers, via JoinMark + Unmatched + Union.
	orders := ordersTable(2000, 6)
	cust := custTable(500)
	s := newTestSession(Sim)
	p := NewPlan("outer-count")
	c := p.Scan(cust, "c_id")
	join := p.Scan(orders, "o_cust").
		HashJoin(c, JoinMark, []*Expr{Col("o_cust")}, []*Expr{Col("c_id")}, "c_id")
	matched := join.Map("one", ConstI(1))
	// Project to (c_id, one) to union with the unmatched side.
	unmatched := p.Unmatched(join, "c_id").Map("one", ConstI(0))
	// matched has schema (o_cust, c_id, one); need same as unmatched
	// (c_id, one). Aggregate from the union keyed on c_id.
	u := p.Union(
		matched.GroupBy([]NamedExpr{N("cid", Col("c_id"))}, []AggDef{Sum("cnt", Col("one"))}),
		unmatched.GroupBy([]NamedExpr{N("cid", Col("c_id"))}, []AggDef{Sum("cnt", Col("one"))}),
	)
	final := u.GroupBy([]NamedExpr{N("cnt", Col("cnt"))}, []AggDef{Count("ncust")})
	p.Return(final)
	res, _ := s.Run(p)

	// Reference.
	perCust := map[int64]int64{}
	for i := int64(0); i < 500; i++ {
		perCust[i] = 0
	}
	for _, part := range orders.Parts {
		for _, cid := range part.Cols[1].Ints {
			if _, ok := perCust[cid]; ok {
				perCust[cid]++
			}
		}
	}
	hist := map[int64]int64{}
	for _, n := range perCust {
		hist[n]++
	}
	var want []string
	for cnt, n := range hist {
		want = append(want, fmt.Sprintf("%d | %d", cnt, n))
	}
	sameRows(t, res, want, "outer histogram")
}

func TestOuterProbeJoin(t *testing.T) {
	orders := ordersTable(500, 7)
	cust := custTable(30) // most orders have no matching customer
	s := newTestSession(Sim)
	p := NewPlan("outer-probe")
	c := p.Scan(cust, "c_id", "c_discount")
	n := p.Scan(orders, "o_id", "o_cust").
		HashJoin(c, JoinOuterProbe, []*Expr{Col("o_cust")}, []*Expr{Col("c_id")}, "c_discount").
		GroupBy(nil, []AggDef{Count("n"), Sum("d", Col("c_discount"))})
	p.Return(n)
	res, _ := s.Run(p)
	if got := res.Rows()[0][0].I; got != 500 {
		t.Fatalf("outer probe preserved %d rows, want 500", got)
	}
}

func TestTeamJoin(t *testing.T) {
	// Probe through two hash tables in one pipeline (§4.1 "good team
	// player").
	orders := ordersTable(2000, 8)
	cust := custTable(300)
	status := func() *storage.Table {
		b := storage.NewBuilder("statusdim", storage.Schema{
			{Name: "s_name", Type: storage.Str},
			{Name: "s_rank", Type: storage.I64},
		}, 2, "")
		b.Append(storage.Row{"OPEN", int64(1)})
		b.Append(storage.Row{"SHIPPED", int64(2)})
		b.Append(storage.Row{"DONE", int64(3)})
		return b.Build(storage.NUMAAware, 4)
	}()
	s := newTestSession(Sim)
	p := NewPlan("team")
	c := p.Scan(cust, "c_id", "c_region")
	st := p.Scan(status, "s_name", "s_rank")
	n := p.Scan(orders, "o_cust", "o_status").
		HashJoin(c, JoinInner, []*Expr{Col("o_cust")}, []*Expr{Col("c_id")}, "c_region").
		HashJoin(st, JoinInner, []*Expr{Col("o_status")}, []*Expr{Col("s_name")}, "s_rank").
		GroupBy(
			[]NamedExpr{N("region", Col("c_region")), N("rank", Col("s_rank"))},
			[]AggDef{Count("n")},
		)
	p.Return(n)
	res, _ := s.Run(p)

	region := map[int64]string{}
	for _, part := range cust.Parts {
		for i, id := range part.Cols[0].Ints {
			region[id] = part.Cols[1].Strs[i]
		}
	}
	rank := map[string]int64{"OPEN": 1, "SHIPPED": 2, "DONE": 3}
	want := map[string]int64{}
	for _, part := range orders.Parts {
		for i, cid := range part.Cols[1].Ints {
			if r, ok := region[cid]; ok {
				want[fmt.Sprintf("%s | %d", r, rank[part.Cols[3].Strs[i]])]++
			}
		}
	}
	var wantRows []string
	for k, n := range want {
		wantRows = append(wantRows, fmt.Sprintf("%s | %d", k, n))
	}
	sameRows(t, res, wantRows, "team join")
}

// ---- aggregation ---------------------------------------------------------

func TestGroupByAllAggKinds(t *testing.T) {
	tbl := ordersTable(3000, 9)
	for _, capacity := range []int{4, 1 << 14} { // tiny capacity forces promotion
		old := DefaultPreAggCapacity
		DefaultPreAggCapacity = capacity
		s := newTestSession(Sim)
		p := NewPlan("aggkinds")
		n := p.Scan(tbl, "o_cust", "o_amount").
			GroupBy(
				[]NamedExpr{N("cust", Col("o_cust"))},
				[]AggDef{
					Count("n"),
					Sum("total", Col("o_amount")),
					MinOf("lo", Col("o_amount")),
					MaxOf("hi", Col("o_amount")),
					Avg("mean", Col("o_amount")),
				})
		p.Return(n)
		res, _ := s.Run(p)
		DefaultPreAggCapacity = old

		// Reference.
		type acc struct {
			n           int64
			sum, lo, hi float64
		}
		ref := map[int64]*acc{}
		for _, part := range tbl.Parts {
			for i, cid := range part.Cols[1].Ints {
				a := ref[cid]
				if a == nil {
					a = &acc{lo: math.Inf(1), hi: math.Inf(-1)}
					ref[cid] = a
				}
				v := part.Cols[2].Flts[i]
				a.n++
				a.sum += v
				a.lo = math.Min(a.lo, v)
				a.hi = math.Max(a.hi, v)
			}
		}
		if res.NumRows() != len(ref) {
			t.Fatalf("cap %d: %d groups, want %d", capacity, res.NumRows(), len(ref))
		}
		for _, row := range res.Rows() {
			a := ref[row[0].I]
			if a == nil {
				t.Fatalf("cap %d: unexpected group %d", capacity, row[0].I)
			}
			if row[1].I != a.n || math.Abs(row[2].F-a.sum) > 1e-6 ||
				math.Abs(row[3].F-a.lo) > 1e-9 || math.Abs(row[4].F-a.hi) > 1e-9 ||
				math.Abs(row[5].F-a.sum/float64(a.n)) > 1e-9 {
				t.Fatalf("cap %d: group %d mismatch: got %v want %+v", capacity, row[0].I, row, a)
			}
		}
	}
}

func TestGlobalAggOverEmptyInput(t *testing.T) {
	tbl := ordersTable(100, 10)
	s := newTestSession(Sim)
	p := NewPlan("empty")
	n := p.Scan(tbl, "o_amount").
		Filter(Gt(Col("o_amount"), ConstF(1e12))). // nothing passes
		GroupBy(nil, []AggDef{Count("n"), Sum("s", Col("o_amount"))})
	p.Return(n)
	res, _ := s.Run(p)
	if res.NumRows() != 1 {
		t.Fatalf("global aggregate over empty input: %d rows, want 1", res.NumRows())
	}
	if res.Rows()[0][0].I != 0 {
		t.Fatalf("count = %d, want 0", res.Rows()[0][0].I)
	}
}

func TestMultiKeyStringGroup(t *testing.T) {
	tbl := ordersTable(2000, 11)
	s := newTestSession(Sim)
	p := NewPlan("multikey")
	n := p.Scan(tbl, "o_status", "o_cust", "o_amount").
		Map("bucket", If(Gt(Col("o_amount"), ConstF(50)), ConstS("hi"), ConstS("lo"))).
		GroupBy(
			[]NamedExpr{N("status", Col("o_status")), N("bucket", Col("bucket"))},
			[]AggDef{Count("n")})
	p.Return(n)
	res, _ := s.Run(p)
	want := map[string]int64{}
	for _, part := range tbl.Parts {
		for i, st := range part.Cols[3].Strs {
			b := "lo"
			if part.Cols[2].Flts[i] > 50 {
				b = "hi"
			}
			want[st+" | "+b]++
		}
	}
	var wantRows []string
	for k, n := range want {
		wantRows = append(wantRows, fmt.Sprintf("%s | %d", k, n))
	}
	sameRows(t, res, wantRows, "multi-key group")
}

// ---- sort / top-k ---------------------------------------------------------

func TestOrderByFullSort(t *testing.T) {
	tbl := ordersTable(5000, 12)
	s := newTestSession(Sim)
	p := NewPlan("sorted")
	n := p.Scan(tbl, "o_id", "o_amount")
	p.ReturnSorted(n, 0, Desc("o_amount"), Asc("o_id"))
	res, _ := s.Run(p)
	if res.NumRows() != 5000 {
		t.Fatalf("rows = %d, want 5000", res.NumRows())
	}
	rows := res.Rows()
	for i := 1; i < len(rows); i++ {
		a, b := rows[i-1], rows[i]
		if a[1].F < b[1].F || (a[1].F == b[1].F && a[0].I > b[0].I) {
			t.Fatalf("sort violated at %d: %v then %v", i, a, b)
		}
	}
}

func TestTopK(t *testing.T) {
	tbl := ordersTable(5000, 13)
	s := newTestSession(Sim)
	p := NewPlan("topk")
	n := p.Scan(tbl, "o_id", "o_amount")
	p.ReturnSorted(n, 10, Desc("o_amount"))
	res, _ := s.Run(p)
	if res.NumRows() != 10 {
		t.Fatalf("rows = %d, want 10", res.NumRows())
	}
	// Reference: collect all amounts, sort desc, take 10.
	var all []float64
	for _, part := range tbl.Parts {
		all = append(all, part.Cols[2].Flts...)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(all)))
	for i, row := range res.Rows() {
		if math.Abs(row[1].F-all[i]) > 1e-9 {
			t.Fatalf("top-%d amount = %f, want %f", i, row[1].F, all[i])
		}
	}
}

// ---- invariance properties -------------------------------------------------

// TestResultInvariantUnderConfig verifies the core paper invariant: the
// query result is identical under any morsel size, worker count,
// placement policy, scheduling mode, and runner.
func TestResultInvariantUnderConfig(t *testing.T) {
	orders := ordersTable(3000, 14)
	cust := custTable(200)
	build := func(o, c *storage.Table) *Plan {
		p := NewPlan("invariant")
		cu := p.Scan(c, "c_id", "c_region")
		n := p.Scan(o, "o_cust", "o_amount").
			Filter(Gt(Col("o_amount"), ConstF(10))).
			HashJoin(cu, JoinInner, []*Expr{Col("o_cust")}, []*Expr{Col("c_id")}, "c_region").
			GroupBy([]NamedExpr{N("region", Col("c_region"))},
				[]AggDef{Count("n"), Sum("rev", Col("o_amount"))})
		p.Return(n)
		return p
	}
	baseline := func() []string {
		s := newTestSession(Sim)
		res, _ := s.Run(build(orders, cust))
		return rowsToStrings(res)
	}()

	type cfg struct {
		name      string
		mode      Mode
		workers   int
		morsel    int
		placement storage.Placement
		noLocal   bool
		nonAdapt  bool
		planDrv   bool
	}
	cfgs := []cfg{
		{name: "1worker", mode: Sim, workers: 1, morsel: 500, placement: storage.NUMAAware},
		{name: "64workers", mode: Sim, workers: 64, morsel: 100, placement: storage.NUMAAware},
		{name: "tinymorsel", mode: Sim, workers: 8, morsel: 7, placement: storage.NUMAAware},
		{name: "hugemorsel", mode: Sim, workers: 8, morsel: 1 << 20, placement: storage.NUMAAware},
		{name: "osdefault", mode: Sim, workers: 8, morsel: 500, placement: storage.OSDefault},
		{name: "interleaved", mode: Sim, workers: 8, morsel: 500, placement: storage.Interleaved},
		{name: "nolocality", mode: Sim, workers: 8, morsel: 500, placement: storage.NUMAAware, noLocal: true},
		{name: "nonadaptive", mode: Sim, workers: 8, morsel: 500, placement: storage.NUMAAware, nonAdapt: true},
		{name: "plandriven", mode: Sim, workers: 8, morsel: 500, placement: storage.NUMAAware, nonAdapt: true, noLocal: true, planDrv: true},
		{name: "real", mode: Real, workers: 8, morsel: 500, placement: storage.NUMAAware},
	}
	for _, c := range cfgs {
		s := NewSession(numa.NehalemEXMachine())
		s.Mode = c.mode
		s.Dispatch.Workers = c.workers
		s.Dispatch.MorselRows = c.morsel
		s.Dispatch.NoLocality = c.noLocal
		s.Dispatch.NonAdaptive = c.nonAdapt
		s.PlanDriven = c.planDrv
		o := orders.WithPlacement(c.placement, 4)
		cu := cust.WithPlacement(c.placement, 4)
		res, _ := s.Run(build(o, cu))
		got := rowsToStrings(res)
		if len(got) != len(baseline) {
			t.Fatalf("%s: %d rows vs baseline %d", c.name, len(got), len(baseline))
		}
		for i := range got {
			if got[i] != baseline[i] {
				t.Fatalf("%s: row %d = %q, baseline %q", c.name, i, got[i], baseline[i])
			}
		}
	}
}

func TestDateFunctions(t *testing.T) {
	cases := []struct {
		s       string
		y, m, d int
	}{
		{"1970-01-01", 1970, 1, 1},
		{"1992-02-29", 1992, 2, 29},
		{"1998-12-01", 1998, 12, 1},
		{"2000-03-01", 2000, 3, 1},
	}
	for _, c := range cases {
		days := ParseDate(c.s)
		if FormatDate(days) != c.s {
			t.Errorf("roundtrip %s -> %d -> %s", c.s, days, FormatDate(days))
		}
		if YearOf(days) != int64(c.y) {
			t.Errorf("YearOf(%s) = %d", c.s, YearOf(days))
		}
	}
	if ParseDate("1970-01-01") != 0 {
		t.Errorf("epoch != 0")
	}
	if d := AddMonths(ParseDate("1995-12-15"), 3); FormatDate(d) != "1996-03-15" {
		t.Errorf("AddMonths = %s", FormatDate(d))
	}
	if d := AddYears(ParseDate("1995-01-01"), 1); FormatDate(d) != "1996-01-01" {
		t.Errorf("AddYears = %s", FormatDate(d))
	}
	if d := AddMonths(ParseDate("1995-01-31"), 1); FormatDate(d) != "1995-02-28" {
		t.Errorf("AddMonths clamp = %s", FormatDate(d))
	}
}

func TestLikeMatcher(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"PROMO BRUSHED", "PROMO%", true},
		{"BRUSHED PROMO", "PROMO%", false},
		{"LARGE BRASS", "%BRASS", true},
		{"green metal box", "%green%", true},
		{"special handling requests here", "%special%requests%", true},
		{"requests special", "%special%requests%", false},
		{"abc", "a_c", true},
		{"abbc", "a_c", false},
		{"exact", "exact", true},
		{"", "%", true},
	}
	for _, c := range cases {
		if got := compileLike(c.p)(c.s); got != c.want {
			t.Errorf("like(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestExprTypeErrors(t *testing.T) {
	schema := []Reg{{Name: "a", Type: TInt}, {Name: "s", Type: TStr}}
	bad := []*Expr{
		Add(Col("a"), Col("s")),
		Like(Col("a"), "%x%"),
		Not(Col("s")),
		Eq(Col("a"), Col("s")),
	}
	for i, e := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected type panic", i)
				}
			}()
			typeOf(e, schema)
		}()
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	vals := []struct {
		t Type
		v Val
	}{
		{TInt, Val{I: 0}},
		{TInt, Val{I: -1}},
		{TInt, Val{I: 1 << 40}},
		{TFloat, Val{F: 123.4567}},
		{TFloat, Val{F: -0.0001}},
		{TStr, Val{S: ""}},
		{TStr, Val{S: "hello world"}},
	}
	var buf []byte
	for _, c := range vals {
		buf = encodeVal(buf[:0], c.t, c.v)
		got, rest := decodeVal(buf, c.t)
		if len(rest) != 0 {
			t.Errorf("decode left %d bytes", len(rest))
		}
		switch c.t {
		case TInt:
			if got.I != c.v.I {
				t.Errorf("int roundtrip %d -> %d", c.v.I, got.I)
			}
		case TFloat:
			if math.Abs(got.F-c.v.F) > 1e-9 {
				t.Errorf("float roundtrip %f -> %f", c.v.F, got.F)
			}
		default:
			if got.S != c.v.S {
				t.Errorf("str roundtrip %q -> %q", c.v.S, got.S)
			}
		}
	}
}

// TestFloatGroupKeyRoundtrip: a float group key decodes to exactly the
// value encoded, below 1e-4 and past int64's range too, and the values SQL
// equality cannot tell apart share one key: -0 with +0 (it decodes as +0),
// and every NaN with every other.
func TestFloatGroupKeyRoundtrip(t *testing.T) {
	otherNaN := math.Float64frombits(math.Float64bits(math.NaN()) | 1)
	for _, v := range []float64{0, math.Copysign(0, -1), math.NaN(), otherNaN, math.Inf(1), math.Inf(-1),
		1e15, -1e15, 1e-5, 1.23456789, 1e300, math.SmallestNonzeroFloat64} {
		key := encodeVal(nil, TFloat, Val{F: v})
		got, rest := decodeVal(key, TFloat)
		if len(rest) != 0 {
			t.Errorf("%v: decode left %d bytes", v, len(rest))
		}
		switch {
		case math.IsNaN(v):
			if !math.IsNaN(got.F) || !bytes.Equal(key, encodeVal(nil, TFloat, Val{F: math.NaN()})) {
				t.Errorf("NaN %x: decodes as %v, key %x", math.Float64bits(v), got.F, key)
			}
		case v == 0:
			if math.Float64bits(got.F) != 0 || !bytes.Equal(key, encodeVal(nil, TFloat, Val{F: 0})) {
				t.Errorf("%v: decodes as %v, key %x", v, got.F, key)
			}
		case got.F != v:
			t.Errorf("%v decodes as %v", v, got.F)
		}
	}
}
