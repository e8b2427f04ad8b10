package engine

import (
	"testing"

	"repro/internal/numa"
	"repro/internal/storage"
)

// Operator micro-benchmarks: real wall-clock throughput of the engine's
// hot paths (independent of the virtual-time model).

func benchTable(rows int) *storage.Table {
	b := storage.NewBuilder("bench", storage.Schema{
		{Name: "k", Type: storage.I64},
		{Name: "g", Type: storage.I64},
		{Name: "v", Type: storage.F64},
	}, 16, "k")
	for i := 0; i < rows; i++ {
		b.Append(storage.Row{int64(i), int64(i % 512), float64(i%1000) / 3})
	}
	return b.Build(storage.NUMAAware, 4)
}

func benchSession() *Session {
	s := NewSession(numa.NehalemEXMachine())
	s.Mode = Real
	s.Dispatch.Workers = 4
	s.Dispatch.MorselRows = 10000
	return s
}

func BenchmarkScanFilterAgg(b *testing.B) {
	tbl := benchTable(200_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := benchSession()
		p := NewPlan("bench")
		p.Return(p.Scan(tbl, "v").
			Filter(Gt(Col("v"), ConstF(100))).
			GroupBy(nil, []AggDef{Sum("s", Col("v"))}))
		res, _ := s.Run(p)
		if res.NumRows() != 1 {
			b.Fatal("bad result")
		}
	}
	b.SetBytes(200_000 * 8)
}

// benchLineitem is a lineitem-shaped table for the scan front end's
// benchmarks: a date, three decimals, a tax rate and two flag columns
// that combine to four groups.
func benchLineitem(rows int) *storage.Table {
	b := storage.NewBuilder("bench", storage.Schema{
		{Name: "d", Type: storage.I64},
		{Name: "qty", Type: storage.F64},
		{Name: "price", Type: storage.F64},
		{Name: "disc", Type: storage.F64},
		{Name: "tax", Type: storage.F64},
		{Name: "flag", Type: storage.Str},
		{Name: "status", Type: storage.Str},
	}, 16, "")
	for i := 0; i < rows; i++ {
		flag, status := "N", "O"
		if i%2 == 0 {
			flag, status = []string{"A", "R", "N"}[i%3], "F"
		}
		b.Append(storage.Row{int64(i * 7 % 2520), float64(1 + i%50), 900 + float64(i%100000)/10,
			float64(i%11) / 100, float64(i%9) / 100, flag, status})
	}
	return b.Build(storage.NUMAAware, 4)
}

// BenchmarkScanFilterSelective is TPC-H Q6's shape: three numeric
// conjuncts keeping about 2 % of the rows, then a global SUM(a*b).
func BenchmarkScanFilterSelective(b *testing.B) {
	const rows = 400_000
	tbl := benchLineitem(rows)
	b.ReportAllocs()
	b.SetBytes(rows * 4 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := benchSession()
		p := NewPlan("bench")
		p.Return(p.Scan(tbl, "d", "qty", "price", "disc").
			Filter(And(Ge(Col("d"), ConstI(365)), Lt(Col("d"), ConstI(730)),
				Between(Col("disc"), ConstF(0.05), ConstF(0.07)), Lt(Col("qty"), ConstI(24)))).
			GroupBy(nil, []AggDef{Sum("revenue", Mul(Col("price"), Col("disc")))}))
		res, _ := s.Run(p)
		if res.NumRows() != 1 || res.Rows()[0][0].F <= 0 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkScanGroupByLowCard is TPC-H Q1's shape: nearly every row
// passes the filter into four groups keyed by two short strings, with
// arithmetic aggregates sharing the subexpression price*(1-disc).
func BenchmarkScanGroupByLowCard(b *testing.B) {
	const rows = 400_000
	tbl := benchLineitem(rows)
	disc := Mul(Col("price"), Sub(ConstI(1), Col("disc")))
	b.ReportAllocs()
	b.SetBytes(rows * (5*8 + 2*17)) // five numeric columns, two one-byte strings and their headers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := benchSession()
		p := NewPlan("bench")
		p.Return(p.Scan(tbl, "d", "qty", "price", "disc", "tax", "flag", "status").
			Filter(Le(Col("d"), ConstI(2470))).
			GroupBy([]NamedExpr{N("flag", Col("flag")), N("status", Col("status"))},
				[]AggDef{Sum("sum_qty", Col("qty")), Sum("sum_price", Col("price")), Sum("sum_disc", disc),
					Sum("sum_charge", Mul(disc, Add(ConstI(1), Col("tax")))), Avg("avg_qty", Col("qty")),
					Avg("avg_disc", Col("disc")), Count("n")}))
		res, _ := s.Run(p)
		if res.NumRows() != 4 {
			b.Fatalf("groups %d", res.NumRows())
		}
	}
}

func BenchmarkHashJoinBuildProbe(b *testing.B) {
	probe := benchTable(200_000)
	build := benchTable(10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := benchSession()
		p := NewPlan("bench")
		bs := p.Scan(build, "k AS bk", "v AS bv")
		p.Return(p.Scan(probe, "k", "v").
			HashJoin(bs, JoinInner, []*Expr{Col("k")}, []*Expr{Col("bk")}, "bv").
			GroupBy(nil, []AggDef{Count("n")}))
		res, _ := s.Run(p)
		if res.Rows()[0][0].I != 10_000 {
			b.Fatalf("join count %d", res.Rows()[0][0].I)
		}
	}
}

func BenchmarkTwoPhaseAggregation(b *testing.B) {
	tbl := benchTable(200_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := benchSession()
		p := NewPlan("bench")
		p.Return(p.Scan(tbl, "g", "v").
			GroupBy([]NamedExpr{N("g", Col("g"))},
				[]AggDef{Count("n"), Sum("s", Col("v")), Avg("a", Col("v"))}))
		res, _ := s.Run(p)
		if res.NumRows() != 512 {
			b.Fatalf("groups %d", res.NumRows())
		}
	}
}

func BenchmarkParallelSort(b *testing.B) {
	tbl := benchTable(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := benchSession()
		p := NewPlan("bench")
		p.ReturnSorted(p.Scan(tbl, "k", "v"), 0, Desc("v"), Asc("k"))
		res, _ := s.Run(p)
		if res.NumRows() != 100_000 {
			b.Fatal("bad sort")
		}
	}
}

func BenchmarkTopK(b *testing.B) {
	tbl := benchTable(200_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := benchSession()
		p := NewPlan("bench")
		p.ReturnSorted(p.Scan(tbl, "k", "v"), 10, Desc("v"))
		res, _ := s.Run(p)
		if res.NumRows() != 10 {
			b.Fatal("bad topk")
		}
	}
}

// BenchmarkHashJoinProbeIntKey is the before/after for the typed key
// hash: a 100k-row int-keyed build probed by 400k rows, every probe
// hashing its key and comparing it against the build tuple's key column.
func BenchmarkHashJoinProbeIntKey(b *testing.B) {
	probe := benchTable(400_000)
	build := benchTable(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := benchSession()
		p := NewPlan("bench")
		bs := p.Scan(build, "k AS bk", "g AS bg")
		p.Return(p.Scan(probe, "k").
			HashJoin(bs, JoinInner, []*Expr{Col("k")}, []*Expr{Col("bk")}, "bg").
			GroupBy(nil, []AggDef{Count("n")}))
		res, _ := s.Run(p)
		if res.Rows()[0][0].I != 100_000 {
			b.Fatalf("join count %d", res.Rows()[0][0].I)
		}
	}
}

// BenchmarkGroupByHighCard is the before/after for the group table:
// 400k rows into 100k groups, so the shared engine runs its cold path
// (the pre-aggregation table holds 16k groups) and the partitioned engine
// creates a group for a quarter of its input.
func BenchmarkGroupByHighCard(b *testing.B) {
	tb := storage.NewBuilder("bench", storage.Schema{
		{Name: "hk", Type: storage.I64},
		{Name: "v", Type: storage.F64},
	}, 16, "hk")
	for i := 0; i < 400_000; i++ {
		tb.Append(storage.Row{int64(i % 100_000), float64(i%1000) / 3})
	}
	tbl := tb.Build(storage.NUMAAware, 4)
	for _, algo := range aggEngines {
		b.Run(algo.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := benchSession()
				p := NewPlan("bench")
				p.Return(p.Scan(tbl, "hk", "v").
					GroupBy([]NamedExpr{N("hk", Col("hk"))},
						[]AggDef{Count("n"), Sum("s", Col("v")), MaxOf("m", Col("v"))}).
					SetEst(algo.est))
				res, _ := s.Run(p)
				if res.NumRows() != 100_000 {
					b.Fatalf("groups %d", res.NumRows())
				}
			}
		})
	}
}

// keyedTable is a build side for the probe benchmarks: rows rows keyed
// k = i*stride, with an int, a float and a string payload column.
func keyedTable(rows, stride, parts int) *storage.Table {
	b := storage.NewBuilder("keyed", storage.Schema{
		{Name: "k", Type: storage.I64},
		{Name: "g", Type: storage.I64},
		{Name: "v", Type: storage.F64},
		{Name: "s", Type: storage.Str},
	}, parts, "k")
	names := []string{"BUILDING", "MACHINERY", "AUTOMOBILE", "FURNITURE", "HOUSEHOLD"}
	for i := 0; i < rows; i++ {
		b.Append(storage.Row{int64(i * stride), int64(i % 512), float64(i%1000) / 3, names[i%len(names)]})
	}
	return b.Build(storage.NUMAAware, 4)
}

// BenchmarkHashJoinProbeSelective is TPC-H Q3's probe: 400k rows against
// a build side holding one key in twenty, so about 95 % of the probes end
// at the tagged slot word.
func BenchmarkHashJoinProbeSelective(b *testing.B) {
	probe := benchTable(400_000)
	build := keyedTable(20_000, 20, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := benchSession()
		p := NewPlan("bench")
		bs := p.Scan(build, "k AS bk", "g AS bg")
		p.Return(p.Scan(probe, "k", "v").
			HashJoin(bs, JoinInner, []*Expr{Col("k")}, []*Expr{Col("bk")}, "bg").
			GroupBy(nil, []AggDef{Count("n"), Sum("s", Col("v"))}))
		res, _ := s.Run(p)
		if res.Rows()[0][0].I != 20_000 {
			b.Fatalf("join count %d", res.Rows()[0][0].I)
		}
	}
}

// BenchmarkHashJoinProbeChain is the shape of TPC-H Q18 and Q9: an inner
// join every probe row matches, carrying three payload columns (one a
// string), followed by a semi join — keyed on one of those payload
// columns — that keeps about 1 % of the pairs.
func BenchmarkHashJoinProbeChain(b *testing.B) {
	const rows, wideRows = 400_000, 50_000
	pb := storage.NewBuilder("fact", storage.Schema{
		{Name: "k", Type: storage.I64},
		{Name: "fk", Type: storage.I64},
		{Name: "v", Type: storage.F64},
	}, 16, "k")
	for i := 0; i < rows; i++ {
		pb.Append(storage.Row{int64(i), int64(i % wideRows), float64(i%1000) / 3})
	}
	probe := pb.Build(storage.NUMAAware, 4)
	wide := keyedTable(wideRows, 1, 16)
	few := keyedTable(5, 1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := benchSession()
		p := NewPlan("bench")
		ws := p.Scan(wide, "k AS wk", "g AS wg", "v AS wv", "s AS ws")
		fs := p.Scan(few, "k AS fk2")
		p.Return(p.Scan(probe, "fk", "v").
			HashJoin(ws, JoinInner, []*Expr{Col("fk")}, []*Expr{Col("wk")}, "wg", "wv", "ws").
			HashJoin(fs, JoinSemi, []*Expr{Col("wg")}, []*Expr{Col("fk2")}).
			GroupBy([]NamedExpr{N("ws", Col("ws"))}, []AggDef{Count("n"), Sum("s", Col("wv")), Sum("t", Col("v"))}))
		res, _ := s.Run(p)
		n := int64(0)
		for _, row := range res.Rows() {
			n += row[1].I
		}
		if n != 3920 { // fk%512 < 5
			b.Fatalf("join count %d", n)
		}
	}
}

// BenchmarkHashJoinTinyBuild is the short-statement shape the batch probe
// must not tax (serve_short's nation_rollup_p): a 25-row build probed by
// 1 000 rows spread over 32 partitions, grouped by the payload.
func BenchmarkHashJoinTinyBuild(b *testing.B) {
	pb := storage.NewBuilder("supp", storage.Schema{
		{Name: "sk", Type: storage.I64},
		{Name: "nk", Type: storage.I64},
		{Name: "bal", Type: storage.F64},
	}, 32, "sk")
	for i := 0; i < 1000; i++ {
		pb.Append(storage.Row{int64(i), int64(i * 7 % 25), float64(i%100) / 4})
	}
	probe := pb.Build(storage.NUMAAware, 4)
	build := keyedTable(25, 1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := benchSession()
		p := NewPlan("bench")
		bs := p.Scan(build, "k AS nk2", "s AS name")
		p.Return(p.Scan(probe, "nk", "bal").
			HashJoin(bs, JoinInner, []*Expr{Col("nk")}, []*Expr{Col("nk2")}, "name").
			GroupBy([]NamedExpr{N("name", Col("name"))}, []AggDef{Count("n"), Sum("b", Col("bal"))}))
		res, _ := s.Run(p)
		if res.NumRows() != 5 {
			b.Fatalf("groups %d", res.NumRows())
		}
	}
}
