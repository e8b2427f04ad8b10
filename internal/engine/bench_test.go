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
	for _, algo := range []AggAlgo{AggShared, AggPartitioned} {
		b.Run(algo.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := benchSession()
				p := NewPlan("bench")
				p.Return(p.Scan(tbl, "hk", "v").
					GroupBy([]NamedExpr{N("hk", Col("hk"))},
						[]AggDef{Count("n"), Sum("s", Col("v")), MaxOf("m", Col("v"))}).
					WithAggAlgo(algo))
				res, _ := s.Run(p)
				if res.NumRows() != 100_000 {
					b.Fatalf("groups %d", res.NumRows())
				}
			}
		})
	}
}
