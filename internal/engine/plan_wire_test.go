package engine

import (
	"strings"
	"testing"

	"repro/internal/storage"
)

func wireLookup(tabs ...*storage.Table) func(string) (*storage.Table, bool) {
	m := map[string]*storage.Table{}
	for _, t := range tabs {
		m[t.Name] = t
	}
	return func(name string) (*storage.Table, bool) {
		t, ok := m[name]
		return t, ok
	}
}

func wireDimTable() *storage.Table {
	b := storage.NewBuilder("dims", storage.Schema{
		{Name: "k", Type: storage.I64},
		{Name: "label", Type: storage.Str},
	}, 4, "k")
	for i := int64(0); i < 37; i++ {
		b.Append(storage.Row{i, string(rune('a' + i%26))})
	}
	return b.Build(storage.NUMAAware, 2)
}

// TestPlanWireRoundTrip serializes a plan exercising every expression
// and operator the distributed planner emits, decodes it against the
// same catalog, and requires (a) an identical Explain rendering and
// (b) identical execution results.
func TestPlanWireRoundTrip(t *testing.T) {
	facts, dims := matTestTable(), wireDimTable()
	p := NewPlan("wire")
	build := p.Scan(dims, "k AS dk", "label").
		Filter(And(InStr(Col("label"), "a", "b", "c", "d", "e", "f"), Not(Like(Col("label"), "zz%")))).
		SetEst(10)
	n := p.Scan(facts, "k", "v").
		Filter(Between(Col("k"), ConstI(0), ConstI(30))).
		Map("v2", Mul(Col("v"), ConstF(1.5))).
		HashJoin(build, JoinInner, []*Expr{Col("k")}, []*Expr{Col("dk")}, "label").
		SetEst(500).
		Filter(If(Gt(Col("v2"), ConstF(1.0)), ConstI(1), ConstI(0))).
		GroupBy(
			[]NamedExpr{N("label", Col("label"))},
			[]AggDef{Sum("s", Col("v2")), Count("c"), MinOf("lo", Col("v")), MaxOf("hi", Col("v")), Avg("av", Col("v"))}).
		SetEst(4096)
	p.ReturnSorted(n.Project("label", "s", "c", "lo", "hi", "av"), 5, Asc("label"), Desc("s"))

	data, err := EncodePlan(p)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dp, err := DecodePlan(data, wireLookup(facts, dims))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got, want := dp.Explain(), p.Explain(); got != want {
		t.Fatalf("explain drift:\n--- original\n%s\n--- decoded\n%s", want, got)
	}
	// The wire carries the aggregation's estimate.
	if !strings.Contains(dp.Explain(), "aggs [sum(v2) AS s, count(*) AS c, min(v) AS lo, max(v) AS hi, avg(v) AS av] est=4096") {
		t.Fatalf("decoded aggregation lost its estimate:\n%s", dp.Explain())
	}
	s := newTestSession(Sim)
	wantRes, _ := s.Run(p)
	gotRes, _ := newTestSession(Sim).Run(dp)
	w, g := rowsToStrings(wantRes), rowsToStrings(gotRes)
	if len(w) != len(g) {
		t.Fatalf("row count %d vs %d", len(g), len(w))
	}
	for i := range w {
		if w[i] != g[i] {
			t.Fatalf("row %d: %q vs %q", i, g[i], w[i])
		}
	}
}

// TestPlanWireExchangeAndSemi round-trips the distributed shapes: a
// semi join with residual payload and an exchange boundary.
func TestPlanWireExchangeAndSemi(t *testing.T) {
	facts, dims := matTestTable(), wireDimTable()
	p := NewPlan("wire2")
	build := p.Scan(dims, "k AS dk", "label").
		Exchange(ExchangeBroadcast, nil, 2).SetEst(37)
	n := p.Scan(facts, "k", "v").
		HashJoin(build, JoinSemi, []*Expr{Col("k")}, []*Expr{Col("dk")}).
		ResidualPayload("label").
		WithResidual(Ne(Col("label"), ConstS("q")))
	p.Return(n.Exchange(ExchangeGather, nil, 2))

	data, err := EncodePlan(p)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dp, err := DecodePlan(data, wireLookup(facts, dims))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got, want := dp.Explain(), p.Explain(); got != want {
		t.Fatalf("explain drift:\n--- original\n%s\n--- decoded\n%s", want, got)
	}
	wantRes, _ := newTestSession(Sim).Run(p)
	gotRes, _ := newTestSession(Sim).Run(dp)
	if wantRes.NumRows() != gotRes.NumRows() {
		t.Fatalf("rows %d vs %d", gotRes.NumRows(), wantRes.NumRows())
	}
}

// TestPlanWireResolvesAgainstReceiverCatalog pins the property the
// distributed runtime depends on: the same encoded plan decoded against
// a different catalog (a shard view) scans that catalog's partitions.
func TestPlanWireResolvesAgainstReceiverCatalog(t *testing.T) {
	facts := matTestTable()
	p := NewPlan("wire3")
	p.Return(p.Scan(facts, "k", "v").GroupBy(nil, []AggDef{Count("c")}))
	data, err := EncodePlan(p)
	if err != nil {
		t.Fatal(err)
	}
	// "Shard": a table of the same name holding only half the partitions.
	shard := &storage.Table{Name: "facts", Schema: facts.Schema, PartKey: facts.PartKey}
	for i, part := range facts.Parts {
		if i%2 == 0 {
			shard.Parts = append(shard.Parts, part)
		}
	}
	dp, err := DecodePlan(data, wireLookup(shard))
	if err != nil {
		t.Fatal(err)
	}
	res, _ := newTestSession(Sim).Run(dp)
	full := 0
	for _, part := range shard.Parts {
		full += part.Rows()
	}
	if got := res.Rows()[0][0].I; got != int64(full) {
		t.Fatalf("shard count %d, want %d", got, full)
	}
}

func TestPlanWireDecodeErrors(t *testing.T) {
	facts := matTestTable()
	p := NewPlan("werr")
	p.Return(p.Scan(facts, "k"))
	data, err := EncodePlan(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePlan(data, wireLookup()); err == nil || !strings.Contains(err.Error(), "unknown table") {
		t.Fatalf("missing table: %v", err)
	}
	other := storage.NewBuilder("facts", storage.Schema{{Name: "zz", Type: storage.I64}}, 1, "").Build(storage.NUMAAware, 1)
	if _, err := DecodePlan(data, wireLookup(other)); err == nil {
		t.Fatal("schema mismatch decoded without error")
	}
	if _, err := DecodePlan([]byte("{"), wireLookup(facts)); err == nil {
		t.Fatal("bad json accepted")
	}
	if _, err := DecodePlan([]byte(`{"name":"x","nodes":[{"kind":"filter","child":7}]}`), wireLookup()); err == nil {
		t.Fatal("bad ref accepted")
	}
}
