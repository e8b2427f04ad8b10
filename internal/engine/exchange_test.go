package engine

import (
	"strings"
	"testing"
)

// TestExchangePassthrough checks the single-node semantics of each
// exchange kind in both modes — Sim's buffer-and-rescan breaker and
// Real's stream — as an edge that changes no rows. Distributed parity
// tests build on this: the Combined plan with inline exchanges must
// compute exactly what its exchange-free original computes.
func TestExchangePassthrough(t *testing.T) {
	tab := matTestTable()
	base := func() (*Plan, *Node) {
		p := NewPlan("xchg")
		return p, p.Scan(tab, "k", "v").Filter(Lt(Col("k"), ConstI(30)))
	}
	want, _ := func() ([]string, bool) {
		p, n := base()
		p.ReturnSorted(n.GroupBy([]NamedExpr{N("k", Col("k"))}, []AggDef{Sum("s", Col("v")), Count("c")}), 0, Asc("k"))
		s := newTestSession(Sim)
		res, _ := s.Run(p)
		return rowsToStrings(res), true
	}()

	cases := []struct {
		name string
		wrap func(n *Node) *Node
		mark string
	}{
		{"partition", func(n *Node) *Node { return n.Exchange(ExchangePartition, []string{"k"}, 2) },
			"exchange hash(k) → 2 nodes"},
		{"broadcast", func(n *Node) *Node { return n.Exchange(ExchangeBroadcast, nil, 3) },
			"exchange broadcast → 3 nodes"},
		{"gather", func(n *Node) *Node { return n.Exchange(ExchangeGather, nil, 2) },
			"exchange gather ← 2 nodes"},
	}
	for _, tc := range cases {
		for _, mode := range []Mode{Sim, Real} {
			p, n := base()
			n = tc.wrap(n)
			p.ReturnSorted(n.GroupBy([]NamedExpr{N("k", Col("k"))}, []AggDef{Sum("s", Col("v")), Count("c")}), 0, Asc("k"))
			if ex := p.Explain(); !strings.Contains(ex, tc.mark) {
				t.Fatalf("%s: explain missing %q:\n%s", tc.name, tc.mark, ex)
			}
			res, _ := newTestSession(mode).Run(p)
			got := rowsToStrings(res)
			if len(got) != len(want) {
				t.Fatalf("%s mode %d: %d rows, want %d", tc.name, mode, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s mode %d: row %d = %q, want %q", tc.name, mode, i, got[i], want[i])
				}
			}
		}
	}
}

// TestExchangeExplainEst pins the full marker with a cardinality
// estimate, the form docs/explain.md documents.
func TestExchangeExplainEst(t *testing.T) {
	tab := matTestTable()
	p := NewPlan("xest")
	n := p.Scan(tab, "k", "v").Exchange(ExchangePartition, []string{"k"}, 2).SetEst(4000)
	p.Return(n)
	ex := p.Explain()
	if !strings.Contains(ex, "exchange hash(k) → 2 nodes est=4000") {
		t.Fatalf("explain:\n%s", ex)
	}
}

func TestExchangeValidation(t *testing.T) {
	tab := matTestTable()
	p := NewPlan("bad")
	n := p.Scan(tab, "k")
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("no keys", func() { n.Exchange(ExchangePartition, nil, 2) })
	mustPanic("unknown key", func() { n.Exchange(ExchangePartition, []string{"zz"}, 2) })
	mustPanic("zero nodes", func() { n.Exchange(ExchangeGather, nil, 0) })
}
