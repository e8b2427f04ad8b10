package sql

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/tpch"
)

// The engine's physical operators as the SQL front end feeds them: full
// suite result parity at every promotion cap, EXPLAIN's aggregation lines
// on TPC-H, and the hash-join-only pin.

// promotionCaps are the aggregation's promotion caps the parity tests run
// at, by label: "auto" is the engine's default; "shared" is a cap no
// worker reaches, so every worker keeps its one table as the shared
// engine did; "promoted" promotes every grouped aggregation's workers at
// their second group, moving the first; "partitioned" starts them
// promoted, as the partitioned engine did.
var promotionCaps = []struct {
	label    string
	capacity int
}{
	{"auto", engine.DefaultPreAggCapacity},
	{"shared", math.MaxInt},
	{"promoted", 1},
	{"partitioned", 0},
}

// setPromotionCap sets the engine's promotion cap and returns the
// function that restores it.
func setPromotionCap(capacity int) (restore func()) {
	old := engine.DefaultPreAggCapacity
	engine.DefaultPreAggCapacity = capacity
	return func() { engine.DefaultPreAggCapacity = old }
}

// mustCompile compiles query or fails the test.
func mustCompile(t *testing.T, query string, cat Catalog) *engine.Plan {
	t.Helper()
	p, err := Compile(query, cat)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, query)
	}
	return p
}

// TestTPCHPhysicalParity runs every covered TPC-H query at every
// promotion cap and asserts identical results: where a worker promotes
// may only change how an aggregation runs, never what it produces.
func TestTPCHPhysicalParity(t *testing.T) {
	cat := tpchCatalog()
	for _, n := range tpch.SQLCoverage() {
		n := n
		t.Run(fmt.Sprintf("Q%d", n), func(t *testing.T) {
			query := tpch.MustSQLText(n, tpchDB.Cfg.SF)
			want, _ := goldenSession().Run(mustCompile(t, query, cat))
			for _, pc := range promotionCaps[1:] {
				restore := setPromotionCap(pc.capacity)
				got, _ := goldenSession().Run(mustCompile(t, query, cat))
				restore()
				sameResults(t, fmt.Sprintf("Q%d with agg=%s", n, pc.label), got, want, coverageOrdered[n])
			}
		})
	}
}

// TestPhysicalAutoSelections pins EXPLAIN's aggregation lines on the
// TPC-H suite: every aggregation prints as a groupby with its est= group
// estimate, whatever that estimate, because no engine decision reads it.
// If the estimator drifts, these pins catch it.
func TestPhysicalAutoSelections(t *testing.T) {
	cat := tpchCatalog()
	pins := []struct {
		q    int
		want []string
	}{
		// Q18: the outer aggregate above the IN semi join inside the
		// orders build, and the inner SUM(l_quantity) HAVING subquery.
		{18, []string{
			"groupby [c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice] aggs [sum(l_quantity) AS sum_qty] est=39958",
			"groupby [l_orderkey] aggs [sum(l_quantity) AS $agg1] est=29952",
		}},
		{3, []string{
			"groupby [l_orderkey, o_orderdate, o_shippriority] aggs [sum((l_extendedprice * (1 - l_discount))) AS revenue] est=6264",
		}},
		{5, []string{"groupby [n_name]"}},
	}
	for _, pin := range pins {
		query := tpch.MustSQLText(pin.q, tpchDB.Cfg.SF)
		ex := mustCompile(t, query, cat).Explain()
		for _, w := range pin.want {
			if !strings.Contains(ex, w) {
				t.Errorf("Q%d: explain missing %q:\n%s", pin.q, w, ex)
			}
		}
	}
}

// TestJoinsAreHashJoins pins the outcome of the sort-merge trial
// (ARCHITECTURE.md, "Physical operator selection") on the five
// join-heavy benchmark queries: every join line of the automatic plan is
// a hashjoin, no join carries a physical note, and the terminal ORDER BY
// runs as a sort.
func TestJoinsAreHashJoins(t *testing.T) {
	cat := tpchCatalog()
	for _, n := range []int{3, 5, 9, 10, 18} {
		ex := mustCompile(t, tpch.MustSQLText(n, tpchDB.Cfg.SF), cat).Explain()
		joins := 0
		for _, line := range strings.Split(ex, "\n") {
			op := strings.TrimLeft(line, "│├└─ ")
			if !strings.Contains(op, " on [") {
				continue
			}
			joins++
			if !strings.HasPrefix(op, "hashjoin ") || strings.Contains(op, "[phys") {
				t.Errorf("Q%d: join line is not a plain hashjoin: %q", n, op)
			}
		}
		if joins == 0 {
			t.Errorf("Q%d: no join in plan:\n%s", n, ex)
		}
		if strings.Contains(ex, "elided") {
			t.Errorf("Q%d: the terminal sort is elided:\n%s", n, ex)
		}
	}
}
