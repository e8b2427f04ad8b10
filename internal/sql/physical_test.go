package sql

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/tpch"
)

// The engine's aggregation-table choice as the SQL front end feeds it:
// the automatic choices and their EXPLAIN rationale on TPC-H, the
// hash-join-only pin, and full-suite result parity with every
// aggregation pushed to either engine through its group estimate.

// forcedGroups is a group estimate far above the engine's threshold for
// the partitioned aggregation.
const forcedGroups = 1 << 20

// physCompile compiles query or fails the test. agg "auto" keeps the
// planner's estimates; "shared" and "partitioned" overwrite every
// aggregation's group estimate with 0 or forcedGroups, the input the
// engine picks the aggregation table from, so a test can run a plan on
// either engine without an option that chooses it.
func physCompile(t *testing.T, query string, cat Catalog, agg string) *engine.Plan {
	t.Helper()
	p, err := Compile(query, cat)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, query)
	}
	switch agg {
	case "auto":
	case "shared":
		setAggEst(p, 0)
	case "partitioned":
		setAggEst(p, forcedGroups)
	default:
		t.Fatalf("unknown aggregation engine %q", agg)
	}
	return p
}

// setAggEst sets the group estimate of every aggregation in p.
func setAggEst(p *engine.Plan, est float64) {
	seen := map[*engine.Node]bool{}
	var walk func(n *engine.Node)
	walk = func(n *engine.Node) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		for _, c := range n.UnionInputs() {
			walk(c)
		}
		walk(n.Input())
		walk(n.BuildInput())
		if n.Kind() == engine.KindAgg {
			n.SetEst(est)
		}
	}
	walk(p.Root())
}

// TestTPCHPhysicalParity runs every covered TPC-H query with every
// aggregation on the shared engine, with the planner's own estimates, and
// with every grouped aggregation on the partitioned engine, and asserts
// identical results. The engine choice may only change how an
// aggregation runs, never what it produces.
func TestTPCHPhysicalParity(t *testing.T) {
	cat := tpchCatalog()
	for _, n := range tpch.SQLCoverage() {
		n := n
		t.Run(fmt.Sprintf("Q%d", n), func(t *testing.T) {
			query := tpch.MustSQLText(n, tpchDB.Cfg.SF)
			want, _ := goldenSession().Run(physCompile(t, query, cat, "shared"))
			for _, agg := range []string{"auto", "partitioned"} {
				got, _ := goldenSession().Run(physCompile(t, query, cat, agg))
				sameResults(t, fmt.Sprintf("Q%d with agg=%s", n, agg), got, want, coverageOrdered[n])
			}
		})
	}
}

// TestPhysicalAutoSelections pins the automatic choices the cost model
// makes on the TPC-H suite, with their est= rationale: a high-NDV group
// key partitions its aggregation. If the estimator or the threshold
// drifts, these pins catch it.
func TestPhysicalAutoSelections(t *testing.T) {
	cat := tpchCatalog()
	pins := []struct {
		q    int
		want []string
	}{
		// Q18: both the outer 39958-group aggregate (above the IN semi
		// join inside the orders build) and the inner 29952-group
		// SUM(l_quantity) HAVING subquery partition.
		{18, []string{
			"agg partitioned [c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice] aggs [sum(l_quantity) AS sum_qty] [phys: partitioned groups est=39958]",
			"agg partitioned [l_orderkey] aggs [sum(l_quantity) AS $agg1] [phys: partitioned groups est=29952]",
		}},
		// Q3: the revenue aggregation's 6264-group key partitions.
		{3, []string{
			"agg partitioned [l_orderkey, o_orderdate, o_shippriority] aggs [sum((l_extendedprice * (1 - l_discount))) AS revenue] [phys: partitioned groups est=6264]",
		}},
		// Q5: five nation groups stay on the shared engine.
		{5, []string{"groupby [n_name]"}},
	}
	for _, pin := range pins {
		query := tpch.MustSQLText(pin.q, tpchDB.Cfg.SF)
		ex := physCompile(t, query, cat, "auto").Explain()
		for _, w := range pin.want {
			if !strings.Contains(ex, w) {
				t.Errorf("Q%d: auto explain missing %q:\n%s", pin.q, w, ex)
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
		ex := physCompile(t, tpch.MustSQLText(n, tpchDB.Cfg.SF), cat, "auto").Explain()
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

// TestPhysicalForced pins the engine's rule at its inputs: a grouped
// aggregation runs partitioned once its estimate is high, and EXPLAIN
// says so with the estimate; with no estimate it runs shared and carries
// no annotation; a global aggregate never partitions, whatever its
// estimate.
func TestPhysicalForced(t *testing.T) {
	cat := tpchCatalog()
	q3 := tpch.MustSQLText(3, tpchDB.Cfg.SF)

	ex := physCompile(t, q3, cat, "partitioned").Explain()
	for _, w := range []string{
		"agg partitioned [l_orderkey, o_orderdate, o_shippriority]",
		fmt.Sprintf("[phys: partitioned groups est=%d]", forcedGroups),
	} {
		if !strings.Contains(ex, w) {
			t.Errorf("high-estimate Q3 explain missing %q:\n%s", w, ex)
		}
	}

	ex = physCompile(t, q3, cat, "shared").Explain()
	for _, bad := range []string{"partitioned", "[phys"} {
		if strings.Contains(ex, bad) {
			t.Errorf("no-estimate Q3 explain contains %q:\n%s", bad, ex)
		}
	}

	// Q6 has one group.
	ex = physCompile(t, tpch.MustSQLText(6, tpchDB.Cfg.SF), cat, "partitioned").Explain()
	if strings.Contains(ex, "partitioned") {
		t.Errorf("high-estimate Q6 partitioned its global aggregate:\n%s", ex)
	}
}
