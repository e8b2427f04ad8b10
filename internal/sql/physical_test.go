package sql

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/tpch"
)

// The physical-operator selection phase: forced and automatic
// aggregation-strategy choice, EXPLAIN plan-shape pins with the cost
// rationale, the hash-join-only pin, and full-suite result parity across
// physical configurations.

// physCompile compiles under the given options or fails the test.
func physCompile(t *testing.T, query string, cat Catalog, ph Physical) *engine.Plan {
	t.Helper()
	p, err := CompileOpts(query, "sql", cat, ph)
	if err != nil {
		t.Fatalf("compile under %+v: %v\n%s", ph, err, query)
	}
	return p
}

// TestTPCHPhysicalParity runs every covered TPC-H query under the three
// aggregation configurations — forced shared, fully automatic, forced
// partitioned — and asserts identical results. The physical phase may
// only change how operators run, never what they produce.
func TestTPCHPhysicalParity(t *testing.T) {
	cat := tpchCatalog()
	for _, n := range tpch.SQLCoverage() {
		n := n
		t.Run(fmt.Sprintf("Q%d", n), func(t *testing.T) {
			query := tpch.MustSQLText(n, tpchDB.Cfg.SF)
			base := physCompile(t, query, cat, Physical{Agg: "shared"})
			want, _ := goldenSession().Run(base)
			for _, ph := range []Physical{{}, {Agg: "partitioned"}} {
				p := physCompile(t, query, cat, ph)
				got, _ := goldenSession().Run(p)
				sameResults(t, fmt.Sprintf("Q%d under %+v", n, ph), got, want, coverageOrdered[n])
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
		ex := physCompile(t, query, cat, Physical{}).Explain()
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
		ex := physCompile(t, tpch.MustSQLText(n, tpchDB.Cfg.SF), cat, Physical{}).Explain()
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

// TestPhysicalForced pins the forced modes: "partitioned" flips every
// grouped aggregation and says so in EXPLAIN; "shared" leaves the plan
// free of any physical annotation.
func TestPhysicalForced(t *testing.T) {
	cat := tpchCatalog()
	q3 := tpch.MustSQLText(3, tpchDB.Cfg.SF)

	ex := physCompile(t, q3, cat, Physical{Agg: "partitioned"}).Explain()
	for _, w := range []string{
		"agg partitioned [l_orderkey, o_orderdate, o_shippriority]",
		"[phys: partitioned (forced)]",
	} {
		if !strings.Contains(ex, w) {
			t.Errorf("forced Q3 explain missing %q:\n%s", w, ex)
		}
	}

	ex = physCompile(t, q3, cat, Physical{Agg: "shared"}).Explain()
	for _, bad := range []string{"partitioned", "[phys"} {
		if strings.Contains(ex, bad) {
			t.Errorf("forced-shared Q3 explain contains %q:\n%s", bad, ex)
		}
	}

	// Global aggregates never flip, even forced: Q6 has one group.
	ex = physCompile(t, tpch.MustSQLText(6, tpchDB.Cfg.SF), cat, Physical{Agg: "partitioned"}).Explain()
	if strings.Contains(ex, "partitioned") {
		t.Errorf("forced-partitioned Q6 partitioned its global aggregate:\n%s", ex)
	}
}

// TestPhysicalValidate covers option validation and cache-key
// canonicalization.
func TestPhysicalValidate(t *testing.T) {
	for _, ph := range []Physical{{}, {Agg: "auto"}, {Agg: "shared"}, {Agg: "partitioned"}} {
		if err := ph.Validate(); err != nil {
			t.Errorf("%+v: unexpected error %v", ph, err)
		}
	}
	if err := (Physical{Agg: "radix"}).Validate(); err == nil ||
		!strings.Contains(err.Error(), "unknown aggregation strategy") {
		t.Errorf("Agg=radix: want unknown-strategy error, got %v", err)
	}
	if got, want := (Physical{}).Key(), "agg=auto"; got != want {
		t.Errorf("zero Key() = %q, want %q", got, want)
	}
	if (Physical{}).Key() != (Physical{Agg: "auto"}).Key() {
		t.Error("zero value and explicit auto must share a cache key")
	}
	if (Physical{Agg: "partitioned"}).Key() == (Physical{}).Key() {
		t.Error("forced partitioned must not share the auto cache key")
	}
	if _, err := CompileOpts("SELECT id FROM emp", "sql", testCatalog(), Physical{Agg: "sorted"}); err == nil {
		t.Error("CompileOpts accepted an unknown aggregation strategy")
	}
}
