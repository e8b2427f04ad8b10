package sql

import (
	"os"
	"strings"
	"testing"

	"repro/internal/tpch"
)

// TestExplainDocExamples re-captures the EXPLAIN examples embedded in
// docs/explain.md from the live planner and requires the document to
// contain them byte-for-byte, so the doc cannot rot when the optimizer
// or the printer changes.
func TestExplainDocExamples(t *testing.T) {
	doc, err := os.ReadFile("../../docs/explain.md")
	if err != nil {
		t.Fatalf("docs/explain.md unreadable: %v", err)
	}
	text := string(doc)
	for _, ex := range []struct {
		label string
		cat   Catalog
		query string
	}{
		{"emp/dept join+groupby", testCatalog(),
			`SELECT dname, COUNT(*) AS n FROM emp, dept WHERE dept = did AND salary > 1200.0 GROUP BY dname ORDER BY n DESC, dname`},
		{"TPC-H Q16", tpchCatalog(), tpch.MustSQLText(16, 1)},
		{"high-NDV aggregation", tpchCatalog(),
			"SELECT l_orderkey, o_orderdate, SUM(l_quantity) AS qty\nFROM lineitem, orders\nWHERE l_orderkey = o_orderkey\nGROUP BY l_orderkey, o_orderdate\nORDER BY l_orderkey, o_orderdate"},
	} {
		p, err := Compile(ex.query, ex.cat)
		if err != nil {
			t.Fatalf("%s: %v", ex.label, err)
		}
		want := strings.TrimSpace(p.Explain())
		if !strings.Contains(text, want) {
			t.Fatalf("docs/explain.md is stale for the %s example; re-capture this block:\n%s",
				ex.label, want)
		}
	}

	// The distributed example: Q3 planned for a two-node cluster. Its
	// broadcast and gather exchange markers must appear exactly as the
	// planner renders them.
	p3, err := Compile(tpch.MustSQLText(3, 1), tpchCatalog())
	if err != nil {
		t.Fatal(err)
	}
	dp, err := Distribute(p3, tpchTopo(2))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimSpace(dp.Combined.Explain())
	if !strings.Contains(text, want) {
		t.Fatalf("docs/explain.md is stale for the distributed Q3 example; re-capture this block:\n%s", want)
	}
}

// TestDialectDocCoverageClaim is the docs-freshness half that lives next
// to the planner: docs/sql-dialect.md must claim exactly the coverage
// tpch.SQLText provides (the other half, in internal/tpch, checks the
// inverse direction).
func TestDialectDocCoverageClaim(t *testing.T) {
	doc, err := os.ReadFile("../../docs/sql-dialect.md")
	if err != nil {
		t.Fatalf("docs/sql-dialect.md unreadable: %v", err)
	}
	covered := len(tpch.SQLCoverage())
	claims22 := strings.Contains(string(doc), "22/22")
	switch {
	case claims22 && covered != 22:
		t.Fatalf("docs/sql-dialect.md claims 22/22 TPC-H coverage but tpch.SQLText expresses %d queries", covered)
	case !claims22:
		t.Fatalf("docs/sql-dialect.md no longer states the 22/22 coverage claim; update the doc (coverage is %d/22)", covered)
	}
}
