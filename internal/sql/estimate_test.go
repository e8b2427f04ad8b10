package sql

import (
	"strings"
	"testing"

	"repro/internal/storage"
)

// expectEst compiles the query and asserts the explain carries the
// wanted est= annotation (on the named operator line).
func expectEst(t *testing.T, cat Catalog, query, wantLine string) {
	t.Helper()
	p, err := Compile(query, cat)
	if err != nil {
		t.Fatalf("%q: %v", query, err)
	}
	if ex := p.Explain(); !strings.Contains(ex, wantLine) {
		t.Fatalf("%q: explain missing %q:\n%s", query, wantLine, ex)
	}
}

// The test catalog: emp has 40 rows (id 0..39, dept = id%5, name cycles
// 8 values, hired = 2020-01-01 + 20·id days), dept has 5 rows with 3
// distinct regions.
func TestSelectivityEstimates(t *testing.T) {
	cat := testCatalog()
	// Equality via NDV: 40 / 5 depts = 8.
	expectEst(t, cat, `SELECT id FROM emp WHERE dept = 3`,
		"scan(emp) cols=[id dept] filter: (dept = 3) est=8")
	// Range via min/max: id < 10 covers 10/39 of [0, 39] → ~10.
	expectEst(t, cat, `SELECT id FROM emp WHERE id < 10`,
		"filter: (id < 10) est=10")
	// IN list: 2 of 5 distinct values → 16.
	expectEst(t, cat, `SELECT id FROM emp WHERE dept IN (1, 2)`,
		"filter: dept IN (1, 2) est=16")
	// Date range: hired spans 780 days from 2020-01-01; one ~390-day
	// half keeps ~20 rows.
	expectEst(t, cat, `SELECT id FROM emp WHERE hired < DATE '2021-01-26'`,
		"est=20")
	// Conjunction multiplies: dept = 3 (1/5) and id < 10 (~1/4) → ~2.
	expectEst(t, cat, `SELECT id FROM emp WHERE dept = 3 AND id < 10`,
		"est=2")
	// Grouped output capped by group-key NDV.
	expectEst(t, cat, `SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept`,
		"groupby [dept] aggs [count(*) AS n] est=5")
	// Join cardinality under containment: emp ⨝ dept on the 5-value key
	// keeps 40 rows (40·5/5); the unique-key build becomes a semi join
	// only when dept contributes no payload, so here it stays inner.
	expectEst(t, cat, `SELECT dname FROM emp, dept WHERE dept = did`,
		"hashjoin inner on [dept = did] payload=[dname] est=40")
}

// TestGroupedInEstimates: a complex IN subquery's semi/anti join takes
// the nested plan's output estimate as the build-side key NDV. The inner
// group-by estimates 5 groups, HAVING keeps ~1/3 (est 2, raw 1.67), so
// the matched probe fraction is 1.67/5 → 40·0.33 ≈ 13 rows (semi) and
// the anti complement ≈ 27.
func TestGroupedInEstimates(t *testing.T) {
	cat := testCatalog()
	groupedIn := `SELECT id FROM emp WHERE dept IN (SELECT dept FROM emp GROUP BY dept HAVING COUNT(*) > 2)`
	expectEst(t, cat, groupedIn, "groupby [dept] aggs [count(*) AS $agg1] est=5")
	expectEst(t, cat, groupedIn, "hashjoin semi on [dept = dept] est=13")
	expectEst(t, cat,
		`SELECT id FROM emp WHERE dept NOT IN (SELECT dept FROM emp GROUP BY dept HAVING COUNT(*) > 2)`,
		"hashjoin anti on [dept = dept] est=27")
}

// TestCountDistinctEstimates: COUNT(DISTINCT x) lowers to two group-by
// phases; the distinct argument's NDV passes through as the first
// phase's cardinality (5 depts × 8 names capped at the 40-row input),
// and the second phase keeps the plain grouped estimate.
func TestCountDistinctEstimates(t *testing.T) {
	cat := testCatalog()
	q := `SELECT dept, COUNT(DISTINCT name) AS n FROM emp GROUP BY dept`
	expectEst(t, cat, q, "groupby [dept, name AS $distinct] aggs [count(*) AS $dup] est=40")
	expectEst(t, cat, q, "groupby [dept] aggs [count(*) AS n] est=5")
	// Without group keys the first phase is bounded by the argument NDV
	// alone: 8 distinct names.
	q = `SELECT COUNT(DISTINCT name) AS n FROM emp`
	expectEst(t, cat, q, "groupby [name AS $distinct] aggs [count(*) AS $dup] est=8")
	expectEst(t, cat, q, "groupby [] aggs [count(*) AS n] est=1")
}

// TestDerivedJoinEstimates: a derived table's base cardinality is its
// subquery's estimate (5 groups), which then feeds the join model like
// any base relation: 5·5/5 = 5.
func TestDerivedJoinEstimates(t *testing.T) {
	cat := testCatalog()
	q := `SELECT dname, total FROM (SELECT dept AS dd, SUM(salary) AS total FROM emp GROUP BY dd) AS t, dept WHERE dd = did`
	expectEst(t, cat, q, "groupby [dept AS dd] aggs [sum(salary) AS total] est=5")
	expectEst(t, cat, q, "hashjoin inner on [dd = did] payload=[dname] est=5")
}

// TestZoneMapEstimates: when a table carries zone maps, range and
// BETWEEN selectivities sum per-segment overlap instead of a single
// whole-table interpolation, so skew on clustered data is resolved.
// The table holds 900 rows in [0, 899] and 100 rows in [100000, 100099],
// sorted and segmented so the outlier run sits in its own segments:
// uniform interpolation over [0, 100099] would put v < 1000 at ~10 rows,
// the zone maps say 900.
func TestZoneMapEstimates(t *testing.T) {
	b := storage.NewBuilder("skewed", storage.Schema{
		{Name: "v", Type: storage.I64},
		{Name: "f", Type: storage.F64},
	}, 1, "")
	for i := int64(0); i < 1000; i++ {
		v := i
		if i >= 900 {
			v = 100000 + (i - 900)
		}
		b.Append(storage.Row{v, float64(v)})
	}
	tab := b.Build(storage.NUMAAware, 1)
	cat := func(name string) (*storage.Table, bool) {
		if name == "skewed" {
			return tab, true
		}
		return nil, false
	}

	// Without zone maps: uniform over the full range, ~10 rows.
	expectEst(t, Catalog(cat), `SELECT v FROM skewed WHERE v < 1000`, "est=10")
	expectEst(t, Catalog(cat), `SELECT v FROM skewed WHERE f BETWEEN 0 AND 1000`, "est=10")

	// With 100-row segments the dense run and the outlier run get
	// separate zones and the estimate lands on the true count.
	tab.BuildZoneMaps(100)
	expectEst(t, Catalog(cat), `SELECT v FROM skewed WHERE v < 1000`, "est=900")
	expectEst(t, Catalog(cat), `SELECT v FROM skewed WHERE f BETWEEN 0 AND 1000`, "est=900")
	expectEst(t, Catalog(cat), `SELECT v FROM skewed WHERE v > 99999`, "est=100")
}

// TestFilteredJoinDomainNDV: the containment divisor uses the key's
// *domain* NDV, not the NDV clamped to the post-filter cardinality.
// Filters shrink the rows a side contributes, but the surviving rows
// still draw their keys from the full domain — so two filtered sides
// overlap on ~|P|·|B|/domain keys, far fewer than min-side-count.
func TestFilteredJoinDomainNDV(t *testing.T) {
	cat := tpchCatalog()
	// Unfiltered fact ⨝ dimension is unaffected: every orders row finds
	// its customer, est stays the probe cardinality.
	expectEst(t, cat,
		`SELECT o_orderkey FROM orders, customer WHERE o_custkey = c_custkey`,
		"hashjoin semi on [o_custkey = c_custkey] est=30000")
	// Both sides filtered well below the 3000-key customer domain:
	// 1897 orders ⨝ 27 customers / 3000 keys ≈ 17. A divisor clamped to
	// the 27-row build (the old model) would say every build row
	// matches — est 27 — and compound up multi-join plans.
	expectEst(t, cat,
		`SELECT o_orderkey FROM orders, customer
		 WHERE o_custkey = c_custkey AND o_orderdate < DATE '1992-06-01' AND c_acctbal < -900.0`,
		"hashjoin semi on [o_custkey = c_custkey] est=17")
	expectEst(t, cat,
		`SELECT o_orderkey FROM orders, customer
		 WHERE o_custkey = c_custkey AND o_orderdate < DATE '1992-06-01' AND c_mktsegment = 'BUILDING'`,
		"hashjoin semi on [o_custkey = c_custkey] est=379")
}

// TestUniqueKeyJoinEstimates: a join whose build keys cover the build
// table's declared unique key is N:1 — every probe row meets at most one
// build row — so its output is the probe side scaled by the fraction of
// the build table kept. Per-column NDVs multiplied over a composite key
// (lineitem ⨝ partsupp on the partsupp key) estimated ~2% of the actual
// rows; a single-key FK join (lineitem ⨝ orders) already landed near the
// actual and must stay there.
func TestUniqueKeyJoinEstimates(t *testing.T) {
	cat := tpchCatalog()
	for _, c := range []struct {
		label, query string
		tol          float64 // allowed est/actual ratio, either way
	}{
		{"lineitem ⨝ partsupp", `SELECT l_orderkey, ps_supplycost FROM lineitem, partsupp
			WHERE l_partkey = ps_partkey AND l_suppkey = ps_suppkey`, 2},
		{"lineitem ⨝ orders", `SELECT l_orderkey, o_orderdate FROM lineitem, orders
			WHERE l_orderkey = o_orderkey`, 1.05},
	} {
		p, err := Compile(c.query, cat)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		ex := p.Explain()
		join := findExplainNode(parseExplain(t, ex), "hashjoin inner")
		if join == nil {
			t.Fatalf("%s: no inner hash join:\n%s", c.label, ex)
		}
		res, _ := goldenSession().Run(p)
		actual := float64(res.NumRows())
		if ratio := max(join.est/actual, actual/join.est); ratio > c.tol {
			t.Errorf("%s: est=%.0f, actual %.0f (off %.2f×, allowed %.2f×):\n%s",
				c.label, join.est, actual, ratio, c.tol, ex)
		}
	}
}
