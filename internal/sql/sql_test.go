package sql

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/numa"
	"repro/internal/storage"
)

// testCatalog builds a small two-table schema: an employee fact table
// and a department dimension with a declared key.
func testCatalog() Catalog {
	eb := storage.NewBuilder("emp", storage.Schema{
		{Name: "id", Type: storage.I64},
		{Name: "name", Type: storage.Str},
		{Name: "dept", Type: storage.I64},
		{Name: "salary", Type: storage.F64},
		{Name: "hired", Type: storage.I64},
	}, 4, "id").DeclareKey("id")
	names := []string{"ada", "bob", "cyd", "dan", "eve", "fay", "gus", "hal"}
	for i := int64(0); i < 40; i++ {
		eb.Append(storage.Row{
			i, names[i%8], i % 5, 1000 + float64(i*13%700),
			engine.ParseDate("2020-01-01") + i*20,
		})
	}
	emp := eb.Build(storage.NUMAAware, 4)

	db := storage.NewBuilder("dept", storage.Schema{
		{Name: "did", Type: storage.I64},
		{Name: "dname", Type: storage.Str},
		{Name: "region", Type: storage.Str},
	}, 2, "did").DeclareKey("did")
	depts := []string{"eng", "ops", "sales", "hr", "legal"}
	regions := []string{"emea", "amer", "emea", "apac", "amer"}
	for i := int64(0); i < 5; i++ {
		db.Append(storage.Row{i, depts[i], regions[i]})
	}
	dept := db.Build(storage.NUMAAware, 4)

	tables := map[string]*storage.Table{"emp": emp, "dept": dept}
	return func(name string) (*storage.Table, bool) {
		t, ok := tables[name]
		return t, ok
	}
}

func testSession() *engine.Session {
	s := engine.NewSession(numa.NehalemEXMachine())
	s.Mode = engine.Sim
	s.Dispatch.Workers = 8
	s.Dispatch.MorselRows = 7
	return s
}

// run compiles and executes one SQL query.
func run(t *testing.T, cat Catalog, query string) *engine.Result {
	t.Helper()
	p, err := Compile(query, cat)
	if err != nil {
		t.Fatalf("compile %q: %v", query, err)
	}
	res, _ := testSession().Run(p)
	return res
}

// rows renders a result canonically (sorted unless ordered).
func rows(res *engine.Result, ordered bool) []string {
	var out []string
	for i := range res.Rows() {
		out = append(out, res.Row(i))
	}
	if !ordered {
		sort.Strings(out)
	}
	return out
}

func expectRows(t *testing.T, res *engine.Result, ordered bool, want ...string) {
	t.Helper()
	got := rows(res, ordered)
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d:\ngot  %s\nwant %s\nall rows:\n%s", i, got[i], want[i], strings.Join(got, "\n"))
		}
	}
}

func TestSelectFilterOrderLimit(t *testing.T) {
	cat := testCatalog()
	res := run(t, cat, `SELECT id, name, salary FROM emp WHERE salary >= 1200 AND id < 20 ORDER BY salary DESC, id LIMIT 3`)
	if got := []string{res.Schema[0].Name, res.Schema[1].Name, res.Schema[2].Name}; got[0] != "id" || got[1] != "name" || got[2] != "salary" {
		t.Fatalf("schema: %v", got)
	}
	expectRows(t, res, true,
		"19 | dan | 1247.00",
		"18 | cyd | 1234.00",
		"17 | bob | 1221.00",
	)
}

func TestProjectionReorderAndAlias(t *testing.T) {
	cat := testCatalog()
	res := run(t, cat, `SELECT salary * 2 AS double_pay, id FROM emp WHERE id = 3`)
	if res.Schema[0].Name != "double_pay" || res.Schema[1].Name != "id" {
		t.Fatalf("schema: %v %v", res.Schema[0].Name, res.Schema[1].Name)
	}
	expectRows(t, res, false, "2078.00 | 3")
}

func TestStar(t *testing.T) {
	cat := testCatalog()
	res := run(t, cat, `SELECT * FROM dept WHERE did = 2`)
	expectRows(t, res, false, "2 | sales | emea")
}

func TestAggregatesGroupHaving(t *testing.T) {
	cat := testCatalog()
	res := run(t, cat, `
		SELECT dept, COUNT(*) AS n, SUM(salary) AS total, AVG(salary) AS mean
		FROM emp
		GROUP BY dept
		HAVING n >= 8
		ORDER BY dept`)
	if res.NumRows() != 5 {
		t.Fatalf("want all 5 depts (8 emps each), got %d", res.NumRows())
	}
	for i := 0; i < res.NumRows(); i++ {
		row := res.Rows()[i]
		if row[1].I != 8 {
			t.Fatalf("dept %d: count %d", row[0].I, row[1].I)
		}
		if math.Abs(row[2].F/8-row[3].F) > 1e-9 {
			t.Fatalf("avg mismatch: %v vs %v", row[2].F/8, row[3].F)
		}
	}
}

func TestCompositeAggregateExpression(t *testing.T) {
	cat := testCatalog()
	// A select item computing over two aggregates (post-agg map).
	res := run(t, cat, `
		SELECT dept, SUM(salary) / COUNT(*) AS mean
		FROM emp GROUP BY dept ORDER BY dept`)
	want := run(t, cat, `SELECT dept, AVG(salary) AS mean FROM emp GROUP BY dept ORDER BY dept`)
	expectRows(t, res, true, rows(want, true)...)
}

func TestGlobalAggregate(t *testing.T) {
	cat := testCatalog()
	res := run(t, cat, `SELECT COUNT(*) AS n, MIN(salary) AS lo, MAX(salary) AS hi FROM emp`)
	expectRows(t, res, false, "40 | 1000.00 | 1507.00")
}

// TestFloatGroupKeys: a float group key is encoded by its bits, not
// quantised to 1e-4 in an int64 — where keys past 9.2e14 would overflow
// into one group and keys under 1e-4 collapse into 0. Six distinct
// salaries stay six groups, and each key comes back exactly as computed.
func TestFloatGroupKeys(t *testing.T) {
	cat := testCatalog()
	for _, c := range []struct {
		expr  string
		scale func(float64) float64
	}{
		{"salary * 1000000000000", func(s float64) float64 { return s * 1000000000000 }},
		{"salary / 100000000", func(s float64) float64 { return s / 100000000 }},
	} {
		res := run(t, cat, fmt.Sprintf(`SELECT %s AS k, COUNT(*) AS n FROM emp WHERE id < 6 GROUP BY %s ORDER BY k`, c.expr, c.expr))
		if res.NumRows() != 6 {
			t.Fatalf("GROUP BY %s: %d groups, want 6: %v", c.expr, res.NumRows(), rows(res, true))
		}
		for i, row := range res.Rows() {
			salary := 1000 + float64(i*13%700) // ids 0..5, ascending salaries
			if want := c.scale(salary); row[0].F != want || row[1].I != 1 {
				t.Errorf("GROUP BY %s: row %d is (%v, %d), want (%v, 1)", c.expr, i, row[0].F, row[1].I, want)
			}
		}
	}
}

func TestCommaJoinWithPushdown(t *testing.T) {
	cat := testCatalog()
	res := run(t, cat, `
		SELECT region, SUM(salary) AS total
		FROM emp, dept
		WHERE dept = did AND region = 'emea'
		GROUP BY region ORDER BY region`)
	// emea = depts 0 (eng) and 2 (sales).
	var want float64
	for i := int64(0); i < 40; i++ {
		if i%5 == 0 || i%5 == 2 {
			want += 1000 + float64(i*13%700)
		}
	}
	if res.NumRows() != 1 || math.Abs(res.Rows()[0][1].F-want) > 1e-6 {
		t.Fatalf("got %v, want emea %v", rows(res, true), want)
	}
}

func TestExplicitJoinOn(t *testing.T) {
	cat := testCatalog()
	a := run(t, cat, `SELECT dname, COUNT(*) AS n FROM emp JOIN dept ON dept = did GROUP BY dname ORDER BY dname`)
	b := run(t, cat, `SELECT dname, COUNT(*) AS n FROM emp, dept WHERE dept = did GROUP BY dname ORDER BY dname`)
	expectRows(t, a, true, rows(b, true)...)
}

func TestSemiJoinRewrite(t *testing.T) {
	cat := testCatalog()
	// dept's key (did) is fully covered by the join key and no dept
	// column is needed downstream: the optimizer must run this as a
	// semi join.
	p, err := Compile(`SELECT COUNT(*) AS n FROM emp, dept WHERE dept = did AND region = 'emea'`, cat)
	if err != nil {
		t.Fatal(err)
	}
	ex := p.Explain()
	if !strings.Contains(ex, "hashjoin semi") {
		t.Fatalf("expected a semi join in:\n%s", ex)
	}
	// And the region filter must sit on the dept scan, below the join.
	if !strings.Contains(ex, "scan(dept) cols=[did region] filter: (region = 'emea')") {
		t.Fatalf("expected pushed-down dept filter in:\n%s", ex)
	}
	res, _ := testSession().Run(p)
	expectRows(t, res, false, "16")
}

func TestExistsAndNotExists(t *testing.T) {
	cat := testCatalog()
	res := run(t, cat, `
		SELECT COUNT(*) AS n FROM dept
		WHERE EXISTS (SELECT * FROM emp WHERE dept = did AND salary > 1650)`)
	// salaries 1650+: ids with 1000+13i%700 > 650.
	want := map[int64]bool{}
	for i := int64(0); i < 40; i++ {
		if 1000+float64(i*13%700) > 1650 {
			want[i%5] = true
		}
	}
	expectRows(t, res, false, fmt.Sprintf("%d", len(want)))

	res2 := run(t, cat, `
		SELECT dname FROM dept
		WHERE NOT EXISTS (SELECT * FROM emp WHERE dept = did AND salary > 1650)
		ORDER BY dname`)
	if res2.NumRows() != 5-len(want) {
		t.Fatalf("NOT EXISTS rows: %d, want %d", res2.NumRows(), 5-len(want))
	}
}

func TestInListAndInSubquery(t *testing.T) {
	cat := testCatalog()
	a := run(t, cat, `SELECT COUNT(*) AS n FROM emp WHERE dept IN (1, 3)`)
	expectRows(t, a, false, "16")
	b := run(t, cat, `SELECT COUNT(*) AS n FROM emp WHERE name IN ('ada', 'eve')`)
	expectRows(t, b, false, "10")
	c := run(t, cat, `SELECT COUNT(*) AS n FROM emp WHERE dept IN (SELECT did FROM dept WHERE region = 'amer')`)
	expectRows(t, c, false, "16")
	d := run(t, cat, `SELECT COUNT(*) AS n FROM emp WHERE dept NOT IN (SELECT did FROM dept WHERE region = 'amer')`)
	expectRows(t, d, false, "24")
}

// TestSubqueryJoinOnBuildScan: an IN / NOT IN subquery keyed on a column
// of a relation other than the probe root (dept, built under the emp
// probe) runs on that relation's scan inside its build, with the same
// rows as filtering after the join.
func TestSubqueryJoinOnBuildScan(t *testing.T) {
	cat := testCatalog()
	for _, c := range []struct {
		query, join string
		want        []string
	}{
		{`SELECT dname, COUNT(*) AS n FROM emp, dept WHERE dept = did
			AND did IN (SELECT dept FROM emp WHERE id < 3) GROUP BY dname`,
			"hashjoin semi on [did = dept]", []string{"eng | 8", "ops | 8", "sales | 8"}},
		{`SELECT dname, COUNT(*) AS n FROM emp, dept WHERE dept = did
			AND did NOT IN (SELECT dept FROM emp WHERE id < 3) GROUP BY dname`,
			"hashjoin anti on [did = dept]", []string{"hr | 8", "legal | 8"}},
	} {
		p, err := Compile(c.query, cat)
		if err != nil {
			t.Fatalf("compile %q: %v", c.query, err)
		}
		ex := p.Explain()
		if j := findExplainNode(parseExplain(t, ex), c.join); j == nil ||
			!strings.HasPrefix(j.children[0].text, "scan(dept)") {
			t.Fatalf("%s does not probe scan(dept):\n%s", c.join, ex)
		}
		res, _ := testSession().Run(p)
		expectRows(t, res, false, c.want...)
	}
}

func TestLeftJoin(t *testing.T) {
	cat := testCatalog()
	// Restrict the build side so some probe rows have no match; the
	// unmatched rows survive with zero-valued payload.
	res := run(t, cat, `
		SELECT id, did FROM emp LEFT JOIN dept ON dept = did AND region = 'apac'
		WHERE id < 5 ORDER BY id`)
	expectRows(t, res, true,
		"0 | 0",
		"1 | 0",
		"2 | 0",
		"3 | 3",
		"4 | 0",
	)
}

func TestCaseBetweenLikeYear(t *testing.T) {
	cat := testCatalog()
	res := run(t, cat, `
		SELECT name,
		       CASE WHEN salary >= 1135 THEN 'high' ELSE 'low' END AS band
		FROM emp WHERE id BETWEEN 10 AND 11 ORDER BY name`)
	expectRows(t, res, true, "cyd | low", "dan | high")

	res2 := run(t, cat, `SELECT COUNT(*) AS n FROM emp WHERE name LIKE '%a%'`)
	// ada, dan, fay, hal match (a anywhere); 4 names x 5 rows.
	expectRows(t, res2, false, "20")

	res3 := run(t, cat, `
		SELECT EXTRACT(YEAR FROM hired) AS y, COUNT(*) AS n
		FROM emp GROUP BY y ORDER BY y`)
	if res3.NumRows() < 2 {
		t.Fatalf("expected several hire years, got %d", res3.NumRows())
	}
	res4 := run(t, cat, `SELECT COUNT(*) AS n FROM emp WHERE hired >= DATE '2021-01-01'`)
	want := 0
	for i := int64(0); i < 40; i++ {
		if engine.ParseDate("2020-01-01")+i*20 >= engine.ParseDate("2021-01-01") {
			want++
		}
	}
	expectRows(t, res4, false, fmt.Sprintf("%d", want))
}

func TestOrderByOrdinalAndExpression(t *testing.T) {
	cat := testCatalog()
	a := run(t, cat, `SELECT name, salary FROM emp WHERE id < 5 ORDER BY 2 DESC`)
	b := run(t, cat, `SELECT name, salary FROM emp WHERE id < 5 ORDER BY salary DESC`)
	expectRows(t, a, true, rows(b, true)...)
}

func TestQualifiedNamesAndAliases(t *testing.T) {
	cat := testCatalog()
	res := run(t, cat, `
		SELECT e.name, d.dname FROM emp AS e JOIN dept AS d ON e.dept = d.did
		WHERE e.id = 7 ORDER BY e.name`)
	expectRows(t, res, true, "hal | sales")
}

// ---- error reporting.

func expectErr(t *testing.T, cat Catalog, query, wantSub string) {
	t.Helper()
	_, err := Compile(query, cat)
	if err == nil {
		t.Fatalf("expected error containing %q, query compiled", wantSub)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("error %q does not contain %q", err.Error(), wantSub)
	}
}

func TestErrorMessages(t *testing.T) {
	cat := testCatalog()
	expectErr(t, cat, `SELECT salry FROM emp`, `unknown column "salry"`)
	expectErr(t, cat, `SELECT name FROM emp WHERE name = 'unterminated`, "unclosed string literal")
	expectErr(t, cat, `SELECT name, COUNT(*) AS n FROM emp GROUP BY dept`, `column "name" must appear in GROUP BY`)
	expectErr(t, cat, `SELECT id FROM employees`, `unknown table "employees"`)
	expectErr(t, cat, `SELECT id FROM emp LIMIT 5`, "LIMIT requires ORDER BY")
	expectErr(t, cat, `SELECT id FROM emp, dept`, "not connected")
	expectErr(t, cat, `SELECT id FROM emp WHERE EXISTS (SELECT * FROM dept WHERE region = 'emea')`, "correlated")
	expectErr(t, cat, `SELECT id FROM emp ORDER BY nope`, "ORDER BY must reference")
	expectErr(t, cat, `SELECT COUNT(*) FROM emp WHERE COUNT(*) > 1`, "not allowed in WHERE")
	expectErr(t, cat, `SELECT id FROM emp WHERE`, "expected an expression")
	expectErr(t, cat, `SELECT FROM emp`, "expected an expression")
	expectErr(t, cat, `SELECT e.nope FROM emp AS e`, `unknown column "nope" in table "e"`)
	expectErr(t, cat, `SELECT name FROM emp WHERE hired > DATE '20-01-01'`, "bad date literal")
	expectErr(t, cat, `SELECT ? AS x FROM emp`, "cannot infer")
	expectErr(t, cat, `SELECT id FROM emp WHERE ? = ?`, "both operands are placeholders")
}

func TestLimitZero(t *testing.T) {
	cat := testCatalog()
	// LIMIT 0 is valid SQL: full schema, zero rows — with or without
	// ORDER BY (an empty result is trivially deterministic).
	for _, q := range []string{
		`SELECT id, name FROM emp LIMIT 0`,
		`SELECT id, name FROM emp ORDER BY id LIMIT 0`,
		`SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept ORDER BY dept LIMIT 0`,
	} {
		p, err := Compile(q, cat)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		res, _ := testSession().Run(p)
		if res.NumRows() != 0 {
			t.Fatalf("%q: got %d rows, want 0", q, res.NumRows())
		}
		if len(res.Schema) < 2 {
			t.Fatalf("%q: schema lost: %v", q, res.Schema)
		}
	}
	if p, _ := Compile(`SELECT id FROM emp ORDER BY id LIMIT 0`, cat); !strings.Contains(p.Explain(), "limit 0") {
		t.Fatalf("explain should render limit 0:\n%s", p.Explain())
	}
	// LIMIT > 0 still requires ORDER BY; negative literals stay errors.
	expectErr(t, cat, `SELECT id FROM emp LIMIT 5`, "LIMIT requires ORDER BY")
	expectErr(t, cat, `SELECT id FROM emp LIMIT -1`, "non-negative")
}

func TestScalarSubqueryUncorrelated(t *testing.T) {
	cat := testCatalog()
	var sum float64
	for i := int64(0); i < 40; i++ {
		sum += 1000 + float64(i*13%700)
	}
	avg := sum / 40
	want := 0
	for i := int64(0); i < 40; i++ {
		if 1000+float64(i*13%700) > avg {
			want++
		}
	}
	res := run(t, cat, `SELECT COUNT(*) AS n FROM emp WHERE salary > (SELECT AVG(salary) FROM emp AS e2)`)
	expectRows(t, res, false, fmt.Sprintf("%d", want))

	// Nested parentheses around the subquery are fine.
	res = run(t, cat, `SELECT COUNT(*) AS n FROM emp WHERE salary > ((SELECT AVG(salary) FROM emp AS e2))`)
	expectRows(t, res, false, fmt.Sprintf("%d", want))

	// In the select list of an ungrouped query.
	res = run(t, cat, `SELECT id, (SELECT MAX(e2.salary) FROM emp AS e2) AS top FROM emp WHERE id < 2 ORDER BY id`)
	expectRows(t, res, true, "0 | 1507.00", "1 | 1507.00")
}

func TestScalarSubqueryCorrelated(t *testing.T) {
	cat := testCatalog()
	// Employees above their own department's average — the per-dept
	// average decorrelates into a grouped build joined on dept.
	deptSum := map[int64]float64{}
	deptCnt := map[int64]float64{}
	for i := int64(0); i < 40; i++ {
		deptSum[i%5] += 1000 + float64(i*13%700)
		deptCnt[i%5]++
	}
	want := 0
	for i := int64(0); i < 40; i++ {
		if 1000+float64(i*13%700) > deptSum[i%5]/deptCnt[i%5] {
			want++
		}
	}
	res := run(t, cat, `
		SELECT COUNT(*) AS n FROM emp
		WHERE salary > (SELECT AVG(e2.salary) FROM emp AS e2 WHERE e2.dept = emp.dept)`)
	expectRows(t, res, false, fmt.Sprintf("%d", want))
}

func TestScalarSubqueryInHaving(t *testing.T) {
	cat := testCatalog()
	// Departments whose total beats the all-employee average times the
	// headcount — an uncorrelated scalar attached after aggregation.
	res := run(t, cat, `
		SELECT dept, SUM(salary) AS total FROM emp
		GROUP BY dept
		HAVING total > (SELECT AVG(e2.salary) FROM emp AS e2) * 8
		ORDER BY dept`)
	var sum float64
	deptSum := map[int64]float64{}
	for i := int64(0); i < 40; i++ {
		s := 1000 + float64(i*13%700)
		sum += s
		deptSum[i%5] += s
	}
	var want []string
	for d := int64(0); d < 5; d++ {
		if deptSum[d] > sum/40*8 {
			want = append(want, fmt.Sprintf("%d | %.2f", d, deptSum[d]))
		}
	}
	expectRows(t, res, true, want...)
}

// TestScalarSubqueryCorrelatedCount: a correlated COUNT subquery is 0 —
// not NULL — for rows without a match, so those rows must survive the
// attach join (it lowers as a probe-preserving outer join with zero
// fill). Only employees with id < 3 exist in depts 0..2, so depts 3 and
// 4 count zero.
func TestScalarSubqueryCorrelatedCount(t *testing.T) {
	cat := testCatalog()
	res := run(t, cat, `
		SELECT did, (SELECT COUNT(*) FROM emp WHERE dept = did AND id < 3) AS n
		FROM dept ORDER BY did`)
	expectRows(t, res, true, "0 | 1", "1 | 1", "2 | 1", "3 | 0", "4 | 0")

	// The zero is observable in WHERE, too: departments with no early
	// hires must be selected, not dropped.
	res = run(t, cat, `
		SELECT dname FROM dept
		WHERE (SELECT COUNT(*) FROM emp WHERE dept = did AND id < 3) = 0
		ORDER BY dname`)
	expectRows(t, res, true, "hr", "legal")
}

// TestOuterAggregateSemantics: AVG/MIN/MAX over a LEFT JOIN's nullable
// column would silently aggregate zero-filled unmatched rows, so they
// are rejected; SUM is exact (zero-extension adds 0).
func TestOuterAggregateSemantics(t *testing.T) {
	cat := testCatalog()
	expectErr(t, cat, `
		SELECT dname, MIN(salary) AS m FROM dept
		LEFT JOIN emp ON dept = did AND id < 3 GROUP BY dname`,
		"MIN over a LEFT JOIN's nullable column")
	expectErr(t, cat, `
		SELECT dname, AVG(salary) AS a FROM dept
		LEFT JOIN emp ON dept = did AND id < 3 GROUP BY dname`,
		"AVG over a LEFT JOIN's nullable column")
	res := run(t, cat, `
		SELECT dname, SUM(salary) AS s FROM dept
		LEFT JOIN emp ON dept = did AND id < 3 GROUP BY dname ORDER BY dname`)
	// ids 0,1,2 land in depts 0,1,2 (eng, ops, sales); hr/legal sum 0.
	expectRows(t, res, true,
		"eng | 1000.00", "hr | 0.00", "legal | 0.00", "ops | 1013.00", "sales | 1026.00")
}

func TestScalarSubqueryErrors(t *testing.T) {
	cat := testCatalog()
	expectErr(t, cat, `SELECT id FROM emp WHERE salary > (SELECT name FROM emp AS e2)`, "must compute an aggregate")
	expectErr(t, cat, `SELECT id FROM emp WHERE salary > (SELECT MAX(salary), MIN(salary) FROM emp AS e2)`, "exactly one expression")
	expectErr(t, cat, `SELECT id FROM emp GROUP BY (SELECT MAX(id) FROM emp AS e2)`, "not supported in GROUP BY")
	expectErr(t, cat, `SELECT id FROM emp ORDER BY (SELECT MAX(id) FROM emp AS e2)`, "not supported in ORDER BY")
	expectErr(t, cat, `SELECT id FROM emp WHERE salary > (SELECT MAX(salary) FROM emp AS e2 GROUP BY dept)`, "could yield several rows")
	expectErr(t, cat, `SELECT id FROM emp WHERE id IN ((SELECT MAX(id) FROM emp AS e2))`, "IN list")
	// A correlated non-COUNT scalar under OR could keep a row SQL-NULL
	// would keep but the inner attach join drops; outside WHERE its
	// value is observed on every row. Both must be rejected.
	expectErr(t, cat,
		`SELECT id FROM emp WHERE salary > (SELECT AVG(e2.salary) FROM emp AS e2 WHERE e2.dept = emp.dept) OR id < 3`,
		"plain comparison conjunct")
	expectErr(t, cat,
		`SELECT id, (SELECT AVG(e2.salary) FROM emp AS e2 WHERE e2.dept = emp.dept) AS a FROM emp`,
		"must be a single COUNT")
	// Every unsupported-position error must carry a source position.
	for _, q := range []string{
		`SELECT id FROM emp GROUP BY (SELECT MAX(id) FROM emp AS e2)`,
		`SELECT id FROM emp ORDER BY (SELECT MAX(id) FROM emp AS e2)`,
		`SELECT id FROM emp WHERE salary > (SELECT name FROM emp AS e2)`,
		`SELECT id FROM emp WHERE id IN ((SELECT MAX(id) FROM emp AS e2))`,
	} {
		_, err := Compile(q, cat)
		if err == nil {
			t.Fatalf("%q: expected error", q)
		}
		if !strings.Contains(err.Error(), "line ") {
			t.Fatalf("%q: error %q lacks a source position", q, err.Error())
		}
	}
}

func TestLeftJoinCountSemantics(t *testing.T) {
	cat := testCatalog()
	// dept (5 rows) is smaller than filtered emp: the planner lowers the
	// LEFT JOIN build-side (mark join + unmatched scan).
	q := `
		SELECT dname, COUNT(id) AS n FROM dept
		LEFT JOIN emp ON dept = did AND salary > 1400
		GROUP BY dname ORDER BY dname`
	p, err := Compile(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	if ex := p.Explain(); !strings.Contains(ex, "hashjoin mark") || !strings.Contains(ex, "unmatched(") {
		t.Fatalf("expected a build-side (mark) outer join:\n%s", ex)
	}
	cnt := map[int64]int64{}
	for i := int64(0); i < 40; i++ {
		if 1000+float64(i*13%700) > 1400 {
			cnt[i%5]++
		}
	}
	depts := []string{"eng", "ops", "sales", "hr", "legal"}
	byName := map[string]int64{}
	for d, name := range depts {
		byName[name] = cnt[int64(d)]
	}
	res, _ := testSession().Run(p)
	var want []string
	for _, name := range []string{"eng", "hr", "legal", "ops", "sales"} {
		want = append(want, fmt.Sprintf("%s | %d", name, byName[name]))
	}
	expectRows(t, res, true, want...)

	// COUNT(*) counts null-extended rows too: every department shows at
	// least 1.
	res = run(t, cat, `
		SELECT dname, COUNT(*) AS n FROM dept
		LEFT JOIN emp ON dept = did AND salary > 100000
		GROUP BY dname ORDER BY dname`)
	expectRows(t, res, true, "eng | 1", "hr | 1", "legal | 1", "ops | 1", "sales | 1")

	// The probe-side lowering (big preserved side) gets the same COUNT
	// semantics via the flag payload.
	res = run(t, cat, `
		SELECT id, COUNT(did) AS n FROM emp
		LEFT JOIN dept ON dept = did AND region = 'apac'
		GROUP BY id ORDER BY id LIMIT 5`)
	expectRows(t, res, true, "0 | 0", "1 | 0", "2 | 0", "3 | 1", "4 | 0")
}

func TestDerivedTable(t *testing.T) {
	cat := testCatalog()
	// Aggregate over an aggregate: per-dept totals, then their average.
	res := run(t, cat, `
		SELECT COUNT(*) AS n, AVG(total) AS a
		FROM (SELECT dept, SUM(salary) AS total FROM emp GROUP BY dept) AS t`)
	var sum float64
	for i := int64(0); i < 40; i++ {
		sum += 1000 + float64(i*13%700)
	}
	expectRows(t, res, false, fmt.Sprintf("5 | %.2f", sum/5))

	// Column alias list renames the subquery outputs.
	res = run(t, cat, `
		SELECT d, cnt FROM (SELECT dept, COUNT(*) AS c FROM emp GROUP BY dept) AS t (d, cnt)
		WHERE d < 2 ORDER BY d`)
	expectRows(t, res, true, "0 | 8", "1 | 8")

	// A derived table may join base tables (Q15's revenue-view shape) —
	// but still needs an equality predicate connecting it.
	res = run(t, cat, `
		SELECT dname, total FROM (SELECT dept AS dd, SUM(salary) AS total FROM emp GROUP BY dd) AS t, dept
		WHERE dd = did AND dd < 2 ORDER BY dname`)
	if len(res.Rows()) != 2 {
		t.Fatalf("derived-joined-to-base: got %d rows, want 2", len(res.Rows()))
	}
	expectErr(t, cat, `SELECT a FROM (SELECT id AS a FROM emp) AS t, dept`, "not connected")
	expectErr(t, cat, `SELECT a FROM (SELECT id AS a FROM emp) AS t (x, y)`, "column aliases")
	expectErr(t, cat, `SELECT a FROM (SELECT id AS a FROM emp ORDER BY id) AS t`, "no effect")
	expectErr(t, cat, `SELECT a FROM (SELECT id AS a FROM emp)`, "needs an alias")
}

// TestHavingBetweenOverAlias: BETWEEN over a select-list alias in
// HAVING resolves through the post-aggregation rewrite scope (type
// inference must not run when no placeholder is present).
func TestHavingBetweenOverAlias(t *testing.T) {
	cat := testCatalog()
	res := run(t, cat, `SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept HAVING n BETWEEN 1 AND 100 ORDER BY dept`)
	expectRows(t, res, true, "0 | 8", "1 | 8", "2 | 8", "3 | 8", "4 | 8")
}

func TestSelectDistinct(t *testing.T) {
	cat := testCatalog()
	// 8 distinct names cycle over 40 rows.
	res := run(t, cat, `SELECT DISTINCT name FROM emp ORDER BY name`)
	expectRows(t, res, true, "ada", "bob", "cyd", "dan", "eve", "fay", "gus", "hal")
	// DISTINCT over a computed pair; dept cycles 0..4, parity alternates.
	res = run(t, cat, `SELECT DISTINCT dept, dept * 2 AS d2 FROM emp WHERE dept < 2 ORDER BY dept`)
	expectRows(t, res, true, "0 | 0", "1 | 2")
	// DISTINCT over a join result.
	res = run(t, cat, `SELECT DISTINCT region FROM emp, dept WHERE dept = did ORDER BY region`)
	expectRows(t, res, true, "amer", "apac", "emea")
	// DISTINCT applies after aggregation: 40 (dept, name) groups of one
	// row each collapse to one (dept, 1) row per dept.
	res = run(t, cat, `SELECT DISTINCT dept, COUNT(*) AS n FROM emp GROUP BY dept, name ORDER BY dept`)
	expectRows(t, res, true, "0 | 1", "1 | 1", "2 | 1", "3 | 1", "4 | 1")
}

// TestDeepNestingIsAnErrorNotACrash guards the parser's recursion cap:
// queries arrive over the network, and an unbounded paren/NOT/minus
// chain must produce a ParseError, never a stack overflow (which is a
// fatal runtime error that no recover can contain).
func TestDeepNestingIsAnErrorNotACrash(t *testing.T) {
	cat := testCatalog()
	deep := func(open, close string, n int) string {
		return "SELECT id FROM emp WHERE " + strings.Repeat(open, n) + "id = 1" + strings.Repeat(close, n)
	}
	// Within the cap: fine.
	if _, err := Compile(deep("(", ")", 50), cat); err != nil {
		t.Fatalf("50 levels should parse: %v", err)
	}
	// Far beyond the cap (enough to overflow the stack if unguarded).
	for _, q := range []string{
		deep("(", ")", 200_000),
		"SELECT id FROM emp WHERE " + strings.Repeat("NOT ", 200_000) + "id = 1",
		// Spaced so the lexer doesn't read "--" as a line comment.
		"SELECT " + strings.Repeat("- ", 200_000) + "id AS x FROM emp",
	} {
		_, err := Compile(q, cat)
		if err == nil || !strings.Contains(err.Error(), "nesting exceeds") {
			t.Fatalf("deep nesting: want nesting error, got %v", err)
		}
	}
}

// TestSharedColumnNamesRenamed: two relations contributing a referenced
// column of the same name used to be rejected; per-relation renaming now
// gives each role a private register ("$alias.col"), so self joins with
// shared column names — TPC-H Q7/Q8's two nation roles — just work.
func TestSharedColumnNamesRenamed(t *testing.T) {
	cat := testCatalog()
	res := run(t, cat,
		`SELECT a.name AS n1, b.name AS n2 FROM emp AS a, emp AS b WHERE a.id = b.id AND a.id < 2 ORDER BY n1`)
	expectRows(t, res, true, "ada | ada", "bob | bob")
	// Unaliased duplicate outputs uniquify (name, name_2).
	res = run(t, cat,
		`SELECT a.name, b.name FROM emp AS a, emp AS b WHERE a.id = b.id AND a.id = 3`)
	if got := fmt.Sprintf("%s|%s", res.Schema[0].Name, res.Schema[1].Name); got != "name|name_2" {
		t.Fatalf("output names = %s", got)
	}
	expectRows(t, res, false, "dan | dan")
	// Renamed registers feed filters, group keys and aggregates alike.
	res = run(t, cat, `
		SELECT a.dept AS d, COUNT(*) AS n
		FROM emp AS a, emp AS b
		WHERE a.id = b.id AND a.dept = b.dept
		GROUP BY d ORDER BY d`)
	expectRows(t, res, true, "0 | 8", "1 | 8", "2 | 8", "3 | 8", "4 | 8")
	// A self join whose referenced columns don't collide still works.
	res = run(t, cat, `SELECT COUNT(*) AS n FROM emp AS a JOIN emp AS b ON a.id = b.id`)
	expectRows(t, res, false, "40")
	// An unqualified reference to a shared name stays ambiguous.
	expectErr(t, cat,
		`SELECT name FROM emp AS a, emp AS b WHERE a.id = b.id`, "ambiguous")
}

func TestErrorPositions(t *testing.T) {
	cat := testCatalog()
	_, err := Compile("SELECT id\nFROM emp\nWHERE salry = 3", cat)
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error should carry line 3: %q", err.Error())
	}
}

// TestCompileNeverPanics feeds deliberately hostile inputs through the
// full pipeline; Compile must return errors, never panic.
func TestCompileNeverPanics(t *testing.T) {
	cat := testCatalog()
	queries := []string{
		"", "SELECT", "SELECT * FROM", "((((", "SELECT * FROM emp WHERE (id",
		"SELECT 'a' + 1 FROM emp", "SELECT id FROM emp ORDER BY",
		"SELECT SUM(name) AS s FROM emp", "SELECT id + name FROM emp",
		"SELECT * FROM emp WHERE name BETWEEN 1 AND 'z'",
		"SELECT CASE WHEN id THEN 1 ELSE 2 END AS c FROM emp",
		"SELECT id FROM emp WHERE id IN ()",
		"SELECT id FROM emp WHERE id IN (1, 'a')",
		"SELECT id AS a, name AS a FROM emp",
		"SELECT id FROM emp GROUP BY id HAVING name = 'x'",
		"SELECT -id FROM emp WHERE -id < -3",
		"SELECT id FROM emp emp2, emp",
	}
	for _, q := range queries {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Compile(%q) panicked: %v", q, r)
				}
			}()
			p, err := Compile(q, cat)
			if err == nil && p == nil {
				t.Fatalf("Compile(%q): nil plan and nil error", q)
			}
		}()
	}
}
