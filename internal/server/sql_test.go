package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ssb"
	"repro/internal/tpch"
)

// newTPCHServer registers the TPC-H relations on one server.
func newTPCHServer(t *testing.T) (*Server, *tpch.DB) {
	t.Helper()
	db := tpch.Generate(tpch.Config{SF: 0.01, Partitions: 16, Sockets: 4, Seed: 42})
	sys := core.NewSystem(core.Nehalem(), core.Options{Workers: 8, MorselRows: 5000})
	s := New(sys, Config{})
	for _, tab := range []*core.Table{
		db.Region, db.Nation, db.Supplier, db.Customer,
		db.Part, db.PartSupp, db.Orders, db.Lineitem,
	} {
		s.RegisterTable(tab)
	}
	t.Cleanup(s.Close)
	return s, db
}

// solo runs a hand-built plan on a private pool via System.Run and
// renders it as the server would, as an independent reference for a SQL
// request.
func solo(s *Server, p *core.Plan) *Response {
	res, _ := s.sys.Run(p)
	return s.respond(p, ClassBatch, res, &Request{}, 0, 0)
}

const serverSQLQ1 = `
SELECT l_returnflag, l_linestatus,
       SUM(l_quantity) AS sum_qty,
       SUM(l_extendedprice) AS sum_base_price,
       SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
       SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
       AVG(l_quantity) AS avg_qty,
       AVG(l_extendedprice) AS avg_price,
       AVG(l_discount) AS avg_disc,
       COUNT(*) AS count_order
FROM lineitem
WHERE l_shipdate <= DATE '1998-09-02'
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus`

const serverSQLQ3 = `
SELECT l_orderkey, o_orderdate, o_shippriority,
       SUM(l_extendedprice * (1 - l_discount)) AS revenue
FROM customer, orders, lineitem
WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND o_orderdate < DATE '1995-03-15' AND l_shipdate > DATE '1995-03-15'
GROUP BY l_orderkey, o_orderdate, o_shippriority
ORDER BY revenue DESC, o_orderdate
LIMIT 10`

const serverSQLQ6 = `
SELECT SUM(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01'
  AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24`

// sameRows compares two responses' row sets with float tolerance,
// order-insensitively (parallel execution reorders equal-key rows).
func sameRows(t *testing.T, label string, got, want *Response) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows vs %d", label, len(got.Rows), len(want.Rows))
	}
	key := func(row []any) string {
		var b strings.Builder
		for _, v := range row {
			b.WriteString(canonCell(v))
			b.WriteByte('|')
		}
		return b.String()
	}
	g := append([][]any{}, got.Rows...)
	w := append([][]any{}, want.Rows...)
	sort.Slice(g, func(i, j int) bool { return key(g[i]) < key(g[j]) })
	sort.Slice(w, func(i, j int) bool { return key(w[i]) < key(w[j]) })
	for i := range g {
		if len(g[i]) != len(w[i]) {
			t.Fatalf("%s: row %d arity mismatch", label, i)
		}
		for c := range g[i] {
			gf, gok := g[i][c].(float64)
			wf, wok := w[i][c].(float64)
			if gok && wok {
				if math.Abs(gf-wf) > 1e-6*math.Max(1, math.Abs(wf)) {
					t.Fatalf("%s: row %d col %d: %v vs %v", label, i, c, gf, wf)
				}
				continue
			}
			if canonCell(g[i][c]) != canonCell(w[i][c]) {
				t.Fatalf("%s: row %d col %d: %v vs %v", label, i, c, g[i][c], w[i][c])
			}
		}
	}
}

// TestSQLMatchesHandBuiltThroughServer runs SQL versions of TPC-H
// queries through the shared server path and requires the results of
// solo runs of the hand-built plans.
func TestSQLMatchesHandBuiltThroughServer(t *testing.T) {
	s, db := newTPCHServer(t)
	ctx := context.Background()
	for _, tc := range []struct {
		q     int
		query string
	}{
		{1, serverSQLQ1},
		{3, serverSQLQ3},
		{6, serverSQLQ6},
		// Q13 (derived table + build-side mark outer join) and Q22
		// (scalar subquery + NOT EXISTS anti join) exercise the new SQL
		// surface through the shared server path; Q7 (two nation roles
		// via per-relation column renaming) and Q16 (COUNT(DISTINCT) +
		// NOT IN) cover the 22/22 dialect additions.
		{7, tpch.MustSQLText(7, 1)},
		{13, tpch.MustSQLText(13, 1)},
		{16, tpch.MustSQLText(16, 1)},
		{22, tpch.MustSQLText(22, 1)},
	} {
		label := fmt.Sprintf("q%d", tc.q)
		got, err := s.Submit(ctx, &Request{SQL: tc.query})
		if err != nil {
			t.Fatalf("%s via SQL: %v", label, err)
		}
		want := solo(s, tpch.QueryPlan(tc.q, db))
		// Output schemas must agree column-for-column.
		if strings.Join(got.Columns, ",") != strings.Join(want.Columns, ",") {
			t.Fatalf("%s: columns %v vs %v", label, got.Columns, want.Columns)
		}
		sameRows(t, label, got, want)
	}
}

// TestSSBSQLThroughServer runs SQL versions of two SSB queries through
// the server and compares them with solo runs of the hand-built plans.
func TestSSBSQLThroughServer(t *testing.T) {
	db := ssb.Generate(ssb.Config{SF: 0.01, Partitions: 16, Sockets: 4, Seed: 5})
	sys := core.NewSystem(core.Nehalem(), core.Options{Workers: 8, MorselRows: 5000})
	s := New(sys, Config{})
	defer s.Close()
	for _, tab := range []*core.Table{db.Lineorder, db.Date, db.Customer, db.Supplier, db.Part} {
		s.RegisterTable(tab)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		id    string
		query string
	}{
		{"1.1", `SELECT SUM(lo_extendedprice * lo_discount) AS revenue
			FROM lineorder, date
			WHERE lo_orderdate = d_datekey AND d_year = 1993
			  AND lo_discount BETWEEN 1 AND 3 AND lo_quantity < 25`},
		{"2.1", `SELECT d_year, p_brand1, SUM(lo_revenue) AS revenue
			FROM lineorder, date, part, supplier
			WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey AND lo_suppkey = s_suppkey
			  AND p_category = 'MFGR#12' AND s_region = 'AMERICA'
			GROUP BY d_year, p_brand1
			ORDER BY d_year, p_brand1`},
	} {
		got, err := s.Submit(ctx, &Request{SQL: tc.query})
		if err != nil {
			t.Fatalf("ssb%s via SQL: %v", tc.id, err)
		}
		sameRows(t, "ssb"+tc.id, got, solo(s, ssb.QueryByID(tc.id).Plan(db)))
	}
}

// TestSQLExplainOption checks that explain requests return the optimized
// plan text without executing.
func TestSQLExplainOption(t *testing.T) {
	s, _ := newTPCHServer(t)
	ctx := context.Background()
	resp, err := s.Submit(ctx, &Request{SQL: serverSQLQ3, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 0 {
		t.Fatalf("explain returned %d rows", len(resp.Rows))
	}
	for _, want := range []string{"hashjoin", "scan(lineitem)", "groupby", "order by"} {
		if !strings.Contains(resp.Plan, want) {
			t.Fatalf("explain plan missing %q:\n%s", want, resp.Plan)
		}
	}
	// The pushed-down predicate sits on the scan, below the joins.
	if !strings.Contains(resp.Plan, "scan(customer) cols=[c_custkey c_mktsegment] filter: (c_mktsegment = 'BUILDING')") {
		t.Fatalf("explain should show predicate pushdown:\n%s", resp.Plan)
	}
	if resp.Columns[0] != "l_orderkey" || resp.Columns[3] != "revenue" {
		t.Fatalf("explain columns: %v", resp.Columns)
	}
}

func TestSQLErrorsAreBadRequests(t *testing.T) {
	s, _ := newTPCHServer(t)
	ctx := context.Background()
	for _, q := range []string{
		"SELECT nope FROM lineitem",
		"SELECT l_quantity FROM lineitem WHERE l_comment = 'unclosed",
		"SELECT l_partkey, COUNT(*) AS n FROM lineitem GROUP BY l_suppkey",
		"SELECT * FROM missing_table",
	} {
		_, err := s.Submit(ctx, &Request{SQL: q})
		var bad *BadRequestError
		if err == nil || !asBadRequest(err, &bad) {
			t.Fatalf("query %q: want BadRequestError, got %v", q, err)
		}
	}
}

func asBadRequest(err error, out **BadRequestError) bool {
	b, ok := err.(*BadRequestError)
	if ok {
		*out = b
	}
	return ok
}

// TestHTTPSQLQuery exercises the SQL path over the network API.
func TestHTTPSQLQuery(t *testing.T) {
	_, ts := newHTTPServer(t)
	resp, body := postQuery(t, ts, `{"sql": "SELECT kind, COUNT(*) AS n, SUM(amount) AS revenue FROM orders GROUP BY kind ORDER BY kind"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, body)
	}
	rows := body["rows"].([]any)
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7 kinds", len(rows))
	}
	cols := body["columns"].([]any)
	if cols[0] != "kind" || cols[1] != "n" || cols[2] != "revenue" {
		t.Fatalf("columns = %v", cols)
	}

	// Explain over HTTP.
	resp, body = postQuery(t, ts, `{"sql": "SELECT region, SUM(amount) AS rev FROM orders, customers WHERE cust = cid GROUP BY region ORDER BY rev DESC", "explain": true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain status %d: %v", resp.StatusCode, body)
	}
	plan, _ := body["plan"].(string)
	if !strings.Contains(plan, "hashjoin") || !strings.Contains(plan, "scan(customers)") {
		t.Fatalf("explain plan: %q", plan)
	}

	// SQL errors surface as 400s with the parser's message.
	resp, body = postQuery(t, ts, `{"sql": "SELECT amont FROM orders"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad SQL status %d: %v", resp.StatusCode, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "unknown column") {
		t.Fatalf("bad SQL error: %v", body)
	}
}

// TestConcurrentSQLClients hammers the parser -> optimizer -> execution
// path from many goroutines against the shared pool: every response must
// match the first (correctness under concurrent compilation/execution).
func TestConcurrentSQLClients(t *testing.T) {
	s, _, _ := newTestServer(20_000, Config{})
	defer s.Close()
	queries := []string{
		"SELECT kind, COUNT(*) AS n, SUM(amount) AS revenue FROM orders GROUP BY kind ORDER BY kind",
		"SELECT region, SUM(amount) AS rev FROM orders, customers WHERE cust = cid GROUP BY region ORDER BY rev DESC",
		"SELECT COUNT(*) AS n FROM orders WHERE kind IN (1, 3) AND amount BETWEEN 10 AND 60",
	}
	firsts := make([]*Response, len(queries))
	for i, q := range queries {
		resp, err := s.Submit(context.Background(), &Request{SQL: q})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		firsts[i] = resp
	}
	const clients = 8
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			for rep := 0; rep < 6; rep++ {
				i := (c + rep) % len(queries)
				resp, err := s.Submit(context.Background(), &Request{SQL: queries[i], Priority: ClassBatch})
				if err != nil {
					errc <- err
					return
				}
				for r := range resp.Rows {
					for col := range resp.Rows[r] {
						if canonCell(resp.Rows[r][col]) != canonCell(firsts[i].Rows[r][col]) {
							errc <- fmt.Errorf("concurrent SQL result diverged: query %d row %d col %d", i, r, col)
							return
						}
					}
				}
			}
			errc <- nil
		}(c)
	}
	for c := 0; c < clients; c++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
