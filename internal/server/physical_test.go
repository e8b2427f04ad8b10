package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"repro/internal/sql"
)

// The per-request aggregation-strategy override: a forced strategy shows
// up in EXPLAIN, results stay identical across strategies, invalid values
// and retired request fields are client errors, and the plan cache keys
// on the option so a forced plan never serves an auto request.

const physJoinSQL = `
SELECT l_orderkey, o_orderdate, SUM(l_quantity) AS qty
FROM lineitem, orders
WHERE l_orderkey = o_orderkey
GROUP BY l_orderkey, o_orderdate
ORDER BY l_orderkey, o_orderdate`

func TestPhysicalOverrideExplain(t *testing.T) {
	s, _ := newTPCHServer(t)
	ctx := context.Background()

	resp, err := s.Submit(ctx, &Request{SQL: physJoinSQL, Explain: true, PhysicalAgg: "partitioned"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"hashjoin inner", "agg partitioned", "[phys: partitioned (forced)]"} {
		if !strings.Contains(resp.Plan, want) {
			t.Fatalf("forced explain missing %q:\n%s", want, resp.Plan)
		}
	}

	resp, err = s.Submit(ctx, &Request{SQL: physJoinSQL, Explain: true, PhysicalAgg: "shared"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(resp.Plan, "[phys") {
		t.Fatalf("forced-shared explain still annotated:\n%s", resp.Plan)
	}
}

func TestPhysicalOverrideParity(t *testing.T) {
	s, _ := newTPCHServer(t)
	ctx := context.Background()
	canon := func(rows [][]any) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprintf("%v|%v|%.4f", r[0], r[1], r[2])
		}
		sort.Strings(out)
		return out
	}
	base, err := s.Submit(ctx, &Request{SQL: physJoinSQL, PhysicalAgg: "shared"})
	if err != nil {
		t.Fatal(err)
	}
	for _, agg := range []string{"partitioned", "auto", ""} {
		resp, err := s.Submit(ctx, &Request{SQL: physJoinSQL, PhysicalAgg: agg})
		if err != nil {
			t.Fatalf("%q: %v", agg, err)
		}
		g, w := canon(resp.Rows), canon(base.Rows)
		if len(g) != len(w) {
			t.Fatalf("%q: %d rows vs %d", agg, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%q: row %d: %s vs %s", agg, i, g[i], w[i])
			}
		}
	}
}

func TestPhysicalOverrideErrors(t *testing.T) {
	s, _ := newTPCHServer(t)
	ctx := context.Background()
	var bad *BadRequestError
	if _, err := s.Submit(ctx, &Request{SQL: physJoinSQL, PhysicalAgg: "hashed"}); err == nil || !asBadRequest(err, &bad) {
		t.Fatalf("unknown agg: want BadRequestError, got %v", err)
	}
}

// TestRetiredFieldsRejected pins the request fields that are gone: the
// join-algorithm override ("physical", retired with the sort-merge join)
// and the two plan-entry paths beside SQL ("plan", the JSON plan DSL, and
// "prepared", server-registered named plans). Each must get a clean 400
// naming the field rather than be silently ignored; a request without
// SQL text must get a 400 too.
func TestRetiredFieldsRejected(t *testing.T) {
	s, _ := newTPCHServer(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var msg bytes.Buffer
		_, _ = msg.ReadFrom(resp.Body)
		return resp.StatusCode, msg.String()
	}
	for _, tc := range []struct{ field, value string }{
		{"physical", `"hash"`},
		{"physical", `"auto"`},
		{"plan", `{"from": "nation", "columns": ["n_name"]}`},
		{"prepared", `"q1"`},
	} {
		body := fmt.Sprintf(`{"sql": "SELECT COUNT(*) AS n FROM nation", %q: %s}`, tc.field, tc.value)
		if status, msg := post(body); status != http.StatusBadRequest || !strings.Contains(msg, tc.field) {
			t.Errorf("%s=%s: status %d body %s, want 400 naming the field", tc.field, tc.value, status, msg)
		}
	}
	for _, body := range []string{`{}`, `{"sql": ""}`} {
		if status, msg := post(body); status != http.StatusBadRequest {
			t.Errorf("%s: status %d body %s, want 400", body, status, msg)
		}
	}
}

// TestPhysicalCacheKeying: the same SQL text under different physical
// options compiles into distinct cache entries, each hit on repeat.
func TestPhysicalCacheKeying(t *testing.T) {
	srv, sys := cacheTestServer(t, Config{})
	registerEvents(srv, sys, 1000, 0)

	const q = `SELECT kind, COUNT(*) AS n FROM events GROUP BY kind ORDER BY kind`
	submit := func(agg string) {
		t.Helper()
		resp, err := srv.Submit(context.Background(), &Request{SQL: q, PhysicalAgg: agg})
		if err != nil {
			t.Fatalf("agg=%q: %v", agg, err)
		}
		if len(resp.Rows) != 4 {
			t.Fatalf("agg=%q: %d rows", agg, len(resp.Rows))
		}
	}
	for _, agg := range []string{"", "partitioned", "", "partitioned", "shared"} {
		submit(agg)
	}
	st := srv.Stats().PlanCache
	// Three distinct (text, options) keys -> 3 misses; the two repeats
	// hit. "" and "auto" share a canonical key.
	if st.Misses != 3 || st.Hits != 2 || st.Size != 3 {
		t.Fatalf("cache stats %+v", st)
	}
	submit("auto")
	if st = srv.Stats().PlanCache; st.Hits != 3 {
		t.Fatalf("explicit auto should hit the default entry: %+v", st)
	}
}

// TestServerDefaultPhysical: a server configured with a forced default
// applies it to every SQL request that does not override.
func TestServerDefaultPhysical(t *testing.T) {
	srv, sys := cacheTestServer(t, Config{Physical: sql.Physical{Agg: "partitioned"}})
	registerEvents(srv, sys, 1000, 0)
	resp, err := srv.Submit(context.Background(),
		&Request{SQL: `SELECT kind, COUNT(*) AS n FROM events GROUP BY kind ORDER BY kind`, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Plan, "agg partitioned") {
		t.Fatalf("server default not applied:\n%s", resp.Plan)
	}
	// A per-request override beats the server default.
	resp, err = srv.Submit(context.Background(),
		&Request{SQL: `SELECT kind, COUNT(*) AS n FROM events GROUP BY kind ORDER BY kind`, PhysicalAgg: "shared", Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(resp.Plan, "agg partitioned") {
		t.Fatalf("request override ignored:\n%s", resp.Plan)
	}
}
