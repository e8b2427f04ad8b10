package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/colstore"
)

func newHTTPServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s, _, _ := newTestServer(20_000, Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func postQuery(t *testing.T, ts *httptest.Server, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var decoded map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, decoded
}

// TestHTTPQueryPrepared posts a parameterized statement: the reply
// carries the class and timing, and a second post with other params is
// served from the plan cache.
func TestHTTPQueryPrepared(t *testing.T) {
	s, ts := newHTTPServer(t)
	for i, kind := range []int{5, 3} {
		body := fmt.Sprintf(`{"sql": "SELECT kind, COUNT(*) AS n FROM orders WHERE kind < ? GROUP BY kind", "params": [%d], "priority": "batch"}`, kind)
		resp, reply := postQuery(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %v", resp.StatusCode, reply)
		}
		if reply["class"] != "batch" {
			t.Errorf("class = %v, want batch", reply["class"])
		}
		if n := reply["row_count"].(float64); int(n) != kind {
			t.Errorf("kind < %d: row_count = %v, want %d", kind, n, kind)
		}
		if elapsed := reply["elapsed_ms"].(float64); elapsed <= 0 {
			t.Errorf("elapsed_ms = %v", elapsed)
		}
		if hits := s.Stats().PlanCache.Hits; hits != int64(i) {
			t.Errorf("after post %d: plan-cache hits = %d, want %d", i+1, hits, i)
		}
	}
}

func TestHTTPErrors(t *testing.T) {
	_, ts := newHTTPServer(t)
	for _, tc := range []struct {
		body   string
		status int
	}{
		{`not json`, http.StatusBadRequest},
		{`{"bogus_field": 1}`, http.StatusBadRequest},
		{`{}`, http.StatusBadRequest},
		{`{"sql": "SELECT x FROM ghosts"}`, http.StatusBadRequest},
		{`{"sql": "SELECT COUNT(*) AS n FROM orders", "priority": "urgent"}`, http.StatusBadRequest},
	} {
		resp, body := postQuery(t, ts, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("body %q: status %d, want %d (%v)", tc.body, resp.StatusCode, tc.status, body)
		}
		if tc.status != http.StatusOK {
			if msg, ok := body["error"].(string); !ok || msg == "" {
				t.Errorf("body %q: missing error message: %v", tc.body, body)
			}
		}
	}
	// Wrong method.
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query status = %d, want 405", resp.StatusCode)
	}
}

func TestHTTPTimeoutStatus(t *testing.T) {
	s, _ := newHTTPServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := postQuery(t, ts, `{"sql": "`+sqlRevenueByRegion+`", "timeout_ms": 1}`)
	// 504 on timeout; with a fast host the tiny query may still finish.
	if resp.StatusCode != http.StatusGatewayTimeout && resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d (%v), want 504 or 200", resp.StatusCode, body)
	}
}

func TestHTTPStatsTablesHealthz(t *testing.T) {
	_, ts := newHTTPServer(t)
	// Generate a little traffic first.
	postQuery(t, ts, `{"sql": "`+sqlCountOrders+`"}`)

	get := func(path string) map[string]any {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}

	hz := get("/healthz")
	if hz["status"] != "ok" || hz["workers"].(float64) != 8 {
		t.Errorf("healthz = %v", hz)
	}

	stats := get("/stats")
	classes := stats["classes"].(map[string]any)
	inter := classes["interactive"].(map[string]any)
	if inter["completed"].(float64) < 1 {
		t.Errorf("interactive completed = %v, want >= 1", inter["completed"])
	}
	pool := stats["pool"].(map[string]any)
	if pool["tuples"].(float64) <= 0 {
		t.Errorf("pool tuples = %v", pool["tuples"])
	}

	tables := get("/tables")
	names := fmt.Sprint(tables["tables"])
	if !strings.Contains(names, "orders") || !strings.Contains(names, "customers") {
		t.Errorf("tables = %v", names)
	}
	if len(tables) != 1 {
		t.Errorf("/tables keys = %v, want only \"tables\"", tables)
	}
}

// TestHTTPSnapshot: POST /snapshot answers 503 until EnableSnapshots,
// then seals every registered table into the directory and returns the
// manifest; the directory restores to the same data.
func TestHTTPSnapshot(t *testing.T) {
	s, ts := newHTTPServer(t)
	resp, err := http.Post(ts.URL+"/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("before EnableSnapshots: status %d, want 503", resp.StatusCode)
	}

	dir := t.TempDir()
	s.EnableSnapshots(dir, "demo-test", colstore.Options{})
	resp, err = http.Post(ts.URL+"/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body SnapshotResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(body.Manifest.Tables) != 2 || body.Manifest.Label != "demo-test" {
		t.Fatalf("manifest: %+v", body.Manifest)
	}

	man, tables, err := colstore.ReadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Label != "demo-test" {
		t.Fatalf("label %q", man.Label)
	}
	for _, tab := range tables {
		want, ok := s.Table(tab.Name)
		if !ok {
			t.Fatalf("restored unknown table %q", tab.Name)
		}
		if tab.Rows() != want.Rows() {
			t.Fatalf("%s: restored %d rows, want %d", tab.Name, tab.Rows(), want.Rows())
		}
	}
}

// TestRetiredFieldsRejected pins the request fields that are gone: the
// join-algorithm override ("physical", retired with the sort-merge join),
// the aggregation-table override ("agg", retired when the engine became
// the one place that picks the table) and the two plan-entry paths beside
// SQL ("plan", the JSON plan DSL, and "prepared", server-registered named
// plans). Each must get a clean 400 naming the field rather than be
// silently ignored. A request without SQL text gets a 400 too, and so
// does a body with anything after its JSON object, which would otherwise
// run only the first of two statements.
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
		{"agg", `"partitioned"`},
		{"agg", `"shared"`},
		{"plan", `{"from": "nation", "columns": ["n_name"]}`},
		{"prepared", `"q1"`},
	} {
		body := fmt.Sprintf(`{"sql": "SELECT COUNT(*) AS n FROM nation", %q: %s}`, tc.field, tc.value)
		if status, msg := post(body); status != http.StatusBadRequest || !strings.Contains(msg, tc.field) {
			t.Errorf("%s=%s: status %d body %s, want 400 naming the field", tc.field, tc.value, status, msg)
		}
	}
	for _, body := range []string{
		`{}`,
		`{"sql": ""}`,
		`{"sql": "SELECT COUNT(*) AS n FROM nation"} {"sql": "SELECT COUNT(*) AS n FROM region"}`,
		`{"sql": "SELECT COUNT(*) AS n FROM nation"} garbage`,
		`{"sql": "SELECT COUNT(*) AS n FROM nation"}}`,
	} {
		if status, msg := post(body); status != http.StatusBadRequest {
			t.Errorf("%s: status %d body %s, want 400", body, status, msg)
		}
	}
}
