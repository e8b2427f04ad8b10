package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/storage"
)

// appendBody marshals a /append request body for the given table.
func appendBody(t *testing.T, table string, rows [][]any) []byte {
	t.Helper()
	b, err := json.Marshal(appendWire{Table: table, Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// postJSON drives one endpoint of the server's HTTP handler directly.
func postJSON(t *testing.T, h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// countOrdersSQL asks for the live row count over HTTP-equivalent SQL.
func countOrdersSQL(t *testing.T, s *Server) (int64, uint64) {
	t.Helper()
	resp, err := s.Submit(context.Background(), &Request{SQL: "SELECT COUNT(*) AS n FROM orders"})
	if err != nil {
		t.Fatalf("count query: %v", err)
	}
	n, ok := resp.Rows[0][0].(int64)
	if !ok {
		t.Fatalf("count column is %T, want int64", resp.Rows[0][0])
	}
	return n, resp.Versions["orders"]
}

// TestAppendVisibleToQueries is the end-to-end write path: a batch
// POSTed to /append must be visible to the very next query, the
// response must carry the committed version, and the query response
// must report the version it was pinned to.
func TestAppendVisibleToQueries(t *testing.T) {
	s, _, _ := newTestServer(10_000, Config{MaxConcurrent: 4})
	defer s.Close()
	h := s.Handler()

	before, v0 := countOrdersSQL(t, s)
	if before != 10_000 {
		t.Fatalf("seed count = %d, want 10000", before)
	}
	if v0 != 0 {
		t.Fatalf("pre-append pinned version = %d, want 0 (no delta yet)", v0)
	}

	w := postJSON(t, h, "/append", appendBody(t, "orders",
		[][]any{
			{10_000, 1, 2, 3.25},
			{10_001, 2, 3, 4.50},
		}))
	if w.Code != http.StatusOK {
		t.Fatalf("append status = %d: %s", w.Code, w.Body.String())
	}
	var ar AppendResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ar); err != nil {
		t.Fatal(err)
	}
	if ar.RowsAppended != 2 || ar.Version != 1 || ar.DeltaRows != 2 {
		t.Fatalf("append response = %+v, want 2 rows at version 1", ar)
	}

	after, v1 := countOrdersSQL(t, s)
	if after != 10_002 {
		t.Fatalf("post-append count = %d, want 10002", after)
	}
	if v1 != 1 {
		t.Fatalf("post-append pinned version = %d, want 1", v1)
	}

	// SQL INSERT routes through the same delta.
	resp, err := s.Submit(context.Background(),
		&Request{SQL: "INSERT INTO orders VALUES (10002, 3, 4, 5.75)"})
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	if resp.RowCount != 1 || resp.Versions["orders"] != 2 {
		t.Fatalf("insert response = %+v, want 1 row at version 2", resp)
	}
	if after, _ := countOrdersSQL(t, s); after != 10_003 {
		t.Fatalf("post-insert count = %d, want 10003", after)
	}

	st := s.Stats()
	if st.Ingest.Appends != 2 || st.Ingest.RowsAppended != 3 || st.Ingest.InsertStmts != 1 {
		t.Fatalf("ingest counters = %+v, want 2 appends / 3 rows / 1 insert", st.Ingest)
	}
	if ti := st.Ingest.Tables["orders"]; ti.Version != 2 || ti.DeltaRows != 3 {
		t.Fatalf("orders ingest = %+v, want version 2, 3 delta rows", ti)
	}
}

// TestAppendRejections covers the documented client errors of the
// append endpoint: each must be a 400, and none may mutate the table.
func TestAppendRejections(t *testing.T) {
	s, orders, _ := newTestServer(1_000, Config{MaxConcurrent: 2})
	defer s.Close()
	h := s.Handler()

	cases := map[string]string{
		"unknown table": string(appendBody(t, "nope", [][]any{{1, 2, 3, 4.0}})),
		"empty batch":   string(appendBody(t, "orders", [][]any{})),
		"short row":     string(appendBody(t, "orders", [][]any{{1, 2, 3}})),
		"long row":      string(appendBody(t, "orders", [][]any{{1, 2, 3, 4.0, 5}})),
		"float in i64":  string(appendBody(t, "orders", [][]any{{1.5, 2, 3, 4.0}})),
		"string in f64": string(appendBody(t, "orders", [][]any{{1, 2, 3, "x"}})),
		"malformed":     `{"table": "orders", "rows": [[1,`,
		"unknown field": `{"table": "orders", "rows": [[1, 2, 3, 4.0]], "extra": 1}`,
		"trailing data": `{"table": "orders", "rows": [[1, 2, 3, 4.0]]} {"again": true}`,
		"stray brace":   `{"table": "orders", "rows": [[1, 2, 3, 4.0]]}}`,
		"missing table": `{"rows": [[1, 2, 3, 4.0]]}`,
	}
	for name, body := range cases {
		if w := postJSON(t, h, "/append", []byte(body)); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", name, w.Code, w.Body.String())
		}
	}
	if d := orders.DeltaIfAny(); d != nil && d.Rows() > 0 {
		t.Fatalf("rejected appends leaked %d rows into the delta", d.Rows())
	}
}

// FuzzAppendDecode drives the append body decoder with arbitrary bytes.
// Whatever arrives — malformed JSON, schema mismatches, oversized
// batches, NaN/±0 encodings — decodeAppend must either return typed
// rows that match the schema or an error; it must never panic, and the
// returned rows must never contain NaN smuggled through JSON. Run with:
// go test -fuzz FuzzAppendDecode ./internal/server/
func FuzzAppendDecode(f *testing.F) {
	_, orders, customers := buildSystem(16)
	lookup := func(name string) (*core.Table, bool) {
		switch name {
		case "orders":
			return orders, true
		case "customers":
			return customers, true
		}
		return nil, false
	}

	f.Add([]byte(`{"table": "orders", "rows": [[1, 2, 3, 4.25]]}`))
	f.Add([]byte(`{"table": "customers", "rows": [[7, "acme", "emea"]]}`))
	f.Add([]byte(`{"table": "orders", "rows": [[1, 2, 3, -0.0], [4, 5, 6, 1e308]]}`))
	f.Add([]byte(`{"table": "orders", "rows": [[1, 2, 3, NaN]]}`))
	f.Add([]byte(`{"table": "orders", "rows": [[1, 2, 3, "NaN"]]}`))
	f.Add([]byte(`{"table": "orders", "rows": [["1996-01-02", 2, 3, 4.0]]}`))
	f.Add([]byte(`{"table": "orders", "rows": [[1.5, 2, 3, 4.0]]}`))
	f.Add([]byte(`{"table": "orders", "rows": [[9223372036854775808, 2, 3, 4.0]]}`))
	f.Add([]byte(`{"table": "orders", "rows": [[1, 2, 3]]}`))
	f.Add([]byte(`{"table": "nope", "rows": [[1]]}`))
	f.Add([]byte(`{"table": "orders", "rows": []}`))
	f.Add([]byte(`{"table": "orders"`))
	f.Add([]byte(`{"table": "orders", "rows": [[1, 2, 3, 4.0]]} trailing`))
	f.Add([]byte(`{"table": "orders", "rows": [[null, 2, 3, 4.0]]}`))
	f.Add([]byte(`[1, 2, 3]`))
	f.Add(bytes.Repeat([]byte(`[0,0,0,0.5],`), 64))

	f.Fuzz(func(t *testing.T, body []byte) {
		tab, rows, err := decodeAppend(body, lookup)
		if err != nil {
			if _, ok := err.(*BadRequestError); !ok {
				t.Fatalf("decode error is %T, want *BadRequestError: %v", err, err)
			}
			return
		}
		if tab == nil || len(rows) == 0 || len(rows) > maxAppendRows {
			t.Fatalf("accepted decode returned table=%v with %d rows", tab, len(rows))
		}
		for i, row := range rows {
			if len(row) != len(tab.Schema) {
				t.Fatalf("row %d has %d values, schema has %d", i, len(row), len(tab.Schema))
			}
			for j, def := range tab.Schema {
				switch def.Type {
				case core.I64:
					if _, ok := row[j].(int64); !ok {
						t.Fatalf("row %d col %d: %T in I64 column", i, j, row[j])
					}
				case core.F64:
					v, ok := row[j].(float64)
					if !ok {
						t.Fatalf("row %d col %d: %T in F64 column", i, j, row[j])
					}
					if math.IsNaN(v) {
						t.Fatalf("row %d col %d: NaN smuggled through JSON decode", i, j)
					}
				default:
					if _, ok := row[j].(string); !ok {
						t.Fatalf("row %d col %d: %T in Str column", i, j, row[j])
					}
				}
			}
		}
	})
}

// TestPlanCacheStaleOnIngest pins the stats-refresh contract: a cached
// SQL plan keeps being served while appends stay under the threshold,
// and the first lookup after delta growth crosses it must recompile —
// counted as a stale hit, not a catalog invalidation — so its
// cardinality estimates see the delta-merged statistics.
func TestPlanCacheStaleOnIngest(t *testing.T) {
	s, orders, _ := newTestServer(5_000, Config{MaxConcurrent: 2, StatsRefreshRows: 1_000})
	defer s.Close()
	ctx := context.Background()
	const q = "SELECT kind, COUNT(*) AS n FROM orders GROUP BY kind ORDER BY kind"

	if _, err := s.Submit(ctx, &Request{SQL: q}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(ctx, &Request{SQL: q}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.PlanCache.Hits != 1 {
		t.Fatalf("cache hits = %d before ingest, want 1", st.PlanCache.Hits)
	}

	// 500 rows: under the 1000-row threshold, so the plan stays cached.
	batch := make([]storage.Row, 500)
	for i := range batch {
		batch[i] = storage.Row{int64(100_000 + i), int64(i % 7), int64(i % 7), 1.0}
	}
	if _, err := s.Append(ctx, "orders", batch); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(ctx, &Request{SQL: q}); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.PlanCache.Hits != 2 || st.PlanCache.StaleHits != 0 {
		t.Fatalf("under threshold: hits = %d, stale = %d; want 2 hits, 0 stale",
			st.PlanCache.Hits, st.PlanCache.StaleHits)
	}

	// Another 600 rows crosses the threshold: the data-version advances
	// and the next lookup must drop the entry as stale.
	more := make([]storage.Row, 600)
	for i := range more {
		more[i] = storage.Row{int64(110_000 + i), int64(i % 7), int64(i % 7), 1.0}
	}
	if _, err := s.Append(ctx, "orders", more); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Submit(ctx, &Request{SQL: q})
	if err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.PlanCache.StaleHits != 1 {
		t.Fatalf("over threshold: stale hits = %d, want 1 (invalidations = %d)",
			st.PlanCache.StaleHits, st.PlanCache.Invalidations)
	}
	if st.Ingest.StatsRefreshes != 1 {
		t.Fatalf("stats refreshes = %d, want 1", st.Ingest.StatsRefreshes)
	}
	// The recompiled plan binds against delta-merged statistics…
	if got := orders.LiveStats().Rows; got != 6_100 {
		t.Fatalf("live row estimate = %d, want 6100", got)
	}
	// …and the query itself sees every committed row.
	var total int64
	for _, row := range resp.Rows {
		total += row[1].(int64)
	}
	if total != 6_100 {
		t.Fatalf("summed counts = %d, want 6100", total)
	}
}

// TestExplainSeesDeltaRows asserts the optimizer's cardinality input
// moves with ingest: EXPLAIN output embeds scan-row estimates, so after
// appending rows and crossing the refresh threshold the explain text
// must change.
func TestExplainSeesDeltaRows(t *testing.T) {
	s, _, _ := newTestServer(2_000, Config{MaxConcurrent: 2, StatsRefreshRows: 100})
	defer s.Close()
	ctx := context.Background()
	const q = "SELECT COUNT(*) AS n FROM orders WHERE kind < 3"

	before, err := s.Submit(ctx, &Request{SQL: q, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]storage.Row, 1_000)
	for i := range batch {
		batch[i] = storage.Row{int64(200_000 + i), int64(i), int64(i % 7), 2.5}
	}
	if _, err := s.Append(ctx, "orders", batch); err != nil {
		t.Fatal(err)
	}
	after, err := s.Submit(ctx, &Request{SQL: q, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if before.Plan == after.Plan {
		t.Fatalf("explain unchanged after 1000-row ingest:\n%s", after.Plan)
	}
	if !strings.Contains(after.Plan, "3000") && !strings.Contains(after.Plan, "3,000") {
		t.Logf("note: explain does not print the exact new row count:\n%s", after.Plan)
	}
}

// TestSnapshotRacesAppend hammers POST /snapshot while appends stream
// in. Snapshot compaction seals each delta and swaps in a replacement
// table; a racing append must transparently retry onto the replacement
// so no batch is ever lost or torn across the seal, queries must stay
// exact throughout, and the final snapshot must restore every row.
// Run under -race in CI.
func TestSnapshotRacesAppend(t *testing.T) {
	s, _, _ := newTestServer(5_000, Config{MaxConcurrent: 8})
	defer s.Close()
	dir := t.TempDir()
	s.EnableSnapshots(dir, "race", colstore.Options{SegRows: 512})
	ctx := context.Background()

	const writers = 4
	const batches = 40
	const batchRows = 25
	var wg sync.WaitGroup
	var appended atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				rows := make([]storage.Row, batchRows)
				for i := range rows {
					id := int64(1_000_000 + w*batches*batchRows + b*batchRows + i)
					rows[i] = storage.Row{id, id % 997, id % 7, 1.0}
				}
				if _, err := s.Append(ctx, "orders", rows); err != nil {
					t.Errorf("writer %d batch %d: %v", w, b, err)
					return
				}
				appended.Add(batchRows)
			}
		}(w)
	}
	// One goroutine snapshots while writers run; another queries and
	// checks every observed count is a whole number of batches.
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if _, err := s.Snapshot(); err != nil {
				t.Errorf("snapshot %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			n, _ := countOrdersSQL(t, s)
			if extra := n - 5_000; extra < 0 || extra%batchRows != 0 {
				t.Errorf("observed count %d is not seed + whole batches", n)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	want := 5_000 + appended.Load()
	if n, _ := countOrdersSQL(t, s); n != want {
		t.Fatalf("final live count = %d, want %d", n, want)
	}

	// A last snapshot folds the remaining delta; the restored table must
	// hold every appended row as sealed data.
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	_, tabs, err := colstore.ReadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	var restored *core.Table
	for _, tab := range tabs {
		if tab.Name == "orders" {
			restored = tab
		}
	}
	if restored == nil {
		t.Fatal("snapshot lost the orders table")
	}
	if got := int64(restored.Stats().Rows); got != want {
		t.Fatalf("restored snapshot has %d rows, want %d", got, want)
	}
}

// TestAppendContextCanceled: a canceled request context must surface as
// an error before any mutation.
func TestAppendContextCanceled(t *testing.T) {
	s, orders, _ := newTestServer(100, Config{MaxConcurrent: 2})
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Append(ctx, "orders", []storage.Row{{int64(1), int64(2), int64(3), 4.0}}); err == nil {
		t.Fatal("append with canceled context succeeded")
	}
	if d := orders.DeltaIfAny(); d != nil && d.Rows() > 0 {
		t.Fatal("canceled append mutated the delta")
	}
}

// sanity for the demo ingest flow used by loadgen -ingest: base count
// recovery via n = base + version*batch must hold for uniform batches.
func TestUniformBatchInvariant(t *testing.T) {
	s, _, _ := newTestServer(3_000, Config{MaxConcurrent: 2})
	defer s.Close()
	ctx := context.Background()
	const batchRows = 50
	for b := 0; b < 5; b++ {
		rows := make([]storage.Row, batchRows)
		for i := range rows {
			rows[i] = storage.Row{int64(500_000 + b*batchRows + i), int64(i), int64(i % 7), 0.5}
		}
		if _, err := s.Append(ctx, "orders", rows); err != nil {
			t.Fatal(err)
		}
		n, v := countOrdersSQL(t, s)
		if n != 3_000+int64(v)*batchRows {
			t.Fatalf("after batch %d: n=%d v=%d violates n = base + v*batch", b, n, v)
		}
	}
}
