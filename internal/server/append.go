package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sql"
	"repro/internal/storage"
)

// This file is the server's write path: POST /append lands typed row
// batches in a table's storage delta, SQL INSERT statements route here
// through the same Append entry point, and the ingest bookkeeping —
// counters for /stats, the data-version that invalidates cached plans
// once enough rows accumulated to move estimates — lives next to them.

// maxAppendBodyBytes bounds a /append request body. Batches are the
// unit of atomicity, not of bulk load; callers stream many batches.
const maxAppendBodyBytes = 8 << 20

// maxAppendRows bounds the rows of one batch: one batch commits under
// one delta lock hold, so the cap bounds writer-side latency.
const maxAppendRows = 100000

// defaultStatsRefreshRows is how many appended rows a table accumulates
// before the server advances its data-version, forcing cached plans to
// recompile against refreshed (delta-merged) statistics.
const defaultStatsRefreshRows = 4096

// AppendResponse is the POST /append (and SQL INSERT) reply.
type AppendResponse struct {
	Table        string `json:"table"`
	RowsAppended int    `json:"rows_appended"`
	// Version is the table's data-version after the batch committed:
	// the count of batches ever appended to the table. A query response
	// whose pinned version is >= this one sees the batch.
	Version   uint64  `json:"version"`
	DeltaRows int     `json:"delta_rows"`
	ElapsedMs float64 `json:"elapsed_ms"`
}

// appendWire is the POST /append body shape.
type appendWire struct {
	Table string  `json:"table"`
	Rows  [][]any `json:"rows"`
}

// decodeAppend parses and type-checks one /append body against the
// catalog. It is a pure function of (body, catalog) so the fuzz target
// can drive it directly: malformed JSON, schema mismatches, non-integer
// numbers in I64 columns and oversized batches must all return errors,
// never panic. I64 columns accept integer numbers or "YYYY-MM-DD" date
// strings; F64 columns accept any JSON number (NaN/Inf do not exist in
// JSON and are rejected by the decoder); Str columns accept strings.
func decodeAppend(body []byte, lookup func(string) (*core.Table, bool)) (*core.Table, []storage.Row, error) {
	var wire appendWire
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wire); err != nil {
		return nil, nil, &BadRequestError{Msg: "bad append body: " + err.Error()}
	}
	// More misses a stray closing '}' or ']'; only EOF ends a body.
	if _, err := dec.Token(); err != io.EOF {
		return nil, nil, &BadRequestError{Msg: "bad append body: trailing data"}
	}
	if wire.Table == "" {
		return nil, nil, &BadRequestError{Msg: "append: missing \"table\""}
	}
	t, ok := lookup(wire.Table)
	if !ok {
		return nil, nil, &BadRequestError{Msg: fmt.Sprintf("append: unknown table %q", wire.Table)}
	}
	if len(wire.Rows) == 0 {
		return nil, nil, &BadRequestError{Msg: "append: empty batch"}
	}
	if len(wire.Rows) > maxAppendRows {
		return nil, nil, &BadRequestError{Msg: fmt.Sprintf("append: batch of %d rows exceeds the %d-row cap", len(wire.Rows), maxAppendRows)}
	}
	rows := make([]storage.Row, len(wire.Rows))
	for i, in := range wire.Rows {
		if len(in) != len(t.Schema) {
			return nil, nil, &BadRequestError{Msg: fmt.Sprintf("append: row %d has %d values, schema of %q has %d", i, len(in), t.Name, len(t.Schema))}
		}
		row := make(storage.Row, len(in))
		for j, def := range t.Schema {
			v, err := decodeAppendValue(in[j], def)
			if err != nil {
				return nil, nil, &BadRequestError{Msg: fmt.Sprintf("append: row %d: %v", i, err)}
			}
			row[j] = v
		}
		rows[i] = row
	}
	return t, rows, nil
}

func decodeAppendValue(v any, def storage.ColDef) (any, error) {
	switch def.Type {
	case storage.I64:
		switch x := v.(type) {
		case json.Number:
			n, err := strconv.ParseInt(x.String(), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("column %q wants an integer, got %q", def.Name, x.String())
			}
			return n, nil
		case string:
			if engine.DateShaped(x) {
				return engine.ParseDate(x), nil
			}
			return nil, fmt.Errorf("column %q wants an integer or date, got string %q", def.Name, x)
		}
		return nil, fmt.Errorf("column %q wants an integer, got %T", def.Name, v)
	case storage.F64:
		if x, ok := v.(json.Number); ok {
			f, err := strconv.ParseFloat(x.String(), 64)
			if err != nil {
				return nil, fmt.Errorf("column %q wants a number, got %q", def.Name, x.String())
			}
			return f, nil
		}
		return nil, fmt.Errorf("column %q wants a number, got %T", def.Name, v)
	default:
		if x, ok := v.(string); ok {
			return x, nil
		}
		return nil, fmt.Errorf("column %q wants a string, got %T", def.Name, v)
	}
}

// Append commits one batch to the named table's delta and returns the
// committed version. When a concurrent snapshot compacted the delta,
// the append retries against the replacement table the compaction
// registered — the caller never observes the swap.
func (s *Server) Append(ctx context.Context, table string, rows []storage.Row) (*AppendResponse, error) {
	if len(rows) == 0 {
		return nil, &BadRequestError{Msg: "append: empty batch"}
	}
	if len(rows) > maxAppendRows {
		return nil, &BadRequestError{Msg: fmt.Sprintf("append: batch of %d rows exceeds the %d-row cap", len(rows), maxAppendRows)}
	}
	start := time.Now()
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s.mu.RLock()
		closed := s.closed
		t := s.tables[table]
		s.mu.RUnlock()
		if closed {
			return nil, ErrClosed
		}
		if t == nil {
			return nil, &BadRequestError{Msg: fmt.Sprintf("append: unknown table %q", table)}
		}
		d := t.Delta()
		version, err := d.Append(rows)
		if err == storage.ErrDeltaSealed {
			// Compaction runs under s.mu; by the time our next RLock
			// succeeds the replacement table is registered. Bound the loop
			// anyway so a bug cannot spin forever.
			if attempt < 8 {
				continue
			}
			return nil, fmt.Errorf("append: table %q kept compacting, giving up: %w", table, err)
		}
		if err != nil {
			return nil, &BadRequestError{Msg: err.Error()}
		}
		s.ingest.note(table, len(rows), version)
		if s.ingest.shouldRefresh(table, s.statsRefreshRows()) {
			s.dataVersion.Add(1)
		}
		return &AppendResponse{
			Table:        table,
			RowsAppended: len(rows),
			Version:      version,
			DeltaRows:    d.Rows(),
			ElapsedMs:    float64(time.Since(start).Nanoseconds()) / 1e6,
		}, nil
	}
}

func (s *Server) statsRefreshRows() int {
	switch {
	case s.cfg.StatsRefreshRows > 0:
		return s.cfg.StatsRefreshRows
	case s.cfg.StatsRefreshRows < 0:
		return 0 // disabled
	default:
		return defaultStatsRefreshRows
	}
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxAppendBodyBytes))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad append body: " + err.Error()})
		return
	}
	t, rows, err := decodeAppend(body, s.Table)
	if err != nil {
		writeJSON(w, statusOf(err, r.Context()), errorBody{Error: err.Error()})
		return
	}
	resp, err := s.Append(r.Context(), t.Name, rows)
	if err != nil {
		writeJSON(w, statusOf(err, r.Context()), errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// submitInsert serves a SQL INSERT ... VALUES request through the same
// append path bulk ingest uses. The statement is parsed per request —
// INSERT texts embed their values, so caching them would only pollute
// the plan cache.
func (s *Server) submitInsert(ctx context.Context, req *Request, class Class) (*Response, error) {
	if req.Explain {
		return nil, &BadRequestError{Msg: "EXPLAIN is not supported for INSERT"}
	}
	if len(req.Params) > 0 {
		return nil, &BadRequestError{Msg: "INSERT does not take params; inline the values"}
	}
	if req.Distributed {
		return nil, &BadRequestError{Msg: "INSERT is single-node; appends land on the coordinator's delta"}
	}
	ins, err := sql.ParseInsert(req.SQL)
	if err != nil {
		return nil, &BadRequestError{Msg: err.Error()}
	}
	t, rows, err := sql.BindInsert(ins, s.Table)
	if err != nil {
		return nil, &BadRequestError{Msg: err.Error()}
	}
	start := time.Now()
	ar, err := s.Append(ctx, t.Name, rows)
	if err != nil {
		return nil, err
	}
	s.ingest.noteInsert()
	elapsed := time.Since(start)
	return &Response{
		Query:     "insert(" + t.Name + ")",
		Class:     class,
		RowCount:  ar.RowsAppended,
		ElapsedMs: float64(elapsed.Nanoseconds()) / 1e6,
		Versions:  map[string]uint64{t.Name: ar.Version},
	}, nil
}

// pinSnap pins the data-version of every registered table that has a
// delta. nil (free) when nothing was ever appended.
func (s *Server) pinSnap() *storage.Snap {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return storage.PinTables(s.tables)
}

// planScanTables walks a plan and collects the tables its scans read.
func planScanTables(p *core.Plan) []*core.Table {
	seen := make(map[*engine.Node]bool)
	var tabs []*core.Table
	have := make(map[*core.Table]bool)
	var walk func(n *engine.Node)
	walk = func(n *engine.Node) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		if n.Kind() == engine.KindScan {
			if t, _, _ := n.ScanInfo(); t != nil && !have[t] {
				have[t] = true
				tabs = append(tabs, t)
			}
		}
		walk(n.Input())
		walk(n.BuildInput())
		for _, u := range n.UnionInputs() {
			walk(u)
		}
	}
	walk(p.Root())
	return tabs
}

// ingestState aggregates the server's write-path counters for /stats.
type ingestState struct {
	mu             sync.Mutex
	appends        int64
	rows           int64
	inserts        int64
	refreshes      int64
	distFallbacks  int64
	sinceRefresh   map[string]int
	latestVersions map[string]uint64
}

func (g *ingestState) note(table string, rows int, version uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.sinceRefresh == nil {
		g.sinceRefresh = make(map[string]int)
		g.latestVersions = make(map[string]uint64)
	}
	g.appends++
	g.rows += int64(rows)
	g.sinceRefresh[table] += rows
	if version > g.latestVersions[table] {
		g.latestVersions[table] = version
	}
}

// shouldRefresh consumes the per-table appended-row counter once it
// crosses the stats-refresh threshold (0 disables refreshes).
func (g *ingestState) shouldRefresh(table string, threshold int) bool {
	if threshold <= 0 {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.sinceRefresh[table] < threshold {
		return false
	}
	g.sinceRefresh[table] = 0
	g.refreshes++
	return true
}

func (g *ingestState) noteInsert() {
	g.mu.Lock()
	g.inserts++
	g.mu.Unlock()
}

func (g *ingestState) noteDistFallback() {
	g.mu.Lock()
	g.distFallbacks++
	g.mu.Unlock()
}

// IngestSnapshot is the write-path section of GET /stats.
type IngestSnapshot struct {
	// Appends counts committed batches (HTTP /append and SQL INSERT);
	// RowsAppended the rows across them.
	Appends      int64 `json:"appends"`
	RowsAppended int64 `json:"rows_appended"`
	InsertStmts  int64 `json:"insert_statements"`
	// StatsRefreshes counts data-version advances: cached plans
	// recompiled because delta growth crossed the stats threshold.
	StatsRefreshes int64 `json:"stats_refreshes"`
	// DataVersion is the current composite-cache low word.
	DataVersion uint64 `json:"data_version"`
	// DistFallbacks counts distributed requests that ran single-node
	// because a scanned table had visible delta rows.
	DistFallbacks int64 `json:"dist_fallbacks"`
	// Tables maps each table that has a delta to its committed version
	// and current delta row count.
	Tables map[string]TableIngest `json:"tables,omitempty"`
}

// TableIngest is one table's ingest state.
type TableIngest struct {
	Version   uint64 `json:"version"`
	DeltaRows int    `json:"delta_rows"`
}

func (s *Server) ingestSnapshot() IngestSnapshot {
	s.ingest.mu.Lock()
	snap := IngestSnapshot{
		Appends:        s.ingest.appends,
		RowsAppended:   s.ingest.rows,
		InsertStmts:    s.ingest.inserts,
		StatsRefreshes: s.ingest.refreshes,
		DistFallbacks:  s.ingest.distFallbacks,
	}
	s.ingest.mu.Unlock()
	snap.DataVersion = s.dataVersion.Load()
	s.mu.RLock()
	for name, t := range s.tables {
		d := t.DeltaIfAny()
		if d == nil {
			continue
		}
		if snap.Tables == nil {
			snap.Tables = make(map[string]TableIngest)
		}
		snap.Tables[name] = TableIngest{Version: d.Version(), DeltaRows: d.Rows()}
	}
	s.mu.RUnlock()
	return snap
}
