// Package server turns the morsel-driven engine into a long-lived
// concurrent query service: many clients submit queries against one
// shared dispatcher and worker pool, so concurrent queries share workers
// at morsel granularity with priority-weighted elasticity (§3.1 of the
// paper, Fig. 13). The package adds what the engine itself does not
// have: admission control (bounded queue), per-query priority classes,
// per-query timeout/cancellation, a SQL plan cache, and an HTTP front
// end. SQL text is the only way in: every request compiles (or hits the
// cache) through the sql package's parser, binder and optimizer.
package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sql"
)

// Class is a query priority class. Classes map to Query.Priority share
// weights: an interactive query gets InteractiveWeight shares per worker
// assignment decision, a batch query one.
type Class string

const (
	// ClassInteractive is for latency-sensitive queries.
	ClassInteractive Class = "interactive"
	// ClassBatch is for throughput-oriented background queries.
	ClassBatch Class = "batch"
)

// InteractiveWeight is the elastic share weight of interactive queries
// relative to batch (weight 1).
const InteractiveWeight = 8

func (c Class) priority() int {
	if c == ClassInteractive {
		return InteractiveWeight
	}
	return 1
}

// Config bounds the server's concurrency.
type Config struct {
	// MaxConcurrent caps queries admitted into the dispatcher at once
	// (default 2 x sockets). More waiting queries park in the admission
	// queue; the cap bounds memory (hash tables, result buffers), not
	// CPU — admitted queries already share workers elastically.
	MaxConcurrent int
	// MaxQueue caps waiting queries (default 64, negative = none);
	// beyond it Submit fails fast with ErrQueueFull so clients can back
	// off.
	MaxQueue int
	// DefaultTimeout applies when a request carries none (default 30s).
	DefaultTimeout time.Duration
	// MaxRows caps result rows returned per query, 0 = unlimited.
	// Requests may lower it per query, never raise it.
	MaxRows int
	// PlanCacheSize caps the server-side LRU of compiled SQL statements
	// keyed by SQL text and physical options (default 256, negative
	// disables caching). Cached statements skip parse/bind/optimize per
	// request; ? placeholders bind per execution.
	PlanCacheSize int
	// Physical is the default physical-operator selection for SQL
	// requests (agg: auto|shared|partitioned; the zero value is fully
	// automatic). Requests may override it per query.
	Physical sql.Physical
	// FragTimeout bounds each distributed fragment RPC attempt,
	// including streaming the fragment's response (default 30s). A peer
	// that stops responding mid-query fails the query within this bound
	// instead of hanging it.
	FragTimeout time.Duration
	// FragRetries is how many times the coordinator re-sends a failed
	// fragment RPC, with exponential backoff (default 2, negative =
	// none). Retries are safe: receivers deduplicate complete duplicate
	// streams and poison the query into a clean error on a
	// partial-then-retry.
	FragRetries int
	// StatsRefreshRows is how many appended rows a table accumulates
	// before the server advances its data-version, recompiling cached
	// plans against delta-merged statistics (default 4096, negative
	// disables the refresh).
	StatsRefreshRows int
}

func (c Config) withDefaults(sockets int) Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2 * sockets
	}
	switch {
	case c.MaxQueue == 0:
		c.MaxQueue = 64
	case c.MaxQueue < 0:
		c.MaxQueue = 0
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	switch {
	case c.PlanCacheSize == 0:
		c.PlanCacheSize = 256
	case c.PlanCacheSize < 0:
		c.PlanCacheSize = 0
	}
	if c.FragTimeout <= 0 {
		c.FragTimeout = 30 * time.Second
	}
	switch {
	case c.FragRetries == 0:
		c.FragRetries = 2
	case c.FragRetries < 0:
		c.FragRetries = 0
	}
	return c
}

// Sentinel errors mapped to HTTP statuses by the front end.
var (
	// ErrQueueFull reports that the admission queue is at capacity.
	ErrQueueFull = errors.New("server: admission queue full")
	// ErrClosed reports submission to a closed server.
	ErrClosed = errors.New("server: closed")
)

// BadRequestError is a client error (malformed SQL, unknown table or
// column, type mismatch).
type BadRequestError struct{ Msg string }

func (e *BadRequestError) Error() string { return e.Msg }

// Request is one query submission.
type Request struct {
	// SQL is the statement to run: a SELECT compiled through the SQL
	// front end (parser -> binder -> cost-based optimizer ->
	// morsel-driven physical plan) and cached server-side by SQL text,
	// or an INSERT. Required.
	SQL string `json:"sql,omitempty"`
	// Params binds the statement's ? placeholders in order. Integer
	// placeholders also accept "YYYY-MM-DD" date strings.
	Params []any `json:"params,omitempty"`
	// Priority is "interactive" (default) or "batch".
	Priority Class `json:"priority,omitempty"`
	// TimeoutMs overrides the server's default per-query timeout.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// MaxRows truncates the returned rows (the query still runs to
	// completion; truncation is response-side).
	MaxRows int `json:"max_rows,omitempty"`
	// Explain returns the optimized physical plan as text instead of
	// executing the query.
	Explain bool `json:"explain,omitempty"`
	// Distributed asks a clustered server to run the query across all
	// morseld nodes (sql.Distribute). Plans the distributed planner
	// refuses fall back to single-node execution transparently
	// (Response.Distributed reports what actually happened).
	Distributed bool `json:"distributed,omitempty"`
	// PhysicalAgg overrides the server's default aggregation strategy
	// for this statement: "auto", "shared" or "partitioned". The
	// compiled plan is cached per (SQL text, physical options).
	PhysicalAgg string `json:"agg,omitempty"`
}

// Response is one query result.
type Response struct {
	Query     string   `json:"query"`
	Class     Class    `json:"class"`
	Columns   []string `json:"columns"`
	Rows      [][]any  `json:"rows"`
	RowCount  int      `json:"row_count"`
	Truncated bool     `json:"truncated,omitempty"`
	// Plan is the Explain rendering (set only for explain requests,
	// which skip execution).
	Plan string `json:"plan,omitempty"`
	// QueuedMs is time spent waiting for admission; ElapsedMs is
	// end-to-end (queue + execution), the latency a client observes.
	QueuedMs  float64 `json:"queued_ms"`
	ElapsedMs float64 `json:"elapsed_ms"`
	// Distributed reports whether the query actually ran across the
	// cluster (false when the planner fell back to single-node), and
	// DistNodes how many nodes took part.
	Distributed bool `json:"distributed,omitempty"`
	DistNodes   int  `json:"dist_nodes,omitempty"`
	// Versions maps each scanned table that has an append delta to the
	// data-version this query was pinned to: the result reflects exactly
	// the batches committed at that version. For INSERT responses it
	// carries the version the batch committed at instead. Absent for
	// tables that were never appended to.
	Versions map[string]uint64 `json:"versions,omitempty"`
}

// Server is a concurrent query service over one core.System.
type Server struct {
	cfg   Config
	sys   *core.System
	exec  *engine.Exec
	start time.Time

	mu      sync.RWMutex
	tables  map[string]*core.Table
	cluster *clusterState // nil until EnableCluster
	closed  bool

	// Snapshot config (EnableSnapshots); snapWrite serializes writers.
	snapDir   string
	snapLabel string
	snapOpt   colstore.Options
	snapWrite sync.Mutex

	// catalogVersion advances whenever the table set changes; the plan
	// cache keys on it so a re-registered table invalidates cached plans
	// compiled against the old table object. dataVersion advances when
	// appended rows cross the stats-refresh threshold; both feed the
	// composite plan-cache version (planVersion), so cached plans go
	// stale on schema changes and on significant data growth.
	catalogVersion atomic.Uint64
	dataVersion    atomic.Uint64
	cache          *planCache

	adm    admission
	stats  serverStats
	ingest ingestState
}

// New creates a started server on the given system. Callers register
// tables, then serve HTTP via Handler or submit directly via Submit.
// Close releases the worker pool.
func New(sys *core.System, cfg Config) *Server {
	s := &Server{
		cfg:    cfg.withDefaults(sys.Machine.Topo.Sockets),
		sys:    sys,
		exec:   sys.Exec(),
		start:  time.Now(),
		tables: make(map[string]*core.Table),
	}
	s.cache = newPlanCache(s.cfg.PlanCacheSize)
	s.adm.init(s.cfg.MaxConcurrent, s.cfg.MaxQueue)
	s.stats.init()
	return s
}

// Close stops the worker pool. In-flight queries finish; subsequent
// Submits fail with ErrClosed.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.exec.Close()
}

// RegisterTable makes a registered table queryable by name. Registering
// (or re-registering) a table advances the catalog version, so cached
// SQL plans compiled against a previous table object are invalidated.
func (s *Server) RegisterTable(t *core.Table) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tables[t.Name] = t
	s.catalogVersion.Add(1)
}

// Table looks a table up by name.
func (s *Server) Table(name string) (*core.Table, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[name]
	return t, ok
}

// Submit runs one request to completion: compile the SQL, pass
// admission, execute on the shared pool with the class's priority, and
// package the result. It blocks until the result is ready, the request
// times out, or ctx is canceled.
func (s *Server) Submit(ctx context.Context, req *Request) (*Response, error) {
	class := req.Priority
	switch class {
	case "":
		class = ClassInteractive
	case ClassInteractive, ClassBatch:
	default:
		return nil, &BadRequestError{Msg: fmt.Sprintf("unknown priority class %q (want interactive or batch)", req.Priority)}
	}
	if sql.IsInsert(req.SQL) {
		return s.submitInsert(ctx, req, class)
	}
	plan, err := s.resolvePlan(req)
	if err != nil {
		return nil, err
	}

	// Distributed requests plan against the cluster topology up front so
	// Explain can render the distributed (Combined) plan and execution
	// knows whether to fan out or fall back.
	var distPlan *sql.DistPlan
	var cs *clusterState
	if req.Distributed {
		cs = s.clusterState()
		if cs == nil {
			return nil, &BadRequestError{Msg: "\"distributed\": true requires a clustered server (EnableCluster)"}
		}
		dp, derr := sql.Distribute(plan, cs.topo)
		switch {
		case derr == nil:
			distPlan = dp
		case errors.Is(derr, sql.ErrNotDistributable):
			cs.fallbacks.Add(1) // transparently run single-node below
		default:
			return nil, derr
		}
	}

	if req.Explain {
		// Explain renders the optimized plan without executing (and
		// without passing admission — no resources are consumed).
		schema := plan.OutputSchema()
		cols := make([]string, len(schema))
		for i, r := range schema {
			cols[i] = r.Name
		}
		resp := &Response{Query: plan.Name, Class: class, Columns: cols, Plan: plan.Explain()}
		if distPlan != nil {
			resp.Plan = distPlan.Combined.Explain()
			resp.Distributed = true
			resp.DistNodes = cs.cl.N()
		}
		return resp, nil
	}

	// The per-query timeout covers the whole stay in the server: time
	// spent waiting for admission counts against it.
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	qctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	start := time.Now()
	if err := s.admit(qctx, class); err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			s.stats.fail(class, err, ctx)
		}
		return nil, err
	}
	defer s.adm.release()
	queued := time.Since(start)

	// Pin the data-version at admission: every scan of this query reads
	// the sealed partitions plus exactly the delta prefix committed now,
	// so the result is consistent with one version even while appends
	// keep landing. Free (nil) until the first append ever.
	snap := s.pinSnap()
	var versions map[string]uint64
	if snap != nil {
		for _, t := range planScanTables(plan) {
			if v, ok := snap.Version(t.Name); ok {
				if versions == nil {
					versions = make(map[string]uint64)
				}
				versions[t.Name] = v
				if distPlan != nil && snap.DeltaRows(t.Name) > 0 {
					// Shard views cover sealed data only; run single-node
					// so the pinned delta stays visible.
					distPlan = nil
					s.ingest.noteDistFallback()
				}
			}
		}
	}

	var res *engine.Result
	if distPlan != nil {
		res, err = s.runDistributed(qctx, cs, distPlan, class.priority())
	} else {
		res, _, err = s.exec.RunSnap(qctx, plan, class.priority(), snap)
	}
	elapsed := time.Since(start)
	if err != nil {
		s.stats.fail(class, err, ctx)
		return nil, err
	}
	s.stats.complete(class, elapsed)
	resp := s.respond(plan, class, res, req, queued, elapsed)
	resp.Versions = versions
	if distPlan != nil {
		resp.Distributed = true
		resp.DistNodes = cs.cl.N()
	}
	return resp, nil
}

// planVersion is the composite plan-cache version: catalog changes in
// the high word, data-version advances (stats refreshes) in the low
// word. Either kind of change invalidates cached plans; the cache
// counts data-only invalidations separately as stale hits.
func (s *Server) planVersion() uint64 {
	return s.catalogVersion.Load()<<32 | s.dataVersion.Load()&0xffffffff
}

func (s *Server) admit(ctx context.Context, class Class) error {
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if err := s.adm.acquire(ctx); err != nil {
		if errors.Is(err, ErrQueueFull) {
			s.stats.reject(class)
		}
		return err
	}
	return nil
}

func (s *Server) resolvePlan(req *Request) (*core.Plan, error) {
	if req.SQL == "" {
		return nil, &BadRequestError{Msg: "missing \"sql\""}
	}
	ph := s.cfg.Physical
	if req.PhysicalAgg != "" {
		ph.Agg = req.PhysicalAgg
	}
	prep, err := s.prepareSQL(req.SQL, ph)
	if err != nil {
		return nil, &BadRequestError{Msg: err.Error()}
	}
	// An explain without params renders the template itself, keeping the
	// ?N placeholders visible (nothing executes).
	if req.Explain && len(req.Params) == 0 {
		return prep.Plan, nil
	}
	// Bind ? placeholders (also validates that plans without placeholders
	// receive no params).
	bound, err := prep.Plan.BindArgs(req.Params...)
	if err != nil {
		return nil, &BadRequestError{Msg: err.Error()}
	}
	return bound, nil
}

// prepareSQL compiles a statement through the plan cache: one parse /
// bind / cost-based optimize per distinct (SQL text, physical options,
// catalog version), shared by every subsequent request. The physical
// options are part of the key because they change the compiled plan —
// a forced-partitioned request must never serve an auto-compiled plan,
// and vice versa.
func (s *Server) prepareSQL(query string, ph sql.Physical) (*sql.Prepared, error) {
	if err := ph.Validate(); err != nil {
		return nil, err
	}
	version := s.planVersion()
	key := ph.Key() + "\x00" + query
	if s.cache != nil {
		if prep, ok := s.cache.get(key, version); ok {
			return prep, nil
		}
	}
	prep, err := sql.PrepareOpts(query, "sql", s.Table, ph)
	if err != nil {
		return nil, err
	}
	if s.cache != nil {
		s.cache.put(key, version, prep)
	}
	return prep, nil
}

func (s *Server) respond(plan *core.Plan, class Class, res *core.Result, req *Request, queued, elapsed time.Duration) *Response {
	schema := res.Schema
	cols := make([]string, len(schema))
	for i, r := range schema {
		cols[i] = r.Name
	}
	all := res.Rows()
	limit := len(all)
	if s.cfg.MaxRows > 0 && s.cfg.MaxRows < limit {
		limit = s.cfg.MaxRows
	}
	if req.MaxRows > 0 && req.MaxRows < limit {
		limit = req.MaxRows
	}
	rows := make([][]any, limit)
	for i := 0; i < limit; i++ {
		row := make([]any, len(schema))
		for j, v := range all[i] {
			switch schema[j].Type {
			case engine.TInt:
				row[j] = v.I
			case engine.TFloat:
				row[j] = v.F
			default:
				row[j] = v.S
			}
		}
		rows[i] = row
	}
	return &Response{
		Query:     plan.Name,
		Class:     class,
		Columns:   cols,
		Rows:      rows,
		RowCount:  len(all),
		Truncated: limit < len(all),
		QueuedMs:  float64(queued.Nanoseconds()) / 1e6,
		ElapsedMs: float64(elapsed.Nanoseconds()) / 1e6,
	}
}

// admission is a bounded two-stage gate: at most maxConcurrent holders
// run, at most maxQueue more wait; everyone else is rejected immediately.
type admission struct {
	sem      chan struct{}
	inflight atomic.Int64
	capacity int64
}

func (a *admission) init(maxConcurrent, maxQueue int) {
	a.sem = make(chan struct{}, maxConcurrent)
	a.capacity = int64(maxConcurrent + maxQueue)
}

func (a *admission) acquire(ctx context.Context) error {
	if a.inflight.Add(1) > a.capacity {
		a.inflight.Add(-1)
		return ErrQueueFull
	}
	select {
	case a.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		a.inflight.Add(-1)
		return ctx.Err()
	}
}

func (a *admission) release() {
	<-a.sem
	a.inflight.Add(-1)
}

// running and waiting report the gate's current occupancy.
func (a *admission) running() int { return len(a.sem) }
func (a *admission) waiting() int {
	w := int(a.inflight.Load()) - len(a.sem)
	if w < 0 {
		w = 0
	}
	return w
}

// classStats aggregates per-class counters and a latency reservoir.
type classStats struct {
	mu        sync.Mutex
	completed int64
	timeouts  int64
	canceled  int64
	rejected  int64
	samples   []float64 // end-to-end latency ms, ring buffer
	next      int
	sum       float64
	max       float64
}

// latencyWindow is the per-class reservoir size for percentile
// estimation; at 4096 recent samples p99 rests on ~41 observations.
const latencyWindow = 4096

func (c *classStats) record(d time.Duration) {
	ms := float64(d.Nanoseconds()) / 1e6
	c.mu.Lock()
	defer c.mu.Unlock()
	c.completed++
	c.sum += ms
	if ms > c.max {
		c.max = ms
	}
	if len(c.samples) < latencyWindow {
		c.samples = append(c.samples, ms)
		return
	}
	c.samples[c.next] = ms
	c.next = (c.next + 1) % latencyWindow
}

// ClassSnapshot is the exported view of one class's counters.
type ClassSnapshot struct {
	Completed int64   `json:"completed"`
	Timeouts  int64   `json:"timeouts"`
	Canceled  int64   `json:"canceled"`
	Rejected  int64   `json:"rejected"`
	MeanMs    float64 `json:"mean_ms"`
	P50Ms     float64 `json:"p50_ms"`
	P90Ms     float64 `json:"p90_ms"`
	P99Ms     float64 `json:"p99_ms"`
	MaxMs     float64 `json:"max_ms"`
}

func (c *classStats) snapshot() ClassSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := ClassSnapshot{
		Completed: c.completed,
		Timeouts:  c.timeouts,
		Canceled:  c.canceled,
		Rejected:  c.rejected,
		MaxMs:     c.max,
	}
	if c.completed > 0 {
		snap.MeanMs = c.sum / float64(c.completed)
	}
	if len(c.samples) > 0 {
		sorted := append([]float64(nil), c.samples...)
		sort.Float64s(sorted)
		snap.P50Ms = percentile(sorted, 0.50)
		snap.P90Ms = percentile(sorted, 0.90)
		snap.P99Ms = percentile(sorted, 0.99)
	}
	return snap
}

// percentile reads the p-quantile from an ascending slice (nearest-rank).
func percentile(sorted []float64, p float64) float64 {
	i := int(p * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

type serverStats struct {
	classes map[Class]*classStats
}

func (s *serverStats) init() {
	s.classes = map[Class]*classStats{
		ClassInteractive: {},
		ClassBatch:       {},
	}
}

func (s *serverStats) complete(c Class, d time.Duration) { s.classes[c].record(d) }
func (s *serverStats) reject(c Class) {
	cs := s.classes[c]
	cs.mu.Lock()
	cs.rejected++
	cs.mu.Unlock()
}

// fail classifies a Submit error: the query's own deadline counts as a
// timeout; a caller-canceled context counts as canceled.
func (s *serverStats) fail(c Class, err error, ctx context.Context) {
	cs := s.classes[c]
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
		cs.timeouts++
	} else {
		cs.canceled++
	}
}

// Stats is the full server snapshot served by GET /stats.
type Stats struct {
	UptimeMs float64 `json:"uptime_ms"`
	Workers  int     `json:"workers"`
	Sockets  int     `json:"sockets"`

	Dispatcher struct {
		PendingQueries int64 `json:"pending_queries"`
		ActiveJobs     int   `json:"active_jobs"`
	} `json:"dispatcher"`

	Admission struct {
		Running       int `json:"running"`
		Waiting       int `json:"waiting"`
		MaxConcurrent int `json:"max_concurrent"`
		MaxQueue      int `json:"max_queue"`
	} `json:"admission"`

	PlanCache PlanCacheStats `json:"plan_cache"`

	// Ingest is the write-path section: append/INSERT counters, stats
	// refreshes, and per-table delta versions.
	Ingest IngestSnapshot `json:"ingest"`

	Pool struct {
		Morsels         int64   `json:"morsels"`
		Tuples          int64   `json:"tuples"`
		ReadBytes       int64   `json:"read_bytes"`
		WriteBytes      int64   `json:"write_bytes"`
		RemoteReadBytes int64   `json:"remote_read_bytes"`
		RemoteReadPct   float64 `json:"remote_read_pct"`
	} `json:"pool"`

	Classes map[Class]ClassSnapshot `json:"classes"`

	// Cluster is present only on clustered servers.
	Cluster *ClusterStats `json:"cluster,omitempty"`
}

// Stats snapshots the server. Safe to call while queries run.
func (s *Server) Stats() Stats {
	var st Stats
	st.UptimeMs = float64(time.Since(s.start).Nanoseconds()) / 1e6
	st.Workers = s.exec.Workers()
	st.Sockets = s.sys.Machine.Topo.Sockets
	d := s.exec.Dispatcher()
	st.Dispatcher.PendingQueries = d.PendingQueries()
	st.Dispatcher.ActiveJobs = d.ActiveJobs()
	st.Admission.Running = s.adm.running()
	st.Admission.Waiting = s.adm.waiting()
	st.Admission.MaxConcurrent = s.cfg.MaxConcurrent
	st.Admission.MaxQueue = s.cfg.MaxQueue
	st.PlanCache = s.cache.stats()
	st.Ingest = s.ingestSnapshot()
	pool := s.exec.PoolStats()
	st.Pool.Morsels = pool.Tasks
	st.Pool.Tuples = pool.Tuples
	st.Pool.ReadBytes = pool.ReadBytes
	st.Pool.WriteBytes = pool.WriteBytes
	st.Pool.RemoteReadBytes = pool.RemoteReadBytes
	st.Pool.RemoteReadPct = pool.RemotePct()
	st.Classes = make(map[Class]ClassSnapshot, len(s.stats.classes))
	for c, cs := range s.stats.classes {
		st.Classes[c] = cs.snapshot()
	}
	st.Cluster = s.ClusterStats()
	return st
}

// TableInfo describes one queryable table for GET /tables. Rows counts
// sealed rows; DeltaRows the committed append delta on top of them, and
// Version the table's data-version (committed batch count) — both zero
// for tables never appended to.
type TableInfo struct {
	Name      string   `json:"name"`
	Rows      int      `json:"rows"`
	DeltaRows int      `json:"delta_rows,omitempty"`
	Version   uint64   `json:"version,omitempty"`
	Columns   []string `json:"columns"`
}

// Tables lists the registered tables, sorted by name.
func (s *Server) Tables() (tables []TableInfo) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, t := range s.tables {
		cols := make([]string, len(t.Schema))
		for i, c := range t.Schema {
			cols[i] = c.Name
		}
		info := TableInfo{Name: t.Name, Rows: t.Rows(), Columns: cols}
		if d := t.DeltaIfAny(); d != nil {
			info.DeltaRows = d.Rows()
			info.Version = d.Version()
		}
		tables = append(tables, info)
	}
	sort.Slice(tables, func(i, j int) bool { return tables[i].Name < tables[j].Name })
	return tables
}
