package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/exchange"
	"repro/internal/sql"
	"repro/internal/storage"
)

// This file is the distributed execution path: several morseld servers,
// each holding the full catalog but owning a shard view of the large
// tables, cooperate on one query. The coordinator (whichever node the
// client hit) runs sql.Distribute over the optimized plan and launches
// every fragment at once: stage fragments execute on every node and
// stream their output row-chunks to per-node inboxes (broadcast or
// hash-routed) as they are produced, main fragments stream their partial
// results back to the coordinator's gather inbox, and the coordinator's
// Final plan consumes the gather as a stream — so downstream pipelines
// ingest morsels while upstream fragments are still running. Every
// exchange edge streams; no fragment waits for a stage to finish before
// it starts. Fragment RPCs carry a per-attempt timeout and bounded retry
// with backoff; retries are safe because receivers deduplicate complete
// duplicate streams and poison the query into a clean error on a
// partial-then-retry (see exchange.Inbox). A fragment
// failure cancels the whole query: the coordinator cancels its context,
// in-flight RPCs abort, and aborted pushes surface as stream errors on
// every consuming node. Fragment executions bypass admission on purpose:
// they are work on behalf of a query that already passed admission on
// the coordinator, and re-admitting them on each peer could deadlock the
// cluster once every node's slots are held by coordinators waiting on
// each other.

// clusterState is the per-server cluster runtime: topology, this node's
// shard views, and the inboxes of in-flight distributed queries.
type clusterState struct {
	cl      exchange.Cluster
	client  *http.Client
	shards  map[string]*storage.Table
	topo    sql.ClusterTopo
	sockets int

	fragTimeout time.Duration
	fragRetries int

	mu      sync.Mutex
	inboxes map[string]*exchange.Inbox // qid \x00 stage name

	qidSeq         atomic.Uint64
	distQueries    atomic.Int64
	fallbacks      atomic.Int64
	fragments      atomic.Int64
	bytesIn        atomic.Int64
	bytesOut       atomic.Int64
	framesStreamed atomic.Int64
	retries        atomic.Int64
	stalledNs      atomic.Int64
}

// ClusterStats is the /stats view of the distributed runtime.
type ClusterStats struct {
	Self         int   `json:"self"`
	Nodes        int   `json:"nodes"`
	DistQueries  int64 `json:"dist_queries"`
	Fallbacks    int64 `json:"fallbacks"`
	FragmentsRun int64 `json:"fragments_run"`
	BytesIn      int64 `json:"exchange_bytes_in"`
	BytesOut     int64 `json:"exchange_bytes_out"`
	// FramesStreamed counts morsel frames delivered into this node's
	// streaming inboxes (stage and gather) by completed queries.
	FramesStreamed int64 `json:"frames_streamed"`
	// FragRetries counts fragment-RPC retry attempts this coordinator
	// made after transport failures.
	FragRetries int64 `json:"frag_retries"`
	// StalledNs is cumulative time producers spent blocked on a full
	// outbox window — receivers back-pressuring senders.
	StalledNs int64 `json:"stalled_ns"`
}

// distTrace, when set, observes coarse streaming events in order
// ("stage <name> node N first frame", "inbox <name> node N first frame",
// "gather first frame", "main node N first frame" — fired on a peer
// before its main fragment's first response bytes — "main node N done",
// ...). Tests use it to pin that streaming overlap is real — a consumer
// saw frames before the producing fragment completed — and to inject
// failures at exact points. Nil in production.
var (
	distTraceMu sync.Mutex
	distTrace   func(event string)
)

func setDistTrace(f func(string)) {
	distTraceMu.Lock()
	distTrace = f
	distTraceMu.Unlock()
}

func traceDist(event string) {
	distTraceMu.Lock()
	f := distTrace
	distTraceMu.Unlock()
	if f != nil {
		f(event)
	}
}

// traceSink wraps an exchange sink to emit a first-frame trace event.
type traceSink struct {
	name  string
	inner exchange.Sink
	once  sync.Once
}

func (t *traceSink) Feed(parts ...*storage.Partition) {
	t.once.Do(func() { traceDist(t.name + " first frame") })
	t.inner.Feed(parts...)
}

func (t *traceSink) Close(err error) { t.inner.Close(err) }

// EnableCluster joins this server to a morseld cluster: it replaces the
// listed tables with this node's shard views for fragment execution
// (the full tables stay registered for coordinator-side fallback) and
// switches on the /exchange endpoints and Request.Distributed. Every
// node must be configured with the same node list and shard set, over
// identically generated tables.
func (s *Server) EnableCluster(cl exchange.Cluster, sharded []string) error {
	if err := cl.Validate(); err != nil {
		return err
	}
	cs := &clusterState{
		cl:          cl,
		client:      &http.Client{},
		shards:      make(map[string]*storage.Table, len(sharded)),
		sockets:     s.sys.Machine.Topo.Sockets,
		fragTimeout: s.cfg.FragTimeout,
		fragRetries: s.cfg.FragRetries,
		inboxes:     make(map[string]*exchange.Inbox),
		topo:        sql.ClusterTopo{Nodes: cl.N(), Sharded: make(map[string]sql.ShardInfo, len(sharded))},
	}
	for _, name := range sharded {
		t, ok := s.Table(name)
		if !ok {
			return fmt.Errorf("server: cannot shard unregistered table %q", name)
		}
		sv, err := exchange.ShardView(t, cl.Self, cl.N())
		if err != nil {
			return err
		}
		cs.shards[name] = sv
		cs.topo.Sharded[name] = sql.ShardInfo{PartKey: t.PartKey, Parts: len(t.Parts)}
	}
	s.mu.Lock()
	s.cluster = cs
	s.mu.Unlock()
	return nil
}

func (s *Server) clusterState() *clusterState {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cluster
}

// ClusterStats snapshots the distributed counters (nil when the server
// is not clustered).
func (s *Server) ClusterStats() *ClusterStats {
	cs := s.clusterState()
	if cs == nil {
		return nil
	}
	return &ClusterStats{
		Self:           cs.cl.Self,
		Nodes:          cs.cl.N(),
		DistQueries:    cs.distQueries.Load(),
		Fallbacks:      cs.fallbacks.Load(),
		FragmentsRun:   cs.fragments.Load(),
		BytesIn:        cs.bytesIn.Load(),
		BytesOut:       cs.bytesOut.Load(),
		FramesStreamed: cs.framesStreamed.Load(),
		FragRetries:    cs.retries.Load(),
		StalledNs:      cs.stalledNs.Load(),
	}
}

// inboxDecl tells a fragment executor the schema of a stage inbox, so
// the fragment's scan of it type-checks before any frame has arrived.
type inboxDecl struct {
	Name   string         `json:"name"`
	Schema storage.Schema `json:"schema"`
}

// fragmentRequest is the node-to-node execution message: one stage or
// main fragment of one distributed query.
type fragmentRequest struct {
	QID      string          `json:"qid"`
	Kind     string          `json:"kind"` // "stage" | "main"
	Name     string          `json:"name"`
	Plan     json.RawMessage `json:"plan"`
	Priority int             `json:"priority"`

	// OutSchema is the fragment's output schema — the frame stream's
	// wire schema.
	OutSchema storage.Schema `json:"out_schema,omitempty"`

	// Stage routing (Kind == "stage").
	Broadcast bool   `json:"broadcast,omitempty"`
	KeyCol    string `json:"key_col,omitempty"`
	Parts     int    `json:"parts,omitempty"`

	// Inboxes this fragment may scan (every stage launched before it).
	Inboxes []inboxDecl `json:"inboxes,omitempty"`
}

func inboxKey(qid, name string) string { return qid + "\x00" + name }

// inbox returns (creating on first touch) the streaming inbox for one
// (query, stage) on this node. Every inbox expects exactly one stream
// per cluster node: stages always ship to every destination, even a
// zero-row share, so sender accounting completes.
func (cs *clusterState) inbox(qid, name string) *exchange.Inbox {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	k := inboxKey(qid, name)
	ib := cs.inboxes[k]
	if ib == nil {
		ib = exchange.NewStreamInbox(cs.sockets, cs.cl.N())
		cs.inboxes[k] = ib
	}
	return ib
}

func (cs *clusterState) dropQuery(qid string) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for k, ib := range cs.inboxes {
		if len(k) > len(qid) && k[:len(qid)] == qid && k[len(qid)] == 0 {
			cs.framesStreamed.Add(ib.Frames())
			delete(cs.inboxes, k)
		}
	}
}

// lookupFor resolves fragment table references on this node: declared
// stage inboxes first, as schema-only stubs (their rows arrive through
// the stream source the scan is bound to), then shard views, then the
// full catalog (replicated tables).
func (s *Server) lookupFor(cs *clusterState, decls []inboxDecl) func(string) (*storage.Table, bool) {
	declared := make(map[string]storage.Schema, len(decls))
	for _, d := range decls {
		declared[d.Name] = d.Schema
	}
	return func(name string) (*storage.Table, bool) {
		if schema, ok := declared[name]; ok {
			return &storage.Table{Name: name, Schema: schema}, true
		}
		if t, ok := cs.shards[name]; ok {
			return t, true
		}
		return s.Table(name)
	}
}

// decodeFragment resolves a fragment plan on this node and checks it
// against the request's routing fields; a bad fragment is a
// BadRequestError. Only then is every inbox declaration bound: each
// becomes a stream-fed scan of the (possibly not yet arrived) inbox
// stream.
func (s *Server) decodeFragment(cs *clusterState, fr *fragmentRequest) (*engine.Plan, error) {
	streams := make(map[string]*engine.StreamSource, len(fr.Inboxes))
	for _, d := range fr.Inboxes {
		streams[d.Name] = engine.NewStreamSource(d.Name)
	}
	p, err := engine.DecodePlanStreams(fr.Plan, s.lookupFor(cs, fr.Inboxes), streams)
	if err == nil {
		err = checkFragment(fr, p)
	}
	if err != nil {
		return nil, &BadRequestError{Msg: fmt.Sprintf("fragment %s: %v", fr.Name, err)}
	}
	for _, d := range fr.Inboxes {
		cs.inbox(fr.QID, d.Name).Bind(&traceSink{
			name:  fmt.Sprintf("inbox %s node %d", d.Name, cs.cl.Self),
			inner: streams[d.Name],
		})
	}
	return p, nil
}

// checkFragment rejects a fragment whose routing fields do not fit its
// decoded plan. Execution trusts them on worker goroutines: both kinds
// encode frames against OutSchema, and a partition stage routes every
// row by its KeyCol value modulo Parts.
func checkFragment(fr *fragmentRequest, p *engine.Plan) error {
	out := p.OutSchema()
	if !slices.Equal(out, fr.OutSchema) {
		return fmt.Errorf("out_schema %v does not match the plan's output %v", fr.OutSchema, out)
	}
	if fr.Kind != "stage" || fr.Broadcast {
		return nil
	}
	if i := out.Index(fr.KeyCol); i < 0 || out[i].Type != storage.I64 {
		return fmt.Errorf("key_col %q is not an integer column of the output", fr.KeyCol)
	}
	if fr.Parts < 1 {
		return fmt.Errorf("parts = %d, want at least 1", fr.Parts)
	}
	return nil
}

// destStream is one destination's outgoing frame stream for a stage:
// remote destinations write through a flow-controlled outbox into an
// HTTP push, the local destination feeds this node's own inbox through
// a pipe.
type destStream struct {
	wr   *exchange.Writer
	ob   *exchange.Outbox // nil for the local destination
	pw   *io.PipeWriter
	done chan error
}

// routingSink streams a stage fragment's output to its destinations as
// it is produced: broadcast replicates every chunk, partition mode
// routes each row to the node owning its key, cutting per-destination
// chunks of at most WireMorselRows. It implements engine.PartSink;
// RunToStream drives it from the worker pool, so Feed serializes behind
// a mutex (one exchange stream per destination is ordered anyway).
type routingSink struct {
	s   *Server
	cs  *clusterState
	fr  *fragmentRequest
	n   int
	key int // partition mode: routing column index

	first sync.Once

	mu       sync.Mutex
	dest     []*destStream
	builders []*storage.Builder // partition mode chunk buffers
	brows    []int
	closed   bool
	err      error
}

func (s *Server) newRoutingSink(ctx context.Context, cs *clusterState, fr *fragmentRequest) *routingSink {
	n := cs.cl.N()
	rs := &routingSink{s: s, cs: cs, fr: fr, n: n, dest: make([]*destStream, n)}
	if !fr.Broadcast {
		rs.key = fr.OutSchema.MustIndex(fr.KeyCol)
		rs.builders = make([]*storage.Builder, n)
		rs.brows = make([]int, n)
		for d := range rs.builders {
			rs.builders[d] = storage.NewBuilder(fr.Name, fr.OutSchema, 1, "")
		}
	}
	for d := 0; d < n; d++ {
		rs.dest[d] = s.openDest(ctx, cs, d, fr)
	}
	return rs
}

// openDest starts one destination stream. The local destination is a
// pipe straight into this node's inbox; remote destinations POST the
// frame stream, back-pressured by the outbox window.
func (s *Server) openDest(ctx context.Context, cs *clusterState, d int, fr *fragmentRequest) *destStream {
	pr, pw := io.Pipe()
	ds := &destStream{pw: pw, done: make(chan error, 1)}
	if d == cs.cl.Self {
		ds.wr = exchange.NewWriter(pw, fr.OutSchema)
		go func() {
			err := cs.inbox(fr.QID, fr.Name).ReceiveFrom(d, pr)
			// Unblock any writes still in flight (e.g. the inbox was
			// poisoned and returned without draining the pipe).
			pr.CloseWithError(io.ErrClosedPipe)
			ds.done <- err
		}()
		return ds
	}
	url := fmt.Sprintf("%s/exchange/push?qid=%s&name=%s&from=%d", cs.cl.Nodes[d], fr.QID, fr.Name, cs.cl.Self)
	go func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, pr)
		if err != nil {
			pr.CloseWithError(err)
			ds.done <- err
			return
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		resp, err := cs.client.Do(req)
		if err != nil {
			pr.CloseWithError(err)
			ds.done <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			err := fmt.Errorf("push to node %d: %s: %s", d, resp.Status, bytes.TrimSpace(body))
			pr.CloseWithError(err)
			ds.done <- err
			return
		}
		ds.done <- nil
	}()
	ds.ob = exchange.NewOutbox(func(b []byte) error {
		cs.bytesOut.Add(int64(len(b)))
		_, err := pw.Write(b)
		return err
	}, exchange.DefaultOutboxWindow)
	ds.wr = exchange.NewWriter(ds.ob, fr.OutSchema)
	return ds
}

func (rs *routingSink) Feed(parts ...*storage.Partition) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.closed || rs.err != nil {
		return
	}
	for _, p := range parts {
		var err error
		if rs.fr.Broadcast {
			for _, ds := range rs.dest {
				if err = ds.wr.WritePartition(p, 0); err != nil {
					break
				}
			}
			rs.traceFirst()
		} else {
			err = rs.route(p)
		}
		if err != nil {
			rs.err = err
			return
		}
	}
}

func (rs *routingSink) traceFirst() {
	rs.first.Do(func() {
		traceDist(fmt.Sprintf("stage %s node %d first frame", rs.fr.Name, rs.cs.cl.Self))
	})
}

// route appends each row to its owner's chunk builder, flushing full
// chunks downstream immediately — routed rows stream out while the
// fragment is still producing.
func (rs *routingSink) route(p *storage.Partition) error {
	row := make(storage.Row, len(rs.fr.OutSchema))
	for r := 0; r < p.Rows(); r++ {
		for c, col := range p.Cols {
			switch col.Type {
			case storage.I64:
				row[c] = col.Ints[r]
			case storage.F64:
				row[c] = col.Flts[r]
			default:
				row[c] = col.Strs[r]
			}
		}
		d := exchange.OwnerOfKey(p.Cols[rs.key].Ints[r], rs.fr.Parts, rs.n)
		rs.builders[d].Append(row)
		rs.brows[d]++
		if rs.brows[d] >= exchange.WireMorselRows {
			if err := rs.flush(d); err != nil {
				return err
			}
		}
	}
	return nil
}

func (rs *routingSink) flush(d int) error {
	if rs.brows[d] == 0 {
		return nil
	}
	t := rs.builders[d].Build(storage.OSDefault, 1)
	rs.builders[d] = storage.NewBuilder(rs.fr.Name, rs.fr.OutSchema, 1, "")
	rs.brows[d] = 0
	for _, p := range t.Parts {
		if err := rs.dest[d].wr.WritePartition(p, 0); err != nil {
			return err
		}
	}
	rs.traceFirst()
	return nil
}

// Close finishes every destination stream: on success leftover chunks
// flush and each stream gets its end frame; on failure each destination
// gets an error frame (or an aborted pipe), so receivers fail their
// inboxes instead of waiting forever. Blocks until every destination
// acknowledged or failed; Err reports the outcome.
func (rs *routingSink) Close(err error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.closed {
		return
	}
	rs.closed = true
	if err == nil {
		err = rs.err
	}
	if err == nil && !rs.fr.Broadcast {
		for d := range rs.dest {
			if err = rs.flush(d); err != nil {
				break
			}
		}
	}
	for _, ds := range rs.dest {
		if err == nil {
			if werr := ds.wr.WriteEnd(); werr != nil && rs.err == nil {
				rs.err = werr
			}
		} else {
			// Best effort: tell receivers why the stream dies.
			_ = ds.wr.WriteError(err.Error())
		}
	}
	for _, ds := range rs.dest {
		if ds.ob != nil {
			if cerr := ds.ob.Close(); cerr != nil && err == nil && rs.err == nil {
				rs.err = cerr
			}
			rs.cs.stalledNs.Add(ds.ob.StalledNanos())
		}
		if err != nil {
			ds.pw.CloseWithError(err)
		} else {
			ds.pw.Close()
		}
	}
	for _, ds := range rs.dest {
		if derr := <-ds.done; derr != nil && err == nil && rs.err == nil {
			rs.err = derr
		}
	}
	if err != nil && rs.err == nil {
		rs.err = err
	}
}

// Err returns the sink's first write/transport error. Valid after Close.
func (rs *routingSink) Err() error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.err
}

// execStage runs a stage fragment, streaming its output to every node as
// it is produced (zero-row shares still send a schema+end stream so
// receiver accounting completes). Returns once every destination
// acknowledged its stream.
func (s *Server) execStage(ctx context.Context, cs *clusterState, fr *fragmentRequest) error {
	p, err := s.decodeFragment(cs, fr)
	if err != nil {
		return err
	}
	cs.fragments.Add(1)
	sink := s.newRoutingSink(ctx, cs, fr)
	err = s.exec.RunToStream(ctx, p, fr.Priority, sink)
	if serr := sink.Err(); err == nil {
		err = serr
	}
	if err == nil {
		traceDist(fmt.Sprintf("stage %s node %d done", fr.Name, cs.cl.Self))
	}
	return err
}

// encodeSink encodes streamed partitions as morsel frames onto a writer.
// A clean close terminates the stream with an end frame; an error close
// ships an error frame so the receiver fails with the real cause.
type encodeSink struct {
	mu     sync.Mutex
	wr     *exchange.Writer
	closed bool
	err    error
}

func (e *encodeSink) Feed(parts ...*storage.Partition) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed || e.err != nil {
		return
	}
	for _, p := range parts {
		if err := e.wr.WritePartition(p, 0); err != nil {
			e.err = err
			return
		}
	}
}

func (e *encodeSink) Close(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.closed = true
	switch {
	case err != nil:
		_ = e.wr.WriteError(err.Error())
		if e.err == nil {
			e.err = err
		}
	case e.err == nil:
		e.err = e.wr.WriteEnd()
	}
}

func (e *encodeSink) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// runMainLocal executes the coordinator's own main fragment, streaming
// its output into the gather inbox through the same wire path remote
// nodes use (so sender accounting and dedupe behave identically).
func (s *Server) runMainLocal(ctx context.Context, cs *clusterState, fr *fragmentRequest, gather *exchange.Inbox) error {
	p, err := s.decodeFragment(cs, fr)
	if err != nil {
		return err
	}
	cs.fragments.Add(1)
	pr, pw := io.Pipe()
	rdone := make(chan error, 1)
	go func() {
		rerr := gather.ReceiveFrom(cs.cl.Self, pr)
		pr.CloseWithError(io.ErrClosedPipe)
		rdone <- rerr
	}()
	sink := &encodeSink{wr: exchange.NewWriter(pw, fr.OutSchema)}
	err = s.exec.RunToStream(ctx, p, fr.Priority, sink)
	if err == nil {
		err = sink.Err()
	}
	pw.Close()
	if rerr := <-rdone; err == nil {
		err = rerr
	}
	return err
}

// runDistributed drives one distributed query from the coordinator.
// Every fragment — all stages and all main fragments — launches at
// once; inboxes stream, so consumers ingest upstream rows while
// producers are still running. The Final plan consumes the gather
// stream concurrently with the fragments. The first fragment failure
// cancels the query context, failing the gather and aborting every
// in-flight RPC.
func (s *Server) runDistributed(ctx context.Context, cs *clusterState, dp *sql.DistPlan, priority int) (*engine.Result, error) {
	qid := fmt.Sprintf("q%d-%d", cs.cl.Self, cs.qidSeq.Add(1))
	cs.distQueries.Add(1)
	gather := exchange.NewStreamInbox(cs.sockets, cs.cl.N())
	defer func() {
		cs.framesStreamed.Add(gather.Frames())
		cs.dropQuery(qid)
		go cs.broadcastDone(qid)
	}()

	ctx2, cancel := context.WithCancel(ctx)
	defer cancel()
	var failOnce sync.Once
	var fragErr error
	fail := func(err error) {
		failOnce.Do(func() {
			fragErr = err
			gather.Fail(err)
			cancel()
		})
	}

	var wg sync.WaitGroup
	launch := func(fr *fragmentRequest, node int, self func() error, sink func(io.Reader) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if node == cs.cl.Self {
				err = self()
			} else {
				err = cs.postRun(ctx2, node, fr, sink)
			}
			if err != nil {
				fail(fmt.Errorf("fragment %s on node %d: %w", fr.Name, node, err))
				return
			}
			if fr.Kind == "main" {
				traceDist(fmt.Sprintf("main node %d done", node))
			}
		}()
	}

	var decls []inboxDecl
	for _, st := range dp.Stages {
		fr := &fragmentRequest{
			QID: qid, Kind: "stage", Name: st.Name, Plan: st.Plan, Priority: priority,
			OutSchema: st.Schema, Broadcast: st.Broadcast, KeyCol: st.KeyCol, Parts: st.Parts,
			Inboxes: decls,
		}
		for node := 0; node < cs.cl.N(); node++ {
			launch(fr, node, func() error { return s.execStage(ctx2, cs, fr) }, nil)
		}
		decls = append(decls, inboxDecl{Name: st.Name, Schema: st.Schema})
	}
	frMain := &fragmentRequest{
		QID: qid, Kind: "main", Name: dp.MainName, Plan: dp.Main, Priority: priority,
		OutSchema: dp.MainSchema, Inboxes: decls,
	}
	for node := 0; node < cs.cl.N(); node++ {
		node := node
		launch(frMain, node,
			func() error { return s.runMainLocal(ctx2, cs, frMain, gather) },
			func(body io.Reader) error {
				return gather.ReceiveFrom(node, &countReader{r: body, n: &cs.bytesIn})
			})
	}

	src := engine.NewStreamSource(dp.MainName)
	gather.Bind(&traceSink{name: "gather", inner: src})
	res, _, runErr := s.exec.Run(ctx2, dp.Final(src), priority)
	wg.Wait()
	if fragErr != nil {
		return nil, fmt.Errorf("distributed query: %w", fragErr)
	}
	return res, runErr
}

// postRun sends one fragment to a peer, with a per-attempt timeout and
// bounded retry with exponential backoff. Retrying is safe end to end:
// a peer that already completed re-ships an identical stream, which
// receivers deduplicate; a retry racing a partial earlier stream poisons
// the receiving inbox into a clean query-wide error instead of
// corrupting results; and a re-executed fragment reconsumes its own
// inboxes from their retained buffers (exchange.Inbox.Bind). Stage runs
// return no body (the peer pushes its outputs itself); main runs stream
// the fragment result back as morsel frames, consumed by sink.
func (cs *clusterState) postRun(ctx context.Context, node int, fr *fragmentRequest, sink func(io.Reader) error) error {
	body, err := json.Marshal(fr)
	if err != nil {
		return err
	}
	var lastErr error
	for attempt := 0; attempt <= cs.fragRetries; attempt++ {
		if attempt > 0 {
			cs.retries.Add(1)
			backoff := 50 * time.Millisecond << uint(attempt-1)
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return lastErr
			}
		}
		if err := cs.postRunOnce(ctx, node, body, sink); err != nil {
			lastErr = err
			if ctx.Err() != nil {
				return lastErr
			}
			continue
		}
		return nil
	}
	return lastErr
}

// postRunOnce is a single fragment RPC attempt. The timeout bounds the
// whole attempt, including streaming the main fragment's response body.
func (cs *clusterState) postRunOnce(ctx context.Context, node int, body []byte, sink func(io.Reader) error) error {
	actx, cancel := context.WithTimeout(ctx, cs.fragTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost,
		cs.cl.Nodes[node]+"/exchange/run", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cs.client.Do(req)
	if err != nil {
		return fmt.Errorf("node %d: %w", node, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("node %d: %s: %s", node, resp.Status, bytes.TrimSpace(msg))
	}
	if sink == nil {
		return nil
	}
	return sink(resp.Body)
}

func (cs *clusterState) broadcastDone(qid string) {
	for _, peer := range cs.cl.Peers() {
		url := fmt.Sprintf("%s/exchange/done?qid=%s", cs.cl.Nodes[peer], qid)
		if resp, err := cs.client.Post(url, "", nil); err == nil {
			resp.Body.Close()
		}
	}
}

// ---- peer-facing HTTP handlers.

func (s *Server) clusterOr503(w http.ResponseWriter) *clusterState {
	cs := s.clusterState()
	if cs == nil {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "server is not part of a cluster"})
	}
	return cs
}

func (s *Server) handleExchangeRun(w http.ResponseWriter, r *http.Request) {
	cs := s.clusterOr503(w)
	if cs == nil {
		return
	}
	var fr fragmentRequest
	if err := json.NewDecoder(r.Body).Decode(&fr); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad fragment request: " + err.Error()})
		return
	}
	switch fr.Kind {
	case "stage":
		if err := s.execStage(r.Context(), cs, &fr); err != nil {
			writeJSON(w, statusOf(err, r.Context()), errorBody{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, struct{}{})
	case "main":
		p, err := s.decodeFragment(cs, &fr)
		if err != nil {
			writeJSON(w, statusOf(err, r.Context()), errorBody{Error: err.Error()})
			return
		}
		cs.fragments.Add(1)
		w.Header().Set("Content-Type", "application/octet-stream")
		flusher, _ := w.(http.Flusher)
		var wrote atomic.Bool
		ob := exchange.NewOutbox(func(b []byte) error {
			if !wrote.Swap(true) {
				traceDist(fmt.Sprintf("main node %d first frame", cs.cl.Self))
			}
			n, werr := w.Write(b)
			cs.bytesOut.Add(int64(n))
			if flusher != nil {
				flusher.Flush()
			}
			return werr
		}, exchange.DefaultOutboxWindow)
		sink := &encodeSink{wr: exchange.NewWriter(ob, fr.OutSchema)}
		err = s.exec.RunToStream(r.Context(), p, fr.Priority, sink)
		cerr := ob.Close()
		cs.stalledNs.Add(ob.StalledNanos())
		if err == nil {
			err = sink.Err()
		}
		if err == nil {
			err = cerr
		}
		if err != nil && !wrote.Load() {
			// Nothing streamed yet: a proper error response is still
			// possible. Otherwise the error frame (or truncated stream)
			// already told the coordinator.
			writeJSON(w, statusOf(err, r.Context()), errorBody{Error: err.Error()})
		}
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("unknown fragment kind %q", fr.Kind)})
	}
}

func (s *Server) handleExchangePush(w http.ResponseWriter, r *http.Request) {
	cs := s.clusterOr503(w)
	if cs == nil {
		return
	}
	q := r.URL.Query()
	qid, name := q.Get("qid"), q.Get("name")
	if qid == "" || name == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "push needs qid and name"})
		return
	}
	sender, err := strconv.Atoi(q.Get("from"))
	if err != nil || sender < 0 || sender >= cs.cl.N() {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "push needs from=<sender node>"})
		return
	}
	cr := &countReader{r: r.Body, n: &cs.bytesIn}
	if err := cs.inbox(qid, name).ReceiveFrom(sender, cr); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleExchangeDone(w http.ResponseWriter, r *http.Request) {
	cs := s.clusterOr503(w)
	if cs == nil {
		return
	}
	cs.dropQuery(r.URL.Query().Get("qid"))
	w.WriteHeader(http.StatusNoContent)
}

type countReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}
