package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/engine"
	"repro/internal/exchange"
	"repro/internal/hashtable"
	"repro/internal/numa"
	"repro/internal/server"
	"repro/internal/sql"
	"repro/internal/storage"
)

// The traced ladder: every layer's public functions called by hand in
// this process, on fixed inputs and fixed counts, with a span around
// each call. Nothing inside the layers is instrumented; that is a later
// change. The same statement path also runs once with spans off, and the
// difference is the tracing overhead.

// ladderSizes fixes how much work each rung does.
type ladderSizes struct {
	tpchCycles    int // cycles of each TPC-H set
	shortCycles   int // cycles of the five serve_short kinds
	appendBatches int // batches of batchRows rows
	hashKeys      int // keys in the hash table (the table must outgrow the last-level cache)
	hostFloats    int // float64s the sequential calibration kernel sums
	hostSlots     int // slots the random-probe kernel chases through (a power of two)
	exchangeParts int // lineitem partitions the exchange codec encodes
	emptyRows     int // morsel size of the no-op job: smaller means more morsels
}

var fullLadder = ladderSizes{
	tpchCycles: 3, shortCycles: 400, appendBatches: 200,
	hashKeys: 4 << 20, hostFloats: 16 << 20, hostSlots: 8 << 20,
	exchangeParts: 8, emptyRows: 100,
}

// sink keeps calibration results alive so the compiler cannot drop the
// loops that computed them.
var sink float64

// bestOf3 runs f once to warm up and returns the fastest of three more
// runs.
func bestOf3(f func()) time.Duration {
	best := time.Duration(1 << 62)
	for rep := 0; rep < 4; rep++ {
		t0 := time.Now()
		f()
		if el := time.Since(t0); rep > 0 && el < best {
			best = el
		}
	}
	return best
}

// hostSeqGBs is the sequential roofline: a four-accumulator sum over a
// slice far larger than the caches.
func hostSeqGBs(n int) float64 {
	xs := make([]float64, n&^3)
	for i := range xs {
		xs[i] = 1
	}
	best := bestOf3(func() {
		var a, b, c, d float64
		for i := 0; i < len(xs); i += 4 {
			a += xs[i]
			b += xs[i+1]
			c += xs[i+2]
			d += xs[i+3]
		}
		sink += a + b + c + d
	})
	return 8 * float64(len(xs)) / best.Seconds() / 1e9
}

// hostRandNs is the random-access roofline: nanoseconds per dependent
// load in a chase through a table far larger than the caches.
func hostRandNs(slots int) float64 {
	mask := uint32(slots - 1)
	tab := make([]uint32, slots)
	x := uint32(2463534242)
	for i := range tab {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		tab[i] = x & mask
	}
	probes := slots / 4
	best := bestOf3(func() {
		idx := uint32(0)
		for i := 0; i < probes; i++ {
			idx = (tab[idx] + uint32(i)) & mask
		}
		sink += float64(idx)
	})
	return float64(best.Nanoseconds()) / float64(probes)
}

// hashtableRung builds a tagged table of n random keys, then probes it
// with every key (hits) and with n absent keys (misses, mostly answered
// by the tag filter). Returns nanoseconds per insert, hit and miss.
func hashtableRung(n int) (insertNs, hitNs, missNs float64, err error) {
	hashes := make([]uint64, n)
	x := uint64(88172645463325252)
	for i := range hashes {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		hashes[i] = x &^ 1 // present keys are even, absent ones odd
	}
	ht := hashtable.New(n)
	nexts := make([]hashtable.Ref, n)
	t0 := time.Now()
	for i, h := range hashes {
		ht.Insert(h, hashtable.Ref(i+1), func(next hashtable.Ref) { nexts[i] = next })
	}
	insertNs = float64(time.Since(t0).Nanoseconds()) / float64(n)
	find := func(h uint64) bool {
		for r := ht.Lookup(h); r != 0; r = nexts[r-1] {
			if hashes[r-1] == h {
				return true
			}
		}
		return false
	}
	found := 0
	t0 = time.Now()
	for _, h := range hashes {
		if find(h) {
			found++
		}
	}
	hitNs = float64(time.Since(t0).Nanoseconds()) / float64(n)
	ghosts := 0
	t0 = time.Now()
	for _, h := range hashes {
		if find(h | 1) {
			ghosts++
		}
	}
	missNs = float64(time.Since(t0).Nanoseconds()) / float64(n)
	if found != n || ghosts != 0 {
		err = fmt.Errorf("hashtable: found %d of %d present keys and %d absent ones", found, n, ghosts)
	}
	return insertNs, hitNs, missNs, err
}

// eventsSchema is the demo orders schema, under a name TPC-H does not use.
var eventsSchema = storage.Schema{
	{Name: "id", Type: storage.I64}, {Name: "cust", Type: storage.I64}, {Name: "kind", Type: storage.I64},
	{Name: "amount", Type: storage.F64}, {Name: "day", Type: storage.I64},
}

func eventsTable(baseRows int) *storage.Table {
	b := storage.NewBuilder("events", eventsSchema, 8, "id")
	for i := 0; i < baseRows; i++ {
		b.Append(storage.Row{int64(i), int64(i % 997), int64(i % demoKinds), float64(i % 1000), int64(i % demoDays)})
	}
	t := b.Build(storage.NUMAAware, 4)
	t.BuildZoneMaps(0) // as morseld does under -data-dir, so a seal also builds the new segments' zone maps
	return t
}

func eventsBatches(n int) [][]storage.Row {
	out := make([][]storage.Row, n)
	id := int64(10_000_000)
	for b := range out {
		rows := make([]storage.Row, batchRows)
		for i := range rows {
			rows[i] = storage.Row{id, id % 997, id % demoKinds, float64(id % 1000), id % demoDays}
			id++
		}
		out[b] = rows
	}
	return out
}

// inproc runs statements through the layers by hand, the way
// Server.Submit composes them, with a span around each step.
type inproc struct {
	x      *engine.Exec // a worker per core: the TPC-H statements
	xShort *engine.Exec // serve_short's worker count: the short statements
	cat    sql.Catalog
	plans  map[string]*engine.Plan // compiled templates by SQL text
	tr     *tracer                 // nil: spans off
	req    int
}

func isShortKind(kind string) bool { return slices.Contains(shortKinds, kind) }

// request runs one statement: parse and plan unless the template is
// cached, bind, compile, execute on the shared pool, collect. The root
// span carries the op kind in its name.
func (p *inproc) request(o op) (*engine.Result, error) {
	p.req++
	root := p.tr.begin("request:"+o.kind, 0, p.req)
	defer p.tr.end(root)
	x := p.x
	if isShortKind(o.kind) {
		x = p.xShort
	}
	plan, ok := p.plans[o.sql]
	if !ok {
		s := p.tr.begin("sql.parse", root, p.req)
		stmt, err := sql.Parse(o.sql)
		p.tr.end(s)
		if err != nil {
			return nil, err
		}
		s = p.tr.begin("sql.plan", root, p.req)
		plan, err = sql.PlanSelectOpts(stmt, "sql", p.cat, sql.Physical{})
		p.tr.end(s)
		if err != nil {
			return nil, err
		}
		// Statements with an inlined literal are never cached, as in the
		// daemon, where their distinct texts outnumber the cache entries.
		if o.kind != "cust_point_lit" {
			p.plans[o.sql] = plan
		}
	}
	s := p.tr.begin("sql.bind_args", root, p.req)
	bound, err := plan.BindArgs(o.params...)
	p.tr.end(s)
	if err != nil {
		return nil, err
	}
	s = p.tr.begin("engine.compile", root, p.req)
	cp := x.Session().CompileSnap(bound, nil)
	p.tr.end(s)
	s = p.tr.begin("engine.exec", root, p.req)
	d := x.Dispatcher()
	d.Submit(cp.Query)
	cp.BindStreams(d)
	<-cp.Query.Done()
	p.tr.end(s)
	s = p.tr.begin("engine.collect", root, p.req)
	res := cp.Collect()
	p.tr.end(s)
	return res, nil
}

// reply adapts request to ladderRun.do.
func (p *inproc) reply(o op) func() (*queryReply, error) {
	return func() (*queryReply, error) {
		res, err := p.request(o)
		if err != nil {
			return nil, err
		}
		return replyOfResult(res), nil
	}
}

// replyOfResult and replyOfResponse put in-process results into the
// shape the oracles check HTTP replies in.
func replyOfResult(res *engine.Result) *queryReply {
	q := &queryReply{}
	for _, r := range res.Schema {
		q.Columns = append(q.Columns, r.Name)
	}
	for _, row := range res.Rows() {
		out := make([]any, len(row))
		for j, v := range row {
			switch res.Schema[j].Type {
			case engine.TInt:
				out[j] = float64(v.I)
			case engine.TFloat:
				out[j] = v.F
			default:
				out[j] = v.S
			}
		}
		q.Rows = append(q.Rows, out)
	}
	return q
}

func replyOfResponse(resp *server.Response) *queryReply {
	q := &queryReply{Columns: resp.Columns}
	for _, row := range resp.Rows {
		out := make([]any, len(row))
		for j, v := range row {
			if i, ok := v.(int64); ok {
				v = float64(i)
			}
			out[j] = v
		}
		q.Rows = append(q.Rows, out)
	}
	return q
}

// ladderRun carries the counters of one tracedLadder call.
type ladderRun struct {
	attempted, failed int
}

// do runs one in-process statement and holds its result to the op's
// oracle, the way client.do treats a reply: a mismatch is a failed
// operation. An error from exec itself aborts the ladder.
func (l *ladderRun) do(o op, exec func() (*queryReply, error)) error {
	l.attempted++
	q, err := exec()
	if err != nil {
		return fmt.Errorf("%s: %w", o.kind, err)
	}
	if err := o.check(&reply{query: q}); err != nil {
		l.failed++
		fmt.Fprintf(os.Stderr, "FAILED in-process %s: %v\n", o.kind, err)
	}
	return nil
}

// planScanRows sums the base rows under a plan's scans.
func planScanRows(p *engine.Plan) int {
	seen := make(map[*engine.Node]bool)
	rows := 0
	var walk func(n *engine.Node)
	walk = func(n *engine.Node) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		if n.Kind() == engine.KindScan {
			if t, _, _ := n.ScanInfo(); t != nil {
				rows += t.Rows()
			}
		}
		walk(n.Input())
		walk(n.BuildInput())
		for _, u := range n.UnionInputs() {
			walk(u)
		}
	}
	walk(p.Root())
	return rows
}

// tracedLadder measures every in-process per-layer metric into m and
// writes the spans to tracePath.
func tracedLadder(cfg *config, orc *oracles, seed int64, m *metricSet, tracePath string) (attempted, failed int, err error) {
	sz := cfg.ladder
	run := &ladderRun{}
	db := orc.db
	lineitem := db.Lineitem

	seq := hostSeqGBs(sz.hostFloats)
	m.set("host.seq_gb_s", seq, 3)
	m.set("host.rand_ns", hostRandNs(sz.hostSlots), 3)

	t0 := time.Now()
	for _, t := range tpchTables(db) {
		if !t.HasZoneMaps() {
			t.BuildZoneMaps(0)
		}
	}
	m.set("storage.zonemap_build_ms", msSince(t0), 1)

	// colstore: seal and restore lineitem, the bulk of set-up and restart.
	t0 = time.Now()
	seg, err := colstore.EncodeTable(lineitem, colstore.Options{})
	if err != nil {
		return 0, 0, fmt.Errorf("colstore encode: %w", err)
	}
	m.set("colstore.encode_mb_s", float64(len(seg))/1e6/time.Since(t0).Seconds(), 1)
	t0 = time.Now()
	back, err := colstore.DecodeTable(seg)
	if err != nil {
		return 0, 0, fmt.Errorf("colstore decode: %w", err)
	}
	m.set("colstore.decode_mb_s", float64(len(seg))/1e6/time.Since(t0).Seconds(), 1)
	if back.Rows() != lineitem.Rows() {
		return 0, 0, fmt.Errorf("colstore round trip: %d rows, want %d", back.Rows(), lineitem.Rows())
	}
	seg, back = nil, nil

	// exchange: the wire codec distributed execution ships morsels in.
	parts := lineitem.Parts[:min(sz.exchangeParts, len(lineitem.Parts))]
	var wire bytes.Buffer
	wantRows := 0
	t0 = time.Now()
	w := exchange.NewWriter(&wire, lineitem.Schema)
	for _, p := range parts {
		wantRows += p.Rows()
		if err := w.WritePartition(p, 0); err != nil {
			return 0, 0, fmt.Errorf("exchange encode: %w", err)
		}
	}
	if err := w.WriteEnd(); err != nil {
		return 0, 0, fmt.Errorf("exchange encode: %w", err)
	}
	m.set("exchange.encode_mb_s", float64(wire.Len())/1e6/time.Since(t0).Seconds(), 1)
	m.set("exchange.bytes_per_row", float64(wire.Len())/float64(wantRows), wantRows)
	gotRows := 0
	t0 = time.Now()
	r := exchange.NewReader(bytes.NewReader(wire.Bytes()))
	for {
		p, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return 0, 0, fmt.Errorf("exchange decode: %w", err)
		}
		gotRows += p.Rows()
	}
	m.set("exchange.decode_mb_s", float64(wire.Len())/1e6/time.Since(t0).Seconds(), 1)
	if gotRows != wantRows {
		return 0, 0, fmt.Errorf("exchange round trip: %d rows, want %d", gotRows, wantRows)
	}
	wire = bytes.Buffer{}

	ins, hit, miss, err := hashtableRung(sz.hashKeys)
	if err != nil {
		return 0, 0, err
	}
	m.set("hashtable.insert_ns", ins, sz.hashKeys)
	m.set("hashtable.lookup_hit_ns", hit, sz.hashKeys)
	m.set("hashtable.lookup_miss_ns", miss, sz.hashKeys)

	// storage: the append delta and its compaction.
	batches := eventsBatches(sz.appendBatches)
	events := eventsTable(10_000)
	delta := events.Delta()
	t0 = time.Now()
	for _, b := range batches {
		if _, err := delta.Append(b); err != nil {
			return 0, 0, fmt.Errorf("delta append: %w", err)
		}
	}
	nRows := sz.appendBatches * batchRows
	m.set("storage.append_ns_per_row", float64(time.Since(t0).Nanoseconds())/float64(nRows), nRows)
	t0 = time.Now()
	sealed, moved := events.SealDelta(0)
	m.set("storage.seal_ms", msSince(t0), 1)
	if moved != nRows || sealed.Rows() != 10_000+nRows {
		return 0, 0, fmt.Errorf("seal moved %d rows into a table of %d, want %d and %d", moved, sealed.Rows(), nRows, 10_000+nRows)
	}

	// Two systems, as morseld builds them for the workloads: a worker per
	// core for the TPC-H statements, and serve_short's worker count for
	// the short ones. The server (its own pool) takes the Server.Submit
	// and Server.Append rungs; bare executors the hand-composed path.
	shortSpec, _ := specByName(wlShort)
	sys := core.NewSystem(core.Nehalem(), core.Options{Workers: cfg.workers, MorselRows: 100_000})
	shortSys := core.NewSystem(core.Nehalem(), core.Options{Workers: cfg.workersOf(shortSpec), MorselRows: 100_000})
	srv := server.New(shortSys, server.Config{})
	defer srv.Close()
	tables := make(map[string]*storage.Table)
	for _, t := range append(tpchTables(db), eventsTable(10_000)) {
		tables[t.Name] = t
		srv.RegisterTable(t)
	}
	x, xShort := sys.Exec(), shortSys.Exec()
	defer x.Close()
	defer xShort.Close()
	ctx := context.Background()

	t0 = time.Now()
	for _, b := range batches {
		if _, err := srv.Append(ctx, "events", b); err != nil {
			return 0, 0, fmt.Errorf("server append: %w", err)
		}
	}
	m.set("server.append_us_per_row", float64(time.Since(t0).Microseconds())/float64(nRows), nRows)

	ip := &inproc{x: x, xShort: xShort, plans: make(map[string]*engine.Plan),
		cat: func(name string) (*storage.Table, bool) { t, ok := tables[name]; return t, ok }}
	scanOps := newTPCHGen(scanQueries, cfg.sf, orc.tpch, seed, 0).ops
	joinOps := newTPCHGen(joinQueries, cfg.sf, orc.tpch, seed, 0).ops
	short := &shortGen{orc: orc.short, seed: seed}
	// slice is one unit of the overhead pair's work: a cycle of the short
	// kinds, where a span costs the most relative to the call, preceded
	// (while cycles of it remain) by a cycle of the scan set.
	slice := func(c int, rng *rand.Rand) error {
		if c < sz.tpchCycles {
			for _, o := range scanOps {
				if err := run.do(o, ip.reply(o)); err != nil {
					return err
				}
			}
		}
		for _, k := range shortKinds {
			o := short.next(k, rng)
			if err := run.do(o, ip.reply(o)); err != nil {
				return err
			}
		}
		return nil
	}
	warmRng := rand.New(rand.NewSource(seed))
	for c := 0; c <= sz.shortCycles/10; c++ { // warm-up: templates cached, pools spun up
		if err := slice(c, warmRng); err != nil {
			return 0, 0, err
		}
	}
	// Spans off and on run the same statements slice by slice, taking
	// turns at going first, so neither side gets the warmer half.
	tr := newTracer()
	modes := [2]struct {
		tr  *tracer
		rng *rand.Rand
		dur time.Duration
	}{{nil, rand.New(rand.NewSource(seed)), 0}, {tr, rand.New(rand.NewSource(seed)), 0}}
	for c := 0; c < sz.shortCycles; c++ {
		for turn := 0; turn < 2; turn++ {
			mode := &modes[(c+turn)%2]
			ip.tr = mode.tr
			t0 = time.Now()
			if err := slice(c, mode.rng); err != nil {
				return 0, 0, err
			}
			mode.dur += time.Since(t0)
		}
	}
	ip.tr = tr
	m.set("trace.overhead_frac", (modes[1].dur-modes[0].dur).Seconds()/modes[0].dur.Seconds(), sz.shortCycles)

	// The two TPC-H sets again, alone, for allocation and traffic
	// counters (the scan set's spans join those recorded above).
	var ms0, ms1 runtime.MemStats
	var gcPauseNs uint64
	setQueries := float64(sz.tpchCycles * len(scanOps))
	for _, set := range []struct {
		name string
		ops  []op
	}{{"scan", scanOps}, {"join", joinOps}} {
		runtime.ReadMemStats(&ms0)
		pool0 := x.PoolStats()
		mark := len(tr.spans)
		for c := 0; c < sz.tpchCycles; c++ {
			for _, o := range set.ops {
				if err := run.do(o, ip.reply(o)); err != nil {
					return 0, 0, err
				}
			}
		}
		runtime.ReadMemStats(&ms1)
		m.set("engine.allocs_per_query."+set.name, float64(ms1.Mallocs-ms0.Mallocs)/setQueries, int(setQueries))
		m.set("engine.alloc_mb_per_query."+set.name, float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6/setQueries, int(setQueries))
		gcPauseNs += ms1.PauseTotalNs - ms0.PauseTotalNs
		if set.name == "scan" {
			var execNs int64
			for _, s := range tr.spans[mark:] {
				if s.Name == "engine.exec" {
					execNs += s.End - s.Start
				}
			}
			rows := 0
			for _, o := range set.ops {
				rows += planScanRows(ip.plans[o.sql])
			}
			execS := float64(execNs) / 1e9
			m.set("engine.scan_rows_per_s", float64(rows*sz.tpchCycles)/execS, int(setQueries))
			readGB := float64(x.PoolStats().ReadBytes-pool0.ReadBytes) / 1e9
			m.set("engine.scan_frac_of_roofline", readGB/execS/seq, int(setQueries))
		}
	}
	m.set("engine.gc_pause_ms_per_query", float64(gcPauseNs)/1e6/(2*setQueries), int(2*setQueries))

	// Server.Submit over the same short statements, and the reply's JSON
	// encoding, as the HTTP handler performs it.
	rng := rand.New(rand.NewSource(seed))
	for c := 0; c < sz.shortCycles; c++ {
		for _, k := range shortKinds {
			o := short.next(k, rng)
			err := run.do(o, func() (*queryReply, error) {
				ip.req++
				s := tr.begin("server.submit:"+o.kind, 0, ip.req)
				resp, err := srv.Submit(ctx, &server.Request{SQL: o.sql, Params: o.params})
				tr.end(s)
				if err != nil {
					return nil, err
				}
				s = tr.begin("server.respond_json", 0, ip.req)
				enc := json.NewEncoder(io.Discard)
				enc.SetEscapeHTML(false)
				err = enc.Encode(resp)
				tr.end(s)
				return replyOfResponse(resp), err
			})
			if err != nil {
				return 0, 0, err
			}
		}
	}

	// dispatch: what a morsel costs when it does nothing.
	var perMorsel []float64
	for rep := 0; rep < 5; rep++ {
		q := dispatch.NewQuery("empty")
		morsels := 0
		for _, p := range lineitem.Parts {
			morsels += (p.Rows() + sz.emptyRows - 1) / sz.emptyRows
		}
		q.AddJob("noop", func() []*storage.Partition { return lineitem.Parts },
			func(*dispatch.Worker, storage.Morsel) {}).WithMorselRows(sz.emptyRows)
		t0 = time.Now()
		x.Dispatcher().Submit(q)
		<-q.Done()
		perMorsel = append(perMorsel, float64(time.Since(t0).Nanoseconds())/float64(morsels))
	}
	m.set("dispatch.empty_morsel_ns", median(perMorsel), len(perMorsel))

	if err := setSpanMetrics(m, tr.spans, sz); err != nil {
		return 0, 0, err
	}

	// Model cross-check: do the queries the NUMA cost model calls slow
	// take long on the wall clock too?
	var wall, sim []float64
	for _, o := range append(append([]op(nil), scanOps...), joinOps...) {
		s := engine.NewSession(numa.NehalemEXMachine())
		s.Mode = engine.Sim
		_, st := s.Run(ip.plans[o.sql])
		sim = append(sim, st.TimeNs)
		wall = append(wall, m.values["engine.exec_ms."+o.kind].Value)
	}
	m.set("numa.sim_wall_rank_corr", spearman(wall, sim), len(wall))

	if err := tr.writeFile(tracePath); err != nil {
		return 0, 0, err
	}
	return run.attempted, run.failed, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// setSpanMetrics derives the statement-path metrics from the recorded
// spans.
func setSpanMetrics(m *metricSet, spans []span, sz ladderSizes) error {
	// children[kind][span name] = durations (us) of that step under
	// request roots of that op kind.
	children := make(map[string]map[string][]float64)
	roots := make(map[string][]float64)   // request durations by kind
	submits := make(map[string][]float64) // Server.Submit durations by kind
	var respond []float64
	var tpchRoot, tpchRootSelf float64
	self := selfTimes(spans)
	for _, s := range spans {
		us := float64(s.End-s.Start) / 1e3
		switch {
		case s.Name == "server.respond_json":
			respond = append(respond, us)
		case strings.HasPrefix(s.Name, "server.submit:"):
			k := strings.TrimPrefix(s.Name, "server.submit:")
			submits[k] = append(submits[k], us)
		case strings.HasPrefix(s.Name, "request:"):
			k := strings.TrimPrefix(s.Name, "request:")
			roots[k] = append(roots[k], us)
			if !isShortKind(k) {
				tpchRoot += us
				tpchRootSelf += float64(self[s.ID]) / 1e3
			}
		case s.Parent != 0:
			k := strings.TrimPrefix(spans[s.Parent-1].Name, "request:")
			if children[k] == nil {
				children[k] = make(map[string][]float64)
			}
			children[k][s.Name] = append(children[k][s.Name], us)
		}
	}
	overShort := func(name string) []float64 {
		var out []float64
		for _, k := range shortKinds {
			out = append(out, children[k][name]...)
		}
		return out
	}
	lit := children["cust_point_lit"]
	m.set("sql.parse_us", median(lit["sql.parse"]), len(lit["sql.parse"]))
	m.set("sql.plan_us", median(lit["sql.plan"]), len(lit["sql.plan"]))
	for metric, name := range map[string]string{
		"sql.bind_args_us": "sql.bind_args", "engine.compile_us": "engine.compile", "engine.collect_us": "engine.collect",
	} {
		s := overShort(name)
		m.set(metric, median(s), len(s))
	}
	for _, k := range append(queryKinds(scanQueries), queryKinds(joinQueries)...) {
		s := children[k]["engine.exec"]
		if len(s) == 0 {
			return fmt.Errorf("no engine.exec span for %s", k)
		}
		m.set("engine.exec_ms."+k, median(s)/1e3, len(s))
	}
	// Server.Submit's own cost: what it adds around the steps the
	// hand-composed request performs for the same statement kind.
	var submitSelf float64
	for _, k := range shortKinds {
		submitSelf += (median(submits[k]) - median(roots[k])) / float64(len(shortKinds))
	}
	m.set("server.submit_self_us", submitSelf, sz.shortCycles*len(shortKinds))
	m.set("server.respond_json_us", median(respond), len(respond))
	m.set("trace.coverage_frac", 1-tpchRootSelf/tpchRoot, 0)
	return nil
}
