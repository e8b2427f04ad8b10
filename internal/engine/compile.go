package engine

import (
	"fmt"
	"sync"

	"repro/internal/dispatch"
	"repro/internal/numa"
	"repro/internal/storage"
)

// exprNodeWeight is the CPU weight charged per expression AST node per
// tuple.
const exprNodeWeight = 0.25

type tailJob = *dispatch.PipelineJob

// consumer is what the downstream chain of a pipeline offers its source:
// the per-row entry or, from a consumer that can work on column slices
// itself (the aggregation sink, a hash-join probe whose keys are columns,
// the join build), a batch entry taking one filtered scan chunk at a time.
// Only a column-sourced pipeline uses the batch entry, and only as far down
// as every operator offers one: a probe hands its output batch to a batch
// consumer below it; Filter and Map wrap their parent's row entry and so
// offer none. A sink offers the one entry its pipeline will call.
type consumer struct {
	row   rowFn
	batch func(e *Ectx, b *colBatch)
}

// consumerFactory builds the downstream consumer chain of an operator
// within a concrete pipeline context. Operators that source new pipelines
// (scan, aggregation phase 2, unmatched scan) create the context and call
// the factory once; Union calls it once per input pipeline.
type consumerFactory func(pc *pipeCtx) consumer

// compiler turns a Plan into dispatch pipeline jobs. It mirrors HyPer's
// produce/consume compilation: each operator either wraps the consumer
// closure of its parent (pipelined operators) or terminates a pipeline in
// a sink and sources a new one (pipeline breakers).
type compiler struct {
	sess    *Session
	q       *dispatch.Query
	workers int
	sockets int

	// joins holds the per-compile runtime state of each join node.
	// Keeping it here (not on the Node) makes plans immutable under
	// compilation, so one prepared Plan can be compiled concurrently by
	// many server sessions.
	joins map[*Node]*joinCompiled

	// mats holds the per-compile state of each Materialize node, so a
	// node consumed by several parents buffers its child exactly once.
	mats map[*Node]*matCompiled

	// streams collects every stream-fed job compiled from a stream scan
	// or a Real-mode exchange, awaiting its source binding after Submit.
	streams []compiledStream

	// snap pins the data-version every table scan reads (sealed
	// partitions + committed delta prefix). nil means "latest committed
	// view", resolved per scan at activation time.
	snap *storage.Snap
}

// matCompiled is the shared compile state of one Materialize node: the
// barrier that builds the scan table from the buffered rows, and the
// table itself (set when the barrier runs).
type matCompiled struct {
	barrier tailJob
	tab     *storage.Table
}

// joinCompiled is the compile output of one join node that dependent
// operators (Unmatched) need to find.
type joinCompiled struct {
	rt         *joinRuntime
	probeTails []tailJob
}

// pipeCtx is the register layout and per-worker state of one pipeline.
type pipeCtx struct {
	c            *compiler
	regs         []Reg
	deps         []tailJob // jobs this pipeline's source must wait for
	states       []*Ectx   // per worker, lazily created
	scratchSizes []int     // per-operator scratch slot sizes

	// scanCols is set on scan-sourced pipelines: register k, for k <
	// len(scanCols), is loaded from partition column scanCols[k]. There,
	// used[k] records that a row consumer resolved register k: the scan —
	// or the last of the batch probes sitting on it — fills only those
	// registers, and only for the rows that reach the row consumer.
	scanCols []int
	used     []bool
	vecSlots int // float64 vectors the batch consumer needs (Ectx.vecs)

	// rowOnly is set once an operator that consumes rows (Filter, Map, a
	// probe on a computed key) has been compiled into the pipeline:
	// everything below it is entered through its row entry.
	rowOnly bool
	probes  []*probe // the batch probes, in pipeline order
}

// addScratch reserves a per-worker scratch slot of n values for one
// operator instance.
func (pc *pipeCtx) addScratch(n int) int {
	pc.scratchSizes = append(pc.scratchSizes, n)
	return len(pc.scratchSizes) - 1
}

func (c *compiler) newPipe() *pipeCtx {
	return &pipeCtx{c: c, states: make([]*Ectx, c.workers)}
}

// resolve is how downstream consumers find their input registers.
func (pc *pipeCtx) resolve(name string) (int, Type) {
	k, t := pc.lookup(name)
	pc.need(k)
	return k, t
}

// usedRegs lists those of the first n registers a row consumer resolved.
func (pc *pipeCtx) usedRegs(n int) []int {
	regs := make([]int, 0, n)
	for k, u := range pc.used[:n] {
		if u {
			regs = append(regs, k)
		}
	}
	return regs
}

// need records that a row consumer reads register k.
func (pc *pipeCtx) need(k int) {
	if k < len(pc.used) {
		pc.used[k] = true
	}
}

// lookup finds a register without recording a consumer's need for it;
// the scan's own kernels read columns, not registers.
func (pc *pipeCtx) lookup(name string) (int, Type) {
	for i, r := range pc.regs {
		if r.Name == name {
			return i, r.Type
		}
	}
	panic(fmt.Sprintf("engine: unknown column %q in pipeline (have %v)", name, regNames(pc.regs)))
}

func (pc *pipeCtx) addReg(name string, t Type) int {
	for _, r := range pc.regs {
		if r.Name == name {
			panic(fmt.Sprintf("engine: duplicate column %q in pipeline; alias it with AS", name))
		}
	}
	pc.regs = append(pc.regs, Reg{Name: name, Type: t})
	if pc.scanCols != nil {
		pc.used = append(pc.used, false)
	}
	return len(pc.regs) - 1
}

// ectx returns the worker's execution context for this pipeline.
func (pc *pipeCtx) ectx(w *dispatch.Worker) *Ectx {
	e := pc.states[w.ID]
	if e == nil {
		e = newEctx(len(pc.regs), pc.c.sockets, pc.scratchSizes)
		pc.states[w.ID] = e
	}
	return e
}

// rowWidth estimates the materialization bytes of the given registers.
func rowWidth(regs []Reg) float64 {
	var w float64
	for _, r := range regs {
		if r.Type == TStr {
			w += 24 // header + short payload estimate
		} else {
			w += 8
		}
	}
	return w
}

// driver builds n one-row driver partitions used to schedule
// partition-at-a-time tasks (aggregation phase 2, local sorts, merges):
// partition i's single value is i. homes assigns NUMA affinity per task
// so locality-aware dispatch applies. Everything is cut from a few slabs —
// phase 2 alone asks for 64 tasks per aggregation.
type driver struct {
	parts []*storage.Partition
}

func newDriver(n int, home func(i int) numa.SocketID) *driver {
	tasks := make([]int64, n)
	cols := make([]storage.Column, n)
	colPtrs := make([]*storage.Column, n)
	parts := make([]storage.Partition, n)
	d := &driver{parts: make([]*storage.Partition, n)}
	for i := range parts {
		tasks[i] = int64(i)
		cols[i] = storage.Column{Name: "task", Type: storage.I64, Ints: tasks[i : i+1 : i+1]}
		colPtrs[i] = &cols[i]
		parts[i] = storage.Partition{Home: home(i), Worker: -1, Cols: colPtrs[i : i+1 : i+1]}
		d.parts[i] = &parts[i]
	}
	return d
}

// task returns the task number a driver morsel stands for.
func (d *driver) task(m storage.Morsel) int { return int(m.Part.Cols[0].Ints[m.Begin]) }

// serialBarrier inserts a single-task pipeline that charges the given
// cost to one worker while all others wait — the serialized coordination
// phase of a Volcano exchange operator (PlanDriven mode). The row count is
// evaluated lazily at activation time.
func (c *compiler) serialBarrier(name string, after []tailJob, rows func() int64) tailJob {
	var drv *driver
	job := c.q.AddJob(name,
		func() []*storage.Partition {
			drv = newDriver(1, func(int) numa.SocketID { return 0 })
			return drv.parts
		},
		func(w *dispatch.Worker, m storage.Morsel) {
			w.Tracker.Advance(float64(rows()) * ExchangeSerialNsPerRow)
		})
	job.After(after...).WithMorselRows(1)
	return job
}

// produce compiles the subtree rooted at n, feeding rows into the
// consumer built by f, and returns the tail jobs whose completion means
// the subtree has fully produced its output.
func (n *Node) produce(c *compiler, f consumerFactory) []tailJob {
	switch n.kind {
	case nScan:
		return c.produceScan(n, f)
	case nFilter:
		pred := n.pred
		w := pred.weight() * exprNodeWeight
		return n.child.produce(c, func(pc *pipeCtx) consumer {
			fn, t := pred.compile(pc)
			mustBool(t, "filter predicate")
			pc.rowOnly = true
			down := f(pc).row
			return consumer{row: func(e *Ectx) {
				e.cpuUnits += w
				if fn(e).I != 0 {
					down(e)
				}
			}}
		})
	case nMap:
		ex := n.mapEx
		w := ex.E.weight() * exprNodeWeight
		return n.child.produce(c, func(pc *pipeCtx) consumer {
			fn, t := ex.E.compile(pc)
			idx := pc.addReg(ex.Name, t)
			pc.rowOnly = true
			down := f(pc).row
			return consumer{row: func(e *Ectx) {
				e.cpuUnits += w
				e.Regs[idx] = fn(e)
				down(e)
			}}
		})
	case nJoin:
		return c.produceJoin(n, f)
	case nAgg:
		if n.partitioned() {
			return c.producePartitionedAgg(n, f)
		}
		return c.produceAgg(n, f)
	case nUnion:
		var tails []tailJob
		for _, ch := range c.orderUnionInputs(n.children) {
			tails = append(tails, ch.produce(c, f)...)
		}
		return tails
	case nUnmatched:
		return c.produceUnmatched(n, f)
	case nProject:
		// Pure schema operation: downstream consumers resolve registers
		// by name, so the pipeline itself is unchanged.
		return n.child.produce(c, f)
	case nMaterialize:
		return c.produceMaterialize(n, f)
	case nExchange:
		return c.produceExchange(n, f)
	default:
		panic(fmt.Sprintf("engine: unknown node kind %d", n.kind))
	}
}

func (c *compiler) produceScan(n *Node, f consumerFactory) []tailJob {
	pc, body := c.scanPipe(n.out, n.scanSrc, n.filter, f)
	table := n.table
	if n.stream != nil {
		// Stream scan: morsels arrive through the source while the
		// producer is still running; the stub table only types the
		// stream. Virtual time has no arrival order for external feeds,
		// so this is Real-mode only.
		if c.sess.Mode != Real {
			panic("engine: stream scans require Real mode")
		}
		job := c.q.AddJob("streamscan("+table.Name+")", nil, body).Streaming()
		job.After(pc.deps...)
		c.streams = append(c.streams, compiledStream{src: n.stream, job: job})
		return []tailJob{job}
	}
	snap := c.snap
	parts := func() []*storage.Partition { return snap.ScanParts(table) }
	if pred := compileZonePrune(n.filter, n.out, n.scanSrc); pred != nil && table.HasZoneMaps() {
		// Zone-map skipping: resolve at activation time, exposing only
		// the surviving segment runs to the dispatcher. Delta partitions
		// carry no segment directory and pass through unpruned — only
		// sealed segments are ever skipped.
		parts = func() []*storage.Partition { return prunedScanParts(snap.ScanParts(table), pred) }
	}
	job := c.q.AddJob("scan("+table.Name+")", parts, body)
	job.After(pc.deps...)
	return []tailJob{job}
}

// scanPipe opens a pipeline sourced from column partitions — a table or
// stream scan, or the rescan of a materialized or exchanged buffer: regs
// are its leading registers, register k backed by partition column
// srcIdx[k] (nil = column k), filter the optional fused predicate. It
// returns the pipeline context and the per-morsel body.
func (c *compiler) scanPipe(regs []Reg, srcIdx []int, filter *Expr, f consumerFactory) (*pipeCtx, func(*dispatch.Worker, storage.Morsel)) {
	pc := c.newPipe()
	if srcIdx == nil {
		srcIdx = make([]int, len(regs))
		for i := range srcIdx {
			srcIdx[i] = i
		}
	}
	pc.scanCols = srcIdx
	pc.used = make([]bool, 0, len(regs)+8) // room for a few joins' payload registers
	for _, r := range regs {
		pc.addReg(r.Name, r.Type)
	}
	rowW := 1.0
	var kernels []selKernel
	if filter != nil {
		kernels = compileFilter(pc, filter)
		rowW += filter.weight() * exprNodeWeight
	}
	return pc, scanMorselBody(pc, kernels, rowW, f(pc))
}

// scanMorselBody is the per-morsel loop every column-sourced pipeline
// shares. The morsel is cut into chunks of scanChunkRows; per chunk the
// filter's kernels narrow a selection (an unfiltered scan has none and
// stays dense), then either the consumer takes the chunk whole through its
// batch entry — the aggregation sink, the join build, or a chain of
// hash-join probes ending in one of those or in a register fill for the
// rows that leave it — or the registers some consumer resolved are filled
// for each surviving row and the row entry runs. Filter-only columns never
// become Vals. The cost model is charged what the row-at-a-time loop
// charged: rowW CPU units per scanned row and the sequential read of every
// listed column.
func scanMorselBody(pc *pipeCtx, kernels []selKernel, rowW float64, cons consumer) func(*dispatch.Worker, storage.Morsel) {
	var fill regFill
	if cons.batch == nil {
		fill = pc.fillFor(pc.usedRegs(len(pc.scanCols)))
	}
	return func(w *dispatch.Worker, m storage.Morsel) {
		e := pc.ectx(w)
		e.reset(w)
		e.scanScratch = borrowScanScratch(pc.vecSlots, len(pc.probes))
		b := &e.batch
		b.cols = m.Part.Cols
		for b.base = m.Begin; b.base < m.End; b.base += scanChunkRows {
			b.n = min(scanChunkRows, m.End-b.base)
			e.cpuUnits += rowW * float64(b.n)
			b.sel = nil
			if kernels != nil {
				b.sel = identitySel[:b.n]
				for _, k := range kernels {
					if b.sel = e.sel[:k(e, b, b.sel, e.sel[:])]; len(b.sel) == 0 {
						break
					}
				}
			}
			if cons.batch != nil {
				cons.batch(e, b)
				continue
			}
			for j, n := 0, b.rows(); j < n; j++ {
				fill.row(e, b.cols, b.row(j))
				cons.row(e)
			}
		}
		e.scanScratch.release(len(pc.probes))
		e.scanScratch = nil
		w.Tracker.ReadSeq(m.Home(), m.Part.BytesRange(m.Begin, m.End, pc.scanCols))
		e.flush()
	}
}

// produceMaterialize compiles a Materialize node: the first consumer
// compiles the child into per-worker row buffers and a single-task
// barrier that finalizes them into a partitioned scan table (memoized
// per compile); every consumer — including the first — then scans that
// table, gated on the barrier. All consumers read the same rows.
func (c *compiler) produceMaterialize(n *Node, f consumerFactory) []tailJob {
	mc := c.mats[n]
	if mc == nil {
		mc = &matCompiled{}
		c.mats[n] = mc
		sink := newResultSink(n.out, c.workers)
		tails := n.child.produce(c, sink.factory)
		var drv *driver
		job := c.q.AddJob("materialize",
			func() []*storage.Partition {
				drv = newDriver(1, func(int) numa.SocketID { return 0 })
				return drv.parts
			},
			func(w *dispatch.Worker, m storage.Morsel) {
				res := sink.collect()
				mc.tab = res.ToTable("$materialized", c.workers, c.sockets)
				w.Tracker.Advance(float64(res.NumRows()) * ExchangeSerialNsPerRow)
			})
		job.After(tails...).WithMorselRows(1)
		mc.barrier = job
	}
	pc, body := c.scanPipe(n.out, nil, nil, f)
	job := c.q.AddJob("matscan", func() []*storage.Partition { return mc.tab.Parts }, body)
	job.After(append(pc.deps, mc.barrier)...)
	return []tailJob{job}
}

// Compiled is a plan lowered onto a dispatch.Query. Collect must only be
// called after the query finished.
type Compiled struct {
	Query   *dispatch.Query
	Plan    *Plan
	collect func() *Result

	streams []compiledStream

	errMu     sync.Mutex
	streamErr error
}

// Collect gathers the query result.
func (cp *Compiled) Collect() *Result { return cp.collect() }

// HasStreams reports whether the plan compiled any stream-fed jobs.
func (cp *Compiled) HasStreams() bool { return len(cp.streams) > 0 }

// BindStreams connects every compiled stream scan to its source,
// replaying anything the producers fed so far. It MUST be called after
// the query was submitted to d: a stream failure cancels the query
// through the dispatcher, which corrupts admission bookkeeping for a
// query the dispatcher has never seen.
func (cp *Compiled) BindStreams(d *dispatch.Dispatcher) {
	for _, cs := range cp.streams {
		cs.src.bind(&jobSink{cp: cp, d: d, job: cs.job})
	}
}

func (cp *Compiled) setStreamErr(err error) {
	cp.errMu.Lock()
	if cp.streamErr == nil {
		cp.streamErr = err
	}
	cp.errMu.Unlock()
}

// StreamErr returns the first stream failure, if any — the reason a
// stream-fed query was canceled.
func (cp *Compiled) StreamErr() error {
	cp.errMu.Lock()
	defer cp.errMu.Unlock()
	return cp.streamErr
}

// Compile lowers the plan to pipelines for this session's machine and
// dispatcher configuration. Scans read each table's latest committed
// view; use CompileSnap to pin a data-version instead.
func (s *Session) Compile(p *Plan) *Compiled { return s.CompileSnap(p, nil) }

// CompileSnap is Compile with every table scan pinned to the given
// storage snap (nil = latest committed view per scan). Pinning makes a
// multi-scan query internally consistent while appends land.
func (s *Session) CompileSnap(p *Plan, snap *storage.Snap) *Compiled {
	if p.root == nil {
		panic(fmt.Sprintf("engine: plan %q has no result node", p.Name))
	}
	workers := s.Dispatch.Workers
	if workers <= 0 {
		workers = s.Machine.Topo.HardwareThreads()
	}
	c := &compiler{
		sess: s, q: dispatch.NewQuery(p.Name),
		workers: workers, sockets: s.Machine.Topo.Sockets,
		joins: make(map[*Node]*joinCompiled),
		mats:  make(map[*Node]*matCompiled),
		snap:  snap,
	}
	cp := &Compiled{Query: c.q, Plan: p}
	if len(p.sortKeys) > 0 {
		cp.collect = c.compileSorted(p)
	} else {
		sink := newResultSink(p.root.out, workers)
		p.root.produce(c, sink.factory)
		cp.collect = sink.collect
	}
	if p.limit == LimitZero {
		// LIMIT 0: the schema is produced, the rows are not.
		inner := cp.collect
		cp.collect = func() *Result {
			r := inner()
			r.rows = nil
			return r
		}
	}
	cp.streams = c.streams
	return cp
}

// compileToStream lowers an unsorted plan with the root rows flowing
// into out as chunked partitions instead of a buffered Result, so a
// fragment's output ships while its pipelines are still running. The
// returned flush emits each worker's partial chunk; call it once the
// query finished cleanly (out itself is closed by the caller).
func (s *Session) compileToStream(p *Plan, out PartSink) (*Compiled, func()) {
	if p.root == nil {
		panic(fmt.Sprintf("engine: plan %q has no result node", p.Name))
	}
	if len(p.sortKeys) > 0 {
		panic("engine: compileToStream requires an unsorted plan")
	}
	workers := s.Dispatch.Workers
	if workers <= 0 {
		workers = s.Machine.Topo.HardwareThreads()
	}
	c := &compiler{
		sess: s, q: dispatch.NewQuery(p.Name),
		workers: workers, sockets: s.Machine.Topo.Sockets,
		joins: make(map[*Node]*joinCompiled),
		mats:  make(map[*Node]*matCompiled),
	}
	cp := &Compiled{Query: c.q, Plan: p}
	chunker := newStreamChunker(p.root.out, workers, streamChunkRows, out)
	p.root.produce(c, chunker.factory)
	cp.collect = func() *Result { return &Result{Schema: p.root.out} }
	cp.streams = c.streams
	return cp, chunker.flushAll
}

// orderUnionInputs reorders a union's inputs for compilation so that any
// input containing an Unmatched scan compiles after the input containing
// the JoinMark join it references — plan authors may list the branches
// in either order. Result semantics are unaffected (union is a bag
// union); only compile order changes.
func (c *compiler) orderUnionInputs(children []*Node) []*Node {
	type info struct {
		node  *Node
		joins map[*Node]bool // join nodes contained in this subtree
		needs []*Node        // joins referenced by contained Unmatched scans
	}
	infos := make([]*info, len(children))
	anyNeeds := false
	for i, ch := range children {
		in := &info{node: ch, joins: map[*Node]bool{}}
		var visit func(n *Node)
		visit = func(n *Node) {
			if n == nil {
				return
			}
			switch n.kind {
			case nJoin:
				in.joins[n] = true
			case nUnmatched:
				in.needs = append(in.needs, n.joinRef)
			}
			visit(n.child)
			visit(n.build)
			for _, sub := range n.children {
				visit(sub)
			}
		}
		visit(ch)
		if len(in.needs) > 0 {
			anyNeeds = true
		}
		infos[i] = in
	}
	if !anyNeeds {
		return children
	}
	done := map[*Node]bool{}
	for j := range c.joins {
		done[j] = true // compiled before this union
	}
	out := make([]*Node, 0, len(children))
	for len(infos) > 0 {
		picked := -1
		for i, in := range infos {
			ok := true
			for _, need := range in.needs {
				if !done[need] && !in.joins[need] {
					ok = false
					break
				}
			}
			if ok {
				picked = i
				break
			}
		}
		if picked < 0 {
			// Unsatisfiable (an Unmatched referencing a join outside the
			// union): keep the remaining order and let produceUnmatched
			// report it.
			for _, in := range infos {
				out = append(out, in.node)
			}
			break
		}
		out = append(out, infos[picked].node)
		for j := range infos[picked].joins {
			done[j] = true
		}
		infos = append(infos[:picked], infos[picked+1:]...)
	}
	return out
}
