package engine

import (
	"repro/internal/dispatch"
	"repro/internal/numa"
	"repro/internal/storage"
)

// aggNumPartitions is the number of hash partitions phase 2 merges ("more
// partitions than worker threads", §4.4).
const aggNumPartitions = 64

// DefaultPreAggCapacity is the number of groups a worker's one
// thread-local table holds; the group that would take it past this
// promotes the worker to one table per partition. Tests shrink it to force
// promotion.
var DefaultPreAggCapacity = 1 << 14

// aggRuntime is the paper's two-phase parallel aggregation (§4.4). In
// phase 1 each worker aggregates into one thread-local table. A worker
// whose table would pass the cap promotes: it moves every group, whole,
// into aggNumPartitions tables and routes by partition from then on, so a
// group has exactly one partial per worker and each accumulator sees its
// rows in scan order wherever the worker promotes. Phase 2 merges one
// partition of every worker's partials per task.
type aggRuntime struct {
	c          *compiler
	groups     []NamedExpr
	groupTypes []Type
	aggs       []AggDef
	outTypes   []Type
	capacity   int
	rowW       int64      // modelled bytes of one group a promoted worker writes
	locals     []aggLocal // per worker
}

// aggLocal is one worker's phase-1 output: its one table, or after
// promotion its partition tables.
type aggLocal struct {
	tab   *groupTable
	parts []*groupTable
	// order lists tab's entry numbers by partition, entry order kept
	// within one: partition p's are order[starts[p]:starts[p+1]]. The
	// activation of phase 2 sets it.
	order  []int32
	starts [aggNumPartitions + 1]int32
}

func (c *compiler) newAggRuntime(n *Node) *aggRuntime {
	rt := &aggRuntime{c: c, groups: n.groups, aggs: n.aggs,
		capacity: DefaultPreAggCapacity, rowW: int64(rowWidth(n.out)),
		locals: make([]aggLocal, c.workers)}
	for _, g := range n.groups {
		rt.groupTypes = append(rt.groupTypes, typeOf(g.E, n.child.out))
	}
	for _, a := range n.aggs {
		rt.outTypes = append(rt.outTypes, aggOutType(a, n.child.out))
	}
	return rt
}

func aggPartition(h uint64) int { return int(h % aggNumPartitions) }

// sinkWeight is the CPU weight phase 1 charges per consumed row.
func (rt *aggRuntime) sinkWeight() float64 {
	w := 2.0
	for _, g := range rt.groups {
		w += g.E.weight() * exprNodeWeight
	}
	for _, a := range rt.aggs {
		if a.E != nil {
			w += a.E.weight() * exprNodeWeight
		}
	}
	return w
}

// table returns the worker's one table, creating it.
func (rt *aggRuntime) table(l *aggLocal) *groupTable {
	if l.tab == nil {
		l.tab = newGroupTable(rt.aggs, 0, 0)
	}
	return l.tab
}

// full reports whether a new group would take tab past the cap; a global
// aggregate's one group always fits.
func (rt *aggRuntime) full(tab *groupTable) bool {
	return len(rt.groups) > 0 && tab.len() >= rt.capacity
}

// promote moves every group of the worker's one table into
// aggNumPartitions tables and drops the table. Each partition table is
// sized from the table it replaces, for one and a half times its share of
// the groups and key bytes: room for the spread of the shares and for the
// groups a worker at the cap is still adding, with less to overshoot at
// each doubling than twice its share would leave. A promoted worker
// writes every group it moves or creates.
func (rt *aggRuntime) promote(e *Ectx, l *aggLocal) {
	old := rt.table(l)
	l.parts = make([]*groupTable, aggNumPartitions)
	n, keyBytes := 3*old.len()/(2*aggNumPartitions)+1, 3*len(old.keys)/(2*aggNumPartitions)+1
	for p := range l.parts {
		l.parts[p] = newGroupTable(rt.aggs, n, keyBytes)
	}
	for g, h := range old.hashes {
		l.parts[aggPartition(h)].mergeEntry(old, g)
	}
	e.writeBytes += rt.rowW * int64(old.len())
	l.tab = nil
}

// partGroup finds or creates the key's group in its partition's table
// of the promoted worker l.
func (rt *aggRuntime) partGroup(e *Ectx, l *aggLocal, h uint64, key []byte) (*groupTable, int) {
	tab := l.parts[aggPartition(h)]
	g := tab.find(h, key)
	if g < 0 {
		g = tab.insert(h, key)
		e.writeBytes += rt.rowW
	}
	return tab, g
}

// sink compiles phase 1's row entry: per row it encodes the group key into
// e.key, evaluates the aggregate inputs into the worker's tuple scratch,
// charges the CPU weight, and merges the row into its group, promoting the
// worker at the insert that would pass the cap.
func (rt *aggRuntime) sink(pc *pipeCtx) rowFn {
	groupFns := make([]evalFn, len(rt.groups))
	w := rt.sinkWeight()
	for i, g := range rt.groups {
		groupFns[i], _ = g.E.compile(pc)
	}
	nAggs := len(rt.aggs)
	aggFns := make([]evalFn, nAggs)
	aggIsFloat := make([]bool, nAggs)
	for i, a := range rt.aggs {
		if a.E == nil {
			continue
		}
		fn, t := a.E.compile(pc)
		aggFns[i] = fn
		aggIsFloat[i] = t == TFloat
	}
	tuples := make([][]float64, rt.c.workers)
	return func(e *Ectx) {
		e.key = e.key[:0]
		for i, fn := range groupFns {
			e.key = encodeVal(e.key, rt.groupTypes[i], fn(e))
		}
		e.cpuUnits += w
		tuple := tuples[e.W.ID]
		if tuple == nil {
			tuple = make([]float64, nAggs)
			tuples[e.W.ID] = tuple
		}
		for i, fn := range aggFns {
			switch {
			case fn == nil:
				tuple[i] = 0
			case aggIsFloat[i]:
				tuple[i] = fn(e).F
			default:
				tuple[i] = float64(fn(e).I)
			}
		}
		h := hashBytes(e.key)
		l := &rt.locals[e.W.ID]
		if l.parts == nil {
			tab := rt.table(l)
			g := tab.find(h, e.key)
			if g < 0 && !rt.full(tab) {
				g = tab.insert(h, e.key)
			}
			if g >= 0 {
				tab.merge(g, tuple, 1)
				return
			}
			rt.promote(e, l)
		}
		tab, g := rt.partGroup(e, l, h, e.key)
		tab.merge(g, tuple, 1)
	}
}

// consumer returns phase 1's entry into pc: the batch sink when every
// register of pc is a column the scan reads — nothing but (zero-cost)
// projections and batch semi or anti probes sit between the scan and the
// aggregation — and the row sink otherwise.
func (rt *aggRuntime) consumer(pc *pipeCtx) consumer {
	if pc.scanCols != nil && !pc.rowOnly && len(pc.regs) == len(pc.scanCols) {
		return consumer{batch: rt.batchSink(pc)}
	}
	return consumer{row: rt.sink(pc)}
}

// activate runs when phase 2 starts, after phase 1: it orders every
// unpromoted table's entry numbers by partition with one counting sort,
// so phase 2 reads those tables in place.
func (rt *aggRuntime) activate() {
	for wid := range rt.locals {
		l := &rt.locals[wid]
		if l.tab == nil {
			continue
		}
		l.starts = [aggNumPartitions + 1]int32{}
		for _, h := range l.tab.hashes {
			l.starts[aggPartition(h)+1]++
		}
		for p := 1; p <= aggNumPartitions; p++ {
			l.starts[p] += l.starts[p-1]
		}
		next := l.starts
		l.order = make([]int32, l.tab.len())
		for g, h := range l.tab.hashes {
			p := aggPartition(h)
			l.order[next[p]] = int32(g)
			next[p]++
		}
	}
}

// groups is the number of the worker's phase-1 partials.
func (l *aggLocal) groups() int {
	n := 0
	if l.tab != nil {
		n = l.tab.len()
	}
	for _, tab := range l.parts {
		n += tab.len()
	}
	return n
}

// groupCount is the number of phase-1 partials, what a plan-driven
// exchange would hand over.
func (rt *aggRuntime) groupCount() int64 {
	var total int64
	for wid := range rt.locals {
		total += int64(rt.locals[wid].groups())
	}
	return total
}

// mergePartition folds worker wid's partials of partition pid into dst
// and returns the modelled bytes read.
func (rt *aggRuntime) mergePartition(dst *groupTable, wid, pid int) int64 {
	var read int64
	l := &rt.locals[wid]
	if l.parts != nil {
		src := l.parts[pid]
		for i := range src.hashes {
			read += dst.mergeEntry(src, i)
		}
	} else if l.tab != nil {
		for _, i := range l.order[l.starts[pid]:l.starts[pid+1]] {
			read += dst.mergeEntry(l.tab, int(i))
		}
	}
	return read
}

// phase2 compiles the partition-wise final aggregation: each task merges
// one hash partition of every worker's phase-1 output into a worker-local
// table and immediately pushes the finished groups into the consuming
// pipeline while they are cache hot (§4.4).
func (rt *aggRuntime) phase2(tails []tailJob, f consumerFactory) []tailJob {
	c := rt.c
	if c.sess.PlanDriven {
		// Volcano: serialized hand-off of the repartitioned partial
		// aggregates. A Volcano-style parallel aggregation exchanges
		// partial aggregates, not raw input rows, so the traffic is
		// charged here, not per row.
		tails = []tailJob{c.serialBarrier("exchange(agg)", tails, rt.groupCount)}
	}
	pc2 := c.newPipe()
	for i, g := range rt.groups {
		pc2.addReg(g.Name, rt.groupTypes[i])
	}
	for i, a := range rt.aggs {
		pc2.addReg(a.Name, rt.outTypes[i])
	}
	down := f(pc2).row
	sockets := c.sockets
	globalAgg := len(rt.groups) == 0
	merged := make([]*groupTable, c.workers) // per worker, reused across its tasks
	var drv *driver
	job := c.q.AddJob("aggregate",
		func() []*storage.Partition {
			rt.activate()
			nPart := aggNumPartitions
			if globalAgg {
				nPart = 1
			}
			drv = newDriver(nPart, func(i int) numa.SocketID {
				return numa.SocketID(i % sockets)
			})
			return drv.parts
		},
		func(w *dispatch.Worker, m storage.Morsel) {
			lo := drv.task(m)
			hi := lo + 1
			if globalAgg {
				hi = aggNumPartitions // the single task merges everything
			}
			e := pc2.ectx(w)
			e.reset(w)
			tab := merged[w.ID]
			if tab == nil {
				tab = newGroupTable(rt.aggs, 0, 0)
				merged[w.ID] = tab
			}
			tab.reset()
			topo := w.Tracker.Machine().Topo
			for wid := 0; wid < c.workers; wid++ {
				var readBytes int64
				for pid := lo; pid < hi; pid++ {
					readBytes += rt.mergePartition(tab, wid, pid)
				}
				// Worker wid's phase-1 output lives on its socket;
				// phase 2 pulls it across the fabric.
				w.Tracker.ReadSeq(topo.Place(wid).Socket, readBytes)
			}
			if globalAgg && tab.len() == 0 {
				// SQL semantics: a global aggregate over zero rows
				// still yields one row.
				tab.insert(hashBytes(nil), nil)
			}
			e.cpuUnits += float64(tab.len()) * 2
			nGroups := len(rt.groupTypes)
			for g := 0; g < tab.len(); g++ {
				key := tab.key(g)
				for i, t := range rt.groupTypes {
					e.Regs[i], key = decodeVal(key, t)
				}
				for i := range rt.aggs {
					e.Regs[nGroups+i] = tab.output(g, i, rt.outTypes[i])
				}
				e.cpuUnits += 2
				down(e)
			}
			e.flush()
		})
	job.After(tails...).WithMorselRows(1)
	// Downstream operators compiled into the phase-2 pipeline may have
	// their own prerequisites (e.g. a probe whose hash table must be
	// built first).
	job.After(pc2.deps...)
	return []tailJob{job}
}

// keyPart is one group key of the batch sink: a scan column encoded
// straight from its slice, or (col < 0) any other expression evaluated by
// the row evaluator over the registers it reads.
type keyPart struct {
	t    Type
	col  int
	fn   evalFn
	fill regFill
}

// encodeKey encodes row j's group key of chunk b into e.key and returns
// its hash.
func encodeKey(e *Ectx, keys []keyPart, b *colBatch, j int) uint64 {
	r := b.row(j)
	e.key = e.key[:0]
	for i := range keys {
		switch kp := &keys[i]; {
		case kp.col < 0:
			kp.fill.row(e, b.cols, r)
			e.key = encodeVal(e.key, kp.t, kp.fn(e))
		case kp.t == TInt:
			e.key = appendKeyInt(e.key, b.cols[kp.col].Ints[r])
		case kp.t == TFloat:
			e.key = appendKeyFloat(e.key, b.cols[kp.col].Flts[r])
		default:
			e.key = appendKeyStr(e.key, b.cols[kp.col].Strs[r])
		}
	}
	return hashBytes(e.key)
}

// batchSink is phase 1's batch entry: per chunk it evaluates the aggregate
// inputs as vector kernels over the selected rows, resolves each row's
// group, and folds the rows afterwards, one loop per aggregate over the
// chunk's vectors. On a worker that promotes within the chunk, the rows
// before the promoting one fold into the one table before it moves. On a
// promoted worker, rows whose partition table differs from the chunk's
// first group's are merged on the spot with their inputs. Rows reach every
// accumulator in scan order, so the sums are bit-identical to the row
// sink's.
func (rt *aggRuntime) batchSink(pc *pipeCtx) func(e *Ectx, b *colBatch) {
	w := rt.sinkWeight()
	keys := make([]keyPart, len(rt.groups))
	for i, g := range rt.groups {
		keys[i] = keyPart{t: rt.groupTypes[i], col: -1}
		if g.E.kind == eCol {
			k, _ := pc.lookup(g.E.name)
			keys[i].col = pc.scanCols[k]
		} else {
			keys[i].fn, _, keys[i].fill = pc.rowEval(g.E)
		}
	}
	prog := &vecProg{pc: pc}
	slots := make([]int, len(rt.aggs)) // -1: the aggregate folds no value
	for k, a := range rt.aggs {
		slots[k] = -1
		if a.E != nil && a.Kind != AggCount {
			slots[k] = prog.slot(a.E)
		}
	}
	pc.vecSlots = len(prog.exprs)
	globalHash := hashBytes(nil)
	return func(e *Ectx, b *colBatch) {
		rows := b.rows()
		if rows == 0 {
			return
		}
		e.cpuUnits += w * float64(rows)
		for _, step := range prog.steps {
			step(e, b)
		}
		l := &rt.locals[e.W.ID]
		if len(keys) == 0 {
			tab := rt.table(l)
			g := tab.find(globalHash, nil)
			if g < 0 {
				g = tab.insert(globalHash, nil)
			}
			for k, sl := range slots {
				if sl >= 0 {
					tab.foldInto(g, k, e.vecs[sl][:rows])
				}
			}
			tab.counts[g] += int64(rows)
			return
		}
		gids := e.gids[:rows]
		j := 0
		if l.parts == nil {
			tab := rt.table(l)
			for ; j < rows; j++ {
				h := encodeKey(e, keys, b, j)
				g := tab.find(h, e.key)
				if g < 0 {
					if rt.full(tab) {
						break
					}
					g = tab.insert(h, e.key)
				}
				gids[j] = int32(g)
			}
			foldRows(tab, slots, e.vecs, gids[:j], 0)
			if j == rows {
				return
			}
			rt.promote(e, l)
		}
		if cap(e.tuple) < len(slots) {
			e.tuple = make([]float64, len(slots))
		}
		tuple := e.tuple[:len(slots)]
		clear(tuple)
		var folded *groupTable
		for k := j; k < rows; k++ {
			tab, g := rt.partGroup(e, l, encodeKey(e, keys, b, k), e.key)
			switch {
			case folded == nil:
				folded = tab
			case tab != folded:
				tab.merge(g, rowTuple(tuple, slots, e.vecs, k), 1)
				g = -1
			}
			gids[k] = int32(g)
		}
		foldRows(folded, slots, e.vecs, gids[j:], j)
	}
}

// foldRows folds the chunk's rows off, off+1, ... into tab: gids holds
// their entries, negative for rows already merged elsewhere.
func foldRows(tab *groupTable, slots []int, vecs [][]float64, gids []int32, off int) {
	for k, sl := range slots {
		if sl >= 0 {
			tab.fold(gids, k, vecs[sl][off:off+len(gids)])
		}
	}
	for _, g := range gids {
		if g >= 0 {
			tab.counts[g]++
		}
	}
}

// rowTuple fills tuple with row j's aggregate inputs from the slots'
// vectors.
func rowTuple(tuple []float64, slots []int, vecs [][]float64, j int) []float64 {
	for k, sl := range slots {
		if sl >= 0 {
			tuple[k] = vecs[sl][j]
		}
	}
	return tuple
}

// produceAgg compiles the two-phase parallel aggregation (§4.4).
func (c *compiler) produceAgg(n *Node, f consumerFactory) []tailJob {
	rt := c.newAggRuntime(n)
	return rt.phase2(n.child.produce(c, rt.consumer), f)
}
