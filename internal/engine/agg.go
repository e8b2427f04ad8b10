package engine

import (
	"repro/internal/dispatch"
	"repro/internal/numa"
	"repro/internal/storage"
)

// aggNumPartitions is the number of overflow partitions ("more partitions
// than worker threads", §4.4).
const aggNumPartitions = 64

// DefaultPreAggCapacity is the size of the fixed, thread-local
// pre-aggregation hash table; keys beyond it spill to overflow
// partitions. Tests shrink it to force spilling.
var DefaultPreAggCapacity = 1 << 14

// aggRuntime is the state both aggregation engines share: the typed
// grouping and aggregate definitions, and the phase-2 job that merges one
// hash partition per task.
type aggRuntime struct {
	c          *compiler
	groups     []NamedExpr
	groupTypes []Type
	aggs       []AggDef
	outTypes   []Type
}

func (c *compiler) newAggRuntime(n *Node) *aggRuntime {
	rt := &aggRuntime{c: c, groups: n.groups, aggs: n.aggs}
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

// aggEngine is what sets the two aggregation engines apart in phase 1:
// where a row lands once its group key is encoded and hashed (h).
type aggEngine interface {
	// group returns the table the key aggregates into on this worker and
	// its group there, creating the group where the engine has room; g < 0
	// means the key is cold, and spill takes the row.
	group(e *Ectx, h uint64, key []byte) (tab *groupTable, g int)
	// spill takes a row of a cold key, with its aggregate inputs.
	spill(e *Ectx, h uint64, key []byte, tuple []float64)
}

// sink compiles phase 1's row entry, which both engines share: per row it
// encodes the group key into e.key, evaluates the aggregate inputs into
// the worker's tuple scratch, charges the CPU weight, and lands the row.
func (rt *aggRuntime) sink(pc *pipeCtx, eng aggEngine) rowFn {
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
		if tab, g := eng.group(e, h, e.key); g >= 0 {
			tab.merge(g, tuple, 1)
		} else {
			eng.spill(e, h, e.key, tuple)
		}
	}
}

// consumer returns phase 1's entry into pc: the batch sink when every
// register of pc is a column the scan reads — nothing but (zero-cost)
// projections and batch semi or anti probes sit between the scan and the
// aggregation — and the row sink otherwise.
func (rt *aggRuntime) consumer(pc *pipeCtx, eng aggEngine) consumer {
	if pc.scanCols != nil && !pc.rowOnly && len(pc.regs) == len(pc.scanCols) {
		return consumer{batch: rt.batchSink(pc, eng)}
	}
	return consumer{row: rt.sink(pc, eng)}
}

// phase2 compiles the partition-wise final aggregation both engines
// share: each task merges one hash partition of every worker's phase-1
// output (source(worker, partition), nil when empty) into a worker-local
// table and immediately pushes the finished groups into the consuming
// pipeline while they are cache hot (§4.4). setup runs at activation,
// after phase 1; pending reports the phase-1 entry count a plan-driven
// exchange would hand over.
func (rt *aggRuntime) phase2(name string, tails []tailJob, f consumerFactory,
	setup func(), pending func() int64, source func(wid, pid int) *groupRows) []tailJob {
	c := rt.c
	if c.sess.PlanDriven {
		// Volcano: serialized hand-off of the repartitioned partial
		// aggregates. A Volcano-style parallel aggregation exchanges
		// partial aggregates, not raw input rows, so the traffic is
		// charged here, not per row.
		tails = []tailJob{c.serialBarrier("exchange(agg)", tails, pending)}
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
	job := c.q.AddJob(name,
		func() []*storage.Partition {
			if setup != nil {
				setup()
			}
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
				tab = newGroupTable(rt.aggs)
				merged[w.ID] = tab
			}
			tab.reset()
			topo := w.Tracker.Machine().Topo
			for wid := 0; wid < c.workers; wid++ {
				var readBytes int64
				for pid := lo; pid < hi; pid++ {
					if src := source(wid, pid); src != nil {
						readBytes += tab.mergeFrom(src)
					}
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

// sharedAgg is the phase-1 state of the two-phase aggregation: one
// capacity-capped pre-aggregation table per worker, and the overflow
// partitions cold keys spill to.
type sharedAgg struct {
	rt       *aggRuntime
	capacity int
	locals   []*groupTable
	spills   [][]groupRows // [worker][partition]
	rowW     int64         // modelled bytes of one spilled row
}

func (c *compiler) newSharedAgg(n *Node) *sharedAgg {
	return &sharedAgg{
		rt: c.newAggRuntime(n), capacity: DefaultPreAggCapacity,
		locals: make([]*groupTable, c.workers),
		spills: make([][]groupRows, c.workers),
		rowW:   int64(rowWidth(n.out)),
	}
}

func (s *sharedAgg) local(wid int) *groupTable {
	if s.locals[wid] == nil {
		s.locals[wid] = newGroupTable(s.rt.aggs)
	}
	return s.locals[wid]
}

func (s *sharedAgg) spillOf(wid, pid int) *groupRows {
	if s.spills[wid] == nil {
		s.spills[wid] = make([]groupRows, aggNumPartitions)
		for p := range s.spills[wid] {
			s.spills[wid][p].aggs = s.rt.aggs
		}
	}
	return &s.spills[wid][pid]
}

// group finds the key's group in the worker's pre-aggregation table,
// creating it while the table has room; a key that finds none is cold.
func (s *sharedAgg) group(e *Ectx, h uint64, key []byte) (*groupTable, int) {
	local := s.local(e.W.ID)
	g := local.find(h, key)
	if g < 0 && local.len() < s.capacity {
		g = local.insert(h, key)
	}
	return local, g
}

// spill routes the single-tuple partial of a cold key straight to its
// overflow partition, without creating a group.
func (s *sharedAgg) spill(e *Ectx, h uint64, key []byte, tuple []float64) {
	buf := s.spillOf(e.W.ID, aggPartition(h))
	buf.merge(buf.add(h, key), tuple, 1)
	e.writeBytes += s.rowW
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

// batchSink is phase 1's batch entry, which both engines share: per chunk
// it evaluates the aggregate inputs as vector kernels over the selected
// rows, then resolves each row's group key and lands the row. Rows whose
// group lies in the table the chunk's first group does (for the shared
// engine, every group) are folded afterwards, one loop per aggregate over
// the chunk's vectors; any other row is merged or spilled on the spot with
// its inputs. Rows reach every accumulator in scan order, so the sums are
// bit-identical to the row sink's.
func (rt *aggRuntime) batchSink(pc *pipeCtx, eng aggEngine) func(e *Ectx, b *colBatch) {
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
		if len(keys) == 0 {
			if tab, g := eng.group(e, globalHash, nil); g >= 0 {
				for k, sl := range slots {
					if sl >= 0 {
						tab.foldInto(g, k, e.vecs[sl][:rows])
					}
				}
				tab.counts[g] += int64(rows)
				return
			}
			// Only a zero-capacity table sends the one global group down
			// the row-by-row path below.
		}
		if cap(e.tuple) < len(slots) {
			e.tuple = make([]float64, len(slots))
		}
		tuple := e.tuple[:len(slots)]
		clear(tuple)
		var folded *groupTable
		gids := e.gids[:rows]
		for j := range gids {
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
			h := hashBytes(e.key)
			tab, g := eng.group(e, h, e.key)
			switch {
			case g < 0:
				eng.spill(e, h, e.key, rowTuple(tuple, slots, e.vecs, j))
			case folded == nil:
				folded = tab
			case tab != folded:
				tab.merge(g, rowTuple(tuple, slots, e.vecs, j), 1)
				g = -1
			}
			gids[j] = int32(g)
		}
		if folded == nil {
			return
		}
		for k, sl := range slots {
			if sl >= 0 {
				folded.fold(gids, k, e.vecs[sl][:rows])
			}
		}
		for _, g := range gids {
			if g >= 0 {
				folded.counts[g]++
			}
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

// produceAgg compiles the paper's two-phase parallel aggregation: phase 1
// pre-aggregates heavy hitters in a fixed-size thread-local table and
// spills cold keys to hash partitions; phase 2 assigns each partition to
// one worker (§4.4).
func (c *compiler) produceAgg(n *Node, f consumerFactory) []tailJob {
	s := c.newSharedAgg(n)
	rt := s.rt
	tails := n.child.produce(c, func(pc *pipeCtx) consumer { return rt.consumer(pc, s) })

	return rt.phase2("aggregate", tails, f,
		func() {
			// Flush every worker's pre-aggregation table into the
			// overflow partitions; afterwards the partitions hold the
			// complete grouped data.
			for wid, local := range s.locals {
				if local == nil {
					continue
				}
				for g, h := range local.hashes {
					buf := s.spillOf(wid, aggPartition(h))
					buf.merge(buf.add(h, local.key(g)), local.accsOf(g), local.counts[g])
				}
			}
		},
		func() int64 {
			var total int64
			for wid := range s.spills {
				for p := range s.spills[wid] {
					total += int64(s.spills[wid][p].len())
				}
				if s.locals[wid] != nil {
					total += int64(s.locals[wid].len())
				}
			}
			return total
		},
		func(wid, pid int) *groupRows {
			if s.spills[wid] == nil {
				return nil
			}
			return &s.spills[wid][pid]
		})
}

// partAgg is the phase-1 state of the partitioned aggregation alternative
// (Memarzia et al., "Toward Efficient In-memory Data Analytics on NUMA
// Systems"): every group goes straight into one of aggNumPartitions
// per-worker tables selected by the group hash — no capacity cap and no
// separate spill path, trading per-worker memory for never evicting hot
// keys. parts[worker][partition] is a private table: workers never share
// tables in phase 1, partitions never share workers in phase 2.
type partAgg struct {
	rt    *aggRuntime
	parts [][]*groupTable
	rowW  int64 // modelled bytes of one new group
}

func (c *compiler) newPartAgg(n *Node) *partAgg {
	return &partAgg{rt: c.newAggRuntime(n), parts: make([][]*groupTable, c.workers), rowW: int64(rowWidth(n.out))}
}

// group finds or creates the key's group in its partition's table.
func (p *partAgg) group(e *Ectx, h uint64, key []byte) (*groupTable, int) {
	wid := e.W.ID
	if p.parts[wid] == nil {
		p.parts[wid] = make([]*groupTable, aggNumPartitions)
	}
	pid := aggPartition(h)
	tab := p.parts[wid][pid]
	if tab == nil {
		tab = newGroupTable(p.rt.aggs)
		p.parts[wid][pid] = tab
	}
	g := tab.find(h, key)
	if g < 0 {
		g = tab.insert(h, key)
		e.writeBytes += p.rowW
	}
	return tab, g
}

func (p *partAgg) spill(*Ectx, uint64, []byte, []float64) {
	panic("engine: the partitioned aggregation has no cold keys")
}

// producePartitionedAgg compiles the partitioned aggregation: partAgg's
// phase 1, then the shared engine's phase 2. The physical-selection phase
// picks it for high group cardinality, where the shared table's capacity
// cap would spill most keys as single-tuple partials anyway.
func (c *compiler) producePartitionedAgg(n *Node, f consumerFactory) []tailJob {
	if len(n.groups) == 0 {
		panic("engine: partitioned aggregation requires group keys")
	}
	p := c.newPartAgg(n)
	tails := n.child.produce(c, func(pc *pipeCtx) consumer { return p.rt.consumer(pc, p) })

	return p.rt.phase2("aggregate-part", tails, f, nil,
		func() int64 {
			var total int64
			for wid := range p.parts {
				for _, tab := range p.parts[wid] {
					if tab != nil {
						total += int64(tab.len())
					}
				}
			}
			return total
		},
		func(wid, pid int) *groupRows {
			if p.parts[wid] == nil || p.parts[wid][pid] == nil {
				return nil
			}
			return &p.parts[wid][pid].groupRows
		})
}
