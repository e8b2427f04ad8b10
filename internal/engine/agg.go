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

// sink compiles the phase-1 front half both engines share: per row it
// encodes the group key into e.key, evaluates the aggregate inputs into
// the worker's tuple scratch, charges the CPU weight, and hands the key's
// hash and the tuple to absorb.
func (rt *aggRuntime) sink(pc *pipeCtx, absorb func(e *Ectx, h uint64, tuple []float64)) rowFn {
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
		absorb(e, hashBytes(e.key), tuple)
	}
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

// group returns the key's group in the worker's table, creating it while
// the table has room; -1 means the key is cold.
func (s *sharedAgg) group(local *groupTable, h uint64, key []byte) int {
	g := local.find(h, key)
	if g < 0 && local.len() < s.capacity {
		g = local.insert(h, key)
	}
	return g
}

// spill routes the single-tuple partial of a cold key (in e.key) straight
// to its overflow partition, without creating a group.
func (s *sharedAgg) spill(e *Ectx, h uint64, tuple []float64) {
	buf := s.spillOf(e.W.ID, aggPartition(h))
	buf.merge(buf.add(h, e.key), tuple, 1)
	e.writeBytes += s.rowW
}

func (s *sharedAgg) absorb(e *Ectx, h uint64, tuple []float64) {
	local := s.local(e.W.ID)
	if g := s.group(local, h, e.key); g >= 0 {
		local.merge(g, tuple, 1)
	} else {
		s.spill(e, h, tuple)
	}
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

// batchSink is phase 1 for an aggregation sitting directly on a scan
// pipeline: per chunk it evaluates the aggregate inputs as vector kernels
// over the selected rows, resolves each row's group against the worker's
// table (spilling cold keys row by row exactly as absorb does), then folds
// each aggregate's vector in one loop. Rows reach every accumulator in
// scan order, so the sums are bit-identical to the row sink's.
func (s *sharedAgg) batchSink(pc *pipeCtx) func(e *Ectx, b *colBatch) {
	rt := s.rt
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
	tuples := make([][]float64, rt.c.workers)
	return func(e *Ectx, b *colBatch) {
		rows := b.rows()
		if rows == 0 {
			return
		}
		e.cpuUnits += w * float64(rows)
		for _, step := range prog.steps {
			step(e, b)
		}
		local := s.local(e.W.ID)
		if len(keys) == 0 {
			e.key = e.key[:0]
			if g := s.group(local, globalHash, e.key); g >= 0 {
				for k, sl := range slots {
					if sl >= 0 {
						local.foldInto(g, k, e.vecs[sl][:rows])
					}
				}
				local.counts[g] += int64(rows)
				return
			}
			// Only a zero-capacity table sends the one global group down
			// the cold path below, row by row.
		}
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
			g := s.group(local, h, e.key)
			if g < 0 {
				tuple := tuples[e.W.ID]
				if tuple == nil {
					tuple = make([]float64, len(slots))
					tuples[e.W.ID] = tuple
				}
				for k, sl := range slots {
					if sl >= 0 {
						tuple[k] = e.vecs[sl][j]
					}
				}
				s.spill(e, h, tuple)
			}
			gids[j] = int32(g)
		}
		for k, sl := range slots {
			if sl >= 0 {
				local.fold(gids, k, e.vecs[sl][:rows])
			}
		}
		for _, g := range gids {
			if g >= 0 {
				local.counts[g]++
			}
		}
	}
}

// produceAgg compiles the paper's two-phase parallel aggregation: phase 1
// pre-aggregates heavy hitters in a fixed-size thread-local table and
// spills cold keys to hash partitions; phase 2 assigns each partition to
// one worker (§4.4).
func (c *compiler) produceAgg(n *Node, f consumerFactory) []tailJob {
	s := c.newSharedAgg(n)
	rt := s.rt
	tails := n.child.produce(c, func(pc *pipeCtx) consumer {
		cons := consumer{row: rt.sink(pc, s.absorb)}
		if pc.scanCols != nil && len(pc.regs) == len(pc.scanCols) {
			// Every register is a scan column, so nothing but (zero-cost)
			// projections can sit between the scan and this sink.
			cons.batch = s.batchSink(pc)
		}
		return cons
	})

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

// producePartitionedAgg compiles the partitioned aggregation alternative
// (Memarzia et al., "Toward Efficient In-memory Data Analytics on NUMA
// Systems"): phase 1 routes every group straight into one of
// aggNumPartitions per-worker tables selected by the group hash — no
// capacity cap and no separate spill path, trading per-worker memory for
// never evicting hot keys; phase 2 is the shared engine's. The
// physical-selection phase picks it for high group cardinality, where the
// shared table's capacity cap would spill most keys as single-tuple
// partials anyway.
func (c *compiler) producePartitionedAgg(n *Node, f consumerFactory) []tailJob {
	if len(n.groups) == 0 {
		panic("engine: partitioned aggregation requires group keys")
	}
	rt := c.newAggRuntime(n)
	// parts[worker][partition] is a private table: workers never share
	// tables in phase 1, partitions never share workers in phase 2.
	parts := make([][]*groupTable, c.workers)
	rowW := int64(rowWidth(n.out))

	tails := n.child.produce(c, func(pc *pipeCtx) consumer {
		return consumer{row: rt.sink(pc, func(e *Ectx, h uint64, tuple []float64) {
			wid := e.W.ID
			if parts[wid] == nil {
				parts[wid] = make([]*groupTable, aggNumPartitions)
			}
			pid := aggPartition(h)
			tab := parts[wid][pid]
			if tab == nil {
				tab = newGroupTable(rt.aggs)
				parts[wid][pid] = tab
			}
			g := tab.find(h, e.key)
			if g < 0 {
				g = tab.insert(h, e.key)
				e.writeBytes += rowW
			}
			tab.merge(g, tuple, 1)
		})}
	})

	return rt.phase2("aggregate-part", tails, f, nil,
		func() int64 {
			var total int64
			for wid := range parts {
				for _, tab := range parts[wid] {
					if tab != nil {
						total += int64(tab.len())
					}
				}
			}
			return total
		},
		func(wid, pid int) *groupRows {
			if parts[wid] == nil || parts[wid][pid] == nil {
				return nil
			}
			return &parts[wid][pid].groupRows
		})
}
