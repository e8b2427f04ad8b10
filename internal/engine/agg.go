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

// sink compiles the phase-1 front half both engines share: per row it
// encodes the group key into e.key, evaluates the aggregate inputs into
// the worker's tuple scratch, charges the CPU weight, and hands the key's
// hash and the tuple to absorb.
func (rt *aggRuntime) sink(pc *pipeCtx, absorb func(e *Ectx, h uint64, tuple []float64)) rowFn {
	groupFns := make([]evalFn, len(rt.groups))
	w := 2.0
	for i, g := range rt.groups {
		groupFns[i], _ = g.E.compile(pc)
		w += g.E.weight() * exprNodeWeight
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
		w += a.E.weight() * exprNodeWeight
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
	down := f(pc2)
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

// produceAgg compiles the paper's two-phase parallel aggregation: phase 1
// pre-aggregates heavy hitters in a fixed-size thread-local table and
// spills cold keys to hash partitions; phase 2 assigns each partition to
// one worker (§4.4).
func (c *compiler) produceAgg(n *Node, f consumerFactory) []tailJob {
	rt := c.newAggRuntime(n)
	capacity := DefaultPreAggCapacity
	locals := make([]*groupTable, c.workers)
	spills := make([][]groupRows, c.workers) // [worker][partition]
	spillOf := func(wid, pid int) *groupRows {
		if spills[wid] == nil {
			spills[wid] = make([]groupRows, aggNumPartitions)
			for p := range spills[wid] {
				spills[wid][p].aggs = rt.aggs
			}
		}
		return &spills[wid][pid]
	}
	rowW := int64(rowWidth(n.out))

	tails := n.child.produce(c, func(pc *pipeCtx) rowFn {
		return rt.sink(pc, func(e *Ectx, h uint64, tuple []float64) {
			wid := e.W.ID
			local := locals[wid]
			if local == nil {
				local = newGroupTable(rt.aggs)
				locals[wid] = local
			}
			g := local.find(h, e.key)
			if g < 0 {
				if local.len() >= capacity {
					// Cold key: the local table is full; route the
					// single-tuple partial straight to its overflow
					// partition, without creating a group.
					buf := spillOf(wid, aggPartition(h))
					buf.merge(buf.add(h, e.key), tuple, 1)
					e.writeBytes += rowW
					return
				}
				g = local.insert(h, e.key)
			}
			local.merge(g, tuple, 1)
		})
	})

	return rt.phase2("aggregate", tails, f,
		func() {
			// Flush every worker's pre-aggregation table into the
			// overflow partitions; afterwards the partitions hold the
			// complete grouped data.
			for wid, local := range locals {
				if local == nil {
					continue
				}
				for g, h := range local.hashes {
					buf := spillOf(wid, aggPartition(h))
					buf.merge(buf.add(h, local.key(g)), local.accsOf(g), local.counts[g])
				}
			}
		},
		func() int64 {
			var total int64
			for wid := range spills {
				for p := range spills[wid] {
					total += int64(spills[wid][p].len())
				}
				if locals[wid] != nil {
					total += int64(locals[wid].len())
				}
			}
			return total
		},
		func(wid, pid int) *groupRows {
			if spills[wid] == nil {
				return nil
			}
			return &spills[wid][pid]
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

	tails := n.child.produce(c, func(pc *pipeCtx) rowFn {
		return rt.sink(pc, func(e *Ectx, h uint64, tuple []float64) {
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
		})
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
