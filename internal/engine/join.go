package engine

import (
	"fmt"
	"sync/atomic"

	"repro/internal/dispatch"
	"repro/internal/hashtable"
	"repro/internal/numa"
	"repro/internal/storage"
)

// joinRuntime holds the shared state of one hash join: the build-side
// storage areas (tuples stay where workers materialized them, NUMA-local)
// and the global tagged hash table, which is interleaved across sockets
// because all sockets probe it (§4.1/§4.2).
type joinRuntime struct {
	kind     JoinKind
	keyTypes []Type

	buildSchema []Reg
	areas       *storage.AreaSet
	nBuildCols  int // leading area columns = build schema
	idxKey      int // first key column
	idxHash     int
	idxNext     int
	idxMark     int

	ht *hashtable.Table
	// cacheResident is true when the slot array plus build tuples fit
	// in the last-level cache: probes then cost CPU cycles rather than
	// memory traffic (§4.1: selective joins against cache-resident
	// dimension tables are the common fast case).
	cacheResident bool
}

func encodeRef(worker, row int) hashtable.Ref {
	return hashtable.Ref(uint64(worker+1)<<32 | uint64(uint32(row)))
}

func decodeRef(r hashtable.Ref) (worker, row int) {
	return int(uint64(r)>>32) - 1, int(uint32(uint64(r)))
}

// produceJoin compiles build side then probe side. The build is the
// paper's two-phase algorithm: phase 1 materializes filtered build tuples
// into per-worker NUMA-local areas (no synchronization); phase 2 scans
// those areas morsel-wise and CAS-inserts pointers into a perfectly sized
// global hash table.
func (c *compiler) produceJoin(n *Node, f consumerFactory) []tailJob {
	rt := &joinRuntime{
		kind:        n.joinKind,
		buildSchema: n.build.out,
		nBuildCols:  len(n.build.out),
	}
	rt.keyTypes = make([]Type, len(n.buildKeys))
	for i, bk := range n.buildKeys {
		rt.keyTypes[i] = typeOf(bk, n.build.out)
	}
	rt.idxKey = rt.nBuildCols
	rt.idxHash = rt.idxKey + len(rt.keyTypes)
	rt.idxNext = rt.idxHash + 1
	rt.idxMark = rt.idxNext + 1

	areaSchema := make(storage.Schema, 0, rt.idxMark+1)
	for _, r := range n.build.out {
		areaSchema = append(areaSchema, storage.ColDef{Name: r.Name, Type: r.Type.colType()})
	}
	for i, t := range rt.keyTypes {
		areaSchema = append(areaSchema, storage.ColDef{Name: joinKeyName(i), Type: t.colType()})
	}
	areaSchema = append(areaSchema,
		storage.ColDef{Name: "#hash", Type: storage.I64},
		storage.ColDef{Name: "#next", Type: storage.I64},
		storage.ColDef{Name: "#mark", Type: storage.I64},
	)
	rt.areas = storage.NewAreaSet(areaSchema, c.workers)
	jc := &joinCompiled{rt: rt}
	c.joins[n] = jc

	// ---- Build phase 1: materialize into NUMA-local areas.
	buildKeys := n.buildKeys
	planDriven := c.sess.PlanDriven
	buildTails := n.build.produce(c, func(pc *pipeCtx) consumer {
		keyFns := make([]evalFn, len(buildKeys))
		keyW := 0.0
		for i, bk := range buildKeys {
			keyFns[i], _ = bk.compile(pc)
			keyW += bk.weight() * exprNodeWeight
		}
		// The build schema columns resolve by name in this pipeline.
		srcIdx := make([]int, rt.nBuildCols)
		for i, r := range rt.buildSchema {
			srcIdx[i], _ = pc.resolve(r.Name)
		}
		types := rt.keyTypes
		width := rowWidth(rt.buildSchema) + float64(8*(len(types)+3))
		sidx := pc.addScratch(len(types))
		return consumer{row: func(e *Ectx) {
			a := rt.areas.ForWorker(e.W.ID, e.W.Socket())
			cols := a.Cols
			for i, si := range srcIdx {
				appendVal(cols[i], rt.buildSchema[i].Type, e.Regs[si])
			}
			kv := e.scratch[sidx]
			for i, fn := range keyFns {
				kv[i] = fn(e)
				appendVal(cols[rt.idxKey+i], types[i], kv[i])
			}
			h := hashVals(types, kv)
			cols[rt.idxHash].AppendI64(int64(h))
			cols[rt.idxNext].AppendI64(0)
			cols[rt.idxMark].AppendI64(0)
			e.cpuUnits += 2 + keyW
			e.writeBytes += int64(width)
			if planDriven {
				// Volcano emulation: an exchange operator
				// repartitions build tuples by hash across
				// threads — an extra copy that crosses sockets.
				e.writeBytes += int64(width)
				e.shuffleBytes += int64(width)
			}
		}}
	})

	if planDriven {
		// Volcano: the exchange repartitioning the build input has a
		// serialized hand-off before the parallel consumers start.
		barrier := c.serialBarrier("exchange(build)", buildTails,
			func() int64 { return int64(rt.areas.TotalRows()) })
		buildTails = []tailJob{barrier}
	}

	// ---- Build phase 2: size the table exactly, insert pointers.
	phase2 := c.q.AddJob("build-ht",
		func() []*storage.Partition {
			total := rt.areas.TotalRows()
			rt.ht = hashtable.New(total)
			entryBytes := int64(rowWidth(rt.buildSchema)) + int64(8*(len(rt.keyTypes)+3))
			rt.cacheResident = rt.ht.SizeBytes()+int64(total)*entryBytes <= c.sess.Machine.Cost.CacheBytes
			return rt.areas.Partitions()
		},
		func(w *dispatch.Worker, m storage.Morsel) {
			hashCol := m.Part.Cols[rt.idxHash].Ints
			nextCol := m.Part.Cols[rt.idxNext].Ints
			aw := m.Part.Worker
			for r := m.Begin; r < m.End; r++ {
				ref := encodeRef(aw, r)
				rt.ht.Insert(uint64(hashCol[r]), ref, func(next hashtable.Ref) {
					nextCol[r] = int64(next)
				})
			}
			rows := int64(m.Rows())
			w.Tracker.ReadSeq(m.Home(), rows*8)
			w.Tracker.WriteRand(numa.NoSocket, rows) // CAS into interleaved table
			w.Tracker.CPU(rows, 2)
		})
	phase2.After(buildTails...)

	// ---- Probe side: fully pipelined.
	probeKeys := n.probeKeys
	payload := n.payload
	residual := n.residual
	kind := n.joinKind
	tails := n.child.produce(c, func(pc *pipeCtx) consumer {
		pc.deps = append(pc.deps, phase2)
		keyFns := make([]evalFn, len(probeKeys))
		keyW := 0.0
		for i, pk := range probeKeys {
			keyFns[i], _ = pk.compile(pc)
			keyW += pk.weight() * exprNodeWeight
		}
		// Payload destinations (for semi/anti these are residual
		// scratch registers; for inner/mark/outer they are output
		// columns).
		srcPos := make([]int, len(payload))
		dstReg := make([]int, len(payload))
		for i, name := range payload {
			p, t := schemaResolver(rt.buildSchema).resolve(name)
			srcPos[i] = p
			dstReg[i] = pc.addReg(name, t)
		}
		var residualFn evalFn
		residualW := 0.0
		if residual != nil {
			fn, t := residual.compile(pc)
			mustBool(t, "join residual")
			residualFn = fn
			residualW = residual.weight() * exprNodeWeight
		}
		types := rt.keyTypes
		interleaved := pc.c.sockets
		sidx := pc.addScratch(len(types))
		down := f(pc).row
		return consumer{row: func(e *Ectx) {
			kv := e.scratch[sidx]
			for i, fn := range keyFns {
				kv[i] = fn(e)
			}
			h := hashVals(types, kv)
			e.cpuUnits += 1 + keyW
			if rt.cacheResident {
				e.cpuUnits += 2 // L3 hit
			} else {
				e.randLines[interleaved]++ // slot access (often the only one)
			}
			ref := rt.ht.Lookup(h)
			matched := false
			for ref != 0 {
				aw, row := decodeRef(ref)
				area := rt.areas.Areas[aw]
				cols := area.Cols
				next := hashtable.Ref(cols[rt.idxNext].Ints[row])
				if rt.cacheResident {
					e.cpuUnits += 2
				} else {
					e.chargeEntry(area.Home)
				}
				if uint64(cols[rt.idxHash].Ints[row]) != h || !keysEqual(kv, cols, rt.idxKey, types, row) {
					ref = next
					continue
				}
				for i := range payload {
					e.Regs[dstReg[i]] = loadVal(cols[srcPos[i]], rt.buildSchema[srcPos[i]].Type, row)
				}
				if residualFn != nil {
					e.cpuUnits += residualW
					if residualFn(e).I == 0 {
						ref = next
						continue
					}
				}
				matched = true
				switch kind {
				case JoinInner, JoinOuterProbe:
					down(e)
				case JoinMark:
					markCol := cols[rt.idxMark].Ints
					if atomic.LoadInt64(&markCol[row]) == 0 {
						atomic.StoreInt64(&markCol[row], 1)
					}
					down(e)
				case JoinSemi:
					down(e)
					return
				case JoinAnti:
					return
				}
				ref = next
			}
			if !matched {
				switch kind {
				case JoinAnti:
					down(e)
				case JoinOuterProbe:
					for i := range payload {
						e.Regs[dstReg[i]] = Val{}
					}
					down(e)
				}
			}
		}}
	})
	jc.probeTails = tails
	return tails
}

// produceUnmatched compiles the post-probe scan over unmatched build
// tuples of a JoinMark join.
func (c *compiler) produceUnmatched(n *Node, f consumerFactory) []tailJob {
	jc := c.joins[n.joinRef]
	if jc == nil || jc.probeTails == nil {
		panic("engine: Unmatched compiled before its join; order union inputs join-first")
	}
	rt := jc.rt
	pc := c.newPipe()
	srcPos := make([]int, len(n.cols))
	for i, name := range n.cols {
		p, t := schemaResolver(rt.buildSchema).resolve(name)
		srcPos[i] = p
		pc.addReg(name, t)
	}
	consume := f(pc).row
	job := c.q.AddJob("unmatched("+c.q.Name+")",
		func() []*storage.Partition { return rt.areas.Partitions() },
		func(w *dispatch.Worker, m storage.Morsel) {
			e := pc.ectx(w)
			e.reset(w)
			cols := m.Part.Cols
			marks := cols[rt.idxMark].Ints
			for r := m.Begin; r < m.End; r++ {
				if marks[r] != 0 {
					continue
				}
				for i, p := range srcPos {
					e.Regs[i] = loadVal(cols[p], rt.buildSchema[p].Type, r)
				}
				e.cpuUnits++
				consume(e)
			}
			w.Tracker.ReadSeq(m.Home(), m.Part.BytesRange(m.Begin, m.End, append([]int{rt.idxMark}, srcPos...)))
			e.flush()
		})
	job.After(jc.probeTails...)
	job.After(pc.deps...)
	return []tailJob{job}
}

func joinKeyName(i int) string { return fmt.Sprintf("#k%d", i) }

// keysEqual compares the probe key values against the build tuple's
// stored key columns.
func keysEqual(kv []Val, cols []*storage.Column, idxKey int, types []Type, row int) bool {
	for i, t := range types {
		c := cols[idxKey+i]
		switch t {
		case TInt:
			if c.Ints[row] != kv[i].I {
				return false
			}
		case TFloat:
			if c.Flts[row] != kv[i].F {
				return false
			}
		default:
			if c.Strs[row] != kv[i].S {
				return false
			}
		}
	}
	return true
}

// chargeEntry records the dependent cache-line access of fetching a build
// tuple from its storage area.
func (e *Ectx) chargeEntry(home numa.SocketID) {
	if home == numa.NoSocket {
		e.randLines[len(e.randLines)-1]++
		return
	}
	e.randLines[home]++
}

func appendVal(c *storage.Column, t Type, v Val) {
	switch t {
	case TInt:
		c.AppendI64(v.I)
	case TFloat:
		c.AppendF64(v.F)
	default:
		c.AppendStr(v.S)
	}
}

func loadVal(c *storage.Column, t Type, row int) Val {
	switch t {
	case TInt:
		return Val{I: c.Ints[row]}
	case TFloat:
		return Val{F: c.Flts[row]}
	default:
		return Val{S: c.Strs[row]}
	}
}
