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

// newJoinRuntime lays out the build areas of join n for the given number
// of workers: the build schema, the key columns, then #hash, #next and
// #mark.
func newJoinRuntime(n *Node, workers int) *joinRuntime {
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
	rt.areas = storage.NewAreaSet(areaSchema, workers)
	return rt
}

// entryBytes is the modelled size of one build tuple.
func (rt *joinRuntime) entryBytes() int64 {
	return int64(rowWidth(rt.buildSchema)) + int64(8*(len(rt.keyTypes)+3))
}

// produceJoin compiles build side then probe side. The build is the
// paper's two-phase algorithm: phase 1 materializes filtered build tuples
// into per-worker NUMA-local areas (no synchronization); phase 2 scans
// those areas morsel-wise and CAS-inserts pointers into a perfectly sized
// global hash table.
func (c *compiler) produceJoin(n *Node, f consumerFactory) []tailJob {
	rt := newJoinRuntime(n, c.workers)
	jc := &joinCompiled{rt: rt}
	c.joins[n] = jc

	// ---- Build phase 1: materialize into NUMA-local areas, a chunk at a
	// time where the build pipeline works on chunks, else a row at a time.
	planDriven := c.sess.PlanDriven
	charge := buildCharge{cpu: 2, bytes: rt.entryBytes(), planDriven: planDriven}
	for _, bk := range n.buildKeys {
		charge.cpu += bk.weight() * exprNodeWeight
	}
	buildTails := n.build.produce(c, func(pc *pipeCtx) consumer {
		if batch := rt.batchBuild(pc, n.buildKeys, charge); batch != nil {
			return consumer{batch: batch}
		}
		return consumer{row: rt.rowBuild(pc, n.buildKeys, charge)}
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
			rt.cacheResident = rt.ht.SizeBytes()+int64(total)*rt.entryBytes() <= c.sess.Machine.Cost.CacheBytes
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
	tails := n.child.produce(c, func(pc *pipeCtx) consumer {
		pc.deps = append(pc.deps, phase2)
		return rt.newProbe(pc, n, f)
	})
	jc.probeTails = tails
	return tails
}

// buildCharge is what phase 1 charges per materialized build row: CPU for
// the row and its key expressions, and the bytes it writes.
type buildCharge struct {
	cpu        float64
	bytes      int64
	planDriven bool
}

func (ch buildCharge) rows(e *Ectx, n int) {
	e.cpuUnits += ch.cpu * float64(n)
	e.writeBytes += ch.bytes * int64(n)
	if ch.planDriven {
		// Volcano emulation: an exchange operator repartitions build
		// tuples by hash across threads — an extra copy that crosses
		// sockets.
		e.writeBytes += ch.bytes * int64(n)
		e.shuffleBytes += ch.bytes * int64(n)
	}
}

// rowBuild returns phase 1's row entry: it appends the row's build schema
// registers and its evaluated keys, hashed by hashVals.
func (rt *joinRuntime) rowBuild(pc *pipeCtx, keys []*Expr, charge buildCharge) rowFn {
	keyFns := make([]evalFn, len(keys))
	for i, bk := range keys {
		keyFns[i], _ = bk.compile(pc)
	}
	// The build schema columns resolve by name in this pipeline.
	srcIdx := make([]int, rt.nBuildCols)
	for i, r := range rt.buildSchema {
		srcIdx[i], _ = pc.resolve(r.Name)
	}
	types := rt.keyTypes
	sidx := pc.addScratch(len(types))
	return func(e *Ectx) {
		cols := rt.areas.ForWorker(e.W.ID, e.W.Socket()).Cols
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
		charge.rows(e, 1)
	}
}

// batchBuild returns phase 1's entry for a chunk, or nil when pc hands on
// rows or a build key is computed. Each area column — the build schema,
// then the keys — is gathered for the selected rows straight from its
// source, the scanned partition or an earlier probe's build tuples (a nil
// ref reading as zero); the key hashes go into #hash from the loop the
// batch probe hashes with, and #next and #mark start at zero. Rows land in
// the order the row consumer would append them.
func (rt *joinRuntime) batchBuild(pc *pipeCtx, keys []*Expr, charge buildCharge) func(e *Ectx, b *colBatch) {
	if pc.scanCols == nil || pc.rowOnly {
		return nil
	}
	srcs := make([]regSrc, rt.idxHash)
	for i, r := range rt.buildSchema {
		k, _ := pc.lookup(r.Name)
		srcs[i] = pc.src(k)
	}
	for i, bk := range keys {
		if bk.kind != eCol {
			return nil
		}
		k, _ := pc.lookup(bk.name)
		srcs[rt.idxKey+i] = pc.src(k)
	}
	for _, src := range srcs {
		if src.col < 0 {
			return nil
		}
	}
	return func(e *Ectx, b *colBatch) {
		n := b.rows()
		if n == 0 {
			return
		}
		sel := b.sel
		if sel == nil {
			sel = identitySel[:n]
		}
		cols := rt.areas.ForWorker(e.W.ID, e.W.Socket()).Cols
		for i, src := range srcs {
			gather(cols[i], src, b, sel)
		}
		at := cols[rt.idxHash].Extend(n)
		hashKeys(rt.keyTypes, srcs[rt.idxKey:], b, sel, cols[rt.idxHash].Ints[at:])
		cols[rt.idxNext].Extend(n)
		cols[rt.idxMark].Extend(n)
		charge.rows(e, n)
	}
}

// gather appends src's value for each selected row of b to dst.
func gather(dst *storage.Column, src regSrc, b *colBatch, sel []int32) {
	at := dst.Extend(len(sel))
	if src.probe == nil {
		switch dst.Type {
		case storage.I64:
			gatherSel(dst.Ints[at:], b.ints(src.col), sel)
		case storage.F64:
			gatherSel(dst.Flts[at:], b.flts(src.col), sel)
		default:
			col := b.strs(src.col)
			for j, r := range sel {
				dst.SetStr(at+j, col[r])
			}
		}
		return
	}
	areas := src.probe.rt.areas.Areas
	for j, ref := range b.refs[src.probe.slot][:len(sel)] {
		if ref == 0 {
			continue // Extend wrote the zero value
		}
		aw, row := decodeRef(ref)
		switch c := areas[aw].Cols[src.col]; dst.Type {
		case storage.I64:
			dst.Ints[at+j] = c.Ints[row]
		case storage.F64:
			dst.Flts[at+j] = c.Flts[row]
		default:
			dst.SetStr(at+j, c.Strs[row])
		}
	}
}

func gatherSel[T any](out, col []T, sel []int32) {
	for j, r := range sel {
		out[j] = col[r]
	}
}

// probe is one hash join's probe side compiled into one pipeline. It has
// two entries and one body. The row entry takes the probe row from the
// registers. The batch entry takes a chunk of a column-sourced pipeline
// (kernel.go): it hashes the chunk's keys from their columns, tests every
// row against the tagged slot word before touching anything else, walks the
// survivors' chains, and passes on a pair list — (scan row, build ref) per
// output row — that the next probe of the pipeline narrows or expands in
// turn; registers are filled at the end of that chain only, for the rows
// that leave it and the registers a row consumer reads. Which entry a probe
// gets is fixed by the pipeline's shape at compile time, never by a
// setting. Both entries drive probe.next, where the match predicate and the
// per-kind emission rule live, and charge the cost model the same amounts.
type probe struct {
	rt   *joinRuntime
	em   emission
	sidx int // scratch slot of the probe key
	down consumer

	keyW, residualW float64
	interleaved     int

	payload  []colReg // every payload register
	residual evalFn
	resLoad  []colReg // the payload registers the residual reads

	// Batch entry only.
	slot    int      // position among the pipeline's batch probes
	keys    []regSrc // where each key column is read from
	resFill pairFill // probe-side registers the residual reads
	fill    pairFill // last batch probe of the chain: registers the row consumers read
}

// emission is what one probe row outputs, by join kind.
type emission struct {
	matches   uint8 // which of its matching build tuples
	unmatched bool  // the row itself with a nil ref when nothing matched
	mark      bool  // matched build tuples are marked (for Unmatched)
}

const (
	emitNone uint8 = iota
	emitFirst
	emitEvery
)

var emissions = [...]emission{
	JoinInner:      {matches: emitEvery},
	JoinSemi:       {matches: emitFirst},
	JoinAnti:       {matches: emitNone, unmatched: true},
	JoinMark:       {matches: emitEvery, mark: true},
	JoinOuterProbe: {matches: emitEvery, unmatched: true},
}

// newProbe compiles the join's probe into the pipeline pc and returns its
// entry. The probe works on batches when its input does — a column-sourced
// pipeline with nothing but batch probes above — and every key is a plain
// column, of the scan or of an earlier probe's payload; a key that has to
// be computed ends the chain and this probe and everything below it take
// rows.
func (rt *joinRuntime) newProbe(pc *pipeCtx, n *Node, f consumerFactory) consumer {
	p := &probe{rt: rt, em: emissions[n.joinKind], interleaved: pc.c.sockets, sidx: pc.addScratch(len(rt.keyTypes))}
	batch := pc.scanCols != nil && !pc.rowOnly
	for _, pk := range n.probeKeys {
		p.keyW += pk.weight() * exprNodeWeight
		batch = batch && pk.kind == eCol
	}
	var keyFns []evalFn
	if batch {
		p.slot = len(pc.probes)
		pc.probes = append(pc.probes, p)
		p.keys = make([]regSrc, len(n.probeKeys))
		for i, pk := range n.probeKeys {
			k, _ := pc.lookup(pk.name)
			p.keys[i] = pc.src(k)
		}
	} else {
		pc.rowOnly = true
		keyFns = make([]evalFn, len(n.probeKeys))
		for i, pk := range n.probeKeys {
			keyFns[i], _ = pk.compile(pc)
		}
	}
	// Payload registers: output columns of an inner, mark or outer join,
	// residual scratch of a semi or anti join.
	firstPayload := len(pc.regs)
	p.payload = make([]colReg, len(n.payload))
	for i, name := range n.payload {
		col, t := schemaResolver(rt.buildSchema).resolve(name)
		p.payload[i] = colReg{pc.addReg(name, t), col, t}
	}
	if n.residual != nil {
		// The residual runs on the row evaluator over the registers it
		// reads, and only those are loaded for it: its payload columns
		// from each candidate tuple, the probe side's by whoever feeds
		// this probe — upstream for rows, resFill for a batch.
		refs := &regRefs{pc: pc}
		fn, t := n.residual.compile(refs)
		mustBool(t, "join residual")
		p.residual, p.residualW = fn, n.residual.weight()*exprNodeWeight
		var probeSide []int
		for _, k := range refs.regs {
			if k >= firstPayload {
				p.resLoad = append(p.resLoad, p.payload[k-firstPayload])
			} else if batch {
				probeSide = append(probeSide, k)
			} else {
				pc.need(k)
			}
		}
		p.resFill = pc.pairFillFor(probeSide)
	}
	p.down = f(pc)
	if !batch {
		return consumer{row: p.rowEntry(keyFns)}
	}
	// Everything below is compiled now, so what it reads is known.
	if p.down.batch == nil {
		p.fill = pc.pairFillFor(pc.usedRegs(len(pc.used)))
	}
	return consumer{batch: p.batchEntry}
}

// chargeLookups charges n probe rows hashing their key and reading their
// slot word.
func (p *probe) chargeLookups(e *Ectx, n int) {
	e.cpuUnits += (1 + p.keyW) * float64(n)
	if p.rt.cacheResident {
		e.cpuUnits += 2 * float64(n) // L3 hit
	} else {
		e.randLines[p.interleaved] += int64(n) // slot access (often the only one)
	}
}

// chainPos is where one probe row stands in its chain.
type chainPos struct {
	rest    hashtable.Ref // the part not visited yet
	matched bool
}

// next continues the probe row with key kv, hashed h, from pos and returns
// the next build tuple it outputs; a nil ref with ok set is the unmatched
// row of an anti or outer join. This is the join: a chain entry matches
// when its stored hash, its key columns and the residual all agree, and
// what the row outputs given its matches is the kind's emission.
func (p *probe) next(e *Ectx, h uint64, kv []Val, pos *chainPos) (ref hashtable.Ref, ok bool) {
	rt := p.rt
	for ref := pos.rest; ref != 0; {
		aw, row := decodeRef(ref)
		area := rt.areas.Areas[aw]
		cols := area.Cols
		next := hashtable.Ref(cols[rt.idxNext].Ints[row])
		if rt.cacheResident {
			e.cpuUnits += 2
		} else {
			e.chargeEntry(area.Home)
		}
		if uint64(cols[rt.idxHash].Ints[row]) != h || !keysEqual(kv, cols, rt.idxKey, rt.keyTypes, row) ||
			p.residual != nil && !p.residualHolds(e, cols, row) {
			ref = next
			continue
		}
		pos.matched = true
		if p.em.mark {
			if mark := &cols[rt.idxMark].Ints[row]; atomic.LoadInt64(mark) == 0 {
				atomic.StoreInt64(mark, 1)
			}
		}
		switch p.em.matches {
		case emitEvery:
			pos.rest = next
			return ref, true
		case emitFirst:
			pos.rest = 0
			return ref, true
		default:
			pos.rest = 0
			return 0, false
		}
	}
	pos.rest = 0
	if p.em.unmatched && !pos.matched {
		pos.matched = true
		return 0, true
	}
	return 0, false
}

func (p *probe) residualHolds(e *Ectx, cols []*storage.Column, row int) bool {
	for _, pr := range p.resLoad {
		setVal(&e.Regs[pr.reg], cols[pr.col], pr.t, row)
	}
	e.cpuUnits += p.residualW
	return p.residual(e).I != 0
}

// load fills payload registers from the build tuple ref names; a nil ref
// (an outer join's unmatched row) reads as zero Vals.
func (rt *joinRuntime) load(e *Ectx, ref hashtable.Ref, regs []colReg) {
	if ref == 0 {
		for _, pr := range regs {
			e.Regs[pr.reg] = Val{}
		}
		return
	}
	aw, row := decodeRef(ref)
	cols := rt.areas.Areas[aw].Cols
	for _, pr := range regs {
		setVal(&e.Regs[pr.reg], cols[pr.col], pr.t, row)
	}
}

// rowEntry is the probe's entry for a pipeline that hands it rows.
func (p *probe) rowEntry(keyFns []evalFn) rowFn {
	rt, down := p.rt, p.down.row
	return func(e *Ectx) {
		kv := e.scratch[p.sidx]
		for i, fn := range keyFns {
			kv[i] = fn(e)
		}
		h := hashVals(rt.keyTypes, kv)
		p.chargeLookups(e, 1)
		pos := chainPos{rest: rt.ht.Lookup(h)}
		for ref, ok := p.next(e, h, kv, &pos); ok; ref, ok = p.next(e, h, kv, &pos) {
			rt.load(e, ref, p.payload)
			down(e)
			if pos.rest == 0 {
				break // it has output something, and the chain is at its end
			}
		}
	}
}

// batchEntry is the probe's entry for a chunk: three loops over the
// selected rows. The first hashes the keys straight from their columns;
// the second loads the slot words — independent loads, so their cache
// misses overlap — and applies the tag test, after which a row the tag
// rules out has cost one cache line and no register (for an anti or outer
// join those rows are output, so every row goes on); the third walks the
// chains and hands on the output pairs, in the order the row entry emits
// them: scan order, then chain order.
//
// A probe with another batch stage below it collects the pairs into a pair
// list — its own selection and ref lists — and when that is full flushes it
// downstream and resumes the walk, so scratch stays one chunk per probe.
// The last batch probe of the chain has no list to build: each pair leaves
// at once, its registers filled from the input's row and refs with this
// probe's ref beside them.
func (p *probe) batchEntry(e *Ectx, in *colBatch) {
	n := in.rows()
	if n == 0 {
		return
	}
	sel := in.sel
	if sel == nil {
		sel = identitySel[:n]
	}
	ps := e.probes[p.slot]
	hash, head := ps.hash[:n], ps.head[:n]
	hashKeys(p.rt.keyTypes, p.keys, in, sel, hash)
	p.chargeLookups(e, n)

	ht := p.rt.ht
	cand := identitySel[:n]
	if p.em.unmatched {
		for j, h := range hash {
			head[j] = ht.Lookup(h)
		}
	} else {
		cand = ps.cand[:n]
		k := 0
		for j, h := range hash {
			ref := ht.Lookup(h)
			head[j] = ref
			cand[k] = int32(j)
			if ref != 0 {
				k++
			}
		}
		cand = cand[:k]
	}

	out := &ps.out
	out.cols, out.base, out.n = in.cols, in.base, in.n
	// The output holds this probe's own ref list and, unless the rows leave
	// here, copies of the earlier probes' lists: slot+1 lists, laid out in
	// refBuf behind those of the probes before it.
	lists := e.refBuf[p.slot*(p.slot+1)/2*scanChunkRows:]
	own := lists[:scanChunkRows]
	out.refs[p.slot] = own
	last := p.down.batch == nil
	if last {
		out.sel = sel
		copy(out.refs, in.refs[:p.slot])
	} else {
		for t := range p.slot {
			out.refs[t] = lists[(t+1)*scanChunkRows:][:scanChunkRows]
		}
	}
	kv := e.scratch[p.sidx]
	k := 0 // pairs in the list
	for _, c := range cand {
		j := int(c)
		for i, src := range p.keys {
			if cols, row, ok := src.at(in, j); ok {
				setVal(&kv[i], cols[src.col], p.rt.keyTypes[i], row)
			} else {
				kv[i] = Val{}
			}
		}
		if p.residual != nil {
			p.resFill.row(e, in, j)
		}
		pos := chainPos{rest: head[j]}
		for ref, ok := p.next(e, hash[j], kv, &pos); ok; ref, ok = p.next(e, hash[j], kv, &pos) {
			ranDown := last
			if last {
				own[j] = ref
				p.fill.row(e, out, j)
				p.down.row(e)
			} else {
				if k == scanChunkRows {
					out.sel = ps.sel[:k]
					p.down.batch(e, out)
					k, ranDown = 0, true
				}
				ps.sel[k] = sel[j]
				for t := range p.slot {
					out.refs[t][k] = in.refs[t][j]
				}
				own[k] = ref
				k++
			}
			if pos.rest == 0 {
				break // it has output something, and the chain is at its end
			}
			if ranDown && p.residual != nil {
				p.resFill.row(e, in, j) // downstream has used the registers
			}
		}
	}
	if !last {
		out.sel = ps.sel[:k]
		p.down.batch(e, out)
	}
}

// hashKeys computes hashVals of every selected row's key (srcs, typed
// types), one loop per key column, into hash — the probe's vector, or a
// build area's #hash column.
func hashKeys[H uint64 | int64](types []Type, srcs []regSrc, b *colBatch, sel []int32, hash []H) {
	seed := uint64(hashSeed)
	for j := range hash {
		hash[j] = H(seed)
	}
	for i, src := range srcs {
		t := types[i]
		if src.probe != nil {
			// A payload column of an earlier probe: gathered through that
			// probe's refs, a nil ref reading as the zero value.
			refs, areas := b.refs[src.probe.slot], src.probe.rt.areas.Areas
			for j := range hash {
				var v Val
				if ref := refs[j]; ref != 0 {
					aw, row := decodeRef(ref)
					setVal(&v, areas[aw].Cols[src.col], t, row)
				}
				switch t {
				case TInt:
					hash[j] = H(mixWord(uint64(hash[j]), uint64(v.I)))
				case TFloat:
					hash[j] = H(mixWord(uint64(hash[j]), floatWord(v.F)))
				default:
					hash[j] = H(mixBytes(uint64(hash[j]), v.S))
				}
			}
			continue
		}
		switch t {
		case TInt:
			col := b.ints(src.col)
			for j, r := range sel {
				hash[j] = H(mixWord(uint64(hash[j]), uint64(col[r])))
			}
		case TFloat:
			col := b.flts(src.col)
			for j, r := range sel {
				hash[j] = H(mixWord(uint64(hash[j]), floatWord(col[r])))
			}
		default:
			col := b.strs(src.col)
			for j, r := range sel {
				hash[j] = H(mixBytes(uint64(hash[j]), col[r]))
			}
		}
	}
	for j, h := range hash {
		hash[j] = H(finishHash(uint64(h)))
	}
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
