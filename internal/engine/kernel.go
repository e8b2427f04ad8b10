package engine

import (
	"math"
	"slices"
	"sync"

	"repro/internal/hashtable"
	"repro/internal/storage"
)

// The scan front end works a morsel one fixed-size chunk at a time, on
// the partition's typed column slices rather than on Val registers. The
// fused scan filter is split into conjuncts, each compiled to a selection
// kernel that narrows a per-worker []int32 of surviving row offsets;
// registers are filled afterwards, for the survivors only (see
// scanMorselBody). A consumer that can work on column slices itself takes
// the chunk and its selection as a colBatch: the aggregation sink, which
// evaluates its expressions as vector kernels (vecProg below); a run of
// hash-join probes, which narrows or expands the selection and hands the
// chunk on with one build-tuple ref per selected row; and the join build,
// which gathers it into its storage area (join.go).
//
// The kernels are a second reading of the row evaluator in expr.go and
// must agree with it bit for bit: compileCmp's three-way comparator makes
// a NaN operand "equal" (it satisfies =, <=, >= and fails <>, <, >),
// BETWEEN is an IEEE <= chain a NaN always fails, an int operand compared
// with a float one is promoted with float64(), and int arithmetic wraps in
// 64 bits. kernel_test.go checks every kernel against the row closures.

// scanChunkRows is the number of rows a scan hands to its kernels at a
// time: small enough that the selection and a handful of float64 vectors
// stay in the L1/L2 cache, large enough to amortise one closure call per
// kernel per chunk.
const scanChunkRows = 2048

// identitySel is the selection of a whole chunk; the first kernel of a
// filtered scan narrows it into the worker's own buffer.
var identitySel = func() (s [scanChunkRows]int32) {
	for i := range s {
		s[i] = int32(i)
	}
	return s
}()

// scanScratch is the working memory of one worker inside one scan morsel:
// the selection the filter kernels narrow, for the aggregation sink the
// group of each selected row, its vectors and the inputs of a row it
// places, and for a chain of batch probes each probe's vectors. A morsel
// borrows it from a pool shared by all queries, so a scan allocates nothing
// per morsel and, in the steady state, nothing per query either; the probe
// vectors are attached the first time a pooled object serves a pipeline
// with that many probes, so scans without joins never carry them.
type scanScratch struct {
	// Pointers first: the collector scans an object only up to its last
	// pointer word, which keeps it out of the arrays below.
	batch  colBatch        // the chunk being worked on
	vecBuf []float64       // backing of the vectors, scanChunkRows per slot
	vecs   [][]float64     // current vector of each vecProg slot
	tuple  []float64       // one row's aggregate inputs
	probes []*probeScratch // one per batch probe of the pipeline
	refBuf []hashtable.Ref // backing of the probes' output ref lists

	sel  [scanChunkRows]int32
	gids [scanChunkRows]int32
}

// probeScratch holds the vectors of one batch probe over one chunk. Each
// probe of a chain has its own: a probe that flushes a full output
// downstream resumes afterwards where it stopped.
type probeScratch struct {
	out  colBatch                     // the output pair list (first, like scanScratch's pointers)
	hash [scanChunkRows]uint64        // key hash of each input row
	head [scanChunkRows]hashtable.Ref // its chain head; 0 = ruled out by the tag
	cand [scanChunkRows]int32         // input rows that go on to the chain walk
	sel  [scanChunkRows]int32         // selection of the output
}

var scanScratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

// borrowScanScratch takes a scratch with room for vecSlots vectors, and
// for `probes` batch probes, the i-th of which outputs up to i+1 ref lists.
func borrowScanScratch(vecSlots, probes int) *scanScratch {
	s := scanScratchPool.Get().(*scanScratch)
	if cap(s.vecs) < vecSlots {
		s.vecBuf = make([]float64, vecSlots*scanChunkRows)
		s.vecs = make([][]float64, vecSlots)
	}
	s.vecs = s.vecs[:vecSlots]
	for len(s.probes) < probes {
		s.probes = append(s.probes, new(probeScratch))
	}
	for _, ps := range s.probes[:probes] {
		if cap(ps.out.refs) < probes {
			ps.out.refs = make([][]hashtable.Ref, probes)
		}
		ps.out.refs = ps.out.refs[:probes]
	}
	if need := probes * (probes + 1) / 2 * scanChunkRows; len(s.refBuf) < need {
		s.refBuf = make([]hashtable.Ref, need)
	}
	return s
}

// release returns the scratch of a pipeline with the given number of batch
// probes, dropping what it holds of the partition first.
func (s *scanScratch) release(probes int) {
	clear(s.vecs) // they may alias column slices
	s.batch.cols = nil
	for _, ps := range s.probes[:probes] {
		ps.out.cols = nil
	}
	scanScratchPool.Put(s)
}

// colBatch is one chunk of a scan morsel: the partition's columns, the
// chunk's row range, and the rows the scan filter kept. Behind a batch
// probe it is a pair list: the selection may repeat a row (one entry per
// match), and refs holds each entry's build tuples.
type colBatch struct {
	cols []*storage.Column
	base int     // first row of the chunk
	n    int     // rows in the chunk
	sel  []int32 // kept row offsets from base, ascending (an expanding probe repeats one); nil = all n rows
	// refs[s][j], behind the pipeline's s-th batch probe, is the build
	// tuple that probe matched for the j-th selected row (0 = none, an
	// outer or anti join's unmatched row); a probe's output holds its own
	// list and the lists of every probe before it.
	refs [][]hashtable.Ref
}

// rows returns the number of selected rows.
func (b *colBatch) rows() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return b.n
}

// row returns the partition row of the j-th selected row.
func (b *colBatch) row(j int) int {
	if b.sel != nil {
		return b.base + int(b.sel[j])
	}
	return b.base + j
}

func (b *colBatch) ints(col int) []int64   { return b.cols[col].Ints[b.base : b.base+b.n] }
func (b *colBatch) flts(col int) []float64 { return b.cols[col].Flts[b.base : b.base+b.n] }
func (b *colBatch) strs(col int) []string  { return b.cols[col].Strs[b.base : b.base+b.n] }

// colReg says that register reg, of static type t, is loaded from column
// col — of the scanned partition, or of a join's build tuples.
type colReg struct {
	reg, col int
	t        Type
}

// regFill loads a set of scan registers for one row. A register's type
// never changes, so only the Val field of that type is ever written.
type regFill []colReg

// fillFor builds the fill of the given scan registers.
func (pc *pipeCtx) fillFor(regs []int) regFill {
	f := make(regFill, len(regs))
	for i, k := range regs {
		f[i].reg, f[i].col, f[i].t = k, pc.scanCols[k], pc.regs[k].Type
	}
	return f
}

func (f regFill) row(e *Ectx, cols []*storage.Column, r int) {
	for _, rc := range f {
		setVal(&e.Regs[rc.reg], cols[rc.col], rc.t, r)
	}
}

// setVal writes row r of a column into a register of static type t.
func setVal(v *Val, col *storage.Column, t Type, r int) {
	switch t {
	case TInt:
		v.I = col.Ints[r]
	case TFloat:
		v.F = col.Flts[r]
	default:
		v.S = col.Strs[r]
	}
}

// regSrc is where a batch stage reads a register's value from: a column of
// the scanned partition, or a column of the build tuple an earlier batch
// probe of the same pipeline matched. Registers an operator computes (Map,
// a row probe's payload) have no source; no batch stage runs behind those.
type regSrc struct {
	probe *probe // nil: the scan's partition
	col   int    // column of the partition / of the probe's build areas; -1: no source
}

// src returns the source of register k.
func (pc *pipeCtx) src(k int) regSrc {
	if k < len(pc.scanCols) {
		return regSrc{col: pc.scanCols[k]}
	}
	for _, p := range pc.probes {
		if len(p.payload) > 0 && k >= p.payload[0].reg && k-p.payload[0].reg < len(p.payload) {
			return regSrc{probe: p, col: p.payload[k-p.payload[0].reg].col}
		}
	}
	return regSrc{col: -1}
}

// at locates the source's tuple for the j-th selected row of b; ok is
// false where the probe matched nothing, which reads as the zero Val.
func (s regSrc) at(b *colBatch, j int) (cols []*storage.Column, row int, ok bool) {
	if s.probe == nil {
		return b.cols, b.row(j), true
	}
	ref := b.refs[s.probe.slot][j]
	if ref == 0 {
		return nil, 0, false
	}
	aw, row := decodeRef(ref)
	return s.probe.rt.areas.Areas[aw].Cols, row, true
}

// pairFill loads registers for one entry of a pair list: the scan-backed
// ones from the entry's partition row, the others probe by probe from the
// build tuple the entry's ref names.
type pairFill struct {
	scan  regFill
	built []probeRegs
}

// probeRegs are payload registers of one batch probe.
type probeRegs struct {
	probe *probe
	regs  []colReg
}

// pairFillFor builds the fill of those of the given registers that have a
// source.
func (pc *pipeCtx) pairFillFor(regs []int) (f pairFill) {
	for _, k := range regs {
		switch src := pc.src(k); {
		case src.col < 0:
		case src.probe == nil:
			f.scan = append(f.scan, colReg{k, src.col, pc.regs[k].Type})
		default:
			// Neighbouring registers of one probe share a group.
			if n := len(f.built); n == 0 || f.built[n-1].probe != src.probe {
				f.built = append(f.built, probeRegs{probe: src.probe})
			}
			g := &f.built[len(f.built)-1]
			g.regs = append(g.regs, colReg{k, src.col, pc.regs[k].Type})
		}
	}
	return f
}

func (f *pairFill) row(e *Ectx, b *colBatch, j int) {
	f.scan.row(e, b.cols, b.row(j))
	for _, g := range f.built {
		g.probe.rt.load(e, b.refs[g.probe.slot][j], g.regs)
	}
}

// regRefs resolves names like the pipeline does, but records which
// registers an expression reads instead of marking them as needed by a
// downstream consumer: a kernel that falls back to the row evaluator
// fills exactly these before each call.
type regRefs struct {
	pc   *pipeCtx
	regs []int
}

func (rr *regRefs) resolve(name string) (int, Type) {
	k, t := rr.pc.lookup(name)
	if !slices.Contains(rr.regs, k) {
		rr.regs = append(rr.regs, k)
	}
	return k, t
}

// rowEval compiles x for the row evaluator together with the fill of the
// registers it reads.
func (pc *pipeCtx) rowEval(x *Expr) (evalFn, Type, regFill) {
	refs := &regRefs{pc: pc}
	fn, t := x.compile(refs)
	return fn, t, pc.fillFor(refs.regs)
}

// ---- Selection kernels.

// selKernel narrows a selection: it copies to out the offsets in `in`
// whose rows satisfy the kernel's conjunct and returns how many it kept.
// out may be the same slice as in.
type selKernel func(e *Ectx, b *colBatch, in, out []int32) int

// Cost ranks of the typed kernels: cheaper ones run first, so the dearer
// ones see fewer rows.
const (
	rankNumeric = iota // int / float compares, BETWEEN, IN over ints
	rankStrEq          // string = / <>: mostly decided by the length
	rankStrIn          // IN over strings
	numRanks
)

// compileFilter splits a fused scan filter into its conjuncts and returns
// their kernels in evaluation order: the typed kernels by cost rank, then
// one generic kernel evaluating every remaining conjunct (OR, LIKE, CASE,
// arithmetic, ...) with the row evaluator. Conjuncts have no side
// effects, so the order is free.
func compileFilter(pc *pipeCtx, filter *Expr) []selKernel {
	var ranked [numRanks][]selKernel
	var rest []*Expr
	var split func(x *Expr)
	split = func(x *Expr) {
		if x.kind == eAnd {
			for _, a := range x.args {
				split(a)
			}
			return
		}
		if k, rank := typedKernel(pc, x); k != nil {
			ranked[rank] = append(ranked[rank], k)
		} else {
			rest = append(rest, x)
		}
	}
	split(filter)
	kernels := slices.Concat(ranked[:]...)
	if len(rest) > 0 {
		kernels = append(kernels, genericKernel(pc, And(rest...)))
	}
	return kernels
}

// genericKernel evaluates x row by row over the registers it reads.
func genericKernel(pc *pipeCtx, x *Expr) selKernel {
	fn, t, fill := pc.rowEval(x)
	mustBool(t, "scan filter")
	return func(e *Ectx, b *colBatch, in, out []int32) int {
		k := 0
		for _, r := range in {
			fill.row(e, b.cols, b.base+int(r))
			out[k] = r
			if fn(e).I != 0 {
				k++
			}
		}
		return k
	}
}

// operand is one side of a typed kernel: a scan column or a constant
// (bound parameters are constants by the time a plan compiles).
type operand struct {
	isConst bool
	t       Type
	col     int // partition column of a column operand
	v       Val // value of a constant
}

func (o operand) float() float64 {
	if o.t == TFloat {
		return o.v.F
	}
	return float64(o.v.I)
}

func (pc *pipeCtx) operand(x *Expr) (operand, bool) {
	switch x.kind {
	case eCol:
		k, t := pc.lookup(x.name)
		return operand{t: t, col: pc.scanCols[k]}, true
	case eConstI:
		return operand{isConst: true, t: TInt, v: Val{I: x.i}}, true
	case eConstF:
		return operand{isConst: true, t: TFloat, v: Val{F: x.f}}, true
	case eConstS:
		return operand{isConst: true, t: TStr, v: Val{S: x.s}}, true
	}
	return operand{}, false
}

// typedKernel returns the typed kernel of a conjunct and its cost rank,
// or nil when it has none.
func typedKernel(pc *pipeCtx, x *Expr) (k selKernel, rank int) {
	switch x.kind {
	case eEq, eNe, eLt, eLe, eGt, eGe:
		a, okA := pc.operand(x.args[0])
		b, okB := pc.operand(x.args[1])
		if okA && okB {
			return cmpKernel(x.kind, a, b)
		}
	case eBetween:
		v, okV := pc.operand(x.args[0])
		lo, okL := pc.operand(x.args[1])
		hi, okH := pc.operand(x.args[2])
		if okV && okL && okH && !v.isConst && lo.isConst && hi.isConst &&
			v.t != TStr && lo.t != TStr && hi.t != TStr {
			return betweenKernel(v, lo, hi), rankNumeric
		}
	case eInInt:
		if v, ok := pc.operand(x.args[0]); ok && !v.isConst && v.t == TInt {
			set := newInSet(x.ints)
			return func(_ *Ectx, b *colBatch, in, out []int32) int {
				return selIn(b.ints(v.col), set, in, out)
			}, rankNumeric
		}
	case eInStr:
		if v, ok := pc.operand(x.args[0]); ok && !v.isConst && v.t == TStr {
			set := newInSet(x.strs)
			return func(_ *Ectx, b *colBatch, in, out []int32) int {
				return selIn(b.strs(v.col), set, in, out)
			}, rankStrIn
		}
	}
	return nil, 0
}

// cmpKernel compiles a comparison between a column and a constant or
// another column. keep[c+1] says whether the comparison holds when the
// three-way compare of the operands is c — the row evaluator's cmpHolds,
// tabulated, so "neither less nor greater" (equal, or a NaN on either
// side) is one case here exactly as it is there.
func cmpKernel(kind exprKind, a, b operand) (selKernel, int) {
	if a.isConst && b.isConst || (a.t == TStr) != (b.t == TStr) {
		return nil, 0
	}
	var keep [3]int
	for c := -1; c <= 1; c++ {
		if cmpHolds(kind, c) {
			keep[c+1] = 1
		}
	}
	if a.isConst {
		a, b = b, a
		keep[0], keep[2] = keep[2], keep[0]
	}
	if a.t == TStr {
		if !b.isConst || kind != eEq && kind != eNe {
			return nil, 0
		}
		c, want := b.v.S, kind == eEq
		return func(_ *Ectx, bt *colBatch, in, out []int32) int {
			return selStrEq(bt.strs(a.col), c, want, in, out)
		}, rankStrEq
	}
	promote := a.t == TFloat || b.t == TFloat
	switch {
	case b.isConst && !promote:
		c := b.v.I
		return func(_ *Ectx, bt *colBatch, in, out []int32) int {
			return selCmpConst(bt.ints(a.col), c, &keep, in, out)
		}, rankNumeric
	case b.isConst && a.t == TInt:
		c := b.float()
		return func(_ *Ectx, bt *colBatch, in, out []int32) int {
			return selCmpConst(bt.ints(a.col), c, &keep, in, out)
		}, rankNumeric
	case b.isConst:
		c := b.float()
		return func(_ *Ectx, bt *colBatch, in, out []int32) int {
			return selCmpConst(bt.flts(a.col), c, &keep, in, out)
		}, rankNumeric
	case !promote:
		return func(_ *Ectx, bt *colBatch, in, out []int32) int {
			return selCmpCols[int64, int64, int64](bt.ints(a.col), bt.ints(b.col), &keep, in, out)
		}, rankNumeric
	case a.t == TInt:
		return func(_ *Ectx, bt *colBatch, in, out []int32) int {
			return selCmpCols[int64, float64, float64](bt.ints(a.col), bt.flts(b.col), &keep, in, out)
		}, rankNumeric
	case b.t == TInt:
		return func(_ *Ectx, bt *colBatch, in, out []int32) int {
			return selCmpCols[float64, int64, float64](bt.flts(a.col), bt.ints(b.col), &keep, in, out)
		}, rankNumeric
	default:
		return func(_ *Ectx, bt *colBatch, in, out []int32) int {
			return selCmpCols[float64, float64, float64](bt.flts(a.col), bt.flts(b.col), &keep, in, out)
		}, rankNumeric
	}
}

func betweenKernel(v, lo, hi operand) selKernel {
	switch {
	case v.t == TInt && lo.t == TInt && hi.t == TInt:
		l, h := lo.v.I, hi.v.I
		return func(_ *Ectx, b *colBatch, in, out []int32) int {
			return selBetween(b.ints(v.col), l, h, in, out)
		}
	case v.t == TInt:
		l, h := lo.float(), hi.float()
		return func(_ *Ectx, b *colBatch, in, out []int32) int {
			return selBetween(b.ints(v.col), l, h, in, out)
		}
	default:
		l, h := lo.float(), hi.float()
		return func(_ *Ectx, b *colBatch, in, out []int32) int {
			return selBetween(b.flts(v.col), l, h, in, out)
		}
	}
}

type number interface{ int64 | float64 }

// The loops below write every candidate to out[k] and advance k only for
// the ones kept, which the compiler turns into flag arithmetic instead of
// a branch per row.

func selCmpConst[A, T number](col []A, c T, keep *[3]int, in, out []int32) int {
	k := 0
	for _, r := range in {
		v := T(col[r])
		lt, gt := 0, 0
		if v < c {
			lt = 1
		}
		if v > c {
			gt = 1
		}
		out[k] = r
		k += keep[1+gt-lt]
	}
	return k
}

func selCmpCols[A, B, T number](a []A, b []B, keep *[3]int, in, out []int32) int {
	k := 0
	for _, r := range in {
		x, y := T(a[r]), T(b[r])
		lt, gt := 0, 0
		if x < y {
			lt = 1
		}
		if x > y {
			gt = 1
		}
		out[k] = r
		k += keep[1+gt-lt]
	}
	return k
}

func selBetween[A, T number](col []A, lo, hi T, in, out []int32) int {
	k := 0
	for _, r := range in {
		v := T(col[r])
		out[k] = r
		if lo <= v && v <= hi {
			k++
		}
	}
	return k
}

func selStrEq(col []string, c string, want bool, in, out []int32) int {
	k := 0
	for _, r := range in {
		out[k] = r
		if (col[r] == c) == want {
			k++
		}
	}
	return k
}

func selIn[T comparable](col []T, set *inSet[T], in, out []int32) int {
	k := 0
	for _, r := range in {
		out[k] = r
		if set.has(col[r]) {
			k++
		}
	}
	return k
}

// ---- Vector expressions.

// vecProg is a set of numeric expressions compiled to steps that each
// fill one float64 vector, one element per selected row of a colBatch.
// Structurally equal (sub)expressions share a slot and are computed once
// per chunk. A slot holds the expression's value as the aggregation sink
// consumes it: floats as they are, ints converted with float64().
type vecProg struct {
	pc    *pipeCtx
	exprs []*Expr // exprs[s] is what slot s holds
	steps []func(e *Ectx, b *colBatch)
}

// vec returns slot s's own buffer, cut to n rows, and makes it the slot's
// current vector.
func (e *Ectx) vec(s, n int) []float64 {
	out := e.vecBuf[s*scanChunkRows:][:n:n]
	e.vecs[s] = out
	return out
}

// numType types an expression built only from numeric columns, numeric
// constants and arithmetic; ok is false for anything else.
func (p *vecProg) numType(x *Expr) (t Type, ok bool) {
	switch x.kind {
	case eCol:
		_, t = p.pc.lookup(x.name)
		return t, t != TStr
	case eConstI:
		return TInt, true
	case eConstF:
		return TFloat, true
	case eAdd, eSub, eMul, eDiv:
		ta, okA := p.numType(x.args[0])
		tb, okB := p.numType(x.args[1])
		if !okA || !okB {
			return 0, false
		}
		if ta == TFloat || tb == TFloat || x.kind == eDiv {
			return TFloat, true
		}
		return TInt, true
	}
	return 0, false
}

// slot compiles x (once) and returns the slot holding its value. Columns
// are gathered through the selection — a float column of an unfiltered
// chunk is used in place — float arithmetic runs as one loop per
// operator, and everything else (int arithmetic, which must wrap like the
// row evaluator's, CASE, YEAR, ...) is evaluated by the row evaluator
// over the registers it reads.
func (p *vecProg) slot(x *Expr) int {
	for s, y := range p.exprs {
		if exprEqual(x, y) {
			return s
		}
	}
	s := len(p.exprs)
	p.exprs = append(p.exprs, x)
	t, numeric := p.numType(x)
	switch {
	case numeric && x.kind == eCol:
		k, _ := p.pc.lookup(x.name)
		col := p.pc.scanCols[k]
		if t == TFloat {
			p.steps = append(p.steps, func(e *Ectx, b *colBatch) {
				src := b.flts(col)
				if b.sel == nil {
					e.vecs[s] = src
					return
				}
				out := e.vec(s, len(b.sel))
				for j, r := range b.sel {
					out[j] = src[r]
				}
			})
			break
		}
		p.steps = append(p.steps, func(e *Ectx, b *colBatch) {
			src := b.ints(col)
			if b.sel == nil {
				out := e.vec(s, len(src))
				for j, v := range src {
					out[j] = float64(v)
				}
				return
			}
			out := e.vec(s, len(b.sel))
			for j, r := range b.sel {
				out[j] = float64(src[r])
			}
		})
	case numeric && (x.kind == eConstI || x.kind == eConstF):
		c := x.f
		if x.kind == eConstI {
			c = float64(x.i)
		}
		p.steps = append(p.steps, func(e *Ectx, b *colBatch) {
			out := e.vec(s, b.rows())
			for j := range out {
				out[j] = c
			}
		})
	case numeric && t == TFloat:
		sa, sb := p.slot(x.args[0]), p.slot(x.args[1])
		op := x.kind
		p.steps = append(p.steps, func(e *Ectx, b *colBatch) {
			out := e.vec(s, b.rows())
			va, vb := e.vecs[sa][:len(out)], e.vecs[sb][:len(out)]
			switch op {
			case eAdd:
				for j := range out {
					out[j] = va[j] + vb[j]
				}
			case eSub:
				for j := range out {
					out[j] = va[j] - vb[j]
				}
			case eMul:
				for j := range out {
					out[j] = va[j] * vb[j]
				}
			default:
				for j := range out {
					out[j] = va[j] / vb[j]
				}
			}
		})
	default:
		fn, ft, fill := p.pc.rowEval(x)
		p.steps = append(p.steps, func(e *Ectx, b *colBatch) {
			out := e.vec(s, b.rows())
			for j := range out {
				fill.row(e, b.cols, b.row(j))
				if v := fn(e); ft == TFloat {
					out[j] = v.F
				} else {
					out[j] = float64(v.I)
				}
			}
		})
	}
	return s
}

// exprEqual reports whether two expressions are structurally identical.
func exprEqual(a, b *Expr) bool {
	if a == b {
		return true
	}
	if a.kind != b.kind || a.name != b.name || a.i != b.i || a.s != b.s || a.ptype != b.ptype ||
		math.Float64bits(a.f) != math.Float64bits(b.f) || len(a.args) != len(b.args) ||
		!slices.Equal(a.ints, b.ints) || !slices.Equal(a.strs, b.strs) {
		return false
	}
	for i := range a.args {
		if !exprEqual(a.args[i], b.args[i]) {
			return false
		}
	}
	return true
}
