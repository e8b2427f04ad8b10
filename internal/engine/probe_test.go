package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dispatch"
	"repro/internal/hashtable"
	"repro/internal/storage"
)

// Differential and unit tests for the hash join's batch entry (join.go):
// every probe shape through the batch entry and, forced by a pass-through
// Map under the join, through the row entry, byte for byte; the chunk
// boundaries, the overflow flush, the vector hash, the late fill and the
// per-morsel allocations.

// probeFact is the probe side: n rows in `parts` partitions. ki is the int
// key (0..39; the build sides hold the even ones, and 38 — the hot key of
// the duplicated build — comes once every 1 500 rows), kf and ks are the
// same key as a float (±0 for 0, NaN for 39) and as a string ("" for 1,
// re-sliced out of a longer string for the odd rows), v is a measure.
func probeFact(rng *rand.Rand, n, parts int) *storage.Table {
	b := storage.NewBuilder("fact", storage.Schema{
		{Name: "id", Type: storage.I64}, {Name: "ki", Type: storage.I64}, {Name: "kf", Type: storage.F64},
		{Name: "ks", Type: storage.Str}, {Name: "v", Type: storage.F64},
	}, parts, "")
	for i := 0; i < n; i++ {
		ki := int64(rng.Intn(38))
		if i%1500 == 3 {
			ki = 38
		}
		if i%53 == 5 {
			ki = 39
		}
		kf, ks := keyFloat(ki, i), keyString(ki)
		if i%2 == 1 {
			ks = ("xx" + ks + "yy")[2 : 2+len(ks)]
		}
		b.Append(storage.Row{int64(i), ki, kf, ks, math.Round(rng.Float64()*4000) / 100})
	}
	return b.Build(storage.NUMAAware, 4)
}

func keyFloat(k int64, i int) float64 {
	switch {
	case k == 0 && i%2 == 1:
		return math.Copysign(0, -1)
	case k == 39:
		return math.NaN()
	}
	return float64(k) / 2
}

func keyString(k int64) string {
	if k == 1 {
		return ""
	}
	return fmt.Sprintf("key-%d", k*k*k)
}

// probeBuild is a build side: each even key 0..38 `copies` times and key
// 38 `hot` times more, a NaN-keyed row that can match nothing, payloads bp
// (an int in 0..39, usable as the next probe's key), bq and br.
func probeBuild(rng *rand.Rand, copies, hot int) *storage.Table {
	b := storage.NewBuilder("build", storage.Schema{
		{Name: "bi", Type: storage.I64}, {Name: "bf", Type: storage.F64}, {Name: "bs", Type: storage.Str},
		{Name: "bp", Type: storage.I64}, {Name: "bq", Type: storage.F64}, {Name: "br", Type: storage.Str},
	}, 3, "")
	row := 0
	add := func(k int64) {
		b.Append(storage.Row{k, keyFloat(k, row), keyString(k), int64(rng.Intn(40)),
			math.Round(rng.Float64()*4000) / 100, fmt.Sprintf("pay-%d", rng.Intn(6))})
		row++
	}
	for c := 0; c < copies; c++ {
		for k := int64(0); k < 40; k += 2 {
			add(k)
		}
	}
	for c := 0; c < hot; c++ {
		add(38)
	}
	if copies > 0 {
		b.Append(storage.Row{int64(41), math.NaN(), "nan", int64(1), 1.0, "nan"})
	}
	return b.Build(storage.NUMAAware, 4)
}

var buildCols = []string{"bi", "bf", "bs", "bp", "bq", "br"}

// probeStep is one join of a chain. A key {a, b} pairs probe-side column a
// — a scan column, or the payload column of an earlier step, "b0p" — with
// build column b. The step's build columns enter the pipeline as
// b<step><letter>.
type probeStep struct {
	kind     JoinKind
	build    *storage.Table
	keys     [][2]string
	payload  []string // build columns carried (inner, mark, outer)
	residual bool     // v < bq
}

// chainPlan builds scan → steps → sink. forceRow puts a pass-through Map
// under the first join, so every probe is entered by rows. The sink is the
// plain row result, or (agg) a grouped aggregation over whatever columns
// the chain carries.
func chainPlan(fact *storage.Table, filter *Expr, steps []probeStep, forceRow, agg bool) *Plan {
	p := NewPlan("chain")
	n := p.Scan(fact, "id", "ki", "kf", "ks", "v")
	if filter != nil {
		n = n.Filter(filter)
	}
	if forceRow {
		n = n.Map("$one", ConstI(1))
	}
	out := []string{"id", "ki", "kf", "ks", "v"}
	for i, st := range steps {
		pre := fmt.Sprintf("b%d", i)
		var scan []string
		for _, c := range buildCols {
			scan = append(scan, c+" AS "+pre+c[1:])
		}
		var pk, bk []*Expr
		for _, k := range st.keys {
			pk, bk = append(pk, Col(k[0])), append(bk, Col(pre+k[1][1:]))
		}
		var payload []string
		if st.kind != JoinSemi && st.kind != JoinAnti {
			for _, c := range st.payload {
				payload = append(payload, pre+c[1:])
			}
		}
		n = n.HashJoin(p.Scan(st.build, scan...), st.kind, pk, bk, payload...)
		if st.residual {
			if st.kind == JoinSemi || st.kind == JoinAnti {
				n = n.ResidualPayload(pre + "q")
			} else if !slices.Contains(payload, pre+"q") {
				panic("residual step must carry bq")
			}
			n = n.WithResidual(Lt(Col("v"), Col(pre+"q")))
		}
		out = append(out, payload...)
	}
	if !agg {
		p.Return(n.Project(out...))
		return p
	}
	// Group by the last string column, sum the product of the float ones:
	// the sums are bit-identical only if rows arrive in the same order.
	group, prod := "ks", Col("v")
	for _, c := range out[5:] {
		switch c[len(c)-1] {
		case 'r', 's':
			group = c
		case 'q', 'f':
			prod = Mul(prod, Col(c))
		}
	}
	p.Return(n.GroupBy([]NamedExpr{N("g", Col(group))}, []AggDef{Count("n"), Sum("s", prod), MaxOf("m", Col("id"))}))
	return p
}

// digestSink consumes a plan's output without keeping it: per worker, the
// row count, an order-sensitive digest of the rows and an order-free one.
// Floats enter by their bit patterns, so two runs agree only byte for byte.
type digestSink struct {
	schema []Reg
	per    []rowDigest
}

type rowDigest struct {
	n        int64
	seq, sum uint64
}

func (d *digestSink) factory(pc *pipeCtx) consumer {
	regs := make([]int, len(d.schema))
	for i, r := range d.schema {
		regs[i], _ = pc.resolve(r.Name)
	}
	return consumer{row: func(e *Ectx) {
		h := uint64(hashSeed)
		for i, k := range regs {
			switch v := e.Regs[k]; d.schema[i].Type {
			case TInt:
				h = mixWord(h, uint64(v.I))
			case TFloat:
				h = mixWord(h, math.Float64bits(v.F))
			default:
				h = mixBytes(h, v.S)
			}
		}
		h = finishHash(h)
		w := &d.per[e.W.ID]
		w.n++
		w.seq = mixWord(w.seq, h)
		w.sum += h
	}}
}

// total is the digest over all workers; seq means something on one worker
// only.
func (d *digestSink) total() (t rowDigest) {
	for _, w := range d.per {
		t.n += w.n
		t.seq = mixWord(t.seq, w.seq)
		t.sum += w.sum
	}
	return t
}

// runInto compiles p the way Session.Run does, with the root's rows going
// to f, runs it to completion and returns the compiler, whose join state
// the caller may inspect.
func runInto(s *Session, p *Plan, f consumerFactory) *compiler {
	c := &compiler{sess: s, q: dispatch.NewQuery(p.Name), workers: s.Dispatch.Workers, sockets: s.Machine.Topo.Sockets,
		joins: make(map[*Node]*joinCompiled), mats: make(map[*Node]*matCompiled)}
	p.root.produce(c, f)
	d := dispatch.NewDispatcher(s.Machine, s.Dispatch)
	if s.Mode == Sim {
		dispatch.NewSimRunner(d, s.SimCfg).Run(dispatch.Arrival{Query: c.q})
	} else {
		dispatch.NewRealRunner(d).RunToCompletion(c.q)
	}
	return c
}

func digestOf(s *Session, p *Plan) rowDigest { return digestFaulty(s, p, func(*probe) {}) }

// digestFaulty is digestOf with a fault planted in every batch probe.
func digestFaulty(s *Session, p *Plan, fault func(*probe)) rowDigest {
	sink := &digestSink{schema: p.root.out, per: make([]rowDigest, s.Dispatch.Workers)}
	runInto(s, p, func(pc *pipeCtx) consumer {
		for _, pr := range pc.probes {
			fault(pr)
		}
		return sink.factory(pc)
	})
	return sink.total()
}

// probeBuilds are the three build sides of the matrix: empty, unique, and
// duplicated enough that one chunk's matches overflow the output vector
// several times (five copies of every key, and a hot key no single output
// vector holds).
type probeBuilds struct{ empty, unique, dup *storage.Table }

func newProbeBuilds(rng *rand.Rand) probeBuilds {
	return probeBuilds{probeBuild(rng, 0, 0), probeBuild(rng, 1, 0), probeBuild(rng, 5, scanChunkRows+100)}
}

var allJoinKinds = []JoinKind{JoinInner, JoinSemi, JoinAnti, JoinMark, JoinOuterProbe}

// keyShapes are the single-probe key shapes; the fifth — a key taken from
// an earlier probe's payload — needs a chain (chainShapes).
var keyShapes = map[string][][2]string{
	"int":       {{"ki", "bi"}},
	"float":     {{"kf", "bf"}},
	"string":    {{"ks", "bs"}},
	"composite": {{"ki", "bi"}, {"ks", "bs"}},
}

var probeLengths = []int{0, 1, scanChunkRows - 1, scanChunkRows, scanChunkRows + 1, 3*scanChunkRows + 7}

var probeFilters = map[string]*Expr{
	"unfiltered": nil,
	"filtered":   And(Ne(Col("ki"), ConstI(6)), Like(Col("ks"), "%")), // a typed and a generic kernel
}

// chainShapes returns the multi-probe chains for one rotation r of the
// join kinds: selective then expanding, expanding then selective, a second
// probe keyed on the first one's payload, a payload carried past a probe
// that keeps no refs of its own, and three probes with the last keyed on
// the second's payload.
func chainShapes(b probeBuilds, r int) map[string][]probeStep {
	kind := func(i int) JoinKind { return allJoinKinds[(r+i)%len(allJoinKinds)] }
	// A step whose payload keys a later one has to carry it; the outer
	// join among these hands nil refs on as keys.
	carrying := []JoinKind{JoinInner, JoinMark, JoinOuterProbe}[r%3]
	pay := []string{"bp", "bq", "br"}
	return map[string][]probeStep{
		"selective-expanding": {
			{kind: kind(1), build: b.unique, keys: keyShapes["string"], payload: pay},
			{kind: kind(0), build: b.dup, keys: keyShapes["int"], payload: pay, residual: r%2 == 0},
		},
		"expanding-selective": {
			{kind: kind(0), build: b.dup, keys: keyShapes["composite"], payload: pay},
			{kind: kind(1), build: b.unique, keys: keyShapes["float"], payload: pay, residual: r%2 == 1},
		},
		"payload-key": {
			{kind: carrying, build: b.unique, keys: keyShapes["int"], payload: pay},
			{kind: kind(0), build: b.unique, keys: [][2]string{{"b0p", "bi"}}, payload: pay},
		},
		"carried-past": { // the middle probe has no payload; the first one's is read behind it
			{kind: carrying, build: b.unique, keys: keyShapes["int"], payload: pay},
			{kind: []JoinKind{JoinSemi, JoinAnti, JoinInner}[r%3], build: b.dup, keys: keyShapes["string"]}, // the inner join expands, and carries no payload
			{kind: kind(2), build: b.unique, keys: keyShapes["float"], payload: []string{"bp"}},
		},
		"three": {
			{kind: kind(1), build: b.unique, keys: keyShapes["float"], payload: []string{"bq"}},
			{kind: carrying, build: b.dup, keys: keyShapes["string"], payload: pay, residual: r%3 == 0},
			{kind: kind(0), build: b.unique, keys: [][2]string{{"b1p", "bi"}, {"ks", "bs"}}, payload: []string{"br"}},
		},
	}
}

// checkProbe runs the chain through the batch entry and through the row
// entry and demands the same rows: in the same order on one worker, as a
// multiset on several (and behind an aggregation, whose groups no order
// is promised for).
func checkProbe(t *testing.T, label string, s *Session, fact *storage.Table, filter *Expr, steps []probeStep, agg bool) {
	t.Helper()
	got := digestOf(s, chainPlan(fact, filter, steps, false, agg))
	want := digestOf(s, chainPlan(fact, filter, steps, true, agg))
	if s.Dispatch.Workers > 1 || agg {
		got.seq, want.seq = 0, 0
	}
	if got != want {
		g, _ := s.Run(chainPlan(fact, filter, steps, false, agg))
		w, _ := s.Run(chainPlan(fact, filter, steps, true, agg))
		gs, ws := exactRows(g), exactRows(w)
		t.Errorf("%s: batch probe differs from row probe (%d rows vs %d)\n got %v\nwant %v", label, got.n, want.n, firstDiff(gs, ws), firstDiff(ws, gs))
	}
}

func oneWorkerSession(mode Mode) *Session {
	s := newTestSession(mode)
	s.Dispatch.Workers, s.Dispatch.MorselRows = 1, 1<<20
	return s
}

// TestBatchProbeMatchesRowProbe is the single-probe matrix: five join
// kinds × four key shapes × residual × empty / unique / duplicated build ×
// morsel lengths on every side of the chunk size × filtered / unfiltered
// scans, on the simulator and on one real worker.
func TestBatchProbeMatchesRowProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	builds := newProbeBuilds(rng)
	buildSides := map[string]*storage.Table{"empty": builds.empty, "unique": builds.unique, "dup": builds.dup}
	for _, n := range probeLengths {
		fact := probeFact(rng, n, 1)
		for _, mode := range []Mode{Sim, Real} {
			s := oneWorkerSession(mode)
			for fname, filter := range probeFilters {
				for _, kind := range allJoinKinds {
					for kname, keys := range keyShapes {
						for bname, build := range buildSides {
							for _, residual := range []bool{false, true} {
								label := fmt.Sprintf("n=%d mode=%v %s %v key=%s build=%s residual=%v", n, mode, fname, kind, kname, bname, residual)
								step := probeStep{kind: kind, build: build, keys: keys, payload: []string{"bp", "bq", "br"}, residual: residual}
								checkProbe(t, label, s, fact, filter, []probeStep{step}, false)
							}
						}
					}
				}
			}
		}
	}
}

// TestBatchProbeChains is the same differential over chains of two and
// three probes — the pair lists, their carried refs, keys gathered through
// them and the late fill at the chain's end — with every join kind at
// every position, into the row result and into an aggregation whose float
// sums depend on the order rows arrive in.
func TestBatchProbeChains(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	builds := newProbeBuilds(rng)
	for _, n := range probeLengths {
		fact := probeFact(rng, n, 1)
		for _, mode := range []Mode{Sim, Real} {
			s := oneWorkerSession(mode)
			for fname, filter := range probeFilters {
				for r := range allJoinKinds {
					for cname, steps := range chainShapes(builds, r) {
						for _, agg := range []bool{false, true} {
							label := fmt.Sprintf("n=%d mode=%v %s chain=%s rotation=%d agg=%v", n, mode, fname, cname, r, agg)
							checkProbe(t, label, s, fact, filter, steps, agg)
						}
					}
				}
			}
		}
	}
}

// TestBatchProbeAcrossWorkers runs single probes and chains on 2 and 8
// real workers over a partitioned probe side (the race job's target) and
// compares multisets.
func TestBatchProbeAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	builds := newProbeBuilds(rng)
	fact := probeFact(rng, 3*scanChunkRows+7, 5)
	for _, workers := range []int{2, 8} {
		s := newTestSession(Real)
		s.Dispatch.Workers, s.Dispatch.MorselRows = workers, scanChunkRows+300
		for fname, filter := range probeFilters {
			for r, kind := range allJoinKinds {
				for kname, keys := range keyShapes {
					label := fmt.Sprintf("workers=%d %s %v key=%s", workers, fname, kind, kname)
					step := probeStep{kind: kind, build: builds.dup, keys: keys, payload: []string{"bp", "bq", "br"}, residual: r%2 == 0}
					checkProbe(t, label, s, fact, filter, []probeStep{step}, false)
				}
				for cname, steps := range chainShapes(builds, r) {
					label := fmt.Sprintf("workers=%d %s chain=%s rotation=%d", workers, fname, cname, r)
					checkProbe(t, label, s, fact, filter, steps, false)
				}
			}
		}
	}
}

// TestBatchMarkJoinFeedsUnmatched: the mark store happens in the batch
// entry too, so the Unmatched scan after a batched mark join emits exactly
// the build tuples no probe row matched.
func TestBatchMarkJoinFeedsUnmatched(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	builds := newProbeBuilds(rng)
	fact := probeFact(rng, 2*scanChunkRows+5, 3)
	for _, mode := range []Mode{Sim, Real} {
		for _, workers := range []int{1, 4} {
			var res [2]*Result
			for i, forceRow := range []bool{false, true} {
				s := newTestSession(mode)
				s.Dispatch.Workers, s.Dispatch.MorselRows = workers, 900
				p := NewPlan("mark")
				scan := p.Scan(fact, "id", "ki").Filter(Lt(Col("ki"), ConstI(20))) // keys 20..38 stay unmatched
				if forceRow {
					scan = scan.Map("$one", ConstI(1))
				}
				join := scan.HashJoin(p.Scan(builds.dup, "bi", "bp", "br"), JoinMark, []*Expr{Col("ki")}, []*Expr{Col("bi")}, "bp", "br")
				p.Return(p.Union(
					join.GroupBy([]NamedExpr{N("k", Col("bp")), N("r", Col("br"))}, []AggDef{Count("n")}),
					p.Unmatched(join, "bi", "br").GroupBy([]NamedExpr{N("k", Col("bi")), N("r", Col("br"))}, []AggDef{Count("n")}),
				))
				res[i], _ = s.Run(p)
			}
			if res[0].NumRows() == 0 {
				t.Fatal("no rows")
			}
			if g, w := exactRows(res[0]), exactRows(res[1]); !slices.Equal(g, w) {
				t.Errorf("mode=%v workers=%d: batched mark join differs from row path\n got %v\nwant %v", mode, workers, firstDiff(g, w), firstDiff(w, g))
			}
		}
	}
}

// TestProbeDifferentialCatchesFaults: the differential must have teeth.
// A batch probe with a deliberately wrong emission rule — an anti join
// that narrows by the tag like an inner join and so loses its unmatched
// rows, a semi join that outputs every match — has to fail it, and the
// same harness with no fault planted has to pass.
func TestProbeDifferentialCatchesFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	builds := newProbeBuilds(rng)
	fact := probeFact(rng, scanChunkRows+1, 1)
	s := oneWorkerSession(Sim)
	faults := []struct {
		name  string
		kind  JoinKind
		fault func(*probe)
		fails bool
	}{
		{"none", JoinAnti, func(*probe) {}, false},
		{"anti join drops its unmatched rows", JoinAnti, func(p *probe) { p.em.unmatched = false }, true},
		{"semi join outputs every match", JoinSemi, func(p *probe) { p.em.matches = emitEvery }, true},
	}
	for _, f := range faults {
		steps := []probeStep{{kind: f.kind, build: builds.dup, keys: keyShapes["int"]}}
		want := digestOf(s, chainPlan(fact, nil, steps, true, false))
		probes := 0
		got := digestFaulty(s, chainPlan(fact, nil, steps, false, false), func(p *probe) { probes++; f.fault(p) })
		if probes != 1 {
			t.Fatalf("%s: plan has %d batch probes, want 1", f.name, probes)
		}
		if differs := got != want; differs != f.fails {
			t.Errorf("fault %q: differential reports a difference = %v, want %v", f.name, differs, f.fails)
		}
	}
}

// hashFamilyColumns turns n keys of a hash-test family into columns, one
// per key column.
func hashFamilyColumns(gen func(i int) ([]Type, []Val), n int) ([]Type, []*storage.Column) {
	types, _ := gen(0)
	cols := make([]*storage.Column, len(types))
	for c, t := range types {
		cols[c] = storage.NewColumn(fmt.Sprint("k", c), t.colType())
	}
	for i := 0; i < n; i++ {
		_, kv := gen(i)
		for c, t := range types {
			appendVal(cols[c], t, kv[c])
		}
	}
	return types, cols
}

// TestVectorHashMatchesHashVals: over the eleven key families of the hash
// tests plus the values a vector loop could get wrong (±0, NaN, empty and
// 8-byte-boundary strings), the batch key hash (hashKeys) equals hashVals
// row for row, into a probe's vector and a build's int64 column — keys read from scan columns densely and through a selection,
// and keys gathered through an earlier probe's refs, nil refs included.
func TestVectorHashMatchesHashVals(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	families := hashFamilies(rng)
	edgeF := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), 1.5, -1.5}
	edgeS := []string{"", "a", "1234567", "12345678", "123456789", strings.Repeat("x", 40)}
	families["edge-mixed"] = func(i int) ([]Type, []Val) {
		return []Type{TFloat, TStr, TInt}, []Val{{F: edgeF[i%len(edgeF)]}, {S: edgeS[i/2%len(edgeS)]}, {I: int64(i) - 3}}
	}
	if len(families) != 12 {
		t.Fatalf("%d families", len(families))
	}
	const n = scanChunkRows + 500
	for name, gen := range families {
		types, cols := hashFamilyColumns(gen, n)
		want := func(row int) uint64 {
			kv := make([]Val, len(types))
			for c, tp := range types {
				kv[c] = loadVal(cols[c], tp, row)
			}
			return hashVals(types, kv)
		}
		var keys []regSrc
		for c := range types {
			keys = append(keys, regSrc{col: c})
		}
		hash := make([]uint64, scanChunkRows)
		// Dense chunk at an offset, then every third row of it; the build
		// hashes into its int64 #hash column.
		b := &colBatch{cols: cols, base: 300, n: scanChunkRows}
		hashKeys(types, keys, b, identitySel[:b.n], hash)
		hashCol := make([]int64, scanChunkRows)
		hashKeys(types, keys, b, identitySel[:b.n], hashCol)
		for j, h := range hash {
			if h != want(300+j) || uint64(hashCol[j]) != h {
				t.Fatalf("%s: dense row %d hashes %x (as int64 %x), hashVals %x", name, j, h, hashCol[j], want(300+j))
			}
		}
		var sel []int32
		for r := 1; r < b.n; r += 3 {
			sel = append(sel, int32(r))
		}
		b.sel = sel
		hashKeys(types, keys, b, sel, hash[:len(sel)])
		for j, r := range sel {
			if hash[j] != want(300+int(r)) {
				t.Fatalf("%s: selected row %d hashes %x, hashVals %x", name, r, hash[j], want(300+int(r)))
			}
		}
		// The same keys as payload columns of an earlier probe: an area
		// holding them, refs in a shuffled order with every seventh nil.
		areas := storage.NewAreaSet(nil, 1)
		areas.ForWorker(0, 0).Cols = cols
		first := &probe{rt: &joinRuntime{areas: areas}}
		refs := make([]hashtable.Ref, scanChunkRows)
		for j := range refs {
			if j%7 != 0 {
				refs[j] = encodeRef(0, rng.Intn(n))
			}
		}
		var viaKeys []regSrc
		for c := range types {
			viaKeys = append(viaKeys, regSrc{probe: first, col: c})
		}
		b = &colBatch{n: scanChunkRows, sel: identitySel[:], refs: [][]hashtable.Ref{refs}}
		hashKeys(types, viaKeys, b, b.sel, hash)
		zero := hashVals(types, make([]Val, len(types)))
		for j, ref := range refs {
			w := zero
			if ref != 0 {
				_, row := decodeRef(ref)
				w = want(row)
			}
			if hash[j] != w {
				t.Fatalf("%s: row %d gathered through ref %x hashes %x, hashVals %x", name, j, ref, hash[j], w)
			}
		}
	}
}

// TestLateFillBehindProbes extends TestLateRegisterFill across the joins.
// Behind a chain of batch probes only the last one fills registers, and
// exactly those a row consumer resolved: a column carried only as a later
// probe's key, or read by nothing, never becomes a Val, a semi join's
// residual scratch is loaded by the residual alone, and an outer join's
// unmatched row reads its payload as the zero Val.
func TestLateFillBehindProbes(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	builds := newProbeBuilds(rng)
	fact := probeFact(rng, scanChunkRows+9, 1)
	s := oneWorkerSession(Sim)
	bcols := func(i int) []string {
		var out []string
		for _, col := range buildCols {
			out = append(out, fmt.Sprintf("%s AS b%d%s", col, i, col[1:]))
		}
		return out
	}
	// An outer join on ki carrying b0p, b0q, b0r (odd keys match nothing);
	// a semi join keyed on b0p with a residual over v and its scratch
	// column b1q; an anti join that cuts a few rows by id.
	chain := func(p *Plan, forceRow bool) *Node {
		n := p.Scan(fact, "id", "ki", "kf", "ks", "v")
		if forceRow {
			n = n.Map("$one", ConstI(1))
		}
		return n.
			HashJoin(p.Scan(builds.unique, bcols(0)...), JoinOuterProbe, []*Expr{Col("ki")}, []*Expr{Col("b0i")}, "b0p", "b0q", "b0r").
			HashJoin(p.Scan(builds.unique, bcols(1)...), JoinSemi, []*Expr{Col("b0p")}, []*Expr{Col("b1i")}).
			ResidualPayload("b1q").WithResidual(Lt(Col("v"), Add(Col("b1q"), ConstF(30)))).
			HashJoin(p.Scan(builds.unique, bcols(2)...), JoinAnti, []*Expr{Col("id")}, []*Expr{Col("b2i")})
	}
	resolved := []string{"id", "ki", "b0q", "b0r"}
	p := NewPlan("rows")
	p.Return(chain(p, true).Project(resolved...))
	wantRes, _ := s.Run(p)
	var want []string
	for _, v := range wantRes.Rows() {
		want = append(want, fmt.Sprintf("%d|%d|%016x|%q|", v[0].I, v[1].I, math.Float64bits(v[2].F), v[3].S))
	}

	c := &compiler{sess: s, q: dispatch.NewQuery("fill"), workers: 1, sockets: s.Machine.Topo.Sockets,
		joins: make(map[*Node]*joinCompiled), mats: make(map[*Node]*matCompiled)}
	var pc *pipeCtx
	var got []string
	nilRows := 0
	chain(NewPlan("fill"), false).produce(c, func(ctx *pipeCtx) consumer {
		pc = ctx
		var regs []int
		for _, name := range resolved {
			k, _ := ctx.resolve(name)
			regs = append(regs, k)
		}
		return consumer{row: func(e *Ectx) {
			v := e.Regs
			got = append(got, fmt.Sprintf("%d|%d|%016x|%q|", v[regs[0]].I, v[regs[1]].I, math.Float64bits(v[regs[2]].F), v[regs[3]].S))
			if v[regs[1]].I%2 == 1 {
				nilRows++
				if v[regs[2]].F != 0 || v[regs[3]].S != "" {
					t.Errorf("unmatched outer row carries payload (%v, %q)", v[regs[2]].F, v[regs[3]].S)
				}
			}
			for _, name := range []string{"kf", "ks", "b0p"} {
				if k, _ := ctx.lookup(name); v[k] != (Val{}) {
					t.Fatalf("register %s, which no row consumer or residual reads, was written: %v", name, v[k])
				}
			}
		}}
	})
	if len(pc.probes) != 3 {
		t.Fatalf("%d batch probes, want 3", len(pc.probes))
	}
	var used []string
	for k, u := range pc.used {
		if u {
			used = append(used, pc.regs[k].Name)
		}
	}
	if !slices.Equal(used, []string{"id", "ki", "b0q", "b0r"}) {
		t.Errorf("registers a row consumer resolved: %v, want %v", used, resolved)
	}
	for i, pr := range pc.probes {
		// Only the last probe fills registers, so a row an earlier or later
		// join cuts never had one written.
		filled := len(pr.fill.scan)
		for _, g := range pr.fill.built {
			filled += len(g.regs)
		}
		if want := []int{0, 0, 4}[i]; filled != want {
			t.Errorf("probe %d fills %d registers, want %d", i, filled, want)
		}
	}
	d := dispatch.NewDispatcher(s.Machine, s.Dispatch)
	dispatch.NewSimRunner(d, s.SimCfg).Run(dispatch.Arrival{Query: c.q})
	if !slices.Equal(got, want) {
		t.Errorf("late-filled rows differ from the row path: %d rows vs %d\n got %v\nwant %v", len(got), len(want), firstDiff(got, want), firstDiff(want, got))
	}
	if nilRows == 0 || nilRows == len(got) {
		t.Errorf("%d of %d rows left the outer join unmatched; the test wants both kinds", nilRows, len(got))
	}
}

// TestProbeBatchAllocatesNothingPerMorsel: hashes, heads, candidates and
// pair lists are borrowed from the scratch pool, so once the worker's
// context, the hash table and the groups exist, a morsel through a chain
// of batch probes — overflow flushes included — into the aggregation,
// unpromoted or promoted, allocates nothing. (A chain into a batch build
// is TestBuildBatchAllocatesNothingPerMorsel.)
func TestProbeBatchAllocatesNothingPerMorsel(t *testing.T) {
	old := DefaultPreAggCapacity
	defer func() { DefaultPreAggCapacity = old }()
	rng := rand.New(rand.NewSource(28))
	builds := newProbeBuilds(rng)
	fact := probeFact(rng, 3*scanChunkRows+7, 1)
	s := oneWorkerSession(Sim)
	steps := []probeStep{
		{kind: JoinInner, build: builds.dup, keys: keyShapes["int"], payload: []string{"bp", "bq", "br"}},
		{kind: JoinSemi, build: builds.unique, keys: [][2]string{{"b0p", "bi"}}},
		{kind: JoinOuterProbe, build: builds.unique, keys: keyShapes["string"], payload: []string{"bq", "br"}, residual: true},
	}
	for _, capacity := range []int{old, 0} {
		DefaultPreAggCapacity = capacity
		p := chainPlan(fact, probeFilters["filtered"], steps, false, true)
		c := &compiler{sess: s, q: dispatch.NewQuery(p.Name), workers: 1, sockets: s.Machine.Topo.Sockets,
			joins: make(map[*Node]*joinCompiled), mats: make(map[*Node]*matCompiled)}
		agg := p.root
		rt := c.newAggRuntime(agg)
		var chain *pipeCtx
		tails := agg.child.produce(c, func(pc *pipeCtx) consumer {
			chain = pc
			return consumer{row: rt.sink(pc)}
		})
		if len(chain.probes) != 3 {
			t.Fatalf("%d batch probes, want 3", len(chain.probes))
		}
		d := dispatch.NewDispatcher(s.Machine, s.Dispatch)
		r := dispatch.NewSimRunner(d, s.SimCfg)
		r.Run(dispatch.Arrival{Query: c.q}) // builds the tables, creates the context and the groups
		w := r.Workers()[0]
		m := storage.Morsel{Part: fact.Parts[0], Begin: 0, End: fact.Parts[0].Rows()}
		if promoted := rt.locals[0].parts != nil; promoted != (capacity == 0) {
			t.Errorf("capacity %d: promoted %v", capacity, promoted)
		}
		before := rt.groupCount()
		if allocs := morselAllocs(20, func() { tails[0].Run(w, m) }); allocs != 0 {
			t.Errorf("capacity %d: a steady-state morsel through three batch probes allocates %v times", capacity, allocs)
		}
		if before == 0 || rt.groupCount() != before {
			t.Errorf("capacity %d: groups went from %d to %d", capacity, before, rt.groupCount())
		}
	}
}
