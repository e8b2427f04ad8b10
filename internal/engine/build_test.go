package engine

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dispatch"
	"repro/internal/storage"
)

// Differential and allocation tests for the hash join's batch build entry
// (join.go): build sides fed by a scan and by chains of batch probes,
// through the batch entry and — forced by a pass-through Filter above the
// build side — through the row entry. The build areas must agree byte for
// byte on one worker and the join results as multisets on several.

// viaRowBuild puts a pass-through Filter above a build side, which ends
// its batch chain, so the build takes rows; the Project under it keeps the
// Filter from fusing into a scan.
func viaRowBuild(n *Node) *Node {
	names := make([]string, len(n.out))
	for i, r := range n.out {
		names[i] = r.Name
	}
	return n.Project(names...).Filter(Eq(ConstI(1), ConstI(1)))
}

// buildCase is a build side over the probeFact rows and the keys it is
// joined on: build-side key columns, paired with the probe table's.
type buildCase struct {
	side      func(p *Plan, fact *storage.Table, filter *Expr, b probeBuilds) *Node
	buildKeys []string
	probeKeys []string
	payload   []string
}

// sideScan is the fact scan every build side starts from, with the
// filter fused into it.
func sideScan(p *Plan, fact *storage.Table, filter *Expr) *Node {
	n := p.Scan(fact, "id", "ki", "kf", "ks", "v")
	if filter != nil {
		n = n.Filter(filter)
	}
	return n
}

// sideProbe joins the fact rows to a build table of probe_test's, its
// columns entering as b0<letter>.
func sideProbe(p *Plan, fact *storage.Table, filter *Expr, build *storage.Table, kind JoinKind, payload ...string) *Node {
	var cols []string
	for _, c := range buildCols {
		cols = append(cols, c+" AS b0"+c[1:])
	}
	return sideScan(p, fact, filter).HashJoin(p.Scan(build, cols...), kind, []*Expr{Col("ki")}, []*Expr{Col("b0i")}, payload...)
}

// buildCases: keys of every type and a composite one straight from the
// scan; a key and a string payload read through an inner probe's refs, and
// through an outer probe's, whose unmatched rows carry nil refs (their key
// reads as 0, which the probe table holds); scan columns behind an
// expanding join and behind a semi join's pair list.
func buildCases() map[string]buildCase {
	scan := func(p *Plan, fact *storage.Table, filter *Expr, _ probeBuilds) *Node {
		return sideScan(p, fact, filter)
	}
	scanPayload := []string{"id", "ks", "v"}
	return map[string]buildCase{
		"scan-int":       {scan, []string{"ki"}, []string{"pi"}, scanPayload},
		"scan-float":     {scan, []string{"kf"}, []string{"pf"}, scanPayload},
		"scan-string":    {scan, []string{"ks"}, []string{"ps"}, scanPayload},
		"scan-composite": {scan, []string{"ki", "ks"}, []string{"pi", "ps"}, scanPayload},
		"inner-payload": {func(p *Plan, fact *storage.Table, filter *Expr, b probeBuilds) *Node {
			return sideProbe(p, fact, filter, b.unique, JoinInner, "b0p", "b0q", "b0r")
		}, []string{"b0p"}, []string{"pi"}, []string{"id", "b0r", "b0q"}},
		"outer-nil-refs": {func(p *Plan, fact *storage.Table, filter *Expr, b probeBuilds) *Node {
			return sideProbe(p, fact, filter, b.unique, JoinOuterProbe, "b0p", "b0q", "b0r")
		}, []string{"b0p", "b0r"}, []string{"pi", "pr"}, []string{"id", "b0q", "ks"}},
		"expanding": {func(p *Plan, fact *storage.Table, filter *Expr, b probeBuilds) *Node {
			return sideProbe(p, fact, filter, b.dup, JoinInner, "b0q")
		}, []string{"ks"}, []string{"ps"}, []string{"id", "b0q", "v"}},
		"semi": {func(p *Plan, fact *storage.Table, filter *Expr, b probeBuilds) *Node {
			return sideProbe(p, fact, filter, b.unique, JoinSemi)
		}, []string{"kf"}, []string{"pf"}, []string{"id", "ks"}},
	}
}

// buildPlan joins the probe table (probe_test's unique build side, its
// columns entering as p<letter>) against the case's build side, through
// the batch build or the row build; it returns the plan and the join.
func buildPlan(fact, probeTab *storage.Table, b probeBuilds, bc buildCase, filter *Expr, rowBuild bool) (*Plan, *Node) {
	p := NewPlan("build")
	side := bc.side(p, fact, filter, b)
	if rowBuild {
		side = viaRowBuild(side)
	}
	var cols []string
	for _, c := range buildCols {
		cols = append(cols, c+" AS p"+c[1:])
	}
	var pk, bk []*Expr
	for i := range bc.buildKeys {
		pk, bk = append(pk, Col(bc.probeKeys[i])), append(bk, Col(bc.buildKeys[i]))
	}
	join := p.Scan(probeTab, cols...).HashJoin(side, JoinInner, pk, bk, bc.payload...)
	p.Return(join.Project(append([]string{"pi", "pq"}, bc.payload...)...))
	return p, join
}

// areaDiff reports the first difference between two builds' areas: rows,
// values (floats by their bits) and the string bytes the cost model reads.
func areaDiff(got, want *storage.AreaSet) string {
	for w := range want.Areas {
		g, x := got.Areas[w], want.Areas[w]
		if (g == nil) != (x == nil) {
			return fmt.Sprintf("worker %d: area present %v, want %v", w, g != nil, x != nil)
		}
		if x == nil {
			continue
		}
		for c, xc := range x.Cols {
			gc := g.Cols[c]
			if gc.Len() != xc.Len() || gc.AvgWidth() != xc.AvgWidth() {
				return fmt.Sprintf("worker %d column %s: %d rows of width %v, want %d of %v", w, xc.Name, gc.Len(), gc.AvgWidth(), xc.Len(), xc.AvgWidth())
			}
			for r := 0; r < xc.Len(); r++ {
				var same bool
				switch xc.Type {
				case storage.I64:
					same = gc.Ints[r] == xc.Ints[r]
				case storage.F64:
					same = math.Float64bits(gc.Flts[r]) == math.Float64bits(xc.Flts[r])
				default:
					same = gc.Strs[r] == xc.Strs[r]
				}
				if !same {
					return fmt.Sprintf("worker %d column %s row %d: %v, want %v", w, xc.Name, r, loadVal(gc, typeOfCol(gc.Type), r), loadVal(xc, typeOfCol(xc.Type), r))
				}
			}
		}
	}
	return ""
}

var buildFilters = map[string]*Expr{
	"unfiltered": nil,
	"filtered":   probeFilters["filtered"],
	"empty":      Lt(Col("id"), ConstI(0)),
}

// TestBatchBuildMatchesRowBuild: every build case under no filter, a
// filter, and one keeping nothing, at morsel lengths on every side of the
// chunk size, on the simulator and on one real worker — the areas hold the
// same tuples in the same order, hashes and string widths included, and
// the join returns the same rows in the same order.
func TestBatchBuildMatchesRowBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	builds := newProbeBuilds(rng)
	for _, n := range probeLengths {
		fact := probeFact(rng, n, 1)
		for _, mode := range []Mode{Sim, Real} {
			s := oneWorkerSession(mode)
			for cname, bc := range buildCases() {
				for fname, filter := range buildFilters {
					label := fmt.Sprintf("n=%d mode=%v %s %s", n, mode, cname, fname)
					var areas [2]*storage.AreaSet
					var digests [2]rowDigest
					for i, rowBuild := range []bool{false, true} {
						p, join := buildPlan(fact, builds.unique, builds, bc, filter, rowBuild)
						sink := &digestSink{schema: p.root.out, per: make([]rowDigest, 1)}
						areas[i] = runInto(s, p, sink.factory).joins[join].rt.areas
						digests[i] = sink.total()
					}
					if d := areaDiff(areas[0], areas[1]); d != "" {
						t.Errorf("%s: batch build differs from row build: %s", label, d)
					}
					if digests[0] != digests[1] {
						t.Errorf("%s: join output differs: %d rows vs %d", label, digests[0].n, digests[1].n)
					}
					if fname != "empty" && n > scanChunkRows && areas[0].TotalRows() == 0 {
						t.Errorf("%s: nothing built", label)
					}
				}
			}
		}
	}
}

// TestBatchBuildAcrossWorkers runs every build case on 2 and 8 real
// workers over a partitioned fact table (the race job's target) and
// compares the join results as multisets.
func TestBatchBuildAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	builds := newProbeBuilds(rng)
	fact := probeFact(rng, 3*scanChunkRows+7, 5)
	for _, workers := range []int{2, 8} {
		s := newTestSession(Real)
		s.Dispatch.Workers, s.Dispatch.MorselRows = workers, scanChunkRows+300
		for cname, bc := range buildCases() {
			for fname, filter := range buildFilters {
				var got [2]rowDigest
				for i, rowBuild := range []bool{false, true} {
					p, _ := buildPlan(fact, builds.unique, builds, bc, filter, rowBuild)
					got[i] = digestOf(s, p)
					got[i].seq = 0
				}
				if got[0] != got[1] {
					t.Errorf("workers=%d %s %s: batch build joins %d rows, row build %d (or the rows differ)", workers, cname, fname, got[0].n, got[1].n)
				}
			}
		}
	}
}

// buildFixture compiles a build side — a filtered fact scan, an expanding
// inner join whose payload keys the build, and a semi join — into a batch
// build of its own, and runs it once, which builds the probes' tables.
func buildFixture(t *testing.T) (rt *joinRuntime, run func()) {
	t.Helper()
	rng := rand.New(rand.NewSource(43))
	builds := newProbeBuilds(rng)
	fact := probeFact(rng, 3*scanChunkRows+7, 1)
	s := oneWorkerSession(Sim)
	p := NewPlan("alloc")
	side := sideProbe(p, fact, probeFilters["filtered"], builds.dup, JoinInner, "b0p", "b0r")
	var cols []string
	for _, c := range buildCols {
		cols = append(cols, c+" AS b1"+c[1:])
	}
	side = side.HashJoin(p.Scan(builds.unique, cols...), JoinSemi, []*Expr{Col("ks")}, []*Expr{Col("b1s")})
	join := p.Scan(builds.unique, "bi AS pi").HashJoin(side, JoinInner, []*Expr{Col("pi")}, []*Expr{Col("b0p")}, "b0r")
	c := &compiler{sess: s, q: dispatch.NewQuery(p.Name), workers: 1, sockets: s.Machine.Topo.Sockets,
		joins: make(map[*Node]*joinCompiled), mats: make(map[*Node]*matCompiled)}
	rt = newJoinRuntime(join, 1)
	var chain *pipeCtx
	tails := join.build.produce(c, func(pc *pipeCtx) consumer {
		chain = pc
		batch := rt.batchBuild(pc, join.buildKeys, buildCharge{cpu: 2, bytes: rt.entryBytes()})
		if batch == nil {
			t.Fatal("the build side has no batch entry")
		}
		return consumer{batch: batch}
	})
	if len(chain.probes) != 2 {
		t.Fatalf("%d batch probes, want 2", len(chain.probes))
	}
	d := dispatch.NewDispatcher(s.Machine, s.Dispatch)
	r := dispatch.NewSimRunner(d, s.SimCfg)
	r.Run(dispatch.Arrival{Query: c.q}) // builds the probes' tables and creates the context
	w := r.Workers()[0]
	m := storage.Morsel{Part: fact.Parts[0], Begin: 0, End: fact.Parts[0].Rows()}
	return rt, func() { tails[0].Run(w, m) }
}

// TestBuildBatchAllocatesNothingPerMorsel: gathering, hashing and the
// pair lists behind the probes use the areas and the pooled scratch only,
// so a morsel whose tuples fit the areas' capacity allocates nothing; and
// an N-row build from empty areas makes O(log N) allocations per column.
func TestBuildBatchAllocatesNothingPerMorsel(t *testing.T) {
	rt, run := buildFixture(t)
	area := rt.areas.Areas[0]
	rows := area.Rows()
	if rows < 4*scanChunkRows {
		t.Fatalf("the fixture builds %d rows; the growth bound wants several chunks", rows)
	}
	empty := func() {
		for _, c := range area.Cols {
			c.Ints, c.Flts, c.Strs = c.Ints[:0], c.Flts[:0], c.Strs[:0]
		}
	}
	if allocs := morselAllocs(20, func() { empty(); run() }); allocs != 0 {
		t.Errorf("a morsel within the areas' capacity allocates %v times", allocs)
	}
	if area.Rows() != rows {
		t.Errorf("rebuilt %d rows, want %d", area.Rows(), rows)
	}
	// From empty areas: the area and its columns, then per column one
	// allocation for the first chunk (up to scanChunkRows rows) and one per
	// doubling after it.
	cols := len(area.Cols)
	doublings := 1 + int(math.Ceil(math.Log2(float64(rows)/scanChunkRows)))
	bound := float64(2 + cols*(2+doublings))
	allocs := morselAllocs(5, func() { rt.areas.Areas[0] = nil; run() })
	if allocs > bound {
		t.Errorf("building %d rows into %d columns from empty areas allocates %v times, want at most %v", rows, cols, allocs, bound)
	}
	t.Logf("%d rows into %d columns: %v allocations from empty areas (bound %v)", rows, cols, allocs, bound)
}

// TestSmallBuildAllocatesNoMoreBytes: a 25-row build — a nation table, as
// in serve_short's nation_rollup_p — costs the batch entry no more bytes
// than the row entry (append's growth) did: the areas start at the chunk's
// row count, with no fixed floor.
func TestSmallBuildAllocatesNoMoreBytes(t *testing.T) {
	b := storage.NewBuilder("nation", storage.Schema{
		{Name: "n_nationkey", Type: storage.I64}, {Name: "n_name", Type: storage.Str}, {Name: "n_regionkey", Type: storage.I64},
	}, 1, "")
	for i := 0; i < 25; i++ {
		b.Append(storage.Row{int64(i), fmt.Sprintf("NATION%d", i), int64(i % 5)})
	}
	nation := b.Build(storage.NUMAAware, 4)
	s := oneWorkerSession(Sim)
	p := NewPlan("small")
	join := p.Scan(nation, "n_regionkey AS r").HashJoin(p.Scan(nation, "n_nationkey", "n_name"), JoinInner,
		[]*Expr{Col("r")}, []*Expr{Col("n_nationkey")}, "n_name")
	c := &compiler{sess: s, q: dispatch.NewQuery(p.Name), workers: 1, sockets: s.Machine.Topo.Sockets,
		joins: make(map[*Node]*joinCompiled), mats: make(map[*Node]*matCompiled)}
	w := dispatch.NewSimRunner(dispatch.NewDispatcher(s.Machine, dispatch.Config{Workers: 1}), dispatch.SimConfig{}).Workers()[0]
	m := storage.Morsel{Part: nation.Parts[0], Begin: 0, End: 25}
	var bytes [2]uint64
	for i, batch := range []bool{true, false} {
		rt := newJoinRuntime(join, 1)
		tails := join.build.produce(c, func(pc *pipeCtx) consumer {
			charge := buildCharge{cpu: 2, bytes: rt.entryBytes()}
			if batch {
				return consumer{batch: rt.batchBuild(pc, join.buildKeys, charge)}
			}
			return consumer{row: rt.rowBuild(pc, join.buildKeys, charge)}
		})
		tails[0].Run(w, m) // creates the context
		bytes[i] = morselBytes(10, func() { rt.areas.Areas[0] = nil; tails[0].Run(w, m) })
		if rt.areas.TotalRows() != 25 {
			t.Fatalf("built %d rows", rt.areas.TotalRows())
		}
	}
	t.Logf("a 25-row build allocates %d bytes through the batch entry, %d through the row entry", bytes[0], bytes[1])
	if bytes[0] > bytes[1] {
		t.Errorf("a 25-row build allocates %d bytes through the batch entry, %d through the row entry", bytes[0], bytes[1])
	}
}

// morselBytes is the fewest bytes any one of `runs` calls of f allocated.
func morselBytes(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	least := ^uint64(0)
	var ms runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		f()
		runtime.ReadMemStats(&ms)
		least = min(least, ms.TotalAlloc-before)
	}
	return least
}
