package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dispatch"
	"repro/internal/storage"
)

// runAgg compiles and runs p, whose root is an aggregation or a Project
// over one, like Session.Run, and returns the aggregation's runtime with
// the result so a test can inspect each worker's phase-1 tables.
func runAgg(s *Session, p *Plan) (*Result, *aggRuntime) {
	agg := p.root
	if agg.kind == nProject {
		agg = agg.child
	}
	c := &compiler{sess: s, q: dispatch.NewQuery(p.Name), workers: s.Dispatch.Workers,
		sockets: s.Machine.Topo.Sockets, joins: make(map[*Node]*joinCompiled), mats: make(map[*Node]*matCompiled)}
	sink := newResultSink(p.root.out, c.workers)
	rt := c.newAggRuntime(agg)
	rt.phase2(agg.child.produce(c, rt.consumer), sink.factory)
	d := dispatch.NewDispatcher(s.Machine, s.Dispatch)
	if s.Mode == Sim {
		dispatch.NewSimRunner(d, s.SimCfg).Run(dispatch.Arrival{Query: c.q})
	} else {
		dispatch.NewRealRunner(d).RunToCompletion(c.q)
	}
	return sink.collect(), rt
}

// promoteTable holds keys 0..n-1, each three times, in shuffled order.
func promoteTable(rng *rand.Rand, n int) *storage.Table {
	b := storage.NewBuilder("promote", storage.Schema{
		{Name: "k", Type: storage.I64}, {Name: "v", Type: storage.F64},
	}, 4, "")
	for _, i := range rng.Perm(3 * n) {
		b.Append(storage.Row{int64(i % n), float64(i%97) / 4})
	}
	return b.Build(storage.NUMAAware, 4)
}

// TestPromotionAtTheCap: on 1 and 8 workers, on the simulator and on real
// goroutines, through the batch and the row sink, a worker promotes
// exactly when a new group would take its one table past the cap. A worker
// that ends with at most cap groups has not promoted, and one with more
// has. A global aggregate never promotes, even at cap 0. Every run's
// result is exact.
func TestPromotionAtTheCap(t *testing.T) {
	old := DefaultPreAggCapacity
	defer func() { DefaultPreAggCapacity = old }()
	const keys = 1500
	tbl := promoteTable(rand.New(rand.NewSource(41)), keys)
	groups := []NamedExpr{N("k", Col("k"))}
	aggs := []AggDef{Count("n"), Sum("s", Col("v"))}
	for _, workers := range []int{1, 8} {
		for _, mode := range []Mode{Sim, Real} {
			for _, rowSink := range []bool{false, true} {
				for _, capacity := range []int{0, 1, 200, keys - 1, keys, old} {
					DefaultPreAggCapacity = capacity
					name := fmt.Sprintf("workers %d mode %v row sink %v cap %d", workers, mode, rowSink, capacity)
					s := newTestSession(mode)
					s.Dispatch.Workers, s.Dispatch.MorselRows = workers, 300
					p := NewPlan("promote")
					if rowSink {
						p.Return(viaRowSink(p.Scan(tbl, "k", "v"), groups, aggs))
					} else {
						p.Return(p.Scan(tbl, "k", "v").GroupBy(groups, aggs))
					}
					res, rt := runAgg(s, p)
					total := 0
					for wid := 0; wid < workers; wid++ {
						g, promoted := rt.locals[wid].groups(), rt.locals[wid].parts != nil
						total += g
						if promoted != (g > capacity) {
							t.Errorf("%s: worker %d holds %d groups, promoted %v", name, wid, g, promoted)
						}
					}
					if workers == 1 && total != keys {
						t.Errorf("%s: %d phase-1 groups, want %d", name, total, keys)
					}
					if res.NumRows() != keys {
						t.Fatalf("%s: %d groups, want %d", name, res.NumRows(), keys)
					}
					for _, row := range res.Rows() {
						if row[1].I != 3 {
							t.Fatalf("%s: group %d counted %d rows, want 3", name, row[0].I, row[1].I)
						}
					}

					DefaultPreAggCapacity = 0
					p = NewPlan("global")
					if rowSink {
						p.Return(viaRowSink(p.Scan(tbl, "k", "v"), nil, aggs))
					} else {
						p.Return(p.Scan(tbl, "k", "v").GroupBy(nil, aggs))
					}
					res, rt = runAgg(s, p)
					for wid := 0; wid < workers; wid++ {
						if g, promoted := rt.locals[wid].groups(), rt.locals[wid].parts != nil; promoted || g > 1 {
							t.Errorf("%s: global aggregate's worker %d holds %d groups, promoted %v", name, wid, g, promoted)
						}
					}
					if res.NumRows() != 1 || res.Rows()[0][0].I != 3*keys {
						t.Errorf("%s: global aggregate returned %v", name, res.Rows())
					}
				}
			}
		}
	}
}

// TestActivationAllocatesPerWorker: phase 2 reads an unpromoted table in
// place, so activating it allocates at most once per worker (the
// partition order of its entries), however many groups the table holds.
// Copying every group into per-partition runs at activation allocated
// about six times per group.
func TestActivationAllocatesPerWorker(t *testing.T) {
	const workers = 2
	for _, groups := range []int{0, 5, 25, 5000} {
		b := storage.NewBuilder("act", storage.Schema{
			{Name: "k", Type: storage.I64}, {Name: "v", Type: storage.F64},
		}, 2, "")
		for i := 0; i < max(25, groups); i++ {
			b.Append(storage.Row{int64(i % max(groups, 1)), float64(i)})
		}
		tbl := b.Build(storage.NUMAAware, 4)
		var keys []NamedExpr
		if groups > 0 {
			keys = []NamedExpr{N("k", Col("k"))}
		}
		s := newTestSession(Real)
		s.Dispatch.Workers, s.Dispatch.MorselRows = workers, 10
		p := NewPlan("act")
		p.Return(p.Scan(tbl, "k", "v").GroupBy(keys, []AggDef{Sum("s", Col("v"))}))
		res, rt := runAgg(s, p)
		if want := max(groups, 1); res.NumRows() != want {
			t.Fatalf("%d groups: result has %d rows, want %d", groups, res.NumRows(), want)
		}
		for wid := 0; wid < workers; wid++ {
			if rt.locals[wid].parts != nil {
				t.Fatalf("%d groups: worker %d promoted", groups, wid)
			}
		}
		if allocs := morselAllocs(20, rt.activate); allocs > workers {
			t.Errorf("%d groups: activation allocates %v times, want at most one per worker (%d)", groups, allocs, workers)
		}
	}
}
