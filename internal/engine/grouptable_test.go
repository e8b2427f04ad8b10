package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/storage"
)

// Property tests for groupTable (grouptable.go) against a plain map
// oracle: the table on its own, and the aggregation built on it with the
// promotion cap shrunk so most workers promote to partition tables.

var allAggs = []AggDef{
	Sum("s", Col("v")), MinOf("lo", Col("v")), MaxOf("hi", Col("v")), Count("n"), Avg("a", Col("v")),
}

// oracleAcc is the obvious per-group state.
type oracleAcc struct {
	sum, lo, hi float64
	n           int64
}

func (o *oracleAcc) add(v float64) {
	if o.n == 0 {
		o.lo, o.hi = v, v
	}
	o.sum += v
	o.lo, o.hi = math.Min(o.lo, v), math.Max(o.hi, v)
	o.n++
}

// matches compares one output row (sum, min, max, count, avg from off).
func (o *oracleAcc) matches(row []Val, off int) bool {
	return math.Abs(row[off].F-o.sum) <= 1e-6 && row[off+1].F == o.lo && row[off+2].F == o.hi &&
		row[off+3].I == o.n && math.Abs(row[off+4].F-o.sum/float64(o.n)) <= 1e-9
}

// TestQuickGroupTableAgainstMap drives the table directly: random keys of
// random lengths folded tuple by tuple into several tables, which are
// then merged into one (as phase 2 does) through a reset-and-reused
// destination.
func TestQuickGroupTableAgainstMap(t *testing.T) {
	outTypes := []Type{TFloat, TFloat, TFloat, TInt, TFloat}
	dst := newGroupTable(allAggs, 0, 0)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		want := map[string]*oracleAcc{}
		srcs := make([]*groupTable, 1+rng.Intn(4))
		for i := range srcs {
			srcs[i] = newGroupTable(allAggs, 0, 0)
		}
		keyRange := 1 + rng.Intn(3000)
		for i := rng.Intn(6000); i > 0; i-- {
			k := rng.Intn(keyRange)
			key := []byte(fmt.Sprintf("%0*d", 1+k%13, k))
			v := math.Round(rng.NormFloat64()*1000) / 10
			src := srcs[rng.Intn(len(srcs))]
			h := hashBytes(key)
			g := src.find(h, key)
			if g < 0 {
				g = src.insert(h, key)
			}
			vals := []float64{v, v, v, 0, v}
			src.merge(g, vals, 1)
			o := want[string(key)]
			if o == nil {
				o = &oracleAcc{}
				want[string(key)] = o
			}
			o.add(v)
		}
		dst.reset()
		for _, src := range srcs {
			for i := range src.hashes {
				dst.mergeEntry(src, i)
			}
		}
		if dst.len() != len(want) {
			return false
		}
		for g := 0; g < dst.len(); g++ {
			o := want[string(dst.key(g))]
			if o == nil {
				return false
			}
			row := make([]Val, len(allAggs))
			for k := range allAggs {
				row[k] = dst.output(g, k, outTypes[k])
			}
			if !o.matches(row, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickGroupByPromotion runs the aggregation on the simulator and on
// real goroutines across worker counts (the CI race job runs this), with
// the promotion cap at 0 to 8 groups, so workers promote at their first
// group or part-way through, and at its default.
func TestQuickGroupByPromotion(t *testing.T) {
	old := DefaultPreAggCapacity
	defer func() { DefaultPreAggCapacity = old }()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := storage.NewBuilder("m", storage.Schema{
			{Name: "k", Type: storage.I64},
			{Name: "tag", Type: storage.Str},
			{Name: "v", Type: storage.F64},
		}, 1+rng.Intn(8), "k")
		want := map[string]*oracleAcc{}
		keyRange := 1 + rng.Intn(300)
		for i := 1 + rng.Intn(3000); i > 0; i-- {
			k := int64(rng.Intn(keyRange)) - 20
			s := fmt.Sprintf("g%d", k%7)
			v := math.Round(rng.NormFloat64()*1000) / 10
			b.Append(storage.Row{k, s, v})
			id := fmt.Sprintf("%d|%s", k, s)
			if want[id] == nil {
				want[id] = &oracleAcc{}
			}
			want[id].add(v)
		}
		tbl := b.Build(storage.NUMAAware, 4)
		for _, capacity := range []int{rng.Intn(9), old} {
			DefaultPreAggCapacity = capacity
			for _, workers := range []int{1, 2, 4, 8} {
				for _, mode := range []Mode{Sim, Real} {
					s := quickSession(rng)
					s.Mode = mode
					s.Dispatch.Workers = workers
					p := NewPlan("q")
					p.Return(p.Scan(tbl, "k", "tag", "v").
						GroupBy([]NamedExpr{N("k", Col("k")), N("tag", Col("tag"))}, allAggs))
					res, _ := s.Run(p)
					if res.NumRows() != len(want) {
						return false
					}
					for _, row := range res.Rows() {
						o := want[fmt.Sprintf("%d|%s", row[0].I, row[1].S)]
						if o == nil || !o.matches(row, 2) {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}
