package engine

import (
	"math"
	"sort"

	"repro/internal/dispatch"
	"repro/internal/numa"
	"repro/internal/storage"
)

// sortRuntime implements the paper's parallel sort (§4.5): each worker
// materializes and sorts its input locally in place; local separators are
// combined median-of-medians style into global separators; and the runs
// are merged into disjoint output ranges fully in parallel without
// synchronization. Top-k queries short-circuit with per-worker heaps.
type sortRuntime struct {
	schema []Reg
	keyIdx []int
	desc   []bool
	limit  int

	runs   [][][]Val // per worker: locally sorted run
	seps   [][]Val   // global separator keys (key columns only)
	ranges [][][]Val // merged output, one slice per range
	topk   [][]Val   // top-k fast-path result
}

func (rt *sortRuntime) less(a, b []Val) bool { return rt.compare(a, b) < 0 }

func (rt *sortRuntime) compare(a, b []Val) int {
	for i, k := range rt.keyIdx {
		c, nanOrder := compareVal(rt.schema[k].Type, a[k], b[k])
		if c == 0 {
			continue
		}
		if nanOrder || !rt.desc[i] {
			return c
		}
		return -c
	}
	return 0
}

// compileSorted lowers a plan whose result carries ORDER BY (+ LIMIT).
func (c *compiler) compileSorted(p *Plan) func() *Result {
	root := p.root
	rt := &sortRuntime{
		schema: root.out,
		limit:  p.limit,
		runs:   make([][][]Val, c.workers),
	}
	for _, k := range p.sortKeys {
		idx, _ := schemaResolver(root.out).resolve(k.Name)
		rt.keyIdx = append(rt.keyIdx, idx)
		rt.desc = append(rt.desc, k.Desc)
	}
	nOut := len(root.out)
	rowW := rowWidth(root.out)

	// ---- Materialization sink: thread-local, in place (§4.5 "each
	// thread first materializes and sorts its input locally").
	tails := root.produce(c, func(pc *pipeCtx) consumer {
		srcIdx := make([]int, nOut)
		for i, r := range root.out {
			srcIdx[i], _ = pc.resolve(r.Name)
		}
		limit := rt.limit
		return consumer{row: func(e *Ectx) {
			row := make([]Val, nOut)
			for i, si := range srcIdx {
				row[i] = e.Regs[si]
			}
			wid := e.W.ID
			rt.runs[wid] = append(rt.runs[wid], row)
			e.writeBytes += int64(rowW)
			e.cpuUnits += 2
			// Top-k: keep the per-worker buffer bounded by
			// periodically selecting the best `limit` rows.
			if limit > 0 && len(rt.runs[wid]) >= 4*limit+64 {
				run := rt.runs[wid]
				sort.Slice(run, func(i, j int) bool { return rt.less(run[i], run[j]) })
				rt.runs[wid] = run[:limit]
				e.cpuUnits += float64(len(run)) * math.Log2(float64(len(run)))
			}
		}}
	})

	if rt.limit > 0 {
		// ---- Top-k final: one small task merges the per-worker
		// candidate sets.
		var drv *driver
		final := c.q.AddJob("top-k",
			func() []*storage.Partition {
				drv = newDriver(1, func(int) numa.SocketID { return 0 })
				return drv.parts
			},
			func(w *dispatch.Worker, m storage.Morsel) {
				var all [][]Val
				topo := w.Tracker.Machine().Topo
				for wid, run := range rt.runs {
					all = append(all, run...)
					w.Tracker.ReadSeq(topo.Place(wid).Socket, int64(float64(len(run))*rowW))
				}
				sort.SliceStable(all, func(i, j int) bool { return rt.less(all[i], all[j]) })
				if len(all) > rt.limit {
					all = all[:rt.limit]
				}
				rt.topk = all
				n := float64(len(all) + 1)
				w.Tracker.CPU(int64(n), math.Log2(n)+1)
			})
		final.After(tails...).WithMorselRows(1)
		return func() *Result {
			return &Result{Schema: rt.schema, rows: rt.topk}
		}
	}

	// ---- Full parallel merge sort.
	sockets := c.sockets
	var sortDrv *driver
	var runOrder []int // worker ids with non-empty runs
	localSort := c.q.AddJob("local-sort",
		func() []*storage.Partition {
			runOrder = runOrder[:0]
			for wid, run := range rt.runs {
				if len(run) > 0 {
					runOrder = append(runOrder, wid)
				}
			}
			topo := c.sess.Machine.Topo
			sortDrv = newDriver(len(runOrder), func(i int) numa.SocketID {
				return topo.Place(runOrder[i]).Socket
			})
			return sortDrv.parts
		},
		func(w *dispatch.Worker, m storage.Morsel) {
			run := rt.runs[runOrder[sortDrv.task(m)]]
			sort.Slice(run, func(i, j int) bool { return rt.less(run[i], run[j]) })
			n := float64(len(run) + 1)
			bytes := int64(float64(len(run)) * rowW)
			w.Tracker.ReadSeq(m.Home(), bytes)
			w.Tracker.WriteSeq(bytes)
			w.Tracker.CPU(int64(n), math.Log2(n)+1)
		})
	localSort.After(tails...).WithMorselRows(1)
	localSort.WithFinalize(func(w *dispatch.Worker) {
		// Compute global separators from per-run local separators
		// ("similar to the median-of-medians algorithm", §4.5).
		nRanges := len(runOrder)
		if nRanges == 0 {
			return
		}
		var samples [][]Val
		const perRun = 32
		for _, wid := range runOrder {
			run := rt.runs[wid]
			for i := 1; i <= perRun; i++ {
				samples = append(samples, run[(len(run)-1)*i/perRun])
			}
		}
		sort.Slice(samples, func(i, j int) bool { return rt.less(samples[i], samples[j]) })
		for i := 1; i < nRanges; i++ {
			rt.seps = append(rt.seps, samples[(len(samples)-1)*i/nRanges])
		}
		rt.ranges = make([][][]Val, nRanges)
	})

	var mergeDrv *driver
	merge := c.q.AddJob("merge",
		func() []*storage.Partition {
			n := len(rt.ranges)
			mergeDrv = newDriver(n, func(i int) numa.SocketID {
				return numa.SocketID(i % sockets)
			})
			return mergeDrv.parts
		},
		func(w *dispatch.Worker, m storage.Morsel) {
			r := mergeDrv.task(m)
			var lo, hi []Val
			if r > 0 {
				lo = rt.seps[r-1]
			}
			if r < len(rt.seps) {
				hi = rt.seps[r]
			}
			// Binary-search each run's bounds for this range, then
			// merge the segments without synchronization.
			type seg struct {
				rows [][]Val
				pos  int
			}
			var segs []seg
			total := 0
			topo := w.Tracker.Machine().Topo
			for _, wid := range runOrder {
				run := rt.runs[wid]
				begin := 0
				if lo != nil {
					begin = sort.Search(len(run), func(i int) bool { return rt.compare(run[i], lo) >= 0 })
				}
				end := len(run)
				if hi != nil {
					end = sort.Search(len(run), func(i int) bool { return rt.compare(run[i], hi) >= 0 })
				}
				if begin < end {
					segs = append(segs, seg{rows: run[begin:end]})
					total += end - begin
					w.Tracker.ReadSeq(topo.Place(wid).Socket, int64(float64(end-begin)*rowW))
				}
			}
			out := make([][]Val, 0, total)
			for {
				best := -1
				for i := range segs {
					if segs[i].pos >= len(segs[i].rows) {
						continue
					}
					if best < 0 || rt.less(segs[i].rows[segs[i].pos], segs[best].rows[segs[best].pos]) {
						best = i
					}
				}
				if best < 0 {
					break
				}
				out = append(out, segs[best].rows[segs[best].pos])
				segs[best].pos++
			}
			rt.ranges[r] = out
			w.Tracker.WriteSeq(int64(float64(total) * rowW))
			w.Tracker.CPU(int64(total), float64(len(segs)))
		})
	merge.After(localSort).WithMorselRows(1)

	return func() *Result {
		var rows [][]Val
		for _, r := range rt.ranges {
			rows = append(rows, r...)
		}
		return &Result{Schema: rt.schema, rows: rows}
	}
}
