package bench

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/dispatch"
	"repro/internal/numa"
	"repro/internal/tpch"
)

// Figure11 reproduces the TPC-H scalability plot: speedup over the
// full-fledged single-threaded time for 1..64 threads and all four
// system variants. Expected shape: full-fledged reaches ~30x at 32 real
// cores (more with SMT); the plan-driven baseline saturates below 10x.
func Figure11(w io.Writer, cfg Config) {
	m := func() *numa.Machine { return numa.NehalemEXMachine() }
	threads := cfg.threadCounts()
	fmt.Fprintf(w, "Figure 11: TPC-H speedup on Nehalem EX (SF %g, normalized to full-fledged 1 thread)\n", cfg.TPCHSF)
	fmt.Fprintf(w, "paper shape: full-fledged ~30x at 32 threads, 30-40x at 64; Volcano baseline < 10x\n\n")

	for _, q := range cfg.tpchQueryNums() {
		base := cfg.runTPCH(m(), FullFledged, 1, q).TimeNs
		fmt.Fprintf(w, "Q%-3d %-22s", q, "threads:")
		for _, t := range threads {
			fmt.Fprintf(w, "%8d", t)
		}
		fmt.Fprintln(w)
		for _, sys := range Systems() {
			fmt.Fprintf(w, "     %-22s", sys.String())
			for _, t := range threads {
				st := cfg.runTPCH(m(), sys, t, q)
				fmt.Fprintf(w, "%8.1f", base/st.TimeNs)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
}

// Table1 reproduces the per-query TPC-H statistics on Nehalem EX: time,
// scalability, bandwidth, remote access share and peak QPI utilization,
// for the full engine and the plan-driven baseline, next to the paper's
// measurements.
func Table1(w io.Writer, cfg Config) {
	fmt.Fprintf(w, "Table 1: TPC-H (SF %g) statistics on Nehalem EX, 64 threads\n", cfg.TPCHSF)
	fmt.Fprintf(w, "%-4s | %-44s | %-30s | %s\n", "", "morsel-driven (measured)", "plan-driven baseline (measured)", "paper: HyPer / Vectorwise")
	fmt.Fprintf(w, "%-4s | %9s %6s %7s %7s %6s | %9s %6s %7s %6s | %s\n",
		"#", "time[s]", "scal", "rd GB/s", "remote", "QPI%", "time[s]", "scal", "remote", "QPI%",
		"time scal remote% | time scal")
	var geoOur, geoVw []float64
	for _, q := range cfg.tpchQueryNums() {
		base := cfg.runTPCH(numa.NehalemEXMachine(), FullFledged, 1, q)
		st := cfg.runTPCH(numa.NehalemEXMachine(), FullFledged, 64, q)
		vwBase := cfg.runTPCH(numa.NehalemEXMachine(), PlanDriven, 1, q)
		vw := cfg.runTPCH(numa.NehalemEXMachine(), PlanDriven, 64, q)
		pp := paperTable1[q]
		fmt.Fprintf(w, "%-4d | %9s %6.1f %7.1f %6.0f%% %5.0f%% | %9s %6.1f %6.0f%% %5.0f%% | %.2f %.1f %.0f%% | %.2f %.1f\n",
			q, fmtSec(st.TimeNs), base.TimeNs/st.TimeNs, st.ReadGBs(), st.RemotePct(), st.QPIPct(),
			fmtSec(vw.TimeNs), vwBase.TimeNs/vw.TimeNs, vw.RemotePct(), vw.QPIPct(),
			pp.HyTime, pp.HyScal, pp.HyRemote, pp.VwTime, pp.VwScal)
		geoOur = append(geoOur, base.TimeNs/st.TimeNs)
		geoVw = append(geoVw, vwBase.TimeNs/vw.TimeNs)
	}
	fmt.Fprintf(w, "\ngeo.mean scalability: morsel-driven %.1fx, plan-driven %.1fx (paper: 28.1x vs 9.3x)\n",
		geoMean(geoOur), geoMean(geoVw))
}

// Table2 reproduces the Sandy Bridge EP table: time and scalability per
// query. The partially connected topology costs some scalability, the
// higher clock rate compensates — the overall picture must be similar to
// Nehalem EX (§5.2).
func Table2(w io.Writer, cfg Config) {
	fmt.Fprintf(w, "Table 2: TPC-H (SF %g) on Sandy Bridge EP, 64 threads\n", cfg.TPCHSF)
	fmt.Fprintf(w, "%-4s %10s %8s | %s\n", "#", "time [s]", "scal", "paper: time scal")
	for _, q := range cfg.tpchQueryNums() {
		base := cfg.runTPCH(numa.SandyBridgeEPMachine(), FullFledged, 1, q)
		st := cfg.runTPCH(numa.SandyBridgeEPMachine(), FullFledged, 64, q)
		pp := paperTable2[q]
		fmt.Fprintf(w, "%-4d %10s %7.1fx | %.2f %.1fx\n",
			q, fmtSec(st.TimeNs), base.TimeNs/st.TimeNs, pp[0], pp[1])
	}
}

// Summary51 reproduces the §5.1 headline comparison: geometric mean, sum
// and average scalability over the full TPC-H suite, morsel-driven vs.
// the plan-driven baseline.
func Summary51(w io.Writer, cfg Config) {
	type agg struct {
		times []float64
		sum   float64
		scal  []float64
	}
	measure := func(sys System) agg {
		var a agg
		for _, q := range cfg.tpchQueryNums() {
			base := cfg.runTPCH(numa.NehalemEXMachine(), sys, 1, q)
			st := cfg.runTPCH(numa.NehalemEXMachine(), sys, 64, q)
			a.times = append(a.times, st.TimeNs/1e9)
			a.sum += st.TimeNs / 1e9
			a.scal = append(a.scal, base.TimeNs/st.TimeNs)
		}
		return a
	}
	our := measure(FullFledged)
	vw := measure(PlanDriven)
	fmt.Fprintf(w, "Section 5.1 summary (TPC-H SF %g, 64 threads, Nehalem EX)\n\n", cfg.TPCHSF)
	fmt.Fprintf(w, "%-28s %10s %10s %8s\n", "system", "geo.mean[s]", "sum[s]", "scal")
	fmt.Fprintf(w, "%-28s %10.4f %10.3f %7.1fx\n", "morsel-driven", geoMean(our.times), our.sum, geoMean(our.scal))
	fmt.Fprintf(w, "%-28s %10.4f %10.3f %7.1fx\n", "plan-driven baseline", geoMean(vw.times), vw.sum, geoMean(vw.scal))
	fmt.Fprintf(w, "\npaper (SF 100): HyPer 0.45s / 15.3s / 28.1x; Vectorwise 2.84s / 93.4s / 9.3x\n")
	fmt.Fprintf(w, "speedup of morsel-driven over baseline: geo.mean %.1fx (paper: %.1fx)\n",
		geoMean(vw.times)/geoMean(our.times), paperSummary51.VwGeo/paperSummary51.HyGeo)
}

// Figure12 reproduces the intra- vs. inter-query parallelism experiment:
// 64 hardware threads distributed over 1..64 query streams, each stream
// executing the TPC-H queries back to back. Throughput must stay high
// across the whole range (§5.4, Fig. 12).
func Figure12(w io.Writer, cfg Config) {
	queries := cfg.tpchQueryNums()
	fmt.Fprintf(w, "Figure 12: intra- vs inter-query parallelism (TPC-H SF %g)\n", cfg.TPCHSF)
	fmt.Fprintf(w, "paper shape: throughput roughly flat, mildly increasing with more streams\n\n")
	fmt.Fprintf(w, "%-8s %-18s %-14s\n", "streams", "threads/stream", "queries/s")
	var first float64
	for _, streams := range []int{1, 2, 4, 8, 16, 32, 64} {
		per := 64 / streams
		// All streams run the same query set (a permutation does not
		// change a stream's sequential makespan), so one stream's
		// makespan is representative.
		var streamNs float64
		for _, q := range queries {
			streamNs += cfg.runTPCH(numa.NehalemEXMachine(), FullFledged, per, q).TimeNs
		}
		// Streams run concurrently, so aggregate throughput is all
		// streams' queries over one stream's makespan.
		tput := float64(streams*len(queries)) / (streamNs / 1e9)
		if first == 0 {
			first = tput
		}
		fmt.Fprintf(w, "%-8d %-18d %-10.2f (%.2fx vs 1 stream)\n", streams, per, tput, tput/first)
	}
}

// Figure13 reproduces the elasticity trace: a long query starts on 4
// workers; the short Q14 arrives mid-flight; workers must migrate to it
// at morsel boundaries and return when it finishes. The paper's long
// query is Q13, whose cost at SF 100 is dominated by a 15M-group
// aggregation; at this reproduction's scale that aggregation fits in a
// worker's one table and Q13 shrinks to Q14's size, so the longest
// query at our scale — Q9 — plays its role (same duration ratio as the
// paper's pair).
func Figure13(w io.Writer, cfg Config) {
	db := TPCHDB(cfg.TPCHSF)
	m := numa.NehalemEXMachine()

	// Measure the long query solo to place the arrival mid-query.
	solo := func() float64 {
		s := cfg.session(numa.NehalemEXMachine(), FullFledged, 4)
		_, st := tpch.QueryByNum(9).Run(s, db)
		return st.TimeNs
	}()

	d := dispatch.NewDispatcher(m, dispatch.Config{Workers: 4, MorselRows: cfg.MorselRows, Trace: true})
	s := cfg.session(m, FullFledged, 4)
	cp13 := s.Compile(tpch.Q9Plan(db))
	cp14 := s.Compile(tpch.Q14Plan(db))
	r := dispatch.NewSimRunner(d, dispatch.SimConfig{})
	makespan := r.Run(
		dispatch.Arrival{Query: cp13.Query, AtNs: 0},
		dispatch.Arrival{Query: cp14.Query, AtNs: solo * 0.25},
	)

	fmt.Fprintf(w, "Figure 13: morsel-wise elasticity trace (4 workers; Q14 arrives at %.2fms)\n", solo*0.25/1e6)
	fmt.Fprintf(w, "each character = %s of one worker's time; L = long-query morsel, 4 = Q14 morsel\n\n", "1/100th")
	entries := d.Trace().Sorted()
	const width = 100
	for wkr := 0; wkr < 4; wkr++ {
		line := make([]byte, width)
		for i := range line {
			line[i] = '.'
		}
		for _, e := range entries {
			if e.Worker != wkr {
				continue
			}
			c := byte('L')
			if strings.Contains(e.Query, "14") {
				c = '4'
			}
			from := int(e.StartNs / makespan * width)
			to := int(e.EndNs / makespan * width)
			for i := from; i <= to && i < width; i++ {
				line[i] = c
			}
		}
		fmt.Fprintf(w, "worker %d  %s\n", wkr, line)
	}
	fmt.Fprintf(w, "\nlong: %.2fms -> %.2fms   Q14: %.2fms -> %.2fms (finished first: %v)\n",
		cp13.Query.StartV/1e6, cp13.Query.EndV/1e6,
		cp14.Query.StartV/1e6, cp14.Query.EndV/1e6,
		cp14.Query.EndV < cp13.Query.EndV)

	migrations := 0
	last := map[int]int64{}
	for _, e := range entries {
		if prev, ok := last[e.Worker]; ok && prev != e.QueryID {
			migrations++
		}
		last[e.Worker] = e.QueryID
	}
	fmt.Fprintf(w, "worker migrations at morsel boundaries: %d\n", migrations)
}

// Section54 reproduces the interference experiment: one core is occupied
// by an unrelated process (modeled as a 2x slowdown of that core). With
// static work division (morsel size n/t) the whole query waits for the
// slow chunk; with dynamic morsel assignment other workers absorb the
// work.
func Section54(w io.Writer, cfg Config) {
	queries := cfg.tpchQueryNums()
	if !cfg.Quick {
		queries = []int{1, 3, 5, 6, 9, 12, 14, 18, 19}
	}
	run := func(nonAdaptive bool, slow bool) float64 {
		var total float64
		for _, q := range queries {
			m := numa.NehalemEXMachine()
			s := cfg.session(m, FullFledged, 64)
			// Fine morsels keep the work-stealing granularity at the
			// paper's ratio (thousands of morsels per pipeline) even
			// at this reproduction's small scale factor.
			s.Dispatch.MorselRows = cfg.MorselRows / 8
			if s.Dispatch.MorselRows < 100 {
				s.Dispatch.MorselRows = 100
			}
			s.Dispatch.NonAdaptive = nonAdaptive
			if slow {
				s.SimCfg = dispatch.SimConfig{CoreSlowdown: map[int]float64{0: 0.5}}
			}
			db := TPCHDB(cfg.TPCHSF)
			_, st := tpch.QueryByNum(q).Run(s, db)
			total += st.TimeNs
		}
		return total
	}
	dynBase, dynSlow := run(false, false), run(false, true)
	statBase, statSlow := run(true, false), run(true, true)
	dynPct := (dynSlow/dynBase - 1) * 100
	statPct := (statSlow/statBase - 1) * 100
	fmt.Fprintf(w, "Section 5.4: unrelated process occupying one core (64 workers)\n\n")
	fmt.Fprintf(w, "%-28s %12s\n", "assignment", "slowdown")
	fmt.Fprintf(w, "%-28s %11.1f%%   (paper: %.1f%%)\n", "static (morsel = n/t)", statPct, paperSection54.StaticPct)
	fmt.Fprintf(w, "%-28s %11.1f%%   (paper: %.1f%%)\n", "dynamic morsel assignment", dynPct, paperSection54.DynamicPct)
}
