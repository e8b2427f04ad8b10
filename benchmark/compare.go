package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// samplesOf gathers, per workload and end-to-end metric (failed_frac
// among them), the values the untraced runs of the given sets measured.
func samplesOf(sets []resultSet) map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, set := range sets {
		for _, r := range set.Runs {
			if r.Trace {
				continue
			}
			if out[r.Workload] == nil {
				out[r.Workload] = make(map[string][]float64)
			}
			for name, v := range r.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], v.Value)
			}
			out[r.Workload][failedFracDef.Name] = append(out[r.Workload][failedFracDef.Name], float64(r.Failed)/float64(r.Attempted))
		}
	}
	return out
}

// spreadOf is the distance between the first and third quartile as a
// share of the median, the way the driver judges steadiness. One sample
// has no spread.
func spreadOf(xs []float64) (med, q1, q3, spread float64) {
	if len(xs) < 2 {
		return median(xs), 0, 0, 0
	}
	q1, med, q3 = quartiles(xs)
	return med, q1, q3, (q3 - q1) / med
}

// printSpreads prints, for several sets of one commit, each workload x
// metric median and quartiles, and whether the spread fits the bound.
func printSpreads(decl *benchmarkFile, sets []resultSet) {
	samples := samplesOf(sets)
	fmt.Printf("\n%d sets: median [q1, q3], spread = (q3-q1)/median against the bound\n", len(sets))
	for _, w := range workloadSpecs {
		for _, d := range endToEndDefs {
			med, q1, q3, spread := spreadOf(samples[w.name][d.Name])
			bound := decl.bound(d.Name)
			fits := "fits"
			if spread > bound {
				fits = "TOO WIDE"
			}
			fmt.Printf("%-14s %-15s %12.5g %-4s [%.5g, %.5g] spread %.4f bound %.2f %s\n",
				w.name, d.Name, med, d.Unit, q1, q3, spread, bound, fits)
		}
		worst := slices.Max(samples[w.name][failedFracDef.Name])
		fits := "fits"
		if worst > 0 {
			fits = "FAILED OPERATIONS"
		}
		fmt.Printf("%-14s %-15s %12.5g %-5s at worst, bound 0 absolute %s\n", w.name, failedFracDef.Name, worst, failedFracDef.Unit, fits)
	}
}

func readResults(path string) ([]resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Sets) == 0 {
		return nil, fmt.Errorf("%s holds no result sets", path)
	}
	return f.Sets, nil
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction; negative means better.
func worsening(better string, a, b float64) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareVerdict judges one workload x metric: unresolved when either
// side's own spread is wider than the bound, else worse or better when
// the medians differ by more than the bound, else same.
func compareVerdict(better string, bound float64, a, b []float64) (verdict string, change float64) {
	medA, _, _, spreadA := spreadOf(a)
	medB, _, _, spreadB := spreadOf(b)
	change = worsening(better, medA, medB)
	switch {
	case spreadA > bound || spreadB > bound:
		return "unresolved", change
	case change > bound:
		return "worse", change
	case change < -bound:
		return "better", change
	}
	return "same", change
}

// failedVerdict judges failed_frac, which has no ratio (its base is 0
// when healthy) and an absolute bound of 0: any increase of the worst
// run is worse.
func failedVerdict(a, b []float64) string {
	switch fa, fb := slices.Max(a), slices.Max(b); {
	case fb > fa:
		return "worse"
	case fb < fa:
		return "better"
	}
	return "same"
}

// compareFiles prints one row per workload x end-to-end metric for two
// result files, every ratio with its base.
func compareFiles(decl *benchmarkFile, pathA, pathB string) error {
	setsA, err := readResults(pathA)
	if err != nil {
		return err
	}
	setsB, err := readResults(pathB)
	if err != nil {
		return err
	}
	a, b := samplesOf(setsA), samplesOf(setsB)
	fmt.Printf("base %s (%d sets) against %s (%d sets)\n", pathA, len(setsA), pathB, len(setsB))
	for _, w := range workloadSpecs {
		for _, d := range endToEndDefs {
			xa, xb := a[w.name][d.Name], b[w.name][d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Printf("%-14s %-15s missing on one side\n", w.name, d.Name)
				continue
			}
			bound := decl.bound(d.Name)
			v, change := compareVerdict(d.Better, bound, xa, xb)
			_, _, _, spreadA := spreadOf(xa)
			_, _, _, spreadB := spreadOf(xb)
			fmt.Printf("%-14s %-15s base %12.5g %-4s -> %12.5g  ratio %.4f of base (%s is better; %+.1f%% worse, bound %.0f%%; spreads %.1f%% and %.1f%%)  %s\n",
				w.name, d.Name, median(xa), d.Unit, median(xb), median(xb)/median(xa), d.Better, 100*change, 100*bound, 100*spreadA, 100*spreadB, v)
		}
		xa, xb := a[w.name][failedFracDef.Name], b[w.name][failedFracDef.Name]
		if len(xa) == 0 || len(xb) == 0 {
			continue // the rows above said so
		}
		fmt.Printf("%-14s %-15s base %12.5g %-5s -> %12.5g  (worst run of each side; bound 0 absolute)  %s\n",
			w.name, failedFracDef.Name, slices.Max(xa), failedFracDef.Unit, slices.Max(xb), failedVerdict(xa, xb))
	}
	return nil
}
