// Command benchmark is the repository's wall-clock benchmark. It spawns
// the morseld binary under test as a separate process, drives it over
// loopback HTTP with one of four workloads, checks every reply against
// an oracle computed from its own copy of the data, and reports
// end-to-end metrics (tracing off) or, in a traced run, the per-layer
// ladder. See README.md.
//
// Run it through run.sh, which builds both binaries inside the checkout:
//
//	bash benchmark/run.sh --workload serve_short --seed 7 --seconds 20 --trace 0
//	bash benchmark/run.sh --seed 7                 # all four workloads, then a traced run
//	bash benchmark/run.sh --seed 7 --repeat 5      # five sets, with spreads against the bounds
//	bash benchmark/run.sh --compare a.json b.json  # two result files, one verdict per metric
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// Limits of the driver's contract that the budget guard checks.
const (
	runCapS       = 180.0  // one run
	driverBudgetS = 3420.0 // all of the driver's runs, set-up and builds included
	buildReserveS = 120.0  // two cold builds of both binaries
)

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		workload  = flag.String("workload", "all", "workload to run: tpch_scan_agg | tpch_join_agg | serve_short | ingest_mix | all")
		seed      = flag.Int64("seed", 1, "workload seed: statement order and parameters (the data seed is morseld's own)")
		seconds   = flag.Int("seconds", 0, "measured window per run (0 = run_seconds of BENCHMARK.json)")
		trace     = flag.Int("trace", 0, "with one workload: 0 = end-to-end metrics, tracing off; 1 = the per-layer metrics of a traced run")
		repeat    = flag.Int("repeat", 1, "with --workload all: how many full sets to run")
		compare   = flag.Bool("compare", false, "compare two result files given as arguments instead of running")
		morseld   = flag.String("morseld", "", "path of the morseld binary under test (run.sh builds and passes it)")
		workDir   = flag.String("workdir", ".bench_build/run", "scratch directory for data directories and daemon logs")
		outDir    = flag.String("out", "benchmark/out", "directory for results.json and trace.json")
		benchFile = flag.String("benchmark-json", "BENCHMARK.json", "the benchmark's declaration, read for run length and bounds")
	)
	flag.Parse()

	decl, err := readBenchmarkFile(*benchFile)
	if err != nil {
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return errors.New("--compare takes two result files")
		}
		return compareFiles(decl, flag.Arg(0), flag.Arg(1))
	}
	if *morseld == "" {
		return errors.New("--morseld is required; use benchmark/run.sh, which builds it")
	}
	if *seconds <= 0 {
		*seconds = decl.RunSeconds
	}
	window := time.Duration(*seconds) * time.Second

	cfg := defaultConfig(*morseld, *workDir, *outDir, runtime.NumCPU())

	if *workload != "all" {
		w, ok := specByName(*workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		var res *runResult
		if *trace == 1 {
			res, err = runTraced(cfg, w, *seed, window)
		} else {
			res, err = runEndToEnd(cfg, w, *seed, window)
		}
		if err != nil {
			return err
		}
		printRun(res)
		if err := printResultLine(res); err != nil {
			return err
		}
		return verdict(res)
	}

	var sets []resultSet
	for i := 0; i < *repeat; i++ {
		set, err := runSet(cfg, *seed, window)
		if err != nil {
			return err
		}
		sets = append(sets, set)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(*outDir, "results.json")
	if err := writeJSONFile(path, resultFile{Sets: sets}); err != nil {
		return err
	}
	fmt.Printf("\nresults written to %s\n", path)
	if len(sets) > 1 {
		printSpreads(decl, sets)
	}
	for _, set := range sets {
		for _, r := range set.Runs {
			if err := verdict(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// resultFile is what --workload all writes and --compare reads.
type resultFile struct {
	Sets []resultSet `json:"sets"`
}

// resultSet is one full set: every workload untraced, then one traced
// run.
type resultSet struct {
	WallS float64      `json:"wall_s"`
	Runs  []*runResult `json:"runs"`
}

// runSet runs every workload once untraced and one traced run, and
// checks the set against the driver's time budget.
func runSet(cfg *config, seed int64, window time.Duration) (resultSet, error) {
	began := time.Now()
	var set resultSet
	var untracedS float64
	for _, w := range workloadSpecs {
		res, err := runEndToEnd(cfg, w, seed, window)
		if err != nil {
			return set, fmt.Errorf("%s: %w", w.name, err)
		}
		printRun(res)
		set.Runs = append(set.Runs, res)
		untracedS += res.WallS
	}
	traced, err := runTraced(cfg, workloadSpecs[0], seed, window)
	if err != nil {
		return set, fmt.Errorf("traced run: %w", err)
	}
	printRun(traced)
	set.Runs = append(set.Runs, traced)
	set.WallS = time.Since(began).Seconds()

	// The driver makes 4 + 22 x workloads runs; take them as 22 untraced
	// runs of each workload and 4 traced ones.
	projected := 22*untracedS + 4*traced.WallS + buildReserveS
	fmt.Printf("\nset wall time %.1f s; projected driver total %.0f s of %.0f s\n", set.WallS, projected, driverBudgetS)
	for _, r := range set.Runs {
		if r.WallS > runCapS {
			return set, fmt.Errorf("%s took %.0f s, over the %.0f s cap of one run", r.Workload, r.WallS, runCapS)
		}
	}
	if projected > driverBudgetS {
		return set, fmt.Errorf("projected driver total %.0f s exceeds %.0f s: shorten run_seconds", projected, driverBudgetS)
	}
	return set, nil
}

// verdict turns failed operations into a failing exit.
func verdict(r *runResult) error {
	if r.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed (failed_frac %.6f)", r.Workload, r.Failed, r.Attempted, float64(r.Failed)/float64(r.Attempted))
	}
	return nil
}

// printRun prints every metric of a run by name, with its unit and the
// sample count it rests on.
func printRun(r *runResult) {
	mode := "end-to-end, tracing off"
	if r.Trace {
		mode = "traced, per layer"
	}
	fmt.Printf("\n== %s (seed %d; %s; %.1f s wall) ==\n", r.Workload, r.Seed, mode, r.WallS)
	fmt.Printf("%-40s %14.6g %-6s\n", "failed_frac", float64(r.Failed)/float64(r.Attempted), "ratio")
	for _, group := range []map[string]value{r.Metrics, r.Extra} {
		names := make([]string, 0, len(group))
		for n := range group {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			v := group[n]
			if v.N > 0 {
				fmt.Printf("%-40s %14.6g %-6s n=%d\n", n, v.Value, v.Unit, v.N)
			} else {
				fmt.Printf("%-40s %14.6g %-6s\n", n, v.Value, v.Unit)
			}
		}
	}
}

// printResultLine prints the driver's result: one JSON object, last on
// standard output.
func printResultLine(r *runResult) error {
	type wire struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]wire, len(r.Metrics))
	for n, v := range r.Metrics {
		metrics[n] = wire{v.Value, v.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool            `json:"correct"`
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Metrics   map[string]wire `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", b)
	return nil
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
