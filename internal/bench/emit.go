package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/numa"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// This file is the machine-readable side of the harness: experiments
// emit BENCH_<experiment>.json files that scripts/bench_trend.sh diffs
// against committed baselines (cmd/benchtrend), turning the paper
// harness into a CI benchmark-trajectory gate. Provenance (git sha,
// date) comes exclusively from the environment — the harness itself
// never reads a wall clock, so emitted files are bit-reproducible.

// Metric is one measured value of an experiment.
type Metric struct {
	// Name identifies the metric within its experiment, e.g.
	// "tpch_q1_sim_ns".
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Direction is "lower" or "higher" — which way is better.
	Direction string `json:"direction"`
	// Gate marks the metric as regression-gated in CI: bench_trend.sh
	// fails when a gated metric regresses by more than its threshold
	// against the committed baseline. Only deterministic (simulated)
	// metrics should be gated; wall-clock metrics are informational.
	Gate bool `json:"gate"`
}

// File is one BENCH_*.json document.
type File struct {
	// Experiment identifies the producing experiment ("tpch_sim",
	// "loadgen", ...); the file is named BENCH_<Experiment>.json.
	Experiment string `json:"experiment"`
	// GitSHA and Date come from $BENCH_GITSHA / $BENCH_DATE (CI sets
	// them); empty when unset. They are provenance, not data: trend
	// comparison ignores them.
	GitSHA  string   `json:"git_sha,omitempty"`
	Date    string   `json:"date,omitempty"`
	Metrics []Metric `json:"metrics"`
}

// OutDir returns the directory BENCH_*.json files are written to:
// $BENCH_OUT, or "" when emission is disabled.
func OutDir() string { return os.Getenv("BENCH_OUT") }

// Emit writes BENCH_<experiment>.json into dir with provenance from the
// environment, returning the path. Metrics are sorted by name so the
// output is canonical.
func Emit(dir, experiment string, metrics []Metric) (string, error) {
	f := File{
		Experiment: experiment,
		GitSHA:     os.Getenv("BENCH_GITSHA"),
		Date:       os.Getenv("BENCH_DATE"),
		Metrics:    append([]Metric(nil), metrics...),
	}
	sort.Slice(f.Metrics, func(i, j int) bool { return f.Metrics[i].Name < f.Metrics[j].Name })
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_"+experiment+".json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads one BENCH_*.json document.
func ReadFile(path string) (File, error) {
	var f File
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// gatedQueries is the CI benchmark-trajectory query set: the four
// queries the distributed smoke also gates on, plus Q14 and Q19 —
// selective scan-heavy joins whose filters exercise the zone-map
// pruning path — plus Q9 and Q18, the join- and aggregation-heaviest
// queries, which keep long hash-join chains and many-group aggregation
// under the trajectory gate.
var gatedQueries = []int{1, 3, 6, 9, 12, 14, 18, 19}

// PaperMetrics runs the gated experiment: TPC-H on the simulated
// Nehalem EX at full parallelism, reporting each query's simulated
// makespan plus their geometric mean. Everything here is virtual time
// from the calibrated cost model, so values are identical across hosts
// and runs — regressions mean the engine does more simulated work
// (extra passes, lost locality, worse placement), not that CI was slow.
func PaperMetrics(cfg Config) []Metric {
	var metrics []Metric
	var times []float64
	for _, q := range gatedQueries {
		st := cfg.runTPCH(numa.NehalemEXMachine(), FullFledged, 64, q)
		times = append(times, st.TimeNs)
		metrics = append(metrics,
			Metric{Name: fmt.Sprintf("tpch_q%d_sim_ns", q), Value: st.TimeNs, Unit: "ns", Direction: "lower", Gate: true},
			Metric{Name: fmt.Sprintf("tpch_q%d_tuples", q), Value: float64(st.Tuples), Unit: "tuples", Direction: "lower", Gate: true},
		)
	}
	metrics = append(metrics, Metric{
		Name: "tpch_geomean_sim_ns", Value: geoMean(times), Unit: "ns", Direction: "lower", Gate: true,
	})
	return append(metrics, distributedMetrics(cfg)...)
}

// distGatedQueries is the distributed trajectory set — the same four
// queries the two-node cluster smoke gates on.
var distGatedQueries = []int{1, 3, 6, 12}

// distributedMetrics runs each gated query's two-node distributed split
// — sql.Distribute's Combined plan, where the stage and main fragments
// execute with the exchange edges as local pipeline breakers — on the
// simulated Nehalem EX. The gated value tracks the simulated cost the
// distributed split adds over the single-node plan (broadcast copies,
// repartition passes, partial/finalize aggregation), so a planner
// change that starts moving more rows regresses the trajectory even
// though the real cluster's wall clock is never gated.
func distributedMetrics(cfg Config) []Metric {
	db := TPCHDB(cfg.TPCHSF).WithPlacement(storage.NUMAAware)
	tables := map[string]*storage.Table{
		"region": db.Region, "nation": db.Nation,
		"supplier": db.Supplier, "customer": db.Customer,
		"part": db.Part, "partsupp": db.PartSupp,
		"orders": db.Orders, "lineitem": db.Lineitem,
	}
	cat := func(name string) (*storage.Table, bool) { t, ok := tables[name]; return t, ok }
	topo := sql.ClusterTopo{Nodes: 2, Sharded: map[string]sql.ShardInfo{
		"lineitem": {PartKey: "l_orderkey", Parts: len(db.Lineitem.Parts)},
		"orders":   {PartKey: "o_orderkey", Parts: len(db.Orders.Parts)},
		"customer": {PartKey: "c_custkey", Parts: len(db.Customer.Parts)},
	}}
	var metrics []Metric
	for _, q := range distGatedQueries {
		p, err := sql.Compile(tpch.MustSQLText(q, cfg.TPCHSF), cat)
		if err != nil {
			panic(fmt.Sprintf("bench: compile distributed q%d: %v", q, err))
		}
		dp, err := sql.Distribute(p, topo)
		if err != nil {
			panic(fmt.Sprintf("bench: distribute q%d: %v", q, err))
		}
		s := cfg.session(numa.NehalemEXMachine(), FullFledged, 64)
		_, st := s.Run(dp.Combined)
		metrics = append(metrics, Metric{
			Name: fmt.Sprintf("tpch_q%d_dist2_sim_ns", q), Value: st.TimeNs,
			Unit: "ns", Direction: "lower", Gate: true,
		})
	}
	return metrics
}
