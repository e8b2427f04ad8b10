package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// metricDef names one metric the benchmark emits. BENCHMARK.json lists
// the same names, units and directions; the smoke test holds the two
// together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end metrics only
}

// value is one measured metric; N is how many samples it rests on
// (0 where that has no meaning).
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// endToEndDefs are what a user of morseld sees, measured with tracing
// off on every workload, as BENCHMARK.json declares them.
var endToEndDefs = []metricDef{
	{Name: "lat_geomean_ms", Unit: "ms", Better: "lower"},
	{Name: "lat_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "restart_s", Unit: "s", Better: "lower"},
}

// failedFracDef is the eighth end-to-end metric: failed operations (HTTP
// errors, refusals, oracle mismatches) over attempted ones. Its bound is
// 0 absolute: any failure fails the run and any increase is a
// regression. BENCHMARK.json cannot carry it (its metrics must never be
// 0 and its bounds are shares of a median), so the driver reads it off
// the result line's attempted and failed fields; every run prints it,
// results.json stores both fields, and --repeat and --compare judge it.
var failedFracDef = metricDef{Name: "failed_frac", Unit: "ratio", Better: "lower"}

// perLayerDefs builds the per-layer list: first what is read from
// outside the daemon (replies, /stats deltas, /proc), then the traced
// in-process ladder.
func perLayerDefs() []metricDef {
	var d []metricDef
	add := func(name, unit, better string) { d = append(d, metricDef{Name: name, Unit: unit, Better: better}) }
	for _, k := range allKinds() {
		add("client.lat_p50_ms."+k, "ms", "lower")
	}
	add("client.lateness_p99_ms", "ms", "lower")
	add("client.append_rows_per_s", "1/s", "higher")
	add("client.cpu_frac", "ratio", "lower")
	add("server.wire_overhead_ms", "ms", "lower")
	add("server.queued_ms_p99", "ms", "lower")
	add("server.plan_cache_hit_rate", "ratio", "higher")
	add("server.rejected_frac", "ratio", "lower")
	add("dispatch.morsels_per_op", "count", "lower")
	add("dispatch.tuples_per_op", "count", "lower")
	add("dispatch.read_mb_per_op", "MB", "lower")
	add("dispatch.remote_read_pct", "%", "lower")
	add("colstore.snapshot_bytes_per_raw_byte", "ratio", "lower")

	add("sql.parse_us", "us", "lower")
	add("sql.plan_us", "us", "lower")
	add("sql.bind_args_us", "us", "lower")
	add("engine.compile_us", "us", "lower")
	for _, n := range append(append([]int(nil), scanQueries...), joinQueries...) {
		add("engine.exec_ms.q"+strconv.Itoa(n), "ms", "lower")
	}
	add("engine.collect_us", "us", "lower")
	add("engine.scan_rows_per_s", "1/s", "higher")
	add("engine.scan_frac_of_roofline", "ratio", "higher")
	for _, set := range []string{"scan", "join"} {
		add("engine.allocs_per_query."+set, "count", "lower")
		add("engine.alloc_mb_per_query."+set, "MB", "lower")
	}
	add("engine.gc_pause_ms_per_query", "ms", "lower")
	add("dispatch.empty_morsel_ns", "ns", "lower")
	add("hashtable.insert_ns", "ns", "lower")
	add("hashtable.lookup_hit_ns", "ns", "lower")
	add("hashtable.lookup_miss_ns", "ns", "lower")
	add("storage.append_ns_per_row", "ns", "lower")
	add("storage.seal_ms", "ms", "lower")
	add("storage.zonemap_build_ms", "ms", "lower")
	add("server.submit_self_us", "us", "lower")
	add("server.respond_json_us", "us", "lower")
	add("server.append_us_per_row", "us", "lower")
	add("colstore.encode_mb_s", "MB/s", "higher")
	add("colstore.decode_mb_s", "MB/s", "higher")
	add("exchange.encode_mb_s", "MB/s", "higher")
	add("exchange.decode_mb_s", "MB/s", "higher")
	add("exchange.bytes_per_row", "B", "lower")
	add("tpch.generate_s", "s", "lower")
	add("host.seq_gb_s", "GB/s", "higher")
	add("host.rand_ns", "ns", "lower")
	add("trace.overhead_frac", "ratio", "lower")
	add("trace.coverage_frac", "ratio", "higher")
	add("numa.sim_wall_rank_corr", "ratio", "higher")
	return d
}

// metricSet collects values under the names of one definition list and
// refuses names outside it, so an emitted metric can never drift from
// the declared ones.
type metricSet struct {
	defs   []metricDef
	values map[string]value
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]value)}
}

func (m *metricSet) set(name string, v float64, n int) {
	for _, d := range m.defs {
		if d.Name == name {
			m.values[name] = value{Value: v, Unit: d.Unit, N: n}
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared in spec.go")
}

// missing lists declared metrics that were never set.
func (m *metricSet) missing() []string {
	var out []string
	for _, d := range m.defs {
		if _, ok := m.values[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	return out
}

// benchmarkFile is BENCHMARK.json, read for the bounds and run length
// the driver will hold the benchmark to.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func (f *benchmarkFile) bound(metric string) float64 {
	for _, d := range f.EndToEnd {
		if d.Name == metric {
			return d.Bound
		}
	}
	return 0
}
