package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"testing"
	"time"
)

var testMorseld string

// TestMain builds the morseld the smoke test drives.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "benchmark-smoke-")
	if err != nil {
		panic(err)
	}
	testMorseld = filepath.Join(dir, "morseld")
	if out, err := exec.Command("go", "build", "-o", testMorseld, "repro/cmd/morseld").CombinedOutput(); err != nil {
		os.Stderr.Write(out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// smokeConfig shrinks every size so the whole benchmark runs in seconds:
// SF 0.01, a 50 000-row demo table, one set-up, a miniature ladder.
func smokeConfig(t *testing.T) *config {
	dir := t.TempDir()
	cfg := defaultConfig(testMorseld, filepath.Join(dir, "work"), filepath.Join(dir, "out"), runtime.NumCPU())
	cfg.sf, cfg.orders, cfg.setupRepeats = 0.01, 50_000, 1
	cfg.ladder = ladderSizes{
		tpchCycles: 1, shortCycles: 20, appendBatches: 10,
		hashKeys: 1 << 16, hostFloats: 1 << 20, hostSlots: 1 << 18,
		exchangeParts: 2, emptyRows: 1000,
	}
	return cfg
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func sortedDefs(defs []metricDef) []metricDef {
	out := append([]metricDef(nil), defs...)
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// checkEmitted holds a run's metric names and units to a declared list.
func checkEmitted(t *testing.T, what string, got map[string]value, declared []metricDef) {
	t.Helper()
	if len(got) != len(declared) {
		t.Errorf("%s: emitted %d metrics, BENCHMARK.json declares %d", what, len(got), len(declared))
	}
	for _, d := range declared {
		v, ok := got[d.Name]
		if !ok {
			t.Errorf("%s: declared metric %s was not emitted", what, d.Name)
			continue
		}
		if v.Unit != d.Unit {
			t.Errorf("%s: %s emitted in %q, declared in %q", what, d.Name, v.Unit, d.Unit)
		}
		if !nameRE.MatchString(d.Name) {
			t.Errorf("%s: name %q is outside the contract's alphabet", what, d.Name)
		}
	}
}

// TestSmoke runs every workload for half a second at a tiny scale, then a
// miniature traced run, and holds what they emit to BENCHMARK.json.
func TestSmoke(t *testing.T) {
	decl, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}

	// The declaration and spec.go must agree before anything runs.
	strip := func(defs []metricDef) []metricDef {
		out := sortedDefs(defs)
		for i := range out {
			out[i].Bound = 0
		}
		return out
	}
	if got, want := strip(decl.EndToEnd), strip(endToEndDefs); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%v\nspec.go:\n%v", got, want)
	}
	if got, want := sortedDefs(decl.PerLayer), sortedDefs(perLayerDefs()); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\nspec.go:\n%v", got, want)
	}
	var declared, have []string
	for _, w := range decl.Workloads {
		declared = append(declared, w.Name)
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q is outside the contract's alphabet", w.Name)
		}
	}
	for _, w := range workloadSpecs {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(declared, have) {
		t.Errorf("workloads: BENCHMARK.json has %v, the benchmark runs %v", declared, have)
	}

	cfg := smokeConfig(t)
	window := 500 * time.Millisecond
	for _, w := range workloadSpecs {
		res, err := runEndToEnd(cfg, w, 1, window)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
		}
		checkEmitted(t, w.name, res.Metrics, decl.EndToEnd)
		for name, v := range res.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s reads %v; it must never be 0", w.name, name, v.Value)
			}
		}
	}

	res, err := runTraced(cfg, workloadSpecs[2], 1, window)
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}
	if res.Failed != 0 || !res.Correct {
		t.Errorf("traced run: %d of %d operations failed", res.Failed, res.Attempted)
	}
	checkEmitted(t, "traced run", res.Metrics, decl.PerLayer)
	if cov := res.Metrics["trace.coverage_frac"].Value; cov < 0.9 {
		t.Errorf("trace.coverage_frac = %v, want at least 0.9", cov)
	}
	if _, err := os.Stat(filepath.Join(cfg.outDir, "trace.json")); err != nil {
		t.Errorf("traced run wrote no trace: %v", err)
	}
	if left, _ := filepath.Glob(filepath.Join(cfg.workDir, "*")); len(left) != 0 {
		t.Errorf("runs left data behind: %v", left)
	}
}
