package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/tpch"
)

// config is what every run of the benchmark shares.
type config struct {
	morseld string // the daemon binary under test
	workDir string // scratch for data directories and daemon logs
	outDir  string // results and trace files
	workers int    // morseld -workers, and the most connections the generator opens
	http    *http.Client

	sf     float64 // TPC-H scale factor of the three TPC-H-backed workloads
	orders int     // demo orders rows of ingest_mix
	// setupRepeats is how many times a run spawns the daemon on an empty
	// data directory; setup_s takes the median so one slow spawn does
	// not decide it.
	setupRepeats int
	// ladder sizes the traced in-process pass.
	ladder ladderSizes
}

func defaultConfig(morseld, workDir, outDir string, workers int) *config {
	return &config{
		morseld: morseld, workDir: workDir, outDir: outDir, workers: workers,
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: workers,
			MaxConnsPerHost:     workers,
		}},
		sf: 0.1, orders: 1_000_000, setupRepeats: 3,
		ladder: fullLadder,
	}
}

// workersOf is how many morsel workers serve a workload, in the daemon
// and in the traced ladder: every core, except where the workload is
// pinned to one (see workloadSpec.oneWorker).
func (c *config) workersOf(w workloadSpec) int {
	if w.oneWorker {
		return 1
	}
	return c.workers
}

// daemonFlags are the morseld flags that differ between workloads.
func (c *config) daemonFlags(w workloadSpec) []string {
	workers := []string{"-workers", strconv.Itoa(c.workersOf(w))}
	if w.demo {
		return append(workers, "-dataset", "demo", "-orders", strconv.Itoa(c.orders))
	}
	return append(workers, "-dataset", "tpch", "-sf", strconv.FormatFloat(c.sf, 'g', -1, 64))
}

// rawBytes is the dataset's size as 8-byte cells, the denominator of
// colstore.snapshot_bytes_per_raw_byte.
func (c *config) rawBytes(w workloadSpec, db *tpch.DB) float64 {
	if w.demo {
		return 8 * float64(c.orders*5+demoCustomers*3)
	}
	var cells int
	for _, t := range tpchTables(db) {
		cells += t.Rows() * len(t.Schema)
	}
	return 8 * float64(cells)
}

// runResult is one benchmark run: a workload, traced or not.
type runResult struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	WallS     float64          `json:"wall_s"`
	Metrics   map[string]value `json:"metrics"`
	// Extra carries the outside-view per-layer metrics an untraced run
	// observes anyway; they are printed and stored, not gated.
	Extra map[string]value `json:"extra,omitempty"`
}

// oracles holds the generator-side copies of the TPC-H data. db stays
// nil for a run that only needs the demo table.
type oracles struct {
	db        *tpch.DB
	generateS float64 // how long tpch.Generate took
	tpch      map[int]*tpchExpect
	short     *shortOracle
}

// buildOracles regenerates the TPC-H data and computes the expected
// replies the given workloads need.
func (c *config) buildOracles(ws ...workloadSpec) *oracles {
	o := &oracles{}
	var nums []int
	for _, w := range ws {
		switch w.name {
		case wlScan:
			nums = append(nums, scanQueries...)
		case wlJoin:
			nums = append(nums, joinQueries...)
		}
	}
	for _, w := range ws {
		if w.demo {
			continue
		}
		if o.db == nil {
			start := time.Now()
			o.db = generateTPCH(c.sf)
			o.generateS = time.Since(start).Seconds()
			o.tpch = newTPCHOracle(o.db, c.sf, nums)
		}
		if w.name == wlShort {
			o.short = newShortOracle(o.db)
		}
	}
	return o
}

// newGenerator builds the workload's generator.
func (c *config) newGenerator(w workloadSpec, o *oracles, ing *ingestOracle, seed int64) generator {
	switch w.name {
	case wlScan:
		return newTPCHGen(scanQueries, c.sf, o.tpch, seed, 3)
	case wlJoin:
		return newTPCHGen(joinQueries, c.sf, o.tpch, seed, 1) // a join cycle takes seconds
	case wlShort:
		return &shortGen{orc: o.short, seed: seed, clients: c.workers, warmOps: 60}
	default:
		return &ingestGen{orc: ing, rng: rand.New(rand.NewSource(seed))}
	}
}

// daemonStats is the slice of GET /stats the benchmark reads.
type daemonStats struct {
	PlanCache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"plan_cache"`
	Pool struct {
		Morsels         int64 `json:"morsels"`
		Tuples          int64 `json:"tuples"`
		ReadBytes       int64 `json:"read_bytes"`
		RemoteReadBytes int64 `json:"remote_read_bytes"`
	} `json:"pool"`
	Classes map[string]struct {
		Rejected int64 `json:"rejected"`
	} `json:"classes"`
}

// observation is one measured window seen from outside the daemon.
type observation struct {
	rec       *recorder
	elapsed   time.Duration
	daemonCPU float64 // seconds of utime+stime over the window
	selfCPU   float64 // the generator's own
	before    daemonStats
	after     daemonStats
	peakRSSMB float64
}

// measure runs the generator for one window and reads the daemon's
// counters, CPU time and memory around it.
func measure(cfg *config, d *daemon, g generator, window time.Duration) (*observation, error) {
	obs := &observation{rec: newRecorder()}
	c := &client{http: cfg.http, base: d.base, rec: obs.rec}
	if err := getJSON(cfg.http, d.base+"/stats", &obs.before); err != nil {
		return nil, err
	}
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	self0 := selfCPUSeconds()
	obs.elapsed = g.run(c, window)
	obs.selfCPU = selfCPUSeconds() - self0
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	obs.daemonCPU = cpu1 - cpu0
	if obs.peakRSSMB, err = d.peakRSSMB(); err != nil {
		return nil, err
	}
	if err := getJSON(cfg.http, d.base+"/stats", &obs.after); err != nil {
		return nil, err
	}
	return obs, nil
}

// completed counts the ops of the window that passed their oracle.
func (o *observation) completed() int { return o.rec.attempted - o.rec.failed }

// setEndToEnd derives the user-visible metrics of one window.
func (o *observation) setEndToEnd(m *metricSet, w workloadSpec) {
	var medians, pooled []float64
	for _, k := range w.kinds {
		if k == "seal" {
			continue // rare and slow by design; reported per kind only
		}
		if s := o.rec.latMs[k]; len(s) > 0 {
			medians = append(medians, median(s))
			pooled = append(pooled, s...)
		}
	}
	ops := float64(o.completed())
	m.set("lat_geomean_ms", geomean(medians), len(pooled))
	m.set("lat_tail_ms", percentile(sortedCopy(pooled), w.tailPct), len(pooled))
	m.set("ops_per_s", ops/o.elapsed.Seconds(), int(ops))
	m.set("cpu_ms_per_op", 1e3*o.daemonCPU/ops, int(ops))
	m.set("peak_rss_mb", o.peakRSSMB, 0)
}

// setOutsideLayers derives the per-layer metrics that are read from
// outside the daemon for the window's own workload: everything but the
// per-kind latencies, the ingest-only client metrics and the snapshot
// size, which the callers read off the data directory.
func (o *observation) setOutsideLayers(m *metricSet) {
	r := o.rec
	m.set("client.cpu_frac", o.selfCPU/o.elapsed.Seconds(), 0)
	m.set("server.wire_overhead_ms", median(r.wireMs), len(r.wireMs))
	m.set("server.queued_ms_p99", percentile(sortedCopy(r.queuedMs), 0.99), len(r.queuedMs))
	hits := o.after.PlanCache.Hits - o.before.PlanCache.Hits
	misses := o.after.PlanCache.Misses - o.before.PlanCache.Misses
	m.set("server.plan_cache_hit_rate", float64(hits)/math.Max(1, float64(hits+misses)), int(hits+misses))
	var rejected int64
	for class, c := range o.after.Classes {
		rejected += c.Rejected - o.before.Classes[class].Rejected
	}
	m.set("server.rejected_frac", float64(rejected)/float64(r.attempted), r.attempted)
	queries := math.Max(1, float64(len(r.wireMs)))
	pa, pb := o.after.Pool, o.before.Pool
	m.set("dispatch.morsels_per_op", float64(pa.Morsels-pb.Morsels)/queries, int(queries))
	m.set("dispatch.tuples_per_op", float64(pa.Tuples-pb.Tuples)/queries, int(queries))
	m.set("dispatch.read_mb_per_op", float64(pa.ReadBytes-pb.ReadBytes)/1e6/queries, int(queries))
	m.set("dispatch.remote_read_pct", 100*float64(pa.RemoteReadBytes-pb.RemoteReadBytes)/math.Max(1, float64(pa.ReadBytes-pb.ReadBytes)), 0)
}

// setClientKinds records the per-kind medians a window observed, and
// for ingest_mix the writer's lateness and achieved rate.
func (o *observation) setClientKinds(m *metricSet, w workloadSpec) {
	for _, k := range w.kinds {
		s := o.rec.latMs[k]
		m.set("client.lat_p50_ms."+k, median(s), len(s))
	}
	if w.name == wlIngest {
		m.set("client.lateness_p99_ms", percentile(sortedCopy(o.rec.lateMs), 0.99), len(o.rec.lateMs))
		m.set("client.append_rows_per_s", float64(len(o.rec.latMs["append"])*batchRows)/o.elapsed.Seconds(), len(o.rec.latMs["append"]))
	}
}

// freshDir returns a new empty directory under the work directory.
func (c *config) freshDir(label string) (string, error) {
	if err := os.MkdirAll(c.workDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(c.workDir, label+"-")
}

// removeData deletes a daemon's data directory and log.
func removeData(dir string) {
	os.RemoveAll(dir)
	os.Remove(dir + ".log")
}

// runEndToEnd is one untraced run: set morseld up from nothing (several
// times), warm it, measure the window, then seal, restart from the
// snapshot and verify the restored daemon.
func runEndToEnd(cfg *config, w workloadSpec, seed int64, window time.Duration) (*runResult, error) {
	began := time.Now()
	orc := cfg.buildOracles(w)
	var ing *ingestOracle
	if w.name == wlIngest {
		ing = newIngestOracle(cfg.orders, ingestBatches(window), seed)
	}
	rawBytes := cfg.rawBytes(w, orc.db)
	gen := cfg.newGenerator(w, orc, ing, seed)
	orc.db = nil // the expected replies are extracted; give the memory back before timing

	// Set-up: spawn on an empty directory (generate, build zone maps,
	// seal the initial snapshot) until /healthz answers. The last daemon
	// stays and serves the window.
	var d *daemon
	var dir string
	var ready []float64
	for i := 0; i < cfg.setupRepeats; i++ {
		if d != nil {
			d.stop()
			removeData(dir)
		}
		var err error
		if dir, err = cfg.freshDir(w.name); err != nil {
			return nil, err
		}
		if d, err = spawn(cfg, cfg.daemonFlags(w), dir); err != nil {
			removeData(dir)
			return nil, err
		}
		ready = append(ready, d.readyIn.Seconds())
	}
	defer func() {
		d.stop()
		removeData(dir)
	}()
	snapBytes, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}

	warmRec := newRecorder()
	warmStart := time.Now()
	gen.warm(&client{http: cfg.http, base: d.base, rec: warmRec})
	warm := time.Since(warmStart)

	obs, err := measure(cfg, d, gen, window)
	if err != nil {
		return nil, err
	}

	// Restart: seal what the window wrote, stop, and come back from the
	// snapshot alone. Every kind must still pass its oracle.
	resp, err := cfg.http.Post(d.base+"/snapshot", "application/json", nil)
	if err != nil {
		return nil, fmt.Errorf("final snapshot: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("final snapshot: HTTP %d", resp.StatusCode)
	}
	d.stop()
	restarted, err := spawn(cfg, cfg.daemonFlags(w), dir)
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	d = restarted
	if g, ok := gen.(*ingestGen); ok {
		g.restarted()
	}
	verifyRec := newRecorder()
	gen.probe(&client{http: cfg.http, base: d.base, rec: verifyRec})

	e2e := newMetricSet(endToEndDefs)
	obs.setEndToEnd(e2e, w)
	e2e.set("setup_s", median(ready)+warm.Seconds(), len(ready))
	e2e.set("restart_s", d.readyIn.Seconds(), 1)
	extra := newMetricSet(perLayerDefs())
	obs.setOutsideLayers(extra)
	obs.setClientKinds(extra, w)
	extra.set("colstore.snapshot_bytes_per_raw_byte", float64(snapBytes)/rawBytes, 0)

	attempted := warmRec.attempted + obs.rec.attempted + verifyRec.attempted
	failed := warmRec.failed + obs.rec.failed + verifyRec.failed
	return &runResult{
		Workload: w.name, Seed: seed,
		Correct: failed == 0, Attempted: attempted, Failed: failed,
		WallS:   time.Since(began).Seconds(),
		Metrics: e2e.values, Extra: extra.values,
	}, nil
}

// runTraced is one traced run. It yields every per-layer metric: first
// the outside view, each workload in turn on a daemon of its own over a
// short window (every op kind's median comes from its own workload; the
// server, dispatch and snapshot-size metrics from the named one), then
// the in-process ladder with a span around each call into a layer.
func runTraced(cfg *config, named workloadSpec, seed int64, window time.Duration) (*runResult, error) {
	began := time.Now()
	orc := cfg.buildOracles(workloadSpecs...)
	window = max(window/8, 250*time.Millisecond) // the TPC-H sets round it up to whole cycles
	ing := newIngestOracle(cfg.orders, ingestBatches(window), seed)

	layers := newMetricSet(perLayerDefs())
	layers.set("tpch.generate_s", orc.generateS, 1)
	res := &runResult{Workload: named.name, Seed: seed, Trace: true}
	for _, w := range workloadSpecs {
		obs, snapBytes, err := observeBriefly(cfg, w, cfg.newGenerator(w, orc, ing, seed), window, res)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		obs.setClientKinds(layers, w)
		if w.name == named.name {
			obs.setOutsideLayers(layers)
			layers.set("colstore.snapshot_bytes_per_raw_byte", float64(snapBytes)/cfg.rawBytes(w, orc.db), 0)
		}
	}

	tracePath := filepath.Join(cfg.outDir, "trace.json")
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	attempted, failed, err := tracedLadder(cfg, orc, seed, layers, tracePath)
	if err != nil {
		return nil, err
	}
	res.Attempted += attempted
	res.Failed += failed
	if miss := layers.missing(); len(miss) > 0 {
		return nil, fmt.Errorf("traced run left per-layer metrics unmeasured: %v", miss)
	}
	res.Correct = res.Failed == 0
	res.Metrics = layers.values
	res.WallS = time.Since(began).Seconds()
	return res, nil
}

// observeBriefly spawns a daemon for the workload, warms it, measures one
// window and stops it, adding every attempt and failure to res.
// snapBytes is the size of the initial snapshot.
func observeBriefly(cfg *config, w workloadSpec, gen generator, window time.Duration, res *runResult) (obs *observation, snapBytes int64, err error) {
	dir, err := cfg.freshDir("traced")
	if err != nil {
		return nil, 0, err
	}
	defer removeData(dir)
	d, err := spawn(cfg, cfg.daemonFlags(w), dir)
	if err != nil {
		return nil, 0, err
	}
	defer d.stop()
	if snapBytes, err = dirBytes(dir); err != nil {
		return nil, 0, err
	}
	warmRec := newRecorder()
	gen.warm(&client{http: cfg.http, base: d.base, rec: warmRec})
	if obs, err = measure(cfg, d, gen, window); err != nil {
		return nil, 0, err
	}
	res.Attempted += warmRec.attempted + obs.rec.attempted
	res.Failed += warmRec.failed + obs.rec.failed
	return obs, snapBytes, nil
}
