package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"repro/internal/tpch"
)

// The four workloads. Each stresses different layers of morseld, so an
// optimisation of one layer has a workload that exercises it and one
// that bypasses it; the why strings are repeated in BENCHMARK.json and
// the README.
const (
	wlScan   = "tpch_scan_agg"
	wlJoin   = "tpch_join_agg"
	wlShort  = "serve_short"
	wlIngest = "ingest_mix"
)

type workloadSpec struct {
	name string
	// kinds are the op kinds the workload sends, in reporting order.
	// The geometric mean runs over all of them except seal.
	kinds []string
	// tailPct is the fixed tail percentile of lat_tail_ms: the highest
	// one a run's sample count leaves at least ten samples beyond.
	tailPct float64
	demo    bool // serves the demo dataset (else TPC-H)
	// oneWorker serves the workload with a single morsel worker instead
	// of one per core. morseld's dispatcher can finish a pipeline while
	// another worker is still cutting its last morsel (README, "A defect
	// this benchmark found"); where morsels are tiny (the small tables of
	// serve_short, the append partitions of ingest_mix) that drops rows
	// from about one reply in 70 000, and every wrong reply is a failed
	// operation. One worker cannot race with itself. Remove the
	// flag in the change that follows the dispatcher fix, and measure the
	// baseline again.
	oneWorker bool
}

var (
	scanQueries = []int{1, 6, 12, 14, 19}
	joinQueries = []int{3, 5, 9, 10, 18}
	shortKinds  = []string{"supp_point_p", "cust_point_lit", "nation_rollup_p", "cust_topk_p", "orders_by_cust_p"}
	ingestKinds = []string{"append", "read_count_p", "read_rollup_p", "seal"}
)

func queryKinds(nums []int) []string {
	out := make([]string, len(nums))
	for i, n := range nums {
		out[i] = "q" + strconv.Itoa(n)
	}
	return out
}

var workloadSpecs = []workloadSpec{
	{name: wlScan, kinds: queryKinds(scanQueries), tailPct: 0.90},
	{name: wlJoin, kinds: queryKinds(joinQueries), tailPct: 0.80},
	{name: wlShort, kinds: shortKinds, tailPct: 0.99, oneWorker: true},
	{name: wlIngest, kinds: ingestKinds, tailPct: 0.99, demo: true, oneWorker: true},
}

func specByName(name string) (workloadSpec, bool) {
	for _, w := range workloadSpecs {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// allKinds lists the op kinds of every workload, in reporting order.
func allKinds() []string {
	var out []string
	for _, w := range workloadSpecs {
		out = append(out, w.kinds...)
	}
	return out
}

// generator drives one workload against a daemon. Implementations keep
// whatever state must carry from warm-up through the window to the
// post-restart probe.
type generator interface {
	// warm sends a fixed count of requests so plan caches fill and lazy
	// set-up finishes before anything is timed.
	warm(c *client)
	// run sends the workload for about the given window and returns how
	// long it actually measured (start to last completion).
	run(c *client, window time.Duration) time.Duration
	// probe sends one op of every kind.
	probe(c *client)
}

// tpchGen is the closed loop of the two TPC-H workloads: one client
// cycling five statements, the order permuted per cycle by the seed.
type tpchGen struct {
	ops        []op
	rng        *rand.Rand
	warmCycles int
}

func newTPCHGen(nums []int, sf float64, orc map[int]*tpchExpect, seed int64, warmCycles int) *tpchGen {
	g := &tpchGen{rng: rand.New(rand.NewSource(seed)), warmCycles: warmCycles}
	for _, n := range nums {
		g.ops = append(g.ops, queryOp("q"+strconv.Itoa(n), tpch.MustSQLText(n, sf), orc[n].check))
	}
	return g
}

func (g *tpchGen) probe(c *client) {
	for _, o := range g.ops {
		c.do(o, time.Time{})
	}
}

func (g *tpchGen) warm(c *client) {
	for i := 0; i < g.warmCycles; i++ {
		g.probe(c)
	}
}

// run measures whole cycles only, ending at the first cycle boundary
// past the window: every kind then has the same sample count and the
// throughput does not depend on which statement the deadline cut off.
func (g *tpchGen) run(c *client, window time.Duration) time.Duration {
	start := time.Now()
	for time.Since(start) < window {
		for _, i := range g.rng.Perm(len(g.ops)) {
			c.do(g.ops[i], time.Time{})
		}
	}
	return time.Since(start)
}

// The five serve_short statements: sub-millisecond queries over TPC-H's
// small tables, where per-request overhead is nearly all of the latency.
const (
	sqlSuppPoint    = `SELECT s_name, s_nationkey, s_acctbal FROM supplier WHERE s_suppkey = ?`
	sqlCustPointLit = `SELECT c_name, c_nationkey, c_acctbal FROM customer WHERE c_custkey = %d`
	sqlNationRollup = `SELECT n_name, COUNT(*) AS n, SUM(s_acctbal) AS bal FROM supplier, nation WHERE s_nationkey = n_nationkey AND s_acctbal > ? GROUP BY n_name ORDER BY n_name`
	sqlCustTopK     = `SELECT c_custkey, c_acctbal FROM customer WHERE c_nationkey = ? AND c_mktsegment = ? ORDER BY c_acctbal DESC, c_custkey LIMIT 10`
	sqlOrdersByCust = `SELECT COUNT(*) AS n, SUM(o_totalprice) AS total FROM orders WHERE o_custkey = ?`
)

// shortGen is serve_short: several closed-loop clients, each cycling
// the five statement kinds with parameters drawn from the seed.
type shortGen struct {
	orc      *shortOracle
	seed     int64
	clients  int
	warmOps  int // cycles per client before timing
	nextSeed int64
}

// next builds the op of the given kind with parameters from rng.
func (g *shortGen) next(kind string, rng *rand.Rand) op {
	switch kind {
	case "supp_point_p":
		k := int64(1 + rng.Intn(len(g.orc.supp)))
		return queryOp(kind, sqlSuppPoint, func(q *queryReply) error { return checkPoint(q, g.orc.supp[k]) }, k)
	case "cust_point_lit":
		// The key is inlined, so there are more distinct texts than
		// plan-cache entries: every request parses, binds and optimises.
		k := int64(1 + rng.Intn(len(g.orc.cust)))
		return queryOp(kind, fmt.Sprintf(sqlCustPointLit, k), func(q *queryReply) error { return checkPoint(q, g.orc.cust[k]) })
	case "nation_rollup_p":
		threshold := float64(rng.Intn(9000))
		return queryOp(kind, sqlNationRollup, func(q *queryReply) error { return g.orc.checkRollup(q, threshold) }, threshold)
	case "cust_topk_p":
		k := topkKey{int64(rng.Intn(len(g.orc.nationName))), g.orc.segments[rng.Intn(len(g.orc.segments))]}
		return queryOp(kind, sqlCustTopK, func(q *queryReply) error { return g.orc.checkTopK(q, k) }, k.nation, k.segment)
	default: // orders_by_cust_p
		k := int64(1 + rng.Intn(len(g.orc.cust)))
		a := g.orc.orders[k]
		return queryOp(kind, sqlOrdersByCust, func(q *queryReply) error { return checkCountSum(q, a.n, a.total) }, k)
	}
}

// fanOut runs one goroutine per client, each with its own deterministic
// parameter stream, until every one returned.
func (g *shortGen) fanOut(body func(rng *rand.Rand)) {
	var wg sync.WaitGroup
	for i := 0; i < g.clients; i++ {
		g.nextSeed++
		rng := rand.New(rand.NewSource(g.seed<<16 + g.nextSeed))
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(rng)
		}()
	}
	wg.Wait()
}

func (g *shortGen) cycle(c *client, rng *rand.Rand) {
	for _, i := range rng.Perm(len(shortKinds)) {
		c.do(g.next(shortKinds[i], rng), time.Time{})
	}
}

func (g *shortGen) warm(c *client) {
	g.fanOut(func(rng *rand.Rand) {
		for i := 0; i < g.warmOps; i++ {
			g.cycle(c, rng)
		}
	})
}

func (g *shortGen) run(c *client, window time.Duration) time.Duration {
	start := time.Now()
	g.fanOut(func(rng *rand.Rand) {
		for time.Since(start) < window {
			g.cycle(c, rng)
		}
	})
	return time.Since(start)
}

func (g *shortGen) probe(c *client) {
	g.cycle(c, rand.New(rand.NewSource(g.seed)))
}

const (
	sqlReadCount  = `SELECT COUNT(*) AS n, SUM(amount) AS total FROM orders WHERE day >= ?`
	sqlReadRollup = `SELECT kind, COUNT(*) AS n, SUM(amount) AS total FROM orders WHERE day < ? GROUP BY kind ORDER BY kind`

	// appendsPerSec is the open-loop writer's fixed rate: 50 batches of
	// 400 rows, 20 000 rows a second. It is a rate, not "as fast as
	// possible", so the table grows identically on both sides of any
	// comparison. (The single writer waits for each reply, so a batch
	// slower than the 20 ms period makes the next one late; at 100 x 200
	// rows the period was shorter than morseld's p99 append latency.)
	appendsPerSec = 50
	// sealEvery is the longest stretch of schedule between two seals.
	sealEvery = 10 * time.Second

	ingestWarmAppends = 20
)

// ingestGen is ingest_mix: one open-loop writer appending batches at a
// fixed rate beside one closed-loop reader, which also seals the delta
// into the snapshot directory on a fixed schedule.
type ingestGen struct {
	orc  *ingestOracle
	rng  *rand.Rand // the reader's parameters
	next int        // next batch to send
}

// ingestBatches is how many batches a run with the given windows needs:
// warm-up, the schedule of every window, and the probes.
func ingestBatches(windows ...time.Duration) int {
	n := ingestWarmAppends + 4
	for _, w := range windows {
		n += int(w.Seconds()*appendsPerSec) + 1
	}
	return n
}

func (g *ingestGen) appendOp() op {
	i := g.next
	g.next++
	want := uint64(int64(i+1) - g.orc.sealed)
	g.orc.issued.Add(1)
	return op{kind: "append", path: "/append", body: g.orc.bodies[i], check: func(r *reply) error {
		var a appendReply
		if err := json.Unmarshal(r.raw, &a); err != nil {
			return err
		}
		if a.RowsAppended != batchRows || a.Version != want {
			return fmt.Errorf("acknowledged %d rows at version %d, want %d at %d", a.RowsAppended, a.Version, batchRows, want)
		}
		return nil
	}}
}

func (g *ingestGen) countOp() op {
	return queryOp("read_count_p", sqlReadCount, g.orc.checkCount, int64(0))
}

func (g *ingestGen) rollupOp() op {
	day := 30 + g.rng.Intn(demoDays-29)
	return queryOp("read_rollup_p", sqlReadRollup, func(q *queryReply) error { return g.orc.checkRollup(q, day) }, int64(day))
}

var sealOp = op{kind: "seal", path: "/snapshot", body: []byte("{}")}

func (g *ingestGen) warm(c *client) {
	for i := 0; i < ingestWarmAppends; i++ {
		c.do(g.appendOp(), time.Time{})
		if i%2 == 0 {
			c.do(g.countOp(), time.Time{})
		} else {
			c.do(g.rollupOp(), time.Time{})
		}
	}
}

func (g *ingestGen) run(c *client, window time.Duration) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the writer: batch i leaves at its due time, or as soon after as the previous reply allows
		defer wg.Done()
		n := int(window.Seconds() * appendsPerSec)
		for i := 0; i < n; i++ {
			due := dueTime(start, i, appendsPerSec)
			time.Sleep(time.Until(due))
			c.do(g.appendOp(), due)
		}
	}()
	every := min(sealEvery, window/2)
	nextSeal := every
	for i := 0; time.Since(start) < window; i++ {
		if t := time.Since(start); t >= nextSeal {
			c.do(sealOp, time.Time{})
			nextSeal += every
			continue
		}
		if i%2 == 0 {
			c.do(g.countOp(), time.Time{})
		} else {
			c.do(g.rollupOp(), time.Time{})
		}
	}
	wg.Wait()
	return time.Since(start)
}

func (g *ingestGen) probe(c *client) {
	c.do(g.appendOp(), time.Time{})
	c.do(g.countOp(), time.Time{})
	c.do(g.rollupOp(), time.Time{})
	c.do(sealOp, time.Time{})
}

// restarted tells the generator the daemon came back from its snapshot:
// every batch sent so far is now sealed base data and the daemon's
// version counter starts over.
func (g *ingestGen) restarted() { g.orc.sealed = int64(g.next) }
