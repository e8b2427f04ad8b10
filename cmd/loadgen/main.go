// Command loadgen is a closed-loop load generator for morseld: each
// client keeps exactly one SQL query in flight, interactive clients fire
// cheap high-priority queries while batch clients grind heavy rollups,
// and the report shows throughput and latency percentiles per priority
// class — the elasticity experiment of the paper's Fig. 13, measured
// through the network API. Every request is compiled (or served from the
// plan cache) by the server's SQL front end.
//
// Usage:
//
//	loadgen -addr http://localhost:8080 -clients 8 -mix 0.5 -duration 10s
//	loadgen -prepared   # ? placeholders + rotating params; gates on a >90% plan-cache hit rate
//
// Against a morseld cluster, -distributed adds {"distributed": true} to
// every request, and -cluster-smoke runs the two-node parity check CI
// gates on: TPC-H Q1/Q3/Q6/Q12 executed distributed through every node
// as coordinator must equal the single-node result bit-for-bit (floats
// within tolerance):
//
//	loadgen -cluster-smoke http://localhost:8081,http://localhost:8082 -sf 0.05
//
// -agg shared|partitioned adds that aggregation strategy to every
// request (empty = the server's default).
//
// With -bench-json, the closed-loop report is also written as a
// machine-readable BENCH_loadgen.json into $BENCH_OUT (informational
// metrics — wall-clock numbers are not regression-gated).
//
// -ingest switches to write mode: stream deterministic row batches into
// the demo orders table over POST /append while concurrent readers
// verify that every query's count matches its pinned data-version
// exactly (see cmd/loadgen/ingest.go), exiting nonzero on violation:
//
//	loadgen -ingest -ingest-events 100000 -ingest-batch 1000
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/tpch"
)

type result struct {
	class   string
	latency time.Duration
	err     error
}

// defaultBatchExtras rotates the newer SQL surface through the batch
// class against the demo schema: an uncorrelated scalar
// subquery (k=1 cross-join attach), a NOT EXISTS anti join, and a LEFT
// JOIN whose COUNT must not count null-extended rows (build-side mark
// join when customers is the smaller side).
const defaultBatchExtras = `SELECT region, COUNT(*) AS n FROM orders, customers WHERE cust = cid AND amount > (SELECT AVG(o2.amount) FROM orders AS o2) GROUP BY region ORDER BY region` +
	`;SELECT COUNT(*) AS n FROM customers WHERE NOT EXISTS (SELECT * FROM orders WHERE cust = cid AND day < 3)` +
	`;SELECT region, COUNT(id) AS n FROM customers LEFT JOIN orders ON cust = cid AND amount > 9900 GROUP BY region ORDER BY region`

func main() {
	var (
		addr        = flag.String("addr", "http://localhost:8080", "morseld base URL")
		clients     = flag.Int("clients", 8, "concurrent closed-loop clients")
		mix         = flag.Float64("mix", 0.5, "fraction of clients issuing interactive queries")
		duration    = flag.Duration("duration", 10*time.Second, "run length")
		intSQL      = flag.String("interactive-sql", "SELECT COUNT(*) AS n FROM orders WHERE day < 7", "SQL for interactive clients")
		batchSQL    = flag.String("batch-sql", "SELECT region, COUNT(*) AS n, SUM(amount) AS revenue FROM orders, customers WHERE cust = cid GROUP BY region ORDER BY revenue DESC", "SQL for batch clients")
		batchExtras = flag.String("batch-extra-sql", defaultBatchExtras, "extra ;-separated SQL rotated across batch clients (empty disables); defaults exercise scalar subqueries, NOT EXISTS anti joins and LEFT JOIN count semantics")
		preparedSQL = flag.Bool("prepared", false, "send parameterized statements (? placeholders + rotating params) so requests hit the server's plan cache; verifies >90% hit rate and result parity with the unprepared path")
		intPSQL     = flag.String("interactive-prepared-sql", "SELECT COUNT(*) AS n FROM orders WHERE day < ?", "parameterized SQL for interactive clients (with -prepared)")
		intParams   = flag.String("interactive-params", "[[7], [14], [30]]", "JSON array of param sets rotated across interactive requests")
		batchPSQL   = flag.String("batch-prepared-sql", "SELECT region, COUNT(*) AS n, SUM(amount) AS revenue FROM orders, customers WHERE cust = cid AND amount < ? GROUP BY region ORDER BY revenue DESC", "parameterized SQL for batch clients (with -prepared)")
		batchParams = flag.String("batch-params", "[[2500], [5000], [9000]]", "JSON array of param sets rotated across batch requests")
		physAgg     = flag.String("agg", "", "aggregation strategy sent per request: auto | shared | partitioned (empty = server default)")
		timeoutMs   = flag.Int("timeout-ms", 0, "per-query timeout (0 = server default)")
		distributed = flag.Bool("distributed", false, "request distributed execution across the morseld cluster for every query")
		ingestMode  = flag.Bool("ingest", false, "stream deterministic batches into the demo orders table over POST /append while readers verify count/version consistency, then exit (nonzero on any violation)")
		ingEvents   = flag.Int("ingest-events", 100_000, "events to append (with -ingest); must divide evenly by -ingest-batch")
		ingBatch    = flag.Int("ingest-batch", 1_000, "rows per append batch (with -ingest)")
		ingReaders  = flag.Int("ingest-readers", 2, "concurrent consistency readers (with -ingest)")
		smoke       = flag.String("cluster-smoke", "", "comma-separated node URLs: run the distributed-vs-single-node TPC-H parity check against the cluster and exit")
		sfFlag      = flag.Float64("sf", 0.01, "TPC-H scale factor of the cluster dataset (with -cluster-smoke)")
		benchJSON   = flag.Bool("bench-json", false, "also write the report as BENCH_loadgen.json into $BENCH_OUT (or the cwd)")
	)
	flag.Parse()

	if *smoke != "" {
		if err := clusterSmoke(strings.Split(*smoke, ","), *sfFlag, *timeoutMs); err != nil {
			log.Fatalf("CLUSTER SMOKE FAILURE: %v", err)
		}
		fmt.Println("cluster smoke: distributed results match single-node on every coordinator")
		return
	}

	if err := waitHealthy(*addr, 30*time.Second); err != nil {
		log.Fatalf("server not healthy: %v", err)
	}

	if *ingestMode {
		if err := runIngest(*addr, *ingEvents, *ingBatch, *ingReaders); err != nil {
			log.Fatalf("INGEST FAILURE: %v", err)
		}
		return
	}

	nInteractive := int(float64(*clients) * *mix)
	mode := "SQL"
	if *preparedSQL {
		mode = "parameterized SQL"
	}
	log.Printf("running %d clients (%d interactive, %d batch, %s) for %v against %s",
		*clients, nInteractive, *clients-nInteractive, mode, *duration, *addr)

	var (
		mu      sync.Mutex
		results []result
		// firstRows pins the reference row set per (query, params);
		// every later response must match it (correctness under
		// concurrency — and, with -prepared, vs the unprepared path).
		firstRows  = map[string][][]any{}
		mismatches int
	)

	// work is one rotating request body of a class.
	type work struct {
		key  string
		body []byte
	}
	parseSets := func(sets string) [][]any {
		var out [][]any
		if err := json.Unmarshal([]byte(sets), &out); err != nil {
			log.Fatalf("bad param sets %q: %v", sets, err)
		}
		if len(out) == 0 {
			log.Fatalf("param sets %q must hold at least one set, e.g. [[7], [14]]", sets)
		}
		return out
	}
	buildWork := func(class string) []work {
		var items []work
		add := func(q string, params []any) {
			req := map[string]any{"sql": q, "priority": class, "timeout_ms": *timeoutMs}
			if *distributed {
				req["distributed"] = true
			}
			if params != nil {
				req["params"] = params
			}
			if *physAgg != "" {
				req["agg"] = *physAgg
			}
			body, _ := json.Marshal(req)
			key, _ := json.Marshal([]any{q, params, *physAgg})
			items = append(items, work{key: string(key), body: body})
		}
		if *preparedSQL {
			q, sets := *intPSQL, *intParams
			if class == "batch" {
				q, sets = *batchPSQL, *batchParams
			}
			for _, ps := range parseSets(sets) {
				add(q, ps)
			}
			return items
		}
		q := *intSQL
		if class == "batch" {
			q = *batchSQL
		}
		add(q, nil)
		if class == "batch" {
			for _, extra := range strings.Split(*batchExtras, ";") {
				if extra = strings.TrimSpace(extra); extra != "" {
					add(extra, nil)
				}
			}
		}
		return items
	}

	// With -prepared, seed the reference results through the UNPREPARED
	// path: the same statements with the params inlined as literals.
	// Every prepared response must then match the unprepared result.
	if *preparedSQL {
		client := &http.Client{}
		seed := func(q, sets string) {
			for _, ps := range parseSets(sets) {
				lit, err := substituteParams(q, ps)
				if err != nil {
					log.Fatalf("cannot inline params into %q: %v", q, err)
				}
				ref := map[string]any{"sql": lit, "timeout_ms": *timeoutMs}
				if *physAgg != "" {
					ref["agg"] = *physAgg
				}
				body, _ := json.Marshal(ref)
				rows, err := post(client, *addr+"/query", body)
				if err != nil {
					log.Fatalf("unprepared reference %q: %v", lit, err)
				}
				key, _ := json.Marshal([]any{q, ps, *physAgg})
				firstRows[string(key)] = rows
			}
		}
		seed(*intPSQL, *intParams)
		seed(*batchPSQL, *batchParams)
		log.Printf("seeded %d unprepared reference results", len(firstRows))
	}

	// Snapshot the plan cache after seeding so the hit-rate measures
	// only the prepared workload.
	cacheBefore, cacheErr := fetchCacheStats(*addr)

	deadline := time.Now().Add(*duration)
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		class := "batch"
		if c < nInteractive {
			class = "interactive"
		}
		wg.Add(1)
		go func(class string, items []work) {
			defer wg.Done()
			client := &http.Client{}
			for i := 0; time.Now().Before(deadline); i++ {
				it := items[i%len(items)]
				start := time.Now()
				rows, err := post(client, *addr+"/query", it.body)
				lat := time.Since(start)
				mu.Lock()
				results = append(results, result{class: class, latency: lat, err: err})
				if err == nil {
					if prev, ok := firstRows[it.key]; !ok {
						firstRows[it.key] = rows
					} else if !rowsEqual(prev, rows) {
						mismatches++
					}
				}
				mu.Unlock()
			}
		}(class, buildWork(class))
	}
	wg.Wait()

	report(results, *duration)
	if *benchJSON {
		if err := emitBenchJSON(results, *duration); err != nil {
			log.Fatalf("bench-json: %v", err)
		}
	}
	if mismatches > 0 {
		log.Fatalf("CORRECTNESS FAILURE: %d responses diverged from the reference result of the same query", mismatches)
	}
	fmt.Println("all repeated queries returned identical results")
	if *preparedSQL {
		fmt.Println("prepared results match the unprepared path")
	}

	cacheAfter, err := fetchCacheStats(*addr)
	if err != nil || cacheErr != nil {
		if *preparedSQL {
			// -prepared promises the hit-rate gate; an unreadable /stats
			// must fail the run, not silently skip the check.
			log.Fatalf("FAILURE: cannot verify plan-cache hit rate: before=%v after=%v", cacheErr, err)
		}
		return
	}
	hits := cacheAfter.Hits - cacheBefore.Hits
	misses := cacheAfter.Misses - cacheBefore.Misses
	if total := hits + misses; total > 0 {
		rate := float64(hits) / float64(total)
		fmt.Printf("plan cache: %d hits / %d misses (%.1f%% hit rate)\n", hits, misses, 100*rate)
		if *preparedSQL && rate < 0.9 {
			fmt.Printf("FAILURE: plan-cache hit rate %.1f%% below the 90%% target\n", 100*rate)
			os.Exit(2)
		}
	} else if *preparedSQL {
		fmt.Println("FAILURE: plan cache saw no traffic (caching disabled server-side?); cannot meet the 90% hit-rate target")
		os.Exit(2)
	}
}

// substituteParams inlines params into the ? placeholders of q as SQL
// literals (date-shaped strings become DATE literals), producing the
// equivalent unprepared statement.
func substituteParams(q string, params []any) (string, error) {
	var b strings.Builder
	pi := 0
	inStr := false
	for i := 0; i < len(q); i++ {
		c := q[i]
		if c == '\'' {
			inStr = !inStr
		}
		if c == '?' && !inStr {
			if pi >= len(params) {
				return "", fmt.Errorf("more placeholders than params (%d)", len(params))
			}
			switch v := params[pi].(type) {
			case string:
				if engine.DateShaped(v) {
					fmt.Fprintf(&b, "DATE '%s'", v)
				} else {
					fmt.Fprintf(&b, "'%s'", strings.ReplaceAll(v, "'", "''"))
				}
			case float64:
				// Plain decimal notation: the SQL lexer reads digits and
				// '.' only (no exponents), and integral values must not
				// round-trip through a potentially overflowing int64.
				b.WriteString(strconv.FormatFloat(v, 'f', -1, 64))
			default:
				fmt.Fprintf(&b, "%v", v)
			}
			pi++
			continue
		}
		b.WriteByte(c)
	}
	if pi != len(params) {
		return "", fmt.Errorf("query has %d placeholders, %d params given", pi, len(params))
	}
	return b.String(), nil
}

// cacheStats is the plan_cache slice of GET /stats.
type cacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

func fetchCacheStats(addr string) (cacheStats, error) {
	var decoded struct {
		PlanCache cacheStats `json:"plan_cache"`
	}
	resp, err := http.Get(addr + "/stats")
	if err != nil {
		return cacheStats{}, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		return cacheStats{}, err
	}
	return decoded.PlanCache, nil
}

func waitHealthy(addr string, patience time.Duration) error {
	deadline := time.Now().Add(patience)
	for {
		resp, err := http.Get(addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// queryResponse is the slice of POST /query's response the generator
// reads.
type queryResponse struct {
	Rows        [][]any `json:"rows"`
	Distributed bool    `json:"distributed"`
	DistNodes   int     `json:"dist_nodes"`
	// Versions maps appended-to tables to the data-version the query
	// was pinned at (ingest mode reads it for consistency checking).
	Versions map[string]uint64 `json:"versions"`
}

// post runs one query and returns its decoded result rows.
func post(client *http.Client, url string, body []byte) ([][]any, error) {
	resp, err := postFull(client, url, body)
	if err != nil {
		return nil, err
	}
	return resp.Rows, nil
}

func postFull(client *http.Client, url string, body []byte) (*queryResponse, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var decoded queryResponse
	if err := json.Unmarshal(data, &decoded); err != nil {
		return nil, err
	}
	return &decoded, nil
}

// clusterSmoke is the two-node CI gate: TPC-H Q1/Q3/Q6/Q12 executed
// with {"distributed": true} through every node as coordinator must
// return the single-node result (order-insensitive, floats within
// tolerance), and the server must confirm the query really fanned out.
func clusterSmoke(nodes []string, sf float64, timeoutMs int) error {
	for i := range nodes {
		nodes[i] = strings.TrimRight(strings.TrimSpace(nodes[i]), "/")
	}
	if len(nodes) < 2 {
		return fmt.Errorf("need at least 2 nodes, have %v", nodes)
	}
	for _, n := range nodes {
		if err := waitHealthy(n, 60*time.Second); err != nil {
			return fmt.Errorf("node %s not healthy: %v", n, err)
		}
	}
	client := &http.Client{}
	for _, q := range []int{1, 3, 6, 12} {
		sqlText := tpch.MustSQLText(q, sf)
		single, _ := json.Marshal(map[string]any{"sql": sqlText, "timeout_ms": timeoutMs})
		ref, err := postFull(client, nodes[0]+"/query", single)
		if err != nil {
			return fmt.Errorf("q%d single-node: %v", q, err)
		}
		if ref.Distributed {
			return fmt.Errorf("q%d: single-node request reported distributed execution", q)
		}
		dist, _ := json.Marshal(map[string]any{"sql": sqlText, "timeout_ms": timeoutMs, "distributed": true})
		for i, node := range nodes {
			got, err := postFull(client, node+"/query", dist)
			if err != nil {
				return fmt.Errorf("q%d via coordinator %d: %v", q, i, err)
			}
			if !got.Distributed || got.DistNodes != len(nodes) {
				return fmt.Errorf("q%d via coordinator %d did not run distributed (distributed=%v nodes=%d)",
					q, i, got.Distributed, got.DistNodes)
			}
			if !rowsEqual(ref.Rows, got.Rows) {
				return fmt.Errorf("q%d via coordinator %d: distributed rows diverge from single-node\nsingle: %v\ndistributed: %v",
					q, i, ref.Rows, got.Rows)
			}
			fmt.Printf("q%-2d coordinator %d: %d rows, parity ok\n", q, i, len(got.Rows))
		}
	}
	// Parity alone would also pass on a barrier implementation; the
	// frames_streamed counter only moves when exchange frames flowed
	// through stream-fed inboxes, so require it to confirm the cluster
	// really ran the streaming path.
	for i, node := range nodes {
		resp, err := client.Get(node + "/stats")
		if err != nil {
			return fmt.Errorf("stats from node %d: %v", i, err)
		}
		var st struct {
			Cluster *struct {
				FramesStreamed int64 `json:"frames_streamed"`
				FragRetries    int64 `json:"frag_retries"`
				StalledNs      int64 `json:"stalled_ns"`
			} `json:"cluster"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("stats from node %d: %v", i, err)
		}
		if st.Cluster == nil || st.Cluster.FramesStreamed == 0 {
			return fmt.Errorf("node %d streamed no exchange frames — no distributed query reached its inboxes", i)
		}
		fmt.Printf("node %d: %d frames streamed, %d fragment retries, %.1fms stalled on flow control\n",
			i, st.Cluster.FramesStreamed, st.Cluster.FragRetries,
			float64(st.Cluster.StalledNs)/1e6)
	}
	return nil
}

// emitBenchJSON writes the closed-loop report as BENCH_loadgen.json.
// Wall-clock throughput/latency varies with the host, so nothing here
// is regression-gated; the file exists for trend dashboards.
func emitBenchJSON(results []result, elapsed time.Duration) error {
	dir := bench.OutDir()
	if dir == "" {
		dir = "."
	}
	byClass := map[string][]time.Duration{}
	errCount := 0.0
	for _, r := range results {
		if r.err != nil {
			errCount++
			continue
		}
		byClass[r.class] = append(byClass[r.class], r.latency)
	}
	var metrics []bench.Metric
	for class, lats := range byClass {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		metrics = append(metrics,
			bench.Metric{Name: class + "_qps", Value: float64(len(lats)) / elapsed.Seconds(), Unit: "qps", Direction: "higher"},
			bench.Metric{Name: class + "_p99_ms", Value: float64(pctDur(lats, 0.99).Nanoseconds()) / 1e6, Unit: "ms", Direction: "lower"},
		)
	}
	metrics = append(metrics, bench.Metric{Name: "errors", Value: errCount, Unit: "count", Direction: "lower"})
	path, err := bench.Emit(dir, "loadgen", metrics)
	if err == nil {
		fmt.Printf("wrote %s\n", path)
	}
	return err
}

// rowsEqual compares two result row sets order-insensitively, with a
// relative tolerance on floats: parallel summation order varies run to
// run, so float aggregates differ in their last bits (and near-equal
// sort keys may swap rows). Exact string equality would flag correct
// results as divergent.
func rowsEqual(a, b [][]any) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := sortedByKey(a), sortedByKey(b)
	for i := range as {
		if len(as[i]) != len(bs[i]) {
			return false
		}
		for j := range as[i] {
			if !cellEqual(as[i][j], bs[i][j]) {
				return false
			}
		}
	}
	return true
}

// sortedByKey orders rows by a canonical key with floats at low
// precision, so fp noise cannot flip the ordering of distinct rows.
func sortedByKey(rows [][]any) [][]any {
	out := append([][]any(nil), rows...)
	key := func(row []any) string {
		var sb bytes.Buffer
		for _, v := range row {
			if f, ok := v.(float64); ok {
				fmt.Fprintf(&sb, "%.2f|", f)
			} else {
				fmt.Fprintf(&sb, "%v|", v)
			}
		}
		return sb.String()
	}
	sort.Slice(out, func(i, j int) bool { return key(out[i]) < key(out[j]) })
	return out
}

func cellEqual(a, b any) bool {
	fa, aok := a.(float64)
	fb, bok := b.(float64)
	if aok && bok {
		diff := fa - fb
		if diff < 0 {
			diff = -diff
		}
		scale := 1.0
		if s := max(abs(fa), abs(fb)); s > scale {
			scale = s
		}
		return diff <= 1e-8*scale
	}
	return fmt.Sprint(a) == fmt.Sprint(b)
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

func report(results []result, elapsed time.Duration) {
	byClass := map[string][]time.Duration{}
	errs := map[string]int{}
	for _, r := range results {
		if r.err != nil {
			errs[r.class]++
			continue
		}
		byClass[r.class] = append(byClass[r.class], r.latency)
	}
	fmt.Printf("\n%-12s %8s %8s %9s %9s %9s %9s %7s\n",
		"class", "queries", "qps", "p50", "p90", "p99", "max", "errors")
	for _, class := range []string{"interactive", "batch"} {
		lats := byClass[class]
		if len(lats) == 0 && errs[class] == 0 {
			continue
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		fmt.Printf("%-12s %8d %8.1f %9s %9s %9s %9s %7d\n",
			class, len(lats), float64(len(lats))/elapsed.Seconds(),
			pct(lats, 0.50), pct(lats, 0.90), pct(lats, 0.99), pct(lats, 1.0), errs[class])
	}
	if len(byClass["interactive"]) > 0 && len(byClass["batch"]) > 0 {
		pi := pctDur(byClass["interactive"], 0.99)
		pb := pctDur(byClass["batch"], 0.99)
		if pi < pb {
			fmt.Printf("\ninteractive p99 (%v) < batch p99 (%v): priority scheduling holds\n",
				pi.Round(time.Microsecond), pb.Round(time.Microsecond))
		} else {
			fmt.Printf("\nWARNING: interactive p99 (%v) >= batch p99 (%v)\n",
				pi.Round(time.Microsecond), pb.Round(time.Microsecond))
			os.Exit(2)
		}
	}
}

func pctDur(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func pct(sorted []time.Duration, p float64) string {
	if len(sorted) == 0 {
		return "-"
	}
	return pctDur(sorted, p).Round(10 * time.Microsecond).String()
}
