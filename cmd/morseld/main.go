// Command morseld is the morsel-driven query daemon: it loads a demo
// star schema (an orders fact table and a customers dimension) or TPC-H,
// and serves the concurrent query API over HTTP. Many clients share one
// dispatcher and worker pool, so concurrent queries share workers at
// morsel granularity with priority-weighted elasticity. Every query is
// SQL text ({"sql": ..., "params": [...]}): it compiles through the
// cost-based optimizer into a server-side plan cache keyed by SQL text,
// and ? placeholders bind per execution:
//
//	curl -s localhost:8080/query -d '{"sql": "SELECT COUNT(*) AS n FROM orders WHERE day < ?", "params": [7]}'
//
// Usage:
//
//	morseld -addr :8080 -orders 2000000 -workers 0   # 0 = one worker per host CPU (GOMAXPROCS)
//	morseld -exec 'SELECT COUNT(*) AS n FROM orders WHERE day < ?' -params '[7]'
//	morseld -exec 'SELECT ...' -explain   # optimized plan with cardinality estimates
//
// Every SQL join runs as the pipelined hash join; every grouped
// aggregation with an estimated 4 096 groups or more runs on the
// partitioned aggregation table, the others on the shared one (EXPLAIN
// shows which).
//
// With -data-dir the dataset persists across restarts: the first run
// generates it, seals every table into an on-disk columnar snapshot
// (zone-mapped segments, see docs/storage.md), and later runs restore
// from disk instead of regenerating — a cold start that skips TPC-H
// generation entirely and produces bit-identical query results.
// -sort clusters a table on one column before serving, so range
// predicates on that column skip most segments via their zone maps:
//
//	morseld -dataset tpch -sf 0.1 -data-dir /var/lib/morseld -sort lineitem=l_shipdate
//
// Several morseld processes form a cluster: start each with the same
// -cluster node list and its own -node-id, and the big tables are
// hash-sharded across the nodes (every node generates the identical
// deterministic dataset and serves its shard). Queries submitted with
// {"distributed": true} to any node then run across all nodes via
// exchange operators:
//
//	morseld -addr :8081 -dataset tpch -sf 0.05 -cluster http://localhost:8081,http://localhost:8082 -node-id 0
//	morseld -addr :8082 -dataset tpch -sf 0.05 -cluster http://localhost:8081,http://localhost:8082 -node-id 1
//
// Endpoints: POST /query, POST /append, POST /snapshot, GET /stats,
// GET /tables, GET /healthz, and — on clustered nodes — the peer-to-peer
// POST /exchange/{run,push,done}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/exchange"
	"repro/internal/server"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/tpch"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		machine    = flag.String("machine", "nehalem", "simulated NUMA machine: nehalem | sandybridge")
		workers    = flag.Int("workers", 0, "worker threads (0 = GOMAXPROCS: the daemon runs on the host's cores, not the cost model's)")
		morselRows = flag.Int("morsel-rows", 100_000, "morsel size in tuples")
		orders     = flag.Int("orders", 2_000_000, "demo orders fact-table rows")
		customers  = flag.Int("customers", 10_000, "demo customers dimension rows")
		dataset    = flag.String("dataset", "demo", "dataset to load: demo | tpch")
		sf         = flag.Float64("sf", 0.01, "TPC-H scale factor (with -dataset tpch)")
		cluster    = flag.String("cluster", "", "comma-separated base URLs of every morseld node (enables distributed execution)")
		nodeID     = flag.Int("node-id", 0, "this node's index into the -cluster list")
		execSQL    = flag.String("exec", "", "compile and run one SQL query against the demo dataset, print the result, and exit")
		execParams = flag.String("params", "", `with -exec: JSON array of values for ? placeholders, e.g. '[7, "emea"]'`)
		explain    = flag.Bool("explain", false, "with -exec: print the optimized plan instead of executing")
		execTPCH   = flag.String("exec-tpch", "", `run TPC-H queries from the SQL dialect ("all" or a number like 6), print the results, and exit (requires -dataset tpch)`)
		dataDir    = flag.String("data-dir", "", "snapshot directory: restore the dataset from it when present, otherwise generate and seal it there")
		snapshot   = flag.Bool("snapshot", true, "with -data-dir: seal the freshly generated dataset into the directory")
		sortSpec   = flag.String("sort", "", "cluster one table on a column before serving, e.g. lineitem=l_shipdate (sharpens zone-map segment skipping)")
		maxConc    = flag.Int("max-concurrent", 0, "queries admitted at once (0 = 2 x sockets)")
		maxQueue   = flag.Int("max-queue", 64, "waiting queries before 429 (negative = none)")
		planCache  = flag.Int("plan-cache", 0, "server-side SQL plan cache entries (0 = default 256, negative disables)")
		statsRows  = flag.Int("stats-refresh-rows", 0, "appended rows per table before cached plans recompile against refreshed statistics (0 = default 4096, negative disables)")
		timeout    = flag.Duration("timeout", 30*time.Second, "default per-query timeout")
		fragTO     = flag.Duration("frag-timeout", 30*time.Second, "distributed: per-fragment-RPC attempt timeout (bounds how long a dead peer can stall a query)")
		fragRetry  = flag.Int("frag-retries", 2, "distributed: fragment-RPC retries with backoff (negative = none); retries are stream-safe, receivers dedupe or fail cleanly")
	)
	flag.Parse()

	var m = core.Nehalem()
	switch *machine {
	case "nehalem":
	case "sandybridge":
		m = core.SandyBridge()
	default:
		log.Fatalf("unknown machine %q (want nehalem or sandybridge)", *machine)
	}

	if *workers <= 0 {
		// The machine model only prices simulated runs; the daemon executes
		// for real, so its pool is sized by the host.
		*workers = runtime.GOMAXPROCS(0)
	}
	sys := core.NewSystem(m, core.Options{Workers: *workers, MorselRows: *morselRows})
	start := time.Now()
	var (
		tables  []*core.Table
		sharded []string // tables hash-sharded across cluster nodes
	)
	switch *dataset {
	case "demo":
		sharded = []string{"orders", "customers"}
	case "tpch":
		sharded = []string{"lineitem", "orders", "customer"}
	default:
		log.Fatalf("unknown dataset %q (want demo or tpch)", *dataset)
	}
	label := datasetLabel(*dataset, *sf, *orders, *customers, *sortSpec)

	if *dataDir != "" && colstore.SnapshotExists(*dataDir) {
		// Cold-start restore: skip generation entirely and load the
		// sealed tables (bit-identical data, zone maps included).
		tables = restoreSnapshot(*dataDir, label, m.Topo.Sockets)
		log.Printf("restored snapshot %q from %s in %v (%d tables)",
			label, *dataDir, time.Since(start).Round(time.Millisecond), len(tables))
	} else {
		switch *dataset {
		case "demo":
			log.Printf("loading demo dataset: %d orders, %d customers ...", *orders, *customers)
			ordersT, customersT := loadDemo(sys, *orders, *customers)
			tables = []*core.Table{ordersT, customersT}
		case "tpch":
			// Deterministic generation: every cluster node produces the
			// identical database, then EnableCluster carves out its shard.
			log.Printf("generating TPC-H SF %g ...", *sf)
			db := tpch.Generate(tpch.Config{SF: *sf, Partitions: 32, Sockets: m.Topo.Sockets, Seed: 42})
			tables = []*core.Table{
				db.Region, db.Nation, db.Supplier, db.Customer,
				db.Part, db.PartSupp, db.Orders, db.Lineitem,
			}
		}
		if *sortSpec != "" {
			applySort(tables, *sortSpec, m.Topo.Sockets)
		}
		log.Printf("dataset ready in %v", time.Since(start).Round(time.Millisecond))
		if *dataDir != "" && *snapshot {
			// Build zone maps before registration so the served tables
			// gain segment skipping and the sealed file reuses the same
			// maps (sealing itself never mutates a table — it may run
			// later, via POST /snapshot, against live registered tables).
			for _, t := range tables {
				if !t.HasZoneMaps() {
					t.BuildZoneMaps(0)
				}
			}
			sstart := time.Now()
			man, err := colstore.WriteSnapshot(*dataDir, label, tables, colstore.Options{})
			if err != nil {
				log.Fatalf("sealing snapshot into %s: %v", *dataDir, err)
			}
			bytes := 0
			for _, t := range man.Tables {
				bytes += t.Bytes
			}
			log.Printf("sealed snapshot into %s (%d tables, %.1f MiB) in %v",
				*dataDir, len(man.Tables), float64(bytes)/(1<<20), time.Since(sstart).Round(time.Millisecond))
		}
	}

	if *execSQL != "" {
		if err := runSQL(sys, *execSQL, *execParams, *explain, tables...); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *execTPCH != "" {
		if *dataset != "tpch" {
			log.Fatal("-exec-tpch requires -dataset tpch")
		}
		if err := runTPCHQueries(sys, *execTPCH, *sf, tables); err != nil {
			log.Fatal(err)
		}
		return
	}

	srv := server.New(sys, server.Config{
		MaxConcurrent:    *maxConc,
		MaxQueue:         *maxQueue,
		DefaultTimeout:   *timeout,
		PlanCacheSize:    *planCache,
		StatsRefreshRows: *statsRows,
		FragTimeout:      *fragTO,
		FragRetries:      *fragRetry,
	})
	defer srv.Close()
	for _, t := range tables {
		srv.RegisterTable(t)
	}
	if *dataDir != "" {
		srv.EnableSnapshots(*dataDir, label, colstore.Options{})
	}

	if *cluster != "" {
		cl, err := exchange.ParseCluster(*nodeID, *cluster)
		if err != nil {
			log.Fatal(err)
		}
		if err := srv.EnableCluster(cl, sharded); err != nil {
			log.Fatal(err)
		}
		log.Printf("cluster node %d of %d, sharded tables: %v", cl.Self, cl.N(), sharded)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("shutting down ...")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx)
	}()
	st := srv.Stats()
	log.Printf("morseld listening on %s (%d workers, %d sockets, admit %d + queue %d)",
		*addr, st.Workers, st.Sockets, st.Admission.MaxConcurrent, st.Admission.MaxQueue)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
}

// datasetLabel names the dataset a flag combination describes; restore
// refuses a snapshot whose label disagrees, so a directory can never
// silently serve different data than the flags ask for.
func datasetLabel(dataset string, sf float64, orders, customers int, sortSpec string) string {
	label := fmt.Sprintf("demo orders=%d customers=%d", orders, customers)
	if dataset == "tpch" {
		label = fmt.Sprintf("tpch sf=%g seed=42", sf)
	}
	if sortSpec != "" {
		label += " sort=" + sortSpec
	}
	return label
}

// restoreSnapshot loads and re-homes every table of the snapshot in dir,
// exiting with a clear message (never a panic) on damage, a format
// version from a different build, or a dataset mismatch.
func restoreSnapshot(dir, wantLabel string, sockets int) []*core.Table {
	man, raw, err := colstore.ReadSnapshot(dir)
	if err != nil {
		log.Fatalf("restoring snapshot from %s: %v\ndelete the directory to regenerate the dataset", dir, err)
	}
	if man.Label != wantLabel {
		log.Fatalf("snapshot in %s holds dataset %q, but these flags describe %q\ndelete the directory (or match the flags) to proceed", dir, man.Label, wantLabel)
	}
	tables := make([]*core.Table, len(raw))
	for i, t := range raw {
		tables[i] = t.WithPlacement(storage.NUMAAware, sockets)
	}
	return tables
}

// applySort replaces one table with a copy clustered on the given
// column (spec "table=column"), re-homed across the machine's sockets.
func applySort(tables []*core.Table, spec string, sockets int) {
	name, col, ok := strings.Cut(spec, "=")
	if !ok {
		log.Fatalf("-sort: want table=column, got %q", spec)
	}
	for i, t := range tables {
		if t.Name != name {
			continue
		}
		st, err := colstore.SortedByColumn(t, col, len(t.Parts), 0)
		if err != nil {
			log.Fatalf("-sort: %v", err)
		}
		tables[i] = st.WithPlacement(storage.NUMAAware, sockets)
		log.Printf("clustered %s on %s (%d partitions)", name, col, len(st.Parts))
		return
	}
	log.Fatalf("-sort: no table %q in dataset", name)
}

// runTPCHQueries executes TPC-H queries from the SQL dialect ("all" or
// one number) and prints each result, for snapshot parity checks.
func runTPCHQueries(sys *core.System, spec string, sf float64, tables []*core.Table) error {
	byName := make(map[string]*core.Table, len(tables))
	for _, t := range tables {
		byName[t.Name] = t
	}
	cat := func(name string) (*storage.Table, bool) {
		t, ok := byName[name]
		return t, ok
	}
	var nums []int
	if spec == "all" {
		nums = tpch.SQLCoverage()
	} else {
		n, err := strconv.Atoi(strings.TrimPrefix(strings.ToLower(spec), "q"))
		if err != nil {
			return fmt.Errorf(`-exec-tpch: want "all" or a query number, got %q`, spec)
		}
		nums = []int{n}
	}
	for _, n := range nums {
		q, ok := tpch.SQLText(n, sf)
		if !ok {
			return fmt.Errorf("-exec-tpch: query %d is not expressible in the SQL dialect", n)
		}
		prep, err := sql.Prepare(q, fmt.Sprintf("q%d", n), cat)
		if err != nil {
			return fmt.Errorf("q%d: %w", n, err)
		}
		p, err := prep.Bind()
		if err != nil {
			return fmt.Errorf("q%d: %w", n, err)
		}
		res, _ := sys.Run(p)
		fmt.Printf("-- Q%d\n%s", n, res)
	}
	return nil
}

// loadDemo builds the demo star schema: orders(id, cust, kind, amount,
// day) and customers(cid, name, region).
func loadDemo(sys *core.System, orderRows, customerRows int) (*core.Table, *core.Table) {
	ob := core.NewTableBuilder("orders", core.Schema{
		{Name: "id", Type: core.I64},
		{Name: "cust", Type: core.I64},
		{Name: "kind", Type: core.I64},
		{Name: "amount", Type: core.F64},
		{Name: "day", Type: core.I64},
	}, 64, "id").DeclareKey("id")
	// Deterministic pseudo-random stream, so results are reproducible
	// across runs and hosts.
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	for i := 0; i < orderRows; i++ {
		ob.Append(core.Row{
			int64(i),
			int64(next(customerRows)),
			int64(next(11)),
			float64(next(1_000_000)) / 100,
			int64(next(365)),
		})
	}
	orders := sys.Register(ob)

	cb := core.NewTableBuilder("customers", core.Schema{
		{Name: "cid", Type: core.I64},
		{Name: "name", Type: core.Str},
		{Name: "region", Type: core.Str},
	}, 16, "cid").DeclareKey("cid")
	regions := []string{"emea", "amer", "apac", "latam"}
	for i := 0; i < customerRows; i++ {
		cb.Append(core.Row{int64(i), fmt.Sprintf("cust-%06d", i), regions[i%len(regions)]})
	}
	return orders, sys.Register(cb)
}

// runSQL is the one-shot SQL entry point: parse, bind, cost-optimize,
// lower to a morsel-driven plan, bind any ? parameters, and either
// explain or execute it.
func runSQL(sys *core.System, query, paramsJSON string, explainOnly bool, tables ...*core.Table) error {
	byName := make(map[string]*core.Table, len(tables))
	for _, t := range tables {
		byName[t.Name] = t
	}
	prep, err := sql.Prepare(query, "sql", func(name string) (*storage.Table, bool) {
		t, ok := byName[name]
		return t, ok
	})
	if err != nil {
		return err
	}
	var args []any
	if paramsJSON != "" {
		if err := json.Unmarshal([]byte(paramsJSON), &args); err != nil {
			return fmt.Errorf("-params: %w", err)
		}
	}
	if explainOnly && len(args) == 0 {
		fmt.Print(prep.Plan.Explain())
		return nil
	}
	p, err := prep.Bind(args...)
	if err != nil {
		return err
	}
	if explainOnly {
		fmt.Print(p.Explain())
		return nil
	}
	start := time.Now()
	res, _ := sys.Run(p)
	fmt.Print(res)
	log.Printf("%d rows in %v", res.NumRows(), time.Since(start).Round(time.Microsecond))
	return nil
}
