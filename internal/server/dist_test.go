package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exchange"
	"repro/internal/tpch"
)

// clusterShards is the morseld sharding: the three big TPC-H relations
// hash-sharded on their partition keys, everything else replicated.
var clusterShards = []string{"lineitem", "orders", "customer"}

// newTestCluster starts n in-process morseld nodes over one generated
// TPC-H database: each node is a full Server with its own worker pool,
// serving its Handler over httptest, clustered via EnableCluster. This
// is the same wiring cmd/morseld does across real processes.
func newTestCluster(t *testing.T, n int) ([]*Server, *tpch.DB) {
	t.Helper()
	servers, _, db := newTestClusterCfg(t, n, Config{})
	return servers, db
}

// newTestClusterCfg is newTestCluster with a server Config and the
// httptest listeners exposed, for failure-injection tests.
func newTestClusterCfg(t *testing.T, n int, cfg Config) ([]*Server, []*httptest.Server, *tpch.DB) {
	t.Helper()
	db := tpch.Generate(tpch.Config{SF: 0.01, Partitions: 16, Sockets: 4, Seed: 42})
	servers := make([]*Server, n)
	listeners := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range servers {
		sys := core.NewSystem(core.Nehalem(), core.Options{Workers: 4, MorselRows: 5000})
		s := New(sys, cfg)
		for _, tab := range []*core.Table{
			db.Region, db.Nation, db.Supplier, db.Customer,
			db.Part, db.PartSupp, db.Orders, db.Lineitem,
		} {
			s.RegisterTable(tab)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(s.Close)
		servers[i] = s
		listeners[i] = ts
		urls[i] = ts.URL
	}
	for i, s := range servers {
		if err := s.EnableCluster(exchange.Cluster{Self: i, Nodes: urls}, clusterShards); err != nil {
			t.Fatalf("enable cluster on node %d: %v", i, err)
		}
	}
	return servers, listeners, db
}

// TestClusterDistributedParityTPCH is the CI-gated guarantee: the
// distributed execution of Q1/Q3/Q6/Q12 across two nodes returns exactly
// the single-node result.
func TestClusterDistributedParityTPCH(t *testing.T) {
	servers, db := newTestCluster(t, 2)
	for _, q := range []int{1, 3, 6, 12} {
		sqlText := tpch.MustSQLText(q, db.Cfg.SF)
		want, err := servers[0].Submit(context.Background(), &Request{SQL: sqlText})
		if err != nil {
			t.Fatalf("q%d single-node: %v", q, err)
		}
		got, err := servers[0].Submit(context.Background(), &Request{SQL: sqlText, Distributed: true})
		if err != nil {
			t.Fatalf("q%d distributed: %v", q, err)
		}
		if !got.Distributed || got.DistNodes != 2 {
			t.Fatalf("q%d did not run distributed: %+v", q, got)
		}
		sameRows(t, fmt.Sprintf("q%d distributed", q), got, want)
	}
}

// TestClusterAnyNodeCoordinates runs the same distributed query through
// each node as coordinator; shard ownership is positional, so results
// must agree regardless of which node the client hit.
func TestClusterAnyNodeCoordinates(t *testing.T) {
	servers, db := newTestCluster(t, 2)
	sqlText := tpch.MustSQLText(6, db.Cfg.SF)
	want, err := servers[0].Submit(context.Background(), &Request{SQL: sqlText})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range servers {
		got, err := s.Submit(context.Background(), &Request{SQL: sqlText, Distributed: true})
		if err != nil {
			t.Fatalf("coordinator %d: %v", i, err)
		}
		if !got.Distributed {
			t.Fatalf("coordinator %d fell back to single-node", i)
		}
		sameRows(t, "q6 via coordinator", got, want)
	}
}

// TestClusterFallback submits a plan the distributed planner refuses (a
// replicated-only scan): the server must run it single-node, answer
// correctly, and report Distributed: false.
func TestClusterFallback(t *testing.T) {
	servers, _ := newTestCluster(t, 2)
	req := &Request{SQL: "select count(*) as n from nation", Distributed: true}
	got, err := servers[0].Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Distributed {
		t.Fatalf("replicated-only scan should fall back, got %+v", got)
	}
	if len(got.Rows) != 1 || got.Rows[0][0].(int64) != 25 {
		t.Fatalf("fallback result wrong: %+v", got.Rows)
	}
	st := servers[0].Stats()
	if st.Cluster == nil || st.Cluster.Fallbacks < 1 {
		t.Fatalf("fallback not counted: %+v", st.Cluster)
	}
}

// TestClusterExplainDistributed asserts explain renders the distributed
// plan — exchange markers included — without executing anything.
func TestClusterExplainDistributed(t *testing.T) {
	servers, db := newTestCluster(t, 2)
	got, err := servers[0].Submit(context.Background(), &Request{
		SQL: tpch.MustSQLText(3, db.Cfg.SF), Explain: true, Distributed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Distributed || got.DistNodes != 2 {
		t.Fatalf("explain not distributed: %+v", got)
	}
	for _, marker := range []string{"exchange broadcast → 2 nodes", "exchange gather ← 2 nodes"} {
		if !strings.Contains(got.Plan, marker) {
			t.Fatalf("explain missing %q:\n%s", marker, got.Plan)
		}
	}
}

// TestClusterPartitionedAggregation runs a high-NDV GROUP BY across two
// nodes with the engine's promotion cap at one group, so every worker of
// every node's partial aggregation and of the coordinator's merge over the
// live gather stream promotes to partition tables, and the result must
// equal the single-node one at the default cap. TPC-H Q7 and Q10 run the
// same check.
func TestClusterPartitionedAggregation(t *testing.T) {
	old := engine.DefaultPreAggCapacity
	defer func() { engine.DefaultPreAggCapacity = old }()
	servers, db := newTestCluster(t, 2)
	const highNDV = `SELECT l_orderkey, SUM(l_quantity) AS qty, COUNT(*) AS n,
		MIN(l_shipdate) AS first_ship, AVG(l_extendedprice) AS avg_price
		FROM lineitem GROUP BY l_orderkey ORDER BY l_orderkey`
	single, err := servers[0].Submit(context.Background(), &Request{SQL: highNDV, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(single.Plan, "groupby [l_orderkey]"); n != 1 {
		t.Fatalf("single-node plan has %d aggregations, want 1:\n%s", n, single.Plan)
	}
	dist, err := servers[0].Submit(context.Background(), &Request{SQL: highNDV, Explain: true, Distributed: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(dist.Plan, "groupby [l_orderkey]"); !dist.Distributed || n != 2 {
		t.Fatalf("distributed plan has %d aggregations, want the partial and the merge:\n%s", n, dist.Plan)
	}
	for name, q := range map[string]string{
		"high-NDV GROUP BY": highNDV,
		"q7":                tpch.MustSQLText(7, db.Cfg.SF),
		"q10":               tpch.MustSQLText(10, db.Cfg.SF),
	} {
		engine.DefaultPreAggCapacity = old
		want, err := servers[0].Submit(context.Background(), &Request{SQL: q})
		if err != nil {
			t.Fatalf("%s single-node: %v", name, err)
		}
		engine.DefaultPreAggCapacity = 1
		for i, s := range servers {
			got, err := s.Submit(context.Background(), &Request{SQL: q, Distributed: true})
			if err != nil {
				t.Fatalf("%s via coordinator %d: %v", name, i, err)
			}
			if !got.Distributed {
				t.Fatalf("%s via coordinator %d fell back to single-node", name, i)
			}
			sameRows(t, fmt.Sprintf("%s via coordinator %d", name, i), got, want)
		}
	}
}

// TestClusterStats checks the distributed counters: the coordinator
// counts the query, every node counts fragment executions, and exchange
// bytes flow in both directions.
func TestClusterStats(t *testing.T) {
	servers, db := newTestCluster(t, 2)
	if _, err := servers[0].Submit(context.Background(),
		&Request{SQL: tpch.MustSQLText(3, db.Cfg.SF), Distributed: true}); err != nil {
		t.Fatal(err)
	}
	st0, st1 := servers[0].Stats(), servers[1].Stats()
	if st0.Cluster == nil || st1.Cluster == nil {
		t.Fatal("clustered servers must report cluster stats")
	}
	if st0.Cluster.DistQueries != 1 || st1.Cluster.DistQueries != 0 {
		t.Fatalf("dist query counts: %d / %d", st0.Cluster.DistQueries, st1.Cluster.DistQueries)
	}
	// Q3 runs one broadcast stage and the main fragment on both nodes.
	if st0.Cluster.FragmentsRun < 2 || st1.Cluster.FragmentsRun < 2 {
		t.Fatalf("fragment counts: %d / %d", st0.Cluster.FragmentsRun, st1.Cluster.FragmentsRun)
	}
	if st0.Cluster.BytesOut == 0 || st1.Cluster.BytesIn == 0 {
		t.Fatalf("exchange bytes not counted: out=%d in=%d", st0.Cluster.BytesOut, st1.Cluster.BytesIn)
	}
	if st0.Cluster.Self != 0 || st0.Cluster.Nodes != 2 {
		t.Fatalf("topology misreported: %+v", st0.Cluster)
	}
}

// TestClusterDistributedRequiresCluster pins the non-clustered behavior:
// distributed submits are client errors, and the /exchange endpoints
// answer 503.
func TestClusterDistributedRequiresCluster(t *testing.T) {
	s, _ := newTPCHServer(t)
	_, err := s.Submit(context.Background(), &Request{SQL: "select count(*) as n from nation", Distributed: true})
	if _, ok := err.(*BadRequestError); !ok {
		t.Fatalf("err = %v, want BadRequestError", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, ep := range []string{"/exchange/run", "/exchange/push?qid=x&name=y", "/exchange/done?qid=x"} {
		resp, err := http.Post(ts.URL+ep, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s on non-clustered server = %d, want 503", ep, resp.StatusCode)
		}
	}
}

// TestClusterQueryOverHTTP drives a distributed query through the JSON
// front end end-to-end, exactly as loadgen's cluster smoke does.
func TestClusterQueryOverHTTP(t *testing.T) {
	servers, db := newTestCluster(t, 2)
	// Reach node 0's HTTP listener through its own cluster registry.
	url := servers[0].clusterState().cl.Nodes[0]
	body := `{"sql": "select count(*) as n from lineitem", "distributed": true}`
	resp, err := http.Post(url+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out struct {
		Distributed bool    `json:"distributed"`
		DistNodes   int     `json:"dist_nodes"`
		Rows        [][]any `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.Distributed || out.DistNodes != 2 {
		t.Fatalf("not distributed over HTTP: %+v", out)
	}
	if want := float64(db.Lineitem.Rows()); len(out.Rows) != 1 || out.Rows[0][0].(float64) != want {
		t.Fatalf("rows = %+v, want count %v", out.Rows, want)
	}
}
