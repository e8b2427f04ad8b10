package sql

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// tpchTopo is the sharding the morseld cluster applies: the three big
// tables hash-sharded on their partition keys, everything else
// replicated.
func tpchTopo(nodes int) ClusterTopo {
	parts := len(tpchDB.Lineitem.Parts)
	return ClusterTopo{Nodes: nodes, Sharded: map[string]ShardInfo{
		"lineitem": {PartKey: "l_orderkey", Parts: parts},
		"orders":   {PartKey: "o_orderkey", Parts: len(tpchDB.Orders.Parts)},
		"customer": {PartKey: "c_custkey", Parts: len(tpchDB.Customer.Parts)},
	}}
}

// distributeQuery compiles a TPC-H query and distributes it.
func distributeQuery(t *testing.T, q int, nodes int) (*engine.Plan, *DistPlan) {
	t.Helper()
	p, err := Compile(tpch.MustSQLText(q, tpchDB.Cfg.SF), tpchCatalog())
	if err != nil {
		t.Fatalf("compile q%d: %v", q, err)
	}
	dp, err := Distribute(p, tpchTopo(nodes))
	if err != nil {
		t.Fatalf("distribute q%d: %v", q, err)
	}
	return p, dp
}

// TestDistributeParityTPCH runs the distributed Combined plan (exchanges
// executing as local pipeline breakers, the same split the cluster
// runs) against the single-node plan for every query Distribute
// accepts, and checks which ones those are.
func TestDistributeParityTPCH(t *testing.T) {
	distributable := []int{1, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 19, 21}
	for q := 1; q <= 22; q++ {
		p, err := Compile(tpch.MustSQLText(q, tpchDB.Cfg.SF), tpchCatalog())
		if err != nil {
			t.Fatalf("compile q%d: %v", q, err)
		}
		dp, err := Distribute(p, tpchTopo(2))
		if accepted := slices.Contains(distributable, q); accepted != (err == nil) {
			t.Fatalf("q%d: Distribute error %v, want accepted=%v", q, err, accepted)
		}
		if err != nil {
			continue
		}
		want, _ := goldenSession().Run(p)
		got, _ := goldenSession().Run(dp.Combined)
		_, limit := p.SortSpec()
		sameResults(t, fmt.Sprintf("q%d distributed", q), got, want, limit > 0)
	}
}

// TestDistributeQ3Placement pins the Q3 plan shape: lineitem drives the
// probe, orders joins co-partitioned on the shared orderkey (no
// exchange), and only the mktsegment-filtered customer moves — as a
// broadcast, since orders is not partitioned on o_custkey.
func TestDistributeQ3Placement(t *testing.T) {
	_, dp := distributeQuery(t, 3, 2)
	if len(dp.Stages) != 1 {
		t.Fatalf("q3 stages = %d, want 1 (broadcast customer)", len(dp.Stages))
	}
	st := dp.Stages[0]
	if !st.Broadcast {
		t.Fatalf("q3 stage is not a broadcast")
	}
	if !strings.Contains(string(st.Plan), "customer") {
		t.Fatalf("q3 stage does not scan customer:\n%s", st.Plan)
	}
	ex := dp.Combined.Explain()
	if !strings.Contains(ex, "exchange broadcast → 2 nodes") {
		t.Fatalf("q3 explain missing broadcast marker:\n%s", ex)
	}
	if !strings.Contains(ex, "exchange gather ← 2 nodes") {
		t.Fatalf("q3 explain missing gather marker:\n%s", ex)
	}
	if strings.Contains(ex, "exchange hash") {
		t.Fatalf("q3 explain has an unexpected repartition:\n%s", ex)
	}
	// The orders join must be inline: exactly two exchanges total.
	if n := strings.Count(ex, "exchange "); n != 2 {
		t.Fatalf("q3 explain has %d exchanges, want 2:\n%s", n, ex)
	}
}

// topAgg returns the first aggregation on p's probe spine, root first:
// the merge phase of a distributed plan, the only one of a single-node
// plan.
func topAgg(p *engine.Plan) *engine.Node {
	for n := p.Root(); n != nil; n = n.Input() {
		if n.Kind() == engine.KindAgg {
			return n
		}
	}
	return nil
}

// explainLine returns the line of p's EXPLAIN that starts with op,
// tree-drawing prefix stripped.
func explainLine(p *engine.Plan, op string) string {
	for _, line := range strings.Split(p.Explain(), "\n") {
		if l := strings.TrimLeft(line, "│├└─ "); strings.HasPrefix(l, op) {
			return l
		}
	}
	return ""
}

// TestDistributeMergeEstimate: the coordinator's merge aggregation
// carries the single-node aggregation's group estimate, in the Combined
// plan EXPLAIN shows and in the Final plan the coordinator runs, so both
// run the engine the single-node plan runs. Q3, Q7 and Q10 group on
// enough keys at the test scale to partition.
func TestDistributeMergeEstimate(t *testing.T) {
	for _, q := range []int{3, 7, 10} {
		p, dp := distributeQuery(t, q, 2)
		want := topAgg(p).Est()
		final := dp.Final(engine.NewStreamSource("gather"))
		for name, got := range map[string]*engine.Plan{"Combined": dp.Combined, "Final": final} {
			if est := topAgg(got).Est(); est != want {
				t.Errorf("q%d %s: merge estimate %.0f, want the aggregation's %.0f", q, name, est, want)
			}
		}
		merge := explainLine(final, "agg partitioned")
		if merge == "" {
			t.Errorf("q%d: the coordinator's merge does not partition:\n%s", q, final.Explain())
		} else if !strings.Contains(dp.Combined.Explain(), merge) {
			t.Errorf("q%d: Combined's merge differs from Final's %q:\n%s", q, merge, dp.Combined.Explain())
		}
		if n := strings.Count(dp.Combined.Explain(), "agg partitioned"); n != 2 {
			t.Errorf("q%d: %d partitioned aggregations in Combined, want the partial and the merge:\n%s",
				q, n, dp.Combined.Explain())
		}
	}
}

// TestDistributeQ12FullyLocal pins Q12's shape: orders and lineitem are
// co-partitioned on orderkey, so the only exchange is the final gather.
func TestDistributeQ12FullyLocal(t *testing.T) {
	_, dp := distributeQuery(t, 12, 2)
	if len(dp.Stages) != 0 {
		t.Fatalf("q12 stages = %d, want 0 (co-partitioned join)", len(dp.Stages))
	}
	ex := dp.Combined.Explain()
	if n := strings.Count(ex, "exchange "); n != 1 || !strings.Contains(ex, "exchange gather ← 2 nodes") {
		t.Fatalf("q12 wants exactly the gather exchange:\n%s", ex)
	}
}

// TestDistributeGlobalAggEmptyShard checks the $dist_n guard: a global
// aggregate over a predicate matching nothing must still produce the
// single-node zero row, not a min/max poisoned by empty partials.
func TestDistributeGlobalAggEmptyShard(t *testing.T) {
	q := "select sum(l_quantity) as s, min(l_quantity) as lo, max(l_quantity) as hi, count(*) as n from lineitem where l_quantity > 999999999"
	p, err := Compile(q, tpchCatalog())
	if err != nil {
		t.Fatal(err)
	}
	dp, err := Distribute(p, tpchTopo(2))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := goldenSession().Run(p)
	got, _ := goldenSession().Run(dp.Combined)
	sameResults(t, "empty global agg", got, want, false)
}

// TestDistributePartitionExchange crafts the repartition placement: the
// probe chain is partitioned on the join key, the build side is a
// sharded table joined on a bare int column that is not its partition
// key — cheaper to route build rows by hash than to broadcast them.
func TestDistributePartitionExchange(t *testing.T) {
	p := engine.NewPlan("repart")
	build := p.Scan(tpchDB.Customer, "c_nationkey", "c_acctbal").SetEst(100)
	n := p.Scan(tpchDB.Lineitem, "l_orderkey", "l_quantity").
		HashJoin(build, engine.JoinInner,
			[]*engine.Expr{engine.Col("l_orderkey")}, []*engine.Expr{engine.Col("c_nationkey")},
			"c_acctbal").
		GroupBy(nil, []engine.AggDef{engine.Sum("s", engine.Col("c_acctbal")), engine.Count("n")})
	p.Return(n)

	dp, err := Distribute(p, tpchTopo(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(dp.Stages) != 1 {
		t.Fatalf("stages = %d, want 1", len(dp.Stages))
	}
	st := dp.Stages[0]
	if st.Broadcast || st.KeyCol != "c_nationkey" || st.Parts != len(tpchDB.Lineitem.Parts) {
		t.Fatalf("stage = %+v, want partition on c_nationkey over %d parts", st, len(tpchDB.Lineitem.Parts))
	}
	ex := dp.Combined.Explain()
	if !strings.Contains(ex, "exchange hash(c_nationkey) → 2 nodes") {
		t.Fatalf("explain missing partition marker:\n%s", ex)
	}
	want, _ := goldenSession().Run(p)
	got, _ := goldenSession().Run(dp.Combined)
	sameResults(t, "partition exchange", got, want, false)
}

// TestDistributeFragmentsDecode decodes each emitted fragment the way a
// peer does — stage inboxes resolved as empty stub tables — proving the
// fragments are self-contained and schema-consistent.
func TestDistributeFragmentsDecode(t *testing.T) {
	_, dp := distributeQuery(t, 3, 2)
	cat := tpchCatalog()
	lookup := func(name string) (*storage.Table, bool) {
		for _, st := range dp.Stages {
			if st.Name == name {
				return &storage.Table{Name: name, Schema: st.Schema}, true
			}
		}
		return cat(name)
	}
	for _, st := range dp.Stages {
		if _, err := engine.DecodePlan(st.Plan, lookup); err != nil {
			t.Fatalf("stage %s does not decode: %v", st.Name, err)
		}
	}
	mp, err := engine.DecodePlan(dp.Main, lookup)
	if err != nil {
		t.Fatalf("main fragment does not decode: %v", err)
	}
	// The main fragment's output is what Final expects to scan.
	outs := mp.OutputSchema()
	if len(outs) != len(dp.MainSchema) {
		t.Fatalf("main schema arity %d vs %d", len(outs), len(dp.MainSchema))
	}
	for i, r := range outs {
		if r.Name != dp.MainSchema[i].Name {
			t.Fatalf("main schema col %d = %q, want %q", i, r.Name, dp.MainSchema[i].Name)
		}
	}
}

// TestDistributeFallbacks enumerates the shapes the planner refuses,
// each of which the server runs single-node instead.
func TestDistributeFallbacks(t *testing.T) {
	cat := tpchCatalog()
	compile := func(q string) *engine.Plan {
		t.Helper()
		p, err := Compile(q, cat)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name string
		plan *engine.Plan
		topo ClusterTopo
	}{
		{"one node", compile("select count(*) as n from lineitem"), tpchTopo(1)},
		{"no sharded scan", compile("select count(*) as n from nation"), tpchTopo(2)},
		{"agg below join (scalar subquery over sharded)", compile(
			"select count(*) as n from lineitem where l_quantity < (select avg(l_quantity) from lineitem)"), tpchTopo(2)},
	}
	for _, tc := range cases {
		if _, err := Distribute(tc.plan, tc.topo); !errors.Is(err, ErrNotDistributable) {
			t.Fatalf("%s: err = %v, want ErrNotDistributable", tc.name, err)
		}
	}
}

// TestDistributeTopKPushdown: ORDER BY + LIMIT with no aggregation
// pushes the top-k into every node's main fragment — each node sorts
// its own shard (the one barrier the fragment keeps) and ships at most
// k rows, so the gather moves N·k rows instead of the full probe
// output. The coordinator's re-sort over the union stays exact because
// any globally top-k row is within its node's local top k.
func TestDistributeTopKPushdown(t *testing.T) {
	q := "select l_orderkey, l_linenumber, l_quantity from lineitem" +
		" where l_quantity >= 45 order by l_orderkey, l_linenumber limit 20"
	p, err := Compile(q, tpchCatalog())
	if err != nil {
		t.Fatal(err)
	}
	dp, err := Distribute(p, tpchTopo(2))
	if err != nil {
		t.Fatal(err)
	}
	if dp.TopK != 20 {
		t.Fatalf("TopK = %d, want 20", dp.TopK)
	}
	// The shipped fragment itself carries the sort+limit.
	mp, err := engine.DecodePlan(dp.Main, tpchCatalog())
	if err != nil {
		t.Fatalf("main fragment does not decode: %v", err)
	}
	keys, limit := mp.SortSpec()
	if limit != 20 || len(keys) != 2 ||
		keys[0] != engine.Asc("l_orderkey") || keys[1] != engine.Asc("l_linenumber") {
		t.Fatalf("fragment sort spec = %v limit %d, want [l_orderkey, l_linenumber] limit 20", keys, limit)
	}
	// Parity: (l_orderkey, l_linenumber) is unique, so the top 20 is
	// deterministic and must match the single-node plan exactly.
	want, _ := goldenSession().Run(p)
	got, _ := goldenSession().Run(dp.Combined)
	sameResults(t, "top-k pushdown", got, want, true)

	// Without a LIMIT there is nothing to push: the fragment ships its
	// whole shard unsorted and only the coordinator sorts.
	q2 := "select l_orderkey, l_linenumber from lineitem where l_quantity >= 49" +
		" order by l_orderkey, l_linenumber"
	p2, err := Compile(q2, tpchCatalog())
	if err != nil {
		t.Fatal(err)
	}
	dp2, err := Distribute(p2, tpchTopo(2))
	if err != nil {
		t.Fatal(err)
	}
	if dp2.TopK != 0 {
		t.Fatalf("TopK = %d without a LIMIT, want 0", dp2.TopK)
	}
	mp2, err := engine.DecodePlan(dp2.Main, tpchCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if keys2, _ := mp2.SortSpec(); len(keys2) != 0 {
		t.Fatalf("fragment sorts without a LIMIT: %v", keys2)
	}
}
