package sql

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/tpch"
)

// The plan-shape regression tests pin the cost-based optimizer's
// decisions for the golden TPC-H/SSB queries: join order, build-side
// selection and bushy subtree structure, as rendered by Explain. A cost
// model change that flips a build side fails loudly here instead of
// silently regressing execution.

// expectShape asserts the substrings appear in order in the explain.
func expectShape(t *testing.T, label, explain string, wants []string) {
	t.Helper()
	at := 0
	for _, w := range wants {
		i := strings.Index(explain[at:], w)
		if i < 0 {
			t.Fatalf("%s: explain missing %q after position %d:\n%s", label, w, at, explain)
		}
		at += i + len(w)
	}
}

func TestPlanShapeTPCH(t *testing.T) {
	cat := tpchCatalog()
	for _, q := range []struct {
		label string
		query string
		wants []string
	}{
		{"Q3", sqlQ3, []string{
			// Bushy: orders ⨝ customer(semi) is built before the
			// lineitem probe, matching the hand-built plan.
			"hashjoin inner on [l_orderkey = o_orderkey]",
			"├─ scan(lineitem)",
			"└─ hashjoin semi on [o_custkey = c_custkey]",
			"├─ scan(orders)",
			"└─ scan(customer)",
		}},
		{"Q5", sqlQ5, []string{
			// Most selective dimension first (filtered orders), then the
			// supplier ⨝ (nation ⨝ region) subtree, then the composite
			// customer semi join.
			"hashjoin semi on [o_custkey = c_custkey, s_nationkey = c_nationkey]",
			"hashjoin inner on [l_suppkey = s_suppkey]",
			"hashjoin inner on [l_orderkey = o_orderkey]",
			"├─ scan(lineitem)",
			"└─ scan(orders)",
			"└─ hashjoin inner on [s_nationkey = n_nationkey]",
			"├─ scan(supplier)",
			"└─ hashjoin semi on [n_regionkey = r_regionkey]",
			"├─ scan(nation)",
			"└─ scan(region)",
			"└─ scan(customer)",
		}},
		{"Q10", sqlQ10, []string{
			// Nation under customer under orders — the hand-built bushy
			// dimension subtree.
			"hashjoin inner on [l_orderkey = o_orderkey]",
			"├─ scan(lineitem)",
			"└─ hashjoin inner on [o_custkey = c_custkey]",
			"├─ scan(orders)",
			"└─ hashjoin inner on [c_nationkey = n_nationkey]",
			"├─ scan(customer)",
			"└─ scan(nation)",
		}},
		{"Q12", sqlQ12, []string{
			// Build-side inversion: the pushed-down filters leave
			// lineitem smaller than orders, so orders drives the probe
			// and filtered lineitem is the hash table.
			"hashjoin inner on [o_orderkey = l_orderkey]",
			"├─ scan(orders)",
			"└─ scan(lineitem)",
		}},
		{"Q11", sqlQ11(), []string{
			// The HAVING grand total attaches post-aggregation through
			// the k=1 cross-join trick; both pipelines share the
			// partsupp ⨝ supplier(⨝ nation semi) shape.
			"filter: (value > $scalar1)",
			"hashjoin inner on [$scalar1$k = $scalar1$k] payload=[$scalar1]",
			"groupby [ps_partkey]",
			"hashjoin inner on [ps_suppkey = s_suppkey]",
			"├─ scan(partsupp)",
			"└─ hashjoin semi on [s_nationkey = n_nationkey]",
			"map $scalar1$k = 1",
			"groupby [] aggs [sum((ps_supplycost * ps_availqty)) AS $agg1]",
		}},
		{"Q13", sqlQ13, []string{
			// Build-side outer join: customer (preserved, smaller) is the
			// mark join's hash table, probed by filtered orders; the
			// Unmatched scan zero-extends customers without orders, and
			// COUNT(o_orderkey) sums the 0/1 match flag.
			"groupby [c_count] aggs [count(*) AS custdist]",
			"groupby [c_custkey] aggs [sum($match1) AS c_count]",
			"union (2 inputs)",
			"map $match1 = 1",
			"hashjoin mark on [o_custkey = c_custkey] payload=[c_custkey]",
			"├─ scan(orders)",
			"└─ scan(customer)",
			"map $match1 = 0",
			"unmatched(customer) cols=[c_custkey]",
		}},
		{"Q17", sqlQ17, []string{
			// Correlated scalar subquery decorrelated into a grouped
			// build joined on the correlation key.
			"filter: (l_quantity < $scalar1)",
			"hashjoin inner on [l_partkey = l_partkey] payload=[$scalar1]",
			"├─ hashjoin semi on [l_partkey = p_partkey]",
			"map $scalar1 = (0.2 * $agg1)",
			"groupby [l_partkey] aggs [avg(l_quantity) AS $agg1]",
		}},
		{"Q22", sqlQ22, []string{
			// NOT EXISTS anti join below the uncorrelated scalar's k=1
			// attach join, with the average's filters pushed to its scan.
			"filter: (c_acctbal > $scalar1)",
			"hashjoin inner on [$scalar1$k = $scalar1$k] payload=[$scalar1]",
			"hashjoin anti on [c_custkey = o_custkey]",
			"├─ scan(customer)",
			"└─ scan(orders)",
			"groupby [] aggs [avg(c_acctbal) AS $scalar1]",
		}},
	} {
		p, err := Compile(q.query, cat)
		if err != nil {
			t.Fatalf("%s: %v", q.label, err)
		}
		expectShape(t, q.label, p.Explain(), q.wants)
	}
}

// TestPlanShapeSelectiveFirst pins where the two most selective joins of
// Q9 and Q18 run. Q9's part semi join (p_name LIKE '%green%') probes the
// lineitem scan directly, ahead of the N:1 partsupp join. Q18's IN
// (... HAVING ...) semi join probes the orders scan inside the orders
// build, and the estimates above it carry its selectivity.
func TestPlanShapeSelectiveFirst(t *testing.T) {
	cat := tpchCatalog()
	compile := func(q int) (*explainNode, string) {
		p, err := Compile(tpch.MustSQLText(q, tpchDB.Cfg.SF), cat)
		if err != nil {
			t.Fatalf("Q%d: %v", q, err)
		}
		ex := p.Explain()
		return parseExplain(t, ex), ex
	}

	root, ex := compile(9)
	semi := findExplainNode(root, "hashjoin semi on [l_partkey = p_partkey]")
	if semi == nil || !strings.HasPrefix(semi.children[0].text, "scan(lineitem)") {
		t.Fatalf("Q9: the part semi join does not probe scan(lineitem):\n%s", ex)
	}

	root, ex = compile(18)
	top := findExplainNode(root, "hashjoin inner on [l_orderkey = o_orderkey]")
	if top == nil || !strings.HasPrefix(top.children[0].text, "scan(lineitem)") {
		t.Fatalf("Q18: lineitem does not drive the orders join:\n%s", ex)
	}
	build := top.children[1]
	semi = findExplainNode(build, "hashjoin semi on [o_orderkey = l_orderkey]")
	if semi == nil || !strings.HasPrefix(semi.children[0].text, "scan(orders)") {
		t.Fatalf("Q18: the IN semi join does not probe scan(orders) inside the orders build:\n%s", ex)
	}
	if build.est != semi.est || top.est >= drivingScan(top).est {
		t.Fatalf("Q18: estimates above the IN semi join (est=%.0f) ignore it:\n%s", semi.est, ex)
	}
}

// findExplainNode returns the first node, in pre-order, whose text
// starts with prefix.
func findExplainNode(n *explainNode, prefix string) *explainNode {
	if strings.HasPrefix(n.text, prefix) {
		return n
	}
	for _, c := range n.children {
		if f := findExplainNode(c, prefix); f != nil {
			return f
		}
	}
	return nil
}

func TestPlanShapeSSB(t *testing.T) {
	cat := ssbCatalog()
	for _, q := range []struct {
		label string
		query string
		wants []string
	}{
		{"1.1", sqlSSB11, []string{
			"hashjoin semi on [lo_orderdate = d_datekey]",
			"├─ scan(lineorder)",
			"└─ scan(date)",
		}},
		{"2.1", sqlSSB21, []string{
			// part (most selective), supplier (semi), then the
			// unfiltered date dimension — the hand-built order.
			"hashjoin inner on [lo_orderdate = d_datekey]",
			"hashjoin semi on [lo_suppkey = s_suppkey]",
			"hashjoin inner on [lo_partkey = p_partkey]",
			"├─ scan(lineorder)",
			"└─ scan(part)",
			"└─ scan(supplier)",
			"└─ scan(date)",
		}},
		{"3.1", sqlSSB31, []string{
			// Both region filters keep a fifth of their unique-key
			// dimension, so the two joins tie; the smaller build goes first.
			"hashjoin inner on [lo_orderdate = d_datekey]",
			"hashjoin inner on [lo_custkey = c_custkey]",
			"hashjoin inner on [lo_suppkey = s_suppkey]",
			"├─ scan(lineorder)",
			"└─ scan(supplier)",
			"└─ scan(customer)",
			"└─ scan(date)",
		}},
		{"4.1", sqlSSB41, []string{
			// The same customer / supplier tie as 3.1.
			"hashjoin inner on [lo_orderdate = d_datekey]",
			"hashjoin semi on [lo_partkey = p_partkey]",
			"hashjoin inner on [lo_custkey = c_custkey]",
			"hashjoin semi on [lo_suppkey = s_suppkey]",
			"├─ scan(lineorder)",
			"└─ scan(supplier)",
			"└─ scan(customer)",
			"└─ scan(part)",
			"└─ scan(date)",
		}},
	} {
		p, err := Compile(q.query, cat)
		if err != nil {
			t.Fatalf("%s: %v", q.label, err)
		}
		expectShape(t, q.label, p.Explain(), q.wants)
	}
}

// ---- estimate invariants, parsed from the explain tree.

type explainNode struct {
	text     string
	est      float64
	children []*explainNode
}

var estRe = regexp.MustCompile(` est=(\d+)$`)

// parseExplain reads Explain's indented tree back into nodes. Each tree
// level adds exactly three prefix characters ("├─ "/"└─ " under
// "│  "/"   ").
func parseExplain(t *testing.T, ex string) *explainNode {
	t.Helper()
	lines := strings.Split(strings.TrimRight(ex, "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("explain too short:\n%s", ex)
	}
	type entry struct {
		depth int
		node  *explainNode
	}
	var root *explainNode
	var stack []entry
	for _, line := range lines[1:] { // lines[0] is the plan header
		depth := 0
		rest := line
		for {
			r := []rune(rest)
			if len(r) >= 3 && (strings.HasPrefix(rest, "├─ ") || strings.HasPrefix(rest, "└─ ") ||
				strings.HasPrefix(rest, "│  ") || strings.HasPrefix(rest, "   ")) {
				rest = string(r[3:])
				depth++
				continue
			}
			break
		}
		n := &explainNode{text: rest}
		if m := estRe.FindStringSubmatch(rest); m != nil {
			v, _ := strconv.ParseFloat(m[1], 64)
			n.est = v
		}
		for len(stack) > 0 && stack[len(stack)-1].depth >= depth {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			if root != nil {
				t.Fatalf("multiple roots in explain:\n%s", ex)
			}
			root = n
		} else {
			p := stack[len(stack)-1].node
			p.children = append(p.children, n)
		}
		stack = append(stack, entry{depth, n})
	}
	return root
}

// drivingScan follows the probe side (first child) down to the scan that
// feeds the pipeline.
func drivingScan(n *explainNode) *explainNode {
	for len(n.children) > 0 {
		n = n.children[0]
	}
	return n
}

// TestBuildSmallerThanProbe asserts, for every golden query, that each
// hash join's build side has an estimated cardinality no larger than the
// estimated post-filter cardinality of the relation driving the probe
// pipeline — the build-side selection criterion (HyPer's small builds
// feeding pipelined probes), and that every scan and join carries an
// estimate.
func TestBuildSmallerThanProbe(t *testing.T) {
	queries := []struct {
		label string
		query string
		cat   Catalog
	}{
		{"Q1", sqlQ1, tpchCatalog()}, {"Q3", sqlQ3, tpchCatalog()},
		{"Q5", sqlQ5, tpchCatalog()}, {"Q6", sqlQ6, tpchCatalog()},
		{"Q10", sqlQ10, tpchCatalog()}, {"Q12", sqlQ12, tpchCatalog()},
		{"SSB1.1", sqlSSB11, ssbCatalog()}, {"SSB2.1", sqlSSB21, ssbCatalog()},
		{"SSB3.1", sqlSSB31, ssbCatalog()}, {"SSB4.1", sqlSSB41, ssbCatalog()},
	}
	for _, q := range queries {
		p, err := Compile(q.query, q.cat)
		if err != nil {
			t.Fatalf("%s: %v", q.label, err)
		}
		ex := p.Explain()
		root := parseExplain(t, ex)
		var walk func(n *explainNode)
		walk = func(n *explainNode) {
			if strings.HasPrefix(n.text, "scan(") || strings.HasPrefix(n.text, "hashjoin ") {
				if n.est <= 0 {
					t.Fatalf("%s: operator %q has no estimate:\n%s", q.label, n.text, ex)
				}
			}
			if strings.HasPrefix(n.text, "hashjoin ") {
				if len(n.children) != 2 {
					t.Fatalf("%s: join %q has %d children", q.label, n.text, len(n.children))
				}
				probe := drivingScan(n.children[0])
				build := n.children[1]
				if build.est > probe.est {
					t.Fatalf("%s: build side %q (est=%.0f) larger than probe driver %q (est=%.0f):\n%s",
						q.label, build.text, build.est, probe.text, probe.est, ex)
				}
			}
			for _, c := range n.children {
				walk(c)
			}
		}
		walk(root)
	}
}
