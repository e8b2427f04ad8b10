package sql

import (
	"fmt"

	"repro/internal/engine"
)

// Physical operator selection. Every join is the pipelined hash join on
// the lock-free tagged table (§4.1–4.2); the one choice left to this pass
// is the aggregation strategy (§4.4 vs. the partitioned alternative of
// Memarzia et al.). It runs after join ordering and lowering, walks the
// finished engine plan and picks shared vs. partitioned tables for each
// aggregation from the cost layer's group-count estimate. A non-default
// choice is recorded in EXPLAIN as a "[phys: ...]" note with the estimate
// that justified it. ARCHITECTURE.md ("Physical operator selection")
// records the wall-clock trial that retired the sort-merge join this pass
// used to choose as well.

// Physical configures the physical-operator selection phase for one
// compilation. The zero value means fully automatic, cost-based choice.
type Physical struct {
	// Agg picks the aggregation strategy: "auto" (or ""), "shared",
	// "partitioned". Global aggregates (no GROUP BY) always run shared.
	Agg string
}

// normalize canonicalizes and validates the options.
func (ph Physical) normalize() (Physical, error) {
	switch ph.Agg {
	case "", "auto":
		ph.Agg = "auto"
	case "shared", "partitioned":
	default:
		return ph, fmt.Errorf("sql: unknown aggregation strategy %q (want auto, shared or partitioned)", ph.Agg)
	}
	return ph, nil
}

// Validate reports whether the options name known algorithms.
func (ph Physical) Validate() error {
	_, err := ph.normalize()
	return err
}

// Key returns a canonical string for plan-cache keys: two Physical
// values with equal keys compile any query to the same plan.
func (ph Physical) Key() string {
	if n, err := ph.normalize(); err == nil {
		ph = n
	}
	// Invalid options never reach a cache (Validate gates them), but the
	// key stays total anyway.
	return "agg=" + ph.Agg
}

// aggPartitionedMinGroups is the minimum estimated group count for an
// automatic partitioned-aggregation choice. Below it the capped
// thread-local table holds every group and the per-worker-per-partition
// tables only add merge work. A package variable so tests can pin
// behavior at small scale factors.
var aggPartitionedMinGroups = 4_096.0

// applyPhysical runs the selection pass over a lowered plan in place.
func applyPhysical(p *engine.Plan, ph Physical) {
	seen := map[*engine.Node]bool{}
	var walk func(n *engine.Node)
	walk = func(n *engine.Node) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		for _, c := range n.UnionInputs() {
			walk(c)
		}
		walk(n.Input())
		walk(n.BuildInput())
		if n.Kind() == engine.KindAgg {
			chooseAgg(n, ph)
		}
	}
	walk(p.Root())
}

// chooseAgg picks the shared vs. partitioned table strategy for one
// aggregation.
func chooseAgg(n *engine.Node, ph Physical) {
	groups, _ := n.AggInfo()
	if len(groups) == 0 {
		return // a global aggregate has one group; partitioning it is meaningless
	}
	switch ph.Agg {
	case "shared":
		return
	case "partitioned":
		n.WithAggAlgo(engine.AggPartitioned).WithPhysNote("[phys: partitioned (forced)]")
	default: // auto: the aggregation's own estimate is the group count
		g := n.Est()
		if g < aggPartitionedMinGroups {
			return
		}
		n.WithAggAlgo(engine.AggPartitioned).WithPhysNote(fmt.Sprintf(
			"[phys: partitioned groups est=%.0f]", g))
	}
}
