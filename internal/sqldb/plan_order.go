package sqldb

import (
	"slices"
	"strings"
)

// Cost-based join ordering. For every possible starting relation, a
// greedy chain is simulated under a cardinality model read from the
// B-trees alone (relRows), and the order with the lowest total
// intermediate cardinality wins. With the handful of relations XPath
// translations produce (≤ ~8), trying every start is cheap and fixes
// the classic greedy failure of starting at the wrong end of a join
// chain (e.g. scanning the root instead of probing the value index).
// Planning executes nothing and reads no heap page.

// chooseJoinOrder returns the relation order minimizing the summed
// intermediate cardinalities across all greedy chains.
func chooseJoinOrder(rels []relation, conjs []conjunct) []int {
	n := len(rels)
	if n == 1 {
		return []int{0}
	}
	var bestOrder []int
	bestTotal := 0.0
	for start := range rels {
		placed := map[string]bool{}
		cur, _ := relRows(rels, conjs, placed, start)
		placed[strings.ToLower(rels[start].alias)] = true
		order, total := []int{start}, cur
		for len(order) < n {
			best, bestCost, bestConnected := -1, 0.0, false
			for cand := range rels {
				if placed[strings.ToLower(rels[cand].alias)] {
					continue
				}
				fan, connected := relRows(rels, conjs, placed, cand)
				cost := cur * fan
				// Prefer connected candidates categorically.
				if best < 0 || connected && !bestConnected || connected == bestConnected && cost < bestCost {
					best, bestCost, bestConnected = cand, cost, connected
				}
			}
			cur = max(bestCost, 0.5)
			total += cur
			placed[strings.ToLower(rels[best].alias)] = true
			order = append(order, best)
		}
		if bestOrder == nil || total < bestTotal {
			bestOrder, bestTotal = order, total
		}
	}
	return bestOrder
}

// relRows estimates how many rows of rels[cand] join one row of the
// placed relations (with none placed, how many it contributes). The
// cheapest index range over the bounds its own conjuncts and its join
// conjuncts with placed relations put on it gives the base figure:
// constants counted exactly on the B-tree, join keys as the average
// group. Each further index range over bounds left over narrows it by
// its share of the table, and conjuncts no index serves by their class
// selectivity. connected reports a join conjunct linking cand to the
// placed set.
func relRows(rels []relation, conjs []conjunct, placed map[string]bool, cand int) (rows float64, connected bool) {
	rel := &rels[cand]
	ca := strings.ToLower(rel.alias)
	var app []*conjunct
	for i := range conjs {
		c := &conjs[i]
		if c.used || c.complex || !c.aliases[ca] {
			continue
		}
		ready := true // every other alias is placed
		for a := range c.aliases {
			ready = ready && (a == ca || placed[a])
		}
		if ready {
			connected = connected || len(c.aliases) > 1
			app = append(app, c)
		}
	}
	rows = rel.node.estRows()
	if rel.tbl != nil {
		rows = float64(rel.tbl.live)
	}
	live, base := max(rows, 1), -1.0 // base: the first range's rows
	covered := map[*conjunct]bool{}
	bounds := harvestBounds(rel, app, nil)
	for ch := bestChoice(rel, bounds, nil); ch != nil; ch = bestChoice(rel, bounds, nil) {
		if base < 0 {
			rows, base = ch.est, ch.est
		} else {
			rows *= ch.est / live
		}
		for _, b := range ch.bounds() {
			covered[b.conj] = true
		}
		bounds = slices.DeleteFunc(bounds, func(b rangeBound) bool { return covered[b.conj] })
	}
	scope := make([]*relation, len(rels))
	for i := range rels {
		scope[i] = &rels[i]
	}
	for _, c := range app {
		if !covered[c] {
			rows *= conjSelectivity(c.expr, scope...)
		}
	}
	if len(placed) == 0 && base >= 1 {
		// A range that holds rows keeps at least one: the residual
		// product assumes independence, which a constant-selected start
		// (the root, a keyed row) does not have.
		rows = max(rows, 1)
	}
	return rows, connected
}
