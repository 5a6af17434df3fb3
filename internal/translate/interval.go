package translate

import (
	"fmt"

	"repro/internal/xpath"
)

// IntervalOptions parameterizes the interval-encoding translation over
// accel(pre, parent, size, level, ordinal, kind, name, value).
type IntervalOptions struct {
	// ChildViaRegion translates child steps as region predicates
	// (pre-range plus level equality) instead of parent-id probes —
	// the pure-Grust formulation without a parent column (ablation A2).
	ChildViaRegion bool
}

// Interval translates XPath to SQL over the XPath-accelerator layout
// (Grust): every axis becomes a region predicate on (pre, size, level),
// so descendant steps are single range joins regardless of depth — the
// structural contrast with the Edge expansion measured by F2.
func Interval(p *xpath.Path, opt IntervalOptions) (string, error) {
	return compilePath(region{name: "interval", table: "accel", alias: "a", order: "pre", sibling: "ordinal",
		axis: intervalAxis(opt.ChildViaRegion), predAxis: intervalAxis(false)}, p)
}

// intervalAxis renders the interval encoding's axes. viaRegion puts a
// child in its parent's region one level down instead of probing the
// parent column; predicate paths always probe.
func intervalAxis(viaRegion bool) func(ax xpath.Axis, a, cur string) []string {
	return func(ax xpath.Axis, a, cur string) []string {
		switch ax {
		case xpath.AxisChild, xpath.AxisAttribute:
			if cur == "" {
				return []string{a + ".parent = 0"}
			}
			if viaRegion {
				return append(intervalRegion(a, cur), fmt.Sprintf("%s.level = %s.level + 1", a, cur))
			}
			return []string{fmt.Sprintf("%s.parent = %s.pre", a, cur)}
		case xpath.AxisDescendant:
			if cur == "" {
				return nil // every node descends from the document node
			}
			return intervalRegion(a, cur)
		case xpath.AxisParent:
			return []string{fmt.Sprintf("%s.pre = %s.parent", a, cur)}
		case xpath.AxisAncestor:
			return []string{
				fmt.Sprintf("%s.pre < %s.pre", a, cur),
				fmt.Sprintf("%s.pre + %s.size >= %s.pre", a, a, cur),
			}
		}
		return nil
	}
}

// intervalRegion puts alias a strictly inside cur's pre/size region.
func intervalRegion(a, cur string) []string {
	return []string{
		fmt.Sprintf("%s.pre > %s.pre", a, cur),
		fmt.Sprintf("%s.pre <= %s.pre + %s.size", a, cur, cur),
	}
}
