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
	return regionPath(p, intervalLayout{childViaRegion: opt.ChildViaRegion})
}

type intervalLayout struct {
	nodeValue
	childViaRegion bool
}

func (intervalLayout) scheme() string                     { return "interval" }
func (intervalLayout) table() (name, alias, order string) { return "accel", "a", "pre" }
func (intervalLayout) result(cur, body string) string {
	return "SELECT DISTINCT " + cur + ".pre AS id, " + cur + ".value AS val " + body + " ORDER BY id"
}

func (l intervalLayout) axis(ax xpath.Axis, a, cur string) []string {
	switch ax {
	case xpath.AxisChild, xpath.AxisAttribute:
		if cur == "" {
			return []string{a + ".parent = 0"}
		}
		if l.childViaRegion {
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
	case xpath.AxisFollowingSibling, xpath.AxisPrecedingSibling:
		return siblingAxis(ax, a, cur, "ordinal")
	}
	return nil
}

// intervalRegion puts alias a strictly inside cur's pre/size region.
func intervalRegion(a, cur string) []string {
	return []string{
		fmt.Sprintf("%s.pre > %s.pre", a, cur),
		fmt.Sprintf("%s.pre <= %s.pre + %s.size", a, cur, cur),
	}
}

func (intervalLayout) position(cur string, test xpath.NodeTest) string {
	return fmt.Sprintf("(SELECT COUNT(*) FROM accel s WHERE s.parent = %s.parent AND %s AND s.ordinal < %s.ordinal) + 1",
		cur, siblingTest(test, cur), cur)
}

// predPath's child steps probe the parent column even under
// ChildViaRegion, which changes only the path's own steps.
func (intervalLayout) predPath(p *xpath.Path, cur string) (predPath, error) {
	return regionPredPath(intervalLayout{}, p, cur)
}
