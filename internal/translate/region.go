package translate

import (
	"fmt"

	"repro/internal/xpath"
)

// region is an order encoding whose every axis is a join condition on
// one node table: Interval's pre/size/level regions (Grust) and Dewey's
// path prefixes (Tatarinov). A path expands into itself, one hop per
// step.
type region struct {
	nodeTable
	name, table, alias string
	// order ranks a node in document order and sibling among its
	// parent's children.
	order, sibling string
	// axis renders the conditions that put alias a on the child,
	// attribute, descendant, parent or ancestor axis ax of the context
	// alias cur, "" for the document node; predAxis renders them in
	// predicate paths.
	axis, predAxis func(ax xpath.Axis, a, cur string) []string
}

func (l region) scheme() string { return l.name }
func (l region) chain(c []hop, pre, post string) (string, error) {
	return walkPath(c, l.alias, false, pre, post)
}

func (l region) expand(steps []xpath.Step) ([][]hop, error) {
	hops, err := stepHops(l, steps, xpath.AxisChild, xpath.AxisAttribute, xpath.AxisDescendant, xpath.AxisParent,
		xpath.AxisAncestor, xpath.AxisFollowingSibling, xpath.AxisPrecedingSibling, xpath.AxisSelf)
	return [][]hop{hops}, err
}

// step puts a new alias on the hop's axis; a self step stays on the
// context row.
func (l region) step(h hop, a, cur string) (string, []string) {
	switch h.axis {
	case xpath.AxisSelf:
		return "", nil
	case xpath.AxisFollowingSibling, xpath.AxisPrecedingSibling:
		op := " > "
		if h.axis == xpath.AxisPrecedingSibling {
			op = " < "
		}
		return l.table + " " + a, []string{
			fmt.Sprintf("%s.parent = %s.parent", a, cur),
			a + "." + l.sibling + op + cur + "." + l.sibling,
			a + ".kind <> 'attr'",
		}
	}
	return l.table + " " + a, l.axis(h.axis, a, cur)
}

// result selects the node's pre-order rank and value. Where pre is not
// the document order (Dewey's pre numbers go stale after ordered
// inserts, its paths never do), it selects the order column too, and
// inOrder sorts by it.
func (l region) result(_ hop, w *walked) string {
	if l.order == "pre" {
		return "SELECT DISTINCT " + w.cur + ".pre AS id, " + w.cur + ".value AS val "
	}
	return "SELECT DISTINCT " + w.cur + ".pre AS id, " + w.cur + ".value AS val, " + w.cur + "." + l.order + " AS dpath "
}

func (l region) inOrder() (string, string) {
	if l.order == "pre" {
		return "", " ORDER BY id"
	}
	return "SELECT id, val FROM (", ") r ORDER BY dpath"
}

func (l region) position(cur string, test xpath.NodeTest) string {
	return fmt.Sprintf("(SELECT COUNT(*) FROM %s s WHERE s.parent = %s.parent AND %s AND s.%s < %s.%s) + 1",
		l.table, cur, siblingTest(test, cur), l.sibling, cur, l.sibling)
}

// predPath takes child, attribute, descendant and parent steps.
func (l region) predPath(p *xpath.Path, cur string) (predPath, error) {
	l.axis = l.predAxis
	return tablePath(l, p, cur, "q", l.order, xpath.AxisChild, xpath.AxisAttribute, xpath.AxisDescendant, xpath.AxisParent)
}
