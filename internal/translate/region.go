package translate

import (
	"fmt"
	"strings"

	"repro/internal/xpath"
)

// regionLayout is an order encoding whose every axis is a join
// condition on one node table: Interval's pre/size/level regions
// (Grust) and Dewey's path prefixes (Tatarinov). regionPath walks the
// steps for both.
type regionLayout interface {
	layout
	// table names the node table, the prefix of its aliases and its
	// document-order column.
	table() (name, alias, order string)
	// axis renders the conditions that put alias a on axis ax of the
	// context alias cur, which is "" for the document node. It is
	// called for the child, attribute, descendant, parent, ancestor and
	// sibling axes, the last three never on the document node.
	axis(ax xpath.Axis, a, cur string) []string
	// result renders the query's SELECT of id and val in document
	// order, from the final alias and the FROM … WHERE … body.
	result(cur, body string) string
}

// regionPath translates an absolute path: one alias per step, joined to
// the previous one by the layout's axis conditions.
func regionPath(p *xpath.Path, l regionLayout) (string, error) {
	scheme := l.scheme()
	if !p.Absolute {
		return "", unsupported(scheme, "relative paths")
	}
	if len(p.Steps) == 0 {
		return "", unsupported(scheme, "the bare document path /")
	}
	tbl, prefix, _ := l.table()
	var from, where []string
	cur := "" // the document node
	for _, s := range p.Steps {
		switch s.Axis {
		case xpath.AxisChild, xpath.AxisAttribute, xpath.AxisDescendant:
		case xpath.AxisParent, xpath.AxisAncestor:
			if cur == "" {
				return "", unsupported(scheme, s.Axis.String()+" of the document node")
			}
		case xpath.AxisFollowingSibling, xpath.AxisPrecedingSibling:
			if cur == "" {
				return "", unsupported(scheme, "siblings of the document node")
			}
		case xpath.AxisSelf:
			if cur == "" {
				return "", unsupported(scheme, "self step on the document node")
			}
		default:
			return "", unsupported(scheme, "axis "+s.Axis.String())
		}
		if s.Axis != xpath.AxisSelf {
			a := fmt.Sprintf("%s%d", prefix, len(from)+1)
			from = append(from, tbl+" "+a)
			where = append(where, l.axis(s.Axis, a, cur)...)
			cur = a
		}
		if c := testCond(cur, s.Test, s.Axis == xpath.AxisAttribute); c != "" {
			where = append(where, c)
		}
		if err := checkPositional(scheme, &s); err != nil {
			return "", err
		}
		for _, pe := range s.Preds {
			c, err := compilePred(l, pe, cur, s.Test)
			if err != nil {
				return "", err
			}
			where = append(where, c)
		}
	}
	body := "FROM " + strings.Join(from, ", ")
	if len(where) > 0 {
		body += " WHERE " + strings.Join(where, " AND ")
	}
	return l.result(cur, body), nil
}

// siblingAxis renders the sibling axes of an encoding that orders a
// parent's children by column col.
func siblingAxis(ax xpath.Axis, a, cur, col string) []string {
	op := " > "
	if ax == xpath.AxisPrecedingSibling {
		op = " < "
	}
	return []string{
		fmt.Sprintf("%s.parent = %s.parent", a, cur),
		a + "." + col + op + cur + "." + col,
		a + ".kind <> 'attr'",
	}
}

// regionPredPath builds the EXISTS body of a relative predicate path of
// child, attribute, descendant and parent steps.
func regionPredPath(l regionLayout, p *xpath.Path, cur string) (predPath, error) {
	scheme := l.scheme()
	if p.Absolute {
		return predPath{}, unsupported(scheme, "absolute paths inside predicates")
	}
	tbl, _, order := l.table()
	var from, where []string
	prev := cur
	for i, s := range p.Steps {
		if len(s.Preds) > 0 {
			return predPath{}, unsupported(scheme, "nested predicates")
		}
		switch s.Axis {
		case xpath.AxisChild, xpath.AxisAttribute, xpath.AxisDescendant, xpath.AxisParent:
		default:
			return predPath{}, unsupported(scheme, "axis "+s.Axis.String()+" inside predicates")
		}
		a := fmt.Sprintf("%sq%d", cur, i+1)
		from = append(from, tbl+" "+a)
		where = append(where, l.axis(s.Axis, a, prev)...)
		if s.Axis != xpath.AxisParent {
			if c := testCond(a, s.Test, s.Axis == xpath.AxisAttribute); c != "" {
				where = append(where, c)
			}
		}
		prev = a
	}
	if prev == cur {
		return predPath{}, unsupported(scheme, "empty predicate path")
	}
	q := "SELECT 1 FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(where, " AND ")
	return predPath{q: q, val: prev + ".value", order: prev + "." + order}, nil
}
