package translate

import (
	"fmt"

	"repro/internal/xpath"
)

// Dewey translates XPath to SQL over Dewey-order labels (Tatarinov et
// al.) in dewey(pre, path, parent, level, kind, name, value): path is
// the dotted, zero-padded Dewey label and parent the parent's path.
// Lexicographic path order is document order, so sibling order and
// position come from path, not a stored ordinal. Ancestry is a
// path-prefix test, rendered as a half-open string range (path > p ||
// '.' AND path < p || '/') so the B-tree on path serves descendant and
// ancestor steps; a child step probes the parent path.
func Dewey(p *xpath.Path) (string, error) {
	return compilePath(region{name: "dewey", table: "dewey", alias: "d", order: "path", sibling: "path",
		axis: deweyAxis, predAxis: deweyAxis}, p)
}

// deweyAxis renders the conditions that put alias a on axis ax of the
// context alias cur, "" for the document node.
func deweyAxis(ax xpath.Axis, a, cur string) []string {
	switch ax {
	case xpath.AxisChild, xpath.AxisAttribute:
		if cur == "" {
			return []string{a + ".level = 1"}
		}
		// Child: parent-path equality beats the range+level form
		// because the (parent, …) index is an exact probe.
		return []string{fmt.Sprintf("%s.parent = %s.path", a, cur)}
	case xpath.AxisDescendant:
		if cur == "" {
			return nil // every node descends from the document node
		}
		return deweyPrefix(a, cur)
	case xpath.AxisParent:
		return []string{fmt.Sprintf("%s.path = %s.parent", a, cur)}
	case xpath.AxisAncestor:
		// Ancestors are exactly the proper path prefixes (at component
		// boundaries): the reverse of the descendant range.
		return deweyPrefix(cur, a)
	}
	return nil
}

// deweyPrefix puts alias a strictly below anc: its descendants are
// exactly the paths in the open range (anc + '.', anc + '/'), '/' being
// the successor of '.' in ASCII.
func deweyPrefix(a, anc string) []string {
	return []string{
		fmt.Sprintf("%s.path > %s.path || '.'", a, anc),
		fmt.Sprintf("%s.path < %s.path || '/'", a, anc),
	}
}
