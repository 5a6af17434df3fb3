// Package translate compiles XPath queries into SQL over each shredding
// scheme's relational layout. It is the paper's core subject: the same
// navigational query becomes self-joins on the Edge table, per-label
// joins on the Binary tables, region-predicate joins on the interval
// (pre/post) encoding, prefix-range joins on Dewey paths, column
// references on the DTD-inlined schema, and column conjunctions on the
// Universal table.
//
// Every translation returns a SELECT whose result has two columns:
//
//	id  — the matched node's identifier (its pre-order rank; for the
//	      inlined schema, the hosting row's id)
//	val — the node's string value when the scheme stores it inline,
//	      NULL otherwise
//
// ordered by document order.
package translate

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/xpath"
)

// QuoteString renders a SQL string literal.
func QuoteString(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

// QuoteIdent renders a SQL identifier. It always quotes: generated
// column names come from XML (arbitrary characters, possible keyword
// collisions like <from>).
func QuoteIdent(s string) string {
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// likeEscapeMeta escapes LIKE metacharacters in a literal fragment so it
// matches itself; the generated predicates use ESCAPE '\'.
func likeEscapeMeta(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `%`, `\%`)
	s = strings.ReplaceAll(s, `_`, `\_`)
	return s
}

// like splits contains() or starts-with() with a literal pattern into
// the operand whose string value it tests and the SQL " LIKE pattern
// ESCAPE '\'" that value is to pass.
func like(scheme string, e *xpath.FuncCall) (xpath.Expr, string, error) {
	if len(e.Args) != 2 {
		return nil, "", unsupported(scheme, e.Name+"() arity")
	}
	lit, ok := e.Args[1].(*xpath.StringLit)
	if !ok {
		return nil, "", unsupported(scheme, e.Name+"() with a non-literal pattern")
	}
	pat := "%" + likeEscapeMeta(lit.Val) + "%"
	if e.Name == "starts-with" {
		pat = likeEscapeMeta(lit.Val) + "%"
	}
	return e.Args[0], " LIKE " + QuoteString(pat) + ` ESCAPE '\'`, nil
}

// numLiteral renders an XPath number as a SQL literal, preferring the
// integer form.
func numLiteral(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%g", f)
}

// SanitizeName converts an XML name to a SQL-identifier-safe fragment
// (used in Binary/Inline table names).
func SanitizeName(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '_':
			b.WriteByte(c)
		case c >= 'A' && c <= 'Z':
			b.WriteByte(c - 'A' + 'a')
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "x"
	}
	return b.String()
}

// ErrUnsupported marks query constructs a given scheme cannot translate;
// the experiment harness reports these rather than crashing.
type ErrUnsupported struct {
	Scheme string
	What   string
}

// Error implements the error interface.
func (e *ErrUnsupported) Error() string {
	return fmt.Sprintf("translate: %s scheme does not support %s", e.Scheme, e.What)
}

func unsupported(scheme, what string) error {
	return &ErrUnsupported{Scheme: scheme, What: what}
}

// ---------------------------------------------------------------------------
// Positional predicates

// Every scheme with an order encoding translates a positional predicate
// as a sibling count: the rank of the context node among its parent's
// children with a smaller ordinal (or Dewey path) that the step's node
// test admits. The DOM evaluator ranks a step's candidates in document
// order per parent on the child, attribute and descendant axes, so the
// two agree there; on every other axis the rank is not a sibling count
// and the predicate is refused (checkPositional).

// positional reports whether a predicate reads the context position: a
// bare number ([2] abbreviates [position() = 2]) as a predicate or an
// operand of and, or and not, or a position() call anywhere.
func positional(e xpath.Expr) bool {
	switch e := e.(type) {
	case *xpath.NumberLit:
		return true
	case *xpath.BinaryExpr:
		if e.Op == "and" || e.Op == "or" {
			return positional(e.L) || positional(e.R)
		}
	case *xpath.FuncCall:
		if e.Name == "not" && len(e.Args) == 1 {
			return positional(e.Args[0])
		}
	}
	return callsPosition(e)
}

// callsPosition reports whether e calls position() anywhere.
func callsPosition(e xpath.Expr) bool {
	switch e := e.(type) {
	case *xpath.BinaryExpr:
		return callsPosition(e.L) || callsPosition(e.R)
	case *xpath.FuncCall:
		if e.Name == "position" {
			return true
		}
		for _, a := range e.Args {
			if callsPosition(a) {
				return true
			}
		}
	}
	return false
}

// checkPositional refuses positional predicates on a step whose axis
// does not rank candidates among their parent's children.
func checkPositional(scheme string, s *xpath.Step) error {
	switch s.Axis {
	case xpath.AxisChild, xpath.AxisAttribute, xpath.AxisDescendant:
		return nil
	}
	for _, p := range s.Preds {
		if positional(p) {
			return unsupported(scheme, "positional predicates on the "+s.Axis.String()+" axis")
		}
	}
	return nil
}

// siblingTest renders, for the sibling alias s of a positional count,
// the siblings the node test t admits beside the context alias cur: the
// same kind and name for a name test (the form named steps have always
// used), every non-attribute child for node(), and the same kind for
// *, text() and comment().
func siblingTest(t xpath.NodeTest, cur string) string {
	switch t.Kind {
	case xpath.TestName:
		return fmt.Sprintf("s.kind = %s.kind AND s.name = %s.name", cur, cur)
	case xpath.TestNode:
		return "s.kind <> 'attr'"
	}
	return fmt.Sprintf("s.kind = %s.kind", cur)
}

// ---------------------------------------------------------------------------
// Path catalog

// PathCatalog records the concrete label paths present in a loaded
// document (e.g. "site/people/person/@id"). The Binary and Universal
// schemes consult it to expand descendant steps into concrete label
// chains, playing the role of the path index the tutorial literature
// attaches to partitioned storage.
type PathCatalog struct {
	set   map[string]bool
	paths []string
}

// NewPathCatalog returns an empty catalog.
func NewPathCatalog() *PathCatalog {
	return &PathCatalog{set: map[string]bool{}}
}

// Add records one label path. Segments are '/'-separated; attribute
// leaves are "@name" and text leaves "#text".
func (c *PathCatalog) Add(path string) {
	if !c.set[path] {
		c.set[path] = true
		c.paths = append(c.paths, path)
	}
}

// Paths returns all recorded paths, sorted.
func (c *PathCatalog) Paths() []string {
	out := append([]string{}, c.paths...)
	sort.Strings(out)
	return out
}

// Since returns the paths recorded after the first n, in the order
// they were recorded.
func (c *PathCatalog) Since(n int) []string { return c.paths[n:] }

// Len reports the number of distinct paths.
func (c *PathCatalog) Len() int { return len(c.paths) }

// chains expands steps against the catalog: one chain per label path
// they match, with a child or attribute hop on layout at per segment,
// and each step's predicates on the hop of the segment it matched. Only
// the child, descendant and attribute axes, and on the first two only
// name, * and text() tests, match label segments; scheme refuses the
// rest.
func (c *PathCatalog) chains(steps []xpath.Step, scheme string, at layout) ([][]hop, error) {
	for _, s := range steps {
		switch {
		case s.Axis != xpath.AxisChild && s.Axis != xpath.AxisDescendant && s.Axis != xpath.AxisAttribute:
			return nil, unsupported(scheme, "axis "+s.Axis.String())
		case s.Axis != xpath.AxisAttribute && (s.Test.Kind == xpath.TestNode || s.Test.Kind == xpath.TestComment):
			return nil, unsupported(scheme, "node test in this position")
		}
	}
	var out [][]hop
	for _, p := range c.Paths() {
		segs := strings.Split(p, "/")
		stepSeg, ok := matchSegments(segs, steps)
		if !ok {
			continue
		}
		hops := make([]hop, len(segs))
		for k, seg := range segs {
			h := hop{axis: xpath.AxisChild, test: xpath.NodeTest{Kind: xpath.TestName, Name: seg}, label: seg, at: at}
			switch {
			case seg == "#text":
				h.test = xpath.NodeTest{Kind: xpath.TestText}
			case strings.HasPrefix(seg, "@"):
				h.axis, h.test.Name = xpath.AxisAttribute, seg[1:]
			}
			hops[k] = h
		}
		for i, s := range steps {
			h := &hops[stepSeg[i]]
			h.preds, h.posTest = s.Preds, s.Test
		}
		out = append(out, hops)
	}
	return out, nil
}

// predLabel is the label segment of a predicate path's step in the
// catalog-labelled schemes, which take child and attribute steps by
// name and text().
func predLabel(scheme string, s xpath.Step) (string, error) {
	switch {
	case s.Axis == xpath.AxisChild && s.Test.Kind == xpath.TestName:
		return s.Test.Name, nil
	case s.Axis == xpath.AxisAttribute && s.Test.Kind == xpath.TestName:
		return "@" + s.Test.Name, nil
	case s.Axis == xpath.AxisChild && s.Test.Kind == xpath.TestText:
		return "#text", nil
	}
	return "", unsupported(scheme, "predicate step "+s.Axis.String())
}

// matchSegments matches the steps against the full path (the last step
// must match the last segment), returning the segment each matched.
func matchSegments(segs []string, steps []xpath.Step) ([]int, bool) {
	assign := make([]int, len(steps))
	var rec func(si, pi int) bool
	rec = func(si, pi int) bool {
		if pi == len(steps) {
			return si == len(segs)
		}
		// A child or attribute step matches the next segment; a
		// descendant step any later one, below a gap of segments.
		last := si
		if steps[pi].Axis == xpath.AxisDescendant {
			last = len(segs) - 1
		}
		for k := si; k <= last && k < len(segs); k++ {
			if segMatch(segs[k], steps[pi]) && rec(k+1, pi+1) {
				assign[pi] = k
				return true
			}
		}
		return false
	}
	return assign, rec(0, 0)
}

// segMatch reports whether label segment seg passes step s's node test.
func segMatch(seg string, s xpath.Step) bool {
	attr := strings.HasPrefix(seg, "@")
	switch {
	case s.Axis == xpath.AxisAttribute:
		return attr && (s.Test.Kind != xpath.TestName || seg[1:] == s.Test.Name)
	case s.Test.Kind == xpath.TestText:
		return seg == "#text"
	case s.Test.Kind == xpath.TestWildcard:
		return !attr && seg != "#text"
	}
	return seg == s.Test.Name
}
