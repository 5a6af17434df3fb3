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

// likePattern renders the LIKE pattern, for ESCAPE '\', of contains()
// or starts-with() (fn) with the literal s.
func likePattern(fn, s string) string {
	if fn == "starts-with" {
		return likeEscapeMeta(s) + "%"
	}
	return "%" + likeEscapeMeta(s) + "%"
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

// stepPattern is the catalog-matching view of one XPath step.
type stepPattern struct {
	// descendant allows any (non-empty) gap of element segments before
	// the match.
	descendant bool
	// seg matches one segment: element name, "@name", "#text", or "*".
	seg string
}

// patternOf converts parsed steps to catalog patterns. Only the child,
// descendant and attribute axes plus text() map to catalog segments.
func patternOf(steps []xpath.Step, scheme string) ([]stepPattern, error) {
	var out []stepPattern
	for _, s := range steps {
		p := stepPattern{}
		switch s.Axis {
		case xpath.AxisChild:
		case xpath.AxisDescendant:
			p.descendant = true
		case xpath.AxisAttribute:
			if s.Test.Kind == xpath.TestName {
				p.seg = "@" + s.Test.Name
			} else {
				p.seg = "@*"
			}
			out = append(out, p)
			continue
		default:
			return nil, unsupported(scheme, "axis "+s.Axis.String())
		}
		switch s.Test.Kind {
		case xpath.TestName:
			p.seg = s.Test.Name
		case xpath.TestWildcard:
			p.seg = "*"
		case xpath.TestText:
			p.seg = "#text"
		default:
			return nil, unsupported(scheme, "node test in this position")
		}
		out = append(out, p)
	}
	return out, nil
}

// Match finds every catalog path matching the pattern and returns, for
// each, the path segments plus the segment index each step matched.
type CatalogMatch struct {
	Segments []string
	StepSeg  []int // step i matched Segments[StepSeg[i]]
}

// Expand matches the pattern against every catalog path.
func (c *PathCatalog) Expand(pat []stepPattern) []CatalogMatch {
	var out []CatalogMatch
	for _, p := range c.Paths() {
		segs := strings.Split(p, "/")
		if m, ok := matchSegments(segs, pat); ok {
			out = append(out, CatalogMatch{Segments: segs, StepSeg: m})
		}
	}
	return out
}

// matchSegments matches the full pattern against the full path (the
// last pattern step must match the last segment).
func matchSegments(segs []string, pat []stepPattern) ([]int, bool) {
	// Dynamic recursion with memo-free small sizes.
	assign := make([]int, len(pat))
	var rec func(si, pi int) bool
	rec = func(si, pi int) bool {
		if pi == len(pat) {
			return si == len(segs)
		}
		p := pat[pi]
		if p.descendant {
			// si is the first unconsumed segment, already at least one
			// level below the previous match, so the scan starts at si.
			for s := si; s < len(segs); s++ {
				if segMatch(segs[s], p.seg) {
					assign[pi] = s
					if rec(s+1, pi+1) {
						return true
					}
				}
			}
			return false
		}
		if si >= len(segs) || !segMatch(segs[si], p.seg) {
			return false
		}
		assign[pi] = si
		return rec(si+1, pi+1)
	}
	if !rec(0, 0) {
		return nil, false
	}
	return assign, true
}

func segMatch(seg, pat string) bool {
	switch pat {
	case "*":
		return !strings.HasPrefix(seg, "@") && seg != "#text"
	case "@*":
		return strings.HasPrefix(seg, "@")
	default:
		return seg == pat
	}
}
