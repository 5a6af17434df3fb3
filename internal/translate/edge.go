package translate

import (
	"fmt"
	"strings"

	"repro/internal/xpath"
)

// EdgeOptions parameterizes the Edge-table translation.
type EdgeOptions struct {
	// MaxDepth bounds the expansion of descendant steps: the Edge
	// scheme has no structural index, so `//x` becomes a UNION over
	// explicit join chains of every possible length — the cost the
	// interval encoding exists to remove (experiment F2).
	MaxDepth int
	// Catalog, when set, switches descendant expansion from blind
	// wildcard chains to the concrete label paths observed in the data
	// (the path-index variant; ablation A1). Wildcard hops disappear
	// and the UNION covers only label chains that actually exist.
	Catalog *PathCatalog
}

// maxEdgeExpansions caps the UNION a descendant expansion produces (a
// safety valve: three // steps at depth 16 would need 4,096 chains).
const maxEdgeExpansions = 256

// edgeHop is one join hop of an expanded path.
type edgeHop struct {
	axis xpath.Axis
	test xpath.NodeTest
	// preds are attached to the final hop of each original step, and
	// posTest is that step's own node test: the one its positional
	// predicates rank among, which a catalog expansion of a wildcard
	// into concrete names does not change.
	preds   []xpath.Expr
	posTest xpath.NodeTest
}

// Edge translates an XPath query to SQL over the Edge table
// edge(source, ordinal, name, kind, target, value).
func Edge(p *xpath.Path, opt EdgeOptions) (string, error) {
	if opt.MaxDepth <= 0 {
		opt.MaxDepth = 16
	}
	if !p.Absolute {
		return "", unsupported("edge", "relative paths")
	}
	if len(p.Steps) == 0 {
		return "", unsupported("edge", "the bare document path /")
	}
	var expansions [][]edgeHop
	var err error
	if opt.Catalog != nil {
		expansions, err = expandEdgeViaCatalog(p.Steps, opt)
	} else {
		expansions, err = expandEdgeSteps(p.Steps, opt)
	}
	if err != nil {
		return "", err
	}
	var parts []string
	for _, hops := range expansions {
		q, err := edgeChainSQL(hops)
		if err != nil {
			return "", err
		}
		parts = append(parts, q)
	}
	if len(parts) == 1 {
		return parts[0] + " ORDER BY id", nil
	}
	return "SELECT DISTINCT id, val FROM (" + strings.Join(parts, " UNION ALL ") + ") u ORDER BY id", nil
}

// expandEdgeSteps replaces descendant steps with every possible chain of
// wildcard child hops, bounded by MaxDepth.
func expandEdgeSteps(steps []xpath.Step, opt EdgeOptions) ([][]edgeHop, error) {
	// Fixed hops consumed by non-descendant steps.
	fixed := 0
	nDesc := 0
	for _, s := range steps {
		switch s.Axis {
		case xpath.AxisDescendant:
			nDesc++
		case xpath.AxisChild, xpath.AxisAttribute, xpath.AxisParent:
			fixed++
		case xpath.AxisSelf:
			// no hop
		default:
			return nil, unsupported("edge", "axis "+s.Axis.String())
		}
	}
	budget := opt.MaxDepth - fixed
	if budget < nDesc {
		budget = nDesc
	}

	out := [][]edgeHop{nil}
	for _, s := range steps {
		if err := checkPositional("edge", &s); err != nil {
			return nil, err
		}
		switch s.Axis {
		case xpath.AxisChild, xpath.AxisAttribute, xpath.AxisParent, xpath.AxisSelf:
			for i := range out {
				out[i] = append(out[i], edgeHop{axis: s.Axis, test: s.Test, preds: s.Preds, posTest: s.Test})
			}
		case xpath.AxisDescendant:
			var next [][]edgeHop
			for _, base := range out {
				for d := 1; d <= budget; d++ {
					hops := append([]edgeHop{}, base...)
					for k := 1; k < d; k++ {
						// Intermediate hops walk the element spine.
						hops = append(hops, edgeHop{axis: xpath.AxisChild, test: xpath.NodeTest{Kind: xpath.TestWildcard}})
					}
					hops = append(hops, edgeHop{axis: xpath.AxisChild, test: s.Test, preds: s.Preds, posTest: s.Test})
					next = append(next, hops)
					if len(next) > maxEdgeExpansions {
						return nil, fmt.Errorf("translate: edge descendant expansion exceeds %d chains (depth %d)", maxEdgeExpansions, opt.MaxDepth)
					}
				}
			}
			out = next
		}
	}
	return out, nil
}

// expandEdgeViaCatalog expands descendant/wildcard steps into the
// concrete label chains recorded in the path catalog (ablation A1):
// the path index removes blind wildcard hops at the price of a catalog
// lookup and a data-dependent (but exact) union.
func expandEdgeViaCatalog(steps []xpath.Step, opt EdgeOptions) ([][]edgeHop, error) {
	// Paths containing axes the catalog cannot express fall back to
	// blind expansion.
	for _, s := range steps {
		switch s.Axis {
		case xpath.AxisChild, xpath.AxisDescendant, xpath.AxisAttribute:
		default:
			return expandEdgeSteps(steps, opt)
		}
	}
	pat, err := patternOf(steps, "edge")
	if err != nil {
		return expandEdgeSteps(steps, opt)
	}
	matches := opt.Catalog.Expand(pat)
	if len(matches) > maxEdgeExpansions {
		return nil, fmt.Errorf("translate: edge catalog expansion exceeds %d chains", maxEdgeExpansions)
	}
	var out [][]edgeHop
	for _, m := range matches {
		// Map step index -> segment for predicate attachment.
		segPreds := make(map[int][]xpath.Expr)
		segTest := make(map[int]xpath.NodeTest)
		for si, s := range steps {
			segPreds[m.StepSeg[si]] = append(segPreds[m.StepSeg[si]], s.Preds...)
			segTest[m.StepSeg[si]] = s.Test
		}
		var hops []edgeHop
		for k, seg := range m.Segments {
			h := edgeHop{axis: xpath.AxisChild, preds: segPreds[k], posTest: segTest[k]}
			switch {
			case seg == "#text":
				h.test = xpath.NodeTest{Kind: xpath.TestText}
			case strings.HasPrefix(seg, "@"):
				h.axis = xpath.AxisAttribute
				h.test = xpath.NodeTest{Kind: xpath.TestName, Name: seg[1:]}
			default:
				h.test = xpath.NodeTest{Kind: xpath.TestName, Name: seg}
			}
			hops = append(hops, h)
		}
		out = append(out, hops)
	}
	if len(out) == 0 {
		// No concrete path: one impossible chain keeps the SQL valid.
		out = append(out, []edgeHop{{
			axis: xpath.AxisChild,
			test: xpath.NodeTest{Kind: xpath.TestName, Name: "\x00nomatch"},
		}})
	}
	return out, nil
}

// edgeChainSQL renders one expansion as a single-block SELECT.
func edgeChainSQL(hops []edgeHop) (string, error) {
	var from []string
	var where []string
	cur := "" // empty means the document node (id 0)
	for _, h := range hops {
		switch h.axis {
		case xpath.AxisParent:
			if cur == "" {
				return "", unsupported("edge", "parent of the document node")
			}
			a := fmt.Sprintf("e%d", len(from)+1)
			from = append(from, "edge "+a)
			where = append(where, fmt.Sprintf("%s.target = %s.source", a, cur))
			cur = a
		case xpath.AxisSelf:
		default: // child, attribute
			a := fmt.Sprintf("e%d", len(from)+1)
			from = append(from, "edge "+a)
			src := "0"
			if cur != "" {
				src = cur + ".target"
			}
			where = append(where, fmt.Sprintf("%s.source = %s", a, src))
			cur = a
		}
		if c := testCond(cur, h.test, h.axis == xpath.AxisAttribute); cur != "" && c != "" {
			where = append(where, c)
		}
		for _, pe := range h.preds {
			c, err := compilePred(edgeLayout{}, pe, cur, h.posTest)
			if err != nil {
				return "", err
			}
			where = append(where, c)
		}
	}
	if cur == "" {
		return "", unsupported("edge", "empty path")
	}
	sql := "SELECT " + cur + ".target AS id, " + cur + ".value AS val FROM " + strings.Join(from, ", ")
	if len(where) > 0 {
		sql += " WHERE " + strings.Join(where, " AND ")
	}
	return sql, nil
}

// edgeLayout is the Edge table as the predicate compiler sees it: a
// context alias is the edge into the context node, whose id is
// cur.target.
type edgeLayout struct{ nodeValue }

func (edgeLayout) scheme() string { return "edge" }

func (edgeLayout) position(cur string, test xpath.NodeTest) string {
	return fmt.Sprintf("(SELECT COUNT(*) FROM edge s WHERE s.source = %s.source AND %s AND s.ordinal < %s.ordinal) + 1",
		cur, siblingTest(test, cur), cur)
}

// predPath builds the EXISTS body of a relative predicate path of child,
// attribute and parent steps.
func (edgeLayout) predPath(p *xpath.Path, cur string) (predPath, error) {
	if p.Absolute {
		return predPath{}, unsupported("edge", "absolute paths inside predicates")
	}
	var from []string
	var where []string
	prev := cur
	for i, s := range p.Steps {
		if len(s.Preds) > 0 {
			return predPath{}, unsupported("edge", "nested predicates")
		}
		a := fmt.Sprintf("%sp%d", cur, i+1)
		switch s.Axis {
		case xpath.AxisChild, xpath.AxisAttribute:
			where = append(where, fmt.Sprintf("%s.source = %s.target", a, prev))
			if c := testCond(a, s.Test, s.Axis == xpath.AxisAttribute); c != "" {
				where = append(where, c)
			}
		case xpath.AxisParent:
			where = append(where, fmt.Sprintf("%s.target = %s.source", a, prev))
		default:
			return predPath{}, unsupported("edge", "axis "+s.Axis.String()+" inside predicates")
		}
		from = append(from, "edge "+a)
		prev = a
	}
	if prev == cur {
		return predPath{}, unsupported("edge", "empty predicate path")
	}
	q := "SELECT 1 FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(where, " AND ")
	return predPath{q: q, val: prev + ".value", order: prev + ".target"}, nil
}
