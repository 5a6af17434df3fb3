package translate

import (
	"fmt"
	"slices"

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

// Edge translates an XPath query to SQL over the Edge table
// edge(source, ordinal, name, kind, target, value).
func Edge(p *xpath.Path, opt EdgeOptions) (string, error) {
	if opt.MaxDepth <= 0 {
		opt.MaxDepth = 16
	}
	return compilePath(edgeLayout{opt: opt}, p)
}

// edgeLayout is the Edge table: a node's alias is the edge into it,
// whose id is the alias's target.
type edgeLayout struct {
	nodeTable
	byID
	opt EdgeOptions
}

func (edgeLayout) scheme() string { return "edge" }
func (edgeLayout) chain(c []hop, pre, post string) (string, error) {
	return walkPath(c, "e", false, pre, post)
}

// expand expands descendant steps along the catalog's label paths when
// there is one and the path is one it expresses, into blind chains
// otherwise.
func (l edgeLayout) expand(steps []xpath.Step) ([][]hop, error) {
	if l.opt.Catalog != nil {
		if chains, err := l.opt.Catalog.chains(steps, "edge", l); err == nil {
			if len(chains) > maxEdgeExpansions {
				return nil, unsupported("edge", fmt.Sprintf("a catalog expansion beyond %d chains", maxEdgeExpansions))
			}
			return chains, nil
		}
	}
	return l.blind(steps)
}

// blind replaces each descendant step with every chain of wildcard
// child hops down to it, bounded by MaxDepth less the path's other
// hops.
func (l edgeLayout) blind(steps []xpath.Step) ([][]hop, error) {
	hops, err := stepHops(l, steps, xpath.AxisChild, xpath.AxisAttribute, xpath.AxisParent, xpath.AxisSelf, xpath.AxisDescendant)
	if err != nil {
		return nil, err
	}
	budget, nDesc := l.opt.MaxDepth, 0
	for _, h := range hops {
		if h.axis == xpath.AxisDescendant {
			nDesc++
		} else if h.axis != xpath.AxisSelf {
			budget--
		}
	}
	budget = max(budget, nDesc)
	out := [][]hop{nil}
	for _, h := range hops {
		if h.axis != xpath.AxisDescendant {
			for i := range out {
				out[i] = append(out[i], h)
			}
			continue
		}
		h.axis = xpath.AxisChild
		var next [][]hop
		for _, base := range out {
			for d := range budget {
				c := slices.Clone(base)
				for range d {
					// Intermediate hops walk the element spine.
					c = append(c, hop{axis: xpath.AxisChild, test: xpath.NodeTest{Kind: xpath.TestWildcard}, at: l})
				}
				if next = append(next, append(c, h)); len(next) > maxEdgeExpansions {
					return nil, unsupported("edge", fmt.Sprintf("a descendant expansion beyond %d chains (depth %d)", maxEdgeExpansions, l.opt.MaxDepth))
				}
			}
		}
		out = next
	}
	return out, nil
}

// step renders the edge into h's node: a child's source is the context
// node, a parent's target is the context's source, and a self step
// stays on the context edge.
func (edgeLayout) step(h hop, a, cur string) (string, []string) {
	switch h.axis {
	case xpath.AxisSelf:
		return "", nil
	case xpath.AxisParent:
		return "edge " + a, []string{a + ".target = " + cur + ".source"}
	}
	return "edge " + a, []string{childEdge(a, cur)}
}

// childEdge puts the edge a below the context alias cur, "" for the
// document node (id 0): Edge and Binary rows alike.
func childEdge(a, cur string) string {
	if cur == "" {
		return a + ".source = 0"
	}
	return a + ".source = " + cur + ".target"
}

// edgeResult selects the node an Edge or Binary chain ends at.
func edgeResult(w *walked) string {
	return "SELECT " + w.cur + ".target AS id, " + w.cur + ".value AS val "
}

func (edgeLayout) result(_ hop, w *walked) string { return edgeResult(w) }

func (edgeLayout) position(cur string, test xpath.NodeTest) string {
	return fmt.Sprintf("(SELECT COUNT(*) FROM edge s WHERE s.source = %s.source AND %s AND s.ordinal < %s.ordinal) + 1",
		cur, siblingTest(test, cur), cur)
}

// predPath takes child, attribute and parent steps.
func (l edgeLayout) predPath(p *xpath.Path, cur string) (predPath, error) {
	return tablePath(l, p, cur, "p", "target", xpath.AxisChild, xpath.AxisAttribute, xpath.AxisParent)
}
