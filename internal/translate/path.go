package translate

import (
	"slices"
	"strconv"
	"strings"

	"repro/internal/xpath"
)

// Every scheme answers a location path the same way: its layout
// expands the path into concrete chains of hops and refuses what it
// cannot express, each chain becomes one SELECT, and the answer is the
// distinct SELECTs' union. One loop, walk, renders the chains of Edge,
// Binary, Interval, Dewey and Inline, and their predicate paths too.
// Universal renders its chains itself: every hop is a column of one
// row, and its predicates are self-joins (pred.go's header says why).

// emptyQuery selects no row: the translation of a path the stored data
// cannot match.
const emptyQuery = "SELECT 0 AS id, NULL AS val WHERE 1 = 0"

// hop is one hop of a concrete chain: a step of the path, or one level
// of a descendant step the layout expanded.
type hop struct {
	axis xpath.Axis
	// test is the node test the hop's node passes: the step's own, or
	// the label a catalog expansion matched.
	test xpath.NodeTest
	// label is the catalog segment a catalog expansion matched ("name",
	// "@name" or "#text").
	label string
	// preds are the predicates of the step the hop ends, and posTest is
	// that step's own node test: the one its positional predicates rank
	// among, which a catalog expansion of * into names does not change.
	preds   []xpath.Expr
	posTest xpath.NodeTest
	// at is the layout of the hop's node: it renders the hop and
	// compiles the predicates anchored there.
	at layout
}

// pathLayout is one scheme's encoding as the location-path compiler
// sees it.
type pathLayout interface {
	scheme() string
	// expand turns an absolute path's steps into the concrete chains
	// whose union the path selects, or refuses them.
	expand(steps []xpath.Step) ([][]hop, error)
	// chain renders one chain as a SELECT of id and val, between pre
	// and post.
	chain(c []hop, pre, post string) (string, error)
	// inOrder returns what goes before and after a lone chain's SELECT
	// to sort it in document order.
	inOrder() (pre, post string)
}

// byID sorts a lone chain by its id, which is document order where ids
// are pre-order ranks (and insertion order for Inline's row ids).
type byID struct{}

func (byID) inOrder() (string, string) { return "", " ORDER BY id" }

// compilePath translates an absolute location path.
func compilePath(l pathLayout, p *xpath.Path) (string, error) {
	if !p.Absolute {
		return "", unsupported(l.scheme(), "relative paths")
	}
	if len(p.Steps) == 0 {
		return "", unsupported(l.scheme(), "the bare document path /")
	}
	for i := range p.Steps {
		if err := checkPositional(l.scheme(), &p.Steps[i]); err != nil {
			return "", err
		}
	}
	chains, err := l.expand(p.Steps)
	if err != nil {
		return "", err
	}
	// A lone chain is rendered in document order at once.
	var pre, post string
	if len(chains) == 1 {
		pre, post = l.inOrder()
	}
	var parts []string
	for _, c := range chains {
		q, err := l.chain(c, pre, post)
		if err != nil {
			return "", err
		}
		if !slices.Contains(parts, q) {
			parts = append(parts, q)
		}
	}
	switch {
	case len(parts) == 0:
		return emptyQuery, nil
	case len(chains) == 1:
		return parts[0], nil
	case len(parts) == 1:
		pre, post = l.inOrder()
		return pre + parts[0] + post, nil
	}
	return "SELECT DISTINCT id, val FROM (" + strings.Join(parts, " UNION ALL ") + ") u ORDER BY id", nil
}

// walked is a chain as the walker rendered it: the alias of its last
// node, its FROM entries, its join and node-test conditions, and the
// predicates a grouped walk keeps apart from them.
type walked struct {
	cur                string
	from, where, preds []string
}

// render renders a chain's SQL in one piece: pre and head, then FROM …
// WHERE … with the predicates after the other conditions, then post.
func (w walked) render(pre, head, post string) string {
	var b strings.Builder
	b.WriteString(pre)
	b.WriteString(head)
	b.WriteString("FROM ")
	for i, s := range w.from {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s)
	}
	sep := " WHERE "
	for _, l := range [2][]string{w.where, w.preds} {
		for _, s := range l {
			b.WriteString(sep)
			b.WriteString(s)
			sep = " AND "
		}
	}
	b.WriteString(post)
	return b.String()
}

// walk renders chain c from the context alias cur, "" for the document
// node. A hop that leaves the context row gets the next alias, prefix1,
// prefix2, …; a hop onto a column of the row gets none. Each hop adds
// its layout's join conditions, its node test and its predicates, which
// a grouped walk keeps apart to follow the whole chain's joins: the
// order of Binary's and Inline's SQL, which translate.golden pins. In a
// predicate path (inPred) a parent step's node() test is implied: a
// parent is never an attribute.
func walk(c []hop, cur, prefix string, grouped, inPred bool) (walked, error) {
	w := walked{cur: cur}
	for _, h := range c {
		if w.cur == "" && h.axis != xpath.AxisChild && h.axis != xpath.AxisAttribute && h.axis != xpath.AxisDescendant {
			return w, unsupported(h.at.scheme(), h.axis.String()+" of the document node")
		}
		a := prefix + strconv.Itoa(len(w.from)+1)
		from, conds := h.at.step(h, a, w.cur)
		if from != "" {
			w.from, w.cur = append(w.from, from), a
		}
		w.where = append(w.where, conds...)
		if t := h.at.test(w.cur, h); t != "" && !(inPred && h.axis == xpath.AxisParent && h.test.Kind == xpath.TestNode) {
			w.where = append(w.where, t)
		}
		for _, e := range h.preds {
			p, err := compilePred(h.at, e, w.cur, h.posTest)
			if err != nil {
				return w, err
			}
			if grouped {
				w.preds = append(w.preds, p)
			} else {
				w.where = append(w.where, p)
			}
		}
	}
	return w, nil
}

// walkPath renders a location chain from the document node as its last
// node's layout selects it, between pre and post.
func walkPath(c []hop, prefix string, grouped bool, pre, post string) (string, error) {
	w, err := walk(c, "", prefix, grouped, false)
	if err != nil {
		return "", err
	}
	last := c[len(c)-1]
	return w.render(pre, last.at.result(last, &w), post), nil
}

// walkPred renders a predicate path's hops from the context alias cur
// as a subquery, aliased cur+infix+1, …; order is the column of the
// last node's table that ranks it in document order.
func walkPred(c []hop, cur, infix, order string) predPath {
	w, _ := walk(c, cur, cur+infix, false, true) // no predicates: nothing to fail
	return predPath{q: w.render("", "SELECT 1 ", ""), val: c[len(c)-1].at.value(w.cur), order: w.cur + "." + order}
}

// predSteps refuses what no scheme's predicate paths take: an absolute
// path, an empty one and nested predicates.
func predSteps(scheme string, p *xpath.Path) error {
	switch {
	case p.Absolute:
		return unsupported(scheme, "absolute paths inside predicates")
	case len(p.Steps) == 0:
		return unsupported(scheme, "empty predicate path")
	}
	for _, s := range p.Steps {
		if len(s.Preds) > 0 {
			return unsupported(scheme, "nested predicates")
		}
	}
	return nil
}

// stepHops turns steps into one hop each on layout l, refusing an axis
// not in axes.
func stepHops(l layout, steps []xpath.Step, axes ...xpath.Axis) ([]hop, error) {
	hops := make([]hop, len(steps))
	for i, s := range steps {
		if !slices.Contains(axes, s.Axis) {
			return nil, unsupported(l.scheme(), "axis "+s.Axis.String())
		}
		hops[i] = hop{axis: s.Axis, test: s.Test, preds: s.Preds, posTest: s.Test, at: l}
	}
	return hops, nil
}

// tablePath compiles a relative predicate path over one node table,
// one hop per step on an axis in axes, from the context alias cur; its
// aliases are cur+infix+1, …, and order is the table's document-order
// column.
func tablePath(l layout, p *xpath.Path, cur, infix, order string, axes ...xpath.Axis) (predPath, error) {
	if err := predSteps(l.scheme(), p); err != nil {
		return predPath{}, err
	}
	hops, err := stepHops(l, p.Steps, axes...)
	if err != nil {
		return predPath{}, err
	}
	return walkPred(hops, cur, infix, order), nil
}
