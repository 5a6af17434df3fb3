package translate

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/dtd"
	"repro/internal/xpath"
)

// InlineColumnKind classifies inlined-schema columns.
type InlineColumnKind int

// Column kinds of the inlined schema.
const (
	// ColText holds the text content of an element with #PCDATA.
	ColText InlineColumnKind = iota
	// ColPresence is a boolean marking an optional textless element.
	ColPresence
	// ColAttr holds an attribute value.
	ColAttr
)

// InlineColumn is one mapped column of an inlined relation. Key is the
// logical path key ("address.city", "@id", "profile.@income", "#text");
// it doubles as the SQL column name (quoted where used).
type InlineColumn struct {
	Key  string
	Path []string // element path from the relation root ([] = the root)
	Attr string   // attribute name for ColAttr
	Kind InlineColumnKind
}

// InlineRelation is one relation of the inlined schema: a shared DTD
// element plus every non-shared descendant inlined into it.
type InlineRelation struct {
	Elem    string
	Table   string
	Columns []InlineColumn
	ByKey   map[string]int // column key -> index in Columns
}

// Placement records where an element name is stored: which relation and
// at which inner path.
type Placement struct {
	Rel  *InlineRelation
	Path []string // inner path; empty means the relation root itself
}

// InlineMapping is the full DTD-to-relational mapping produced by shared
// inlining (Shanmugasundaram et al. 1999).
type InlineMapping struct {
	Graph  *dtd.Graph
	Shared map[string]bool
	// Relations by element name; Order preserves DTD order.
	Relations map[string]*InlineRelation
	Order     []string
	// Placements lists, per element name, every spot it occupies.
	Placements map[string][]Placement
}

// BuildInlineMapping derives the inlined relational schema from a DTD
// element graph.
func BuildInlineMapping(g *dtd.Graph) (*InlineMapping, error) {
	m := &InlineMapping{
		Graph:      g,
		Shared:     g.SharedElements(),
		Relations:  map[string]*InlineRelation{},
		Placements: map[string][]Placement{},
	}
	for _, name := range g.DTD.Order {
		if !m.Shared[name] {
			continue
		}
		rel := &InlineRelation{
			Elem:  name,
			Table: "inl_" + SanitizeName(name),
			ByKey: map[string]int{},
		}
		m.Relations[name] = rel
		m.Order = append(m.Order, name)
	}
	for _, name := range m.Order {
		if err := m.populate(m.Relations[name]); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (m *InlineMapping) addColumn(rel *InlineRelation, col InlineColumn) {
	if _, ok := rel.ByKey[col.Key]; ok {
		return
	}
	rel.ByKey[col.Key] = len(rel.Columns)
	rel.Columns = append(rel.Columns, col)
}

// populate walks the non-shared region below rel's element, creating
// columns and placements.
func (m *InlineMapping) populate(rel *InlineRelation) error {
	var walk func(elem string, path []string) error
	walk = func(elem string, path []string) error {
		decl := m.Graph.DTD.Elements[elem]
		model := m.Graph.Models[elem]
		key := strings.Join(path, ".")
		m.Placements[elem] = append(m.Placements[elem], Placement{Rel: rel, Path: append([]string{}, path...)})

		// The element's own value column.
		if len(path) == 0 {
			if model != nil && model.HasText {
				m.addColumn(rel, InlineColumn{Key: "#text", Kind: ColText})
			}
		} else {
			if model != nil && model.HasText {
				m.addColumn(rel, InlineColumn{Key: key, Path: append([]string{}, path...), Kind: ColText})
			} else {
				m.addColumn(rel, InlineColumn{Key: key, Path: append([]string{}, path...), Kind: ColPresence})
			}
		}
		// Attribute columns.
		if decl != nil {
			for _, a := range decl.Attrs {
				akey := "@" + a.Name
				if len(path) > 0 {
					akey = key + ".@" + a.Name
				}
				m.addColumn(rel, InlineColumn{Key: akey, Path: append([]string{}, path...), Attr: a.Name, Kind: ColAttr})
			}
		}
		// Recurse into inlined children.
		if model != nil {
			for _, ch := range model.Children {
				if _, declared := m.Graph.DTD.Elements[ch.Name]; !declared {
					continue
				}
				if m.Shared[ch.Name] {
					continue // reachable via the child relation instead
				}
				if err := walk(ch.Name, append(path, ch.Name)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return walk(rel.Elem, nil)
}

// ColumnKey builds the logical key for an inner path (and optional
// attribute).
func ColumnKey(path []string, attr string) string {
	key := strings.Join(path, ".")
	switch {
	case attr != "" && key != "":
		return key + ".@" + attr
	case attr != "":
		return "@" + attr
	case key == "":
		return "#text"
	default:
		return key
	}
}

// ---------------------------------------------------------------------------
// Translation

// inlineJoin is one hop of a relation join chain. parentCode is the
// inner path (within the parent relation) of this relation's parent
// element — the parentCODE discriminator of Shanmugasundaram et al.,
// needed because a child relation can hang off several inlined spots of
// the same host (items under africa vs. asia both host to site rows).
type inlineJoin struct {
	rel        *InlineRelation
	parentCode string
}

// inlinePos is one position reached while walking an XPath over the
// mapping: a join chain of relations ending at (rel, innerPath).
type inlinePos struct {
	joins []inlineJoin // r0 ... rk; joins[i+1].parentid = joins[i].id
	path  []string     // inner path within the last relation
	elem  string       // current element name
}

func (p inlinePos) rel() *InlineRelation { return p.joins[len(p.joins)-1].rel }

func (p inlinePos) key() string {
	names := make([]string, len(p.joins))
	for i, j := range p.joins {
		names[i] = j.rel.Elem + "@" + j.parentCode
	}
	return strings.Join(names, ">") + "|" + strings.Join(p.path, ".")
}

// Inline translates XPath to SQL over the inlined schema. Node identity
// is approximated by the hosting row's id (inlined elements do not carry
// their own ids — the documented information loss of inlining).
func Inline(p *xpath.Path, m *InlineMapping) (string, error) {
	return compilePath(inlineLayout{m: m}, p)
}

// maxInlineRoutes caps the routes one path expands into.
const maxInlineRoutes = 128

// inlineRoute is one way a path can run over the DTD: the position it
// reached, and the chain of a hop into every relation it joins, one
// onto the inlined element each step ends at, and a last hop onto the
// column of an attribute or text() step (done).
type inlineRoute struct {
	pos  *inlinePos // nil at the document node
	hops []hop
	done bool
}

func (l inlineLayout) expand(steps []xpath.Step) ([][]hop, error) {
	routes, err := l.routes(inlineRoute{}, steps)
	chains := make([][]hop, len(routes))
	for i, r := range routes {
		chains[i] = r.hops
	}
	return chains, err
}

// routes walks steps over the DTD from route r.
func (l inlineLayout) routes(r inlineRoute, steps []xpath.Step) ([]inlineRoute, error) {
	routes := []inlineRoute{r}
	for _, s := range steps {
		var next []inlineRoute
		for _, r := range routes {
			if r.done {
				return nil, unsupported("inline", "steps after a value step")
			}
			nps, value, err := l.moves(r.pos, s)
			if err != nil {
				return nil, err
			}
			if value {
				if len(s.Preds) > 0 {
					return nil, unsupported("inline", "predicates on "+s.Axis.String()+" value steps")
				}
				h := hop{axis: s.Axis, test: s.Test, at: inlineLayout{m: l.m, pos: *r.pos}}
				next = append(next, inlineRoute{pos: r.pos, hops: append(slices.Clip(r.hops), h), done: true})
			}
			for _, np := range nps {
				hops, k := slices.Clip(r.hops), 0
				if r.pos != nil {
					k = len(r.pos.joins)
				}
				for ; k < len(np.joins); k++ {
					at := inlinePos{joins: np.joins[:k+1], elem: np.joins[k].rel.Elem}
					hops = append(hops, hop{axis: xpath.AxisChild, at: inlineLayout{m: l.m, pos: at}})
				}
				if len(np.path) > 0 {
					hops = append(hops, hop{axis: xpath.AxisChild, at: inlineLayout{m: l.m, pos: np}})
				}
				hops[len(hops)-1].preds, hops[len(hops)-1].posTest = s.Preds, s.Test
				next = append(next, inlineRoute{pos: &np, hops: hops})
			}
			if len(next) > maxInlineRoutes {
				return nil, unsupported("inline", fmt.Sprintf("a route expansion beyond %d branches", maxInlineRoutes))
			}
		}
		routes = next
	}
	return routes, nil
}

// moves takes step s from pos, nil for the document node: the positions
// it reaches, or value when it selects a column of pos's row, the
// element's text() or a declared attribute.
func (l inlineLayout) moves(pos *inlinePos, s xpath.Step) (nps []inlinePos, value bool, err error) {
	m, root, name := l.m, l.m.Graph.DTD.Root, s.Test.Name
	switch {
	case pos == nil && s.Axis == xpath.AxisChild && m.Relations[root] != nil &&
		(s.Test.Kind == xpath.TestWildcard || s.Test.Kind == xpath.TestName && name == root):
		// `/*` is the one document element the DTD allows.
		return []inlinePos{{joins: []inlineJoin{{rel: m.Relations[root]}}, elem: root}}, false, nil
	case pos == nil && s.Axis == xpath.AxisDescendant && s.Test.Kind == xpath.TestName:
		for _, pl := range m.Placements[name] {
			nps = append(nps, inlinePos{joins: []inlineJoin{{rel: pl.Rel}}, path: pl.Path, elem: name})
		}
		return nps, false, nil
	case pos == nil:
		return nil, false, unsupported("inline", s.Axis.String()+" steps at the document root but to the DTD root or // by name")
	case s.Axis == xpath.AxisChild && s.Test.Kind == xpath.TestName:
		np, ok := inlineChild(m, *pos, name)
		if !ok {
			return nil, false, nil
		}
		return []inlinePos{np}, false, nil
	case s.Axis == xpath.AxisChild && s.Test.Kind == xpath.TestText:
		return nil, true, nil
	case s.Axis == xpath.AxisAttribute && s.Test.Kind == xpath.TestName:
		_, declared := pos.rel().ByKey[ColumnKey(pos.path, name)]
		return nil, declared, nil
	case s.Axis == xpath.AxisDescendant && s.Test.Kind == xpath.TestName:
		nps, err := inlineDescendantPositions(m, *pos, name)
		return nps, false, err
	}
	return nil, false, unsupported("inline", s.Axis.String()+" steps but by name, and text()")
}

// inlineChild is the child step, of location and predicate paths alike:
// from pos to its child element name, a shared child joins its own
// relation, hanging at pos's inner path (its parentcode), and an
// inlined one moves down pos's row. ok is false when the DTD allows no
// such child.
func inlineChild(m *InlineMapping, pos inlinePos, name string) (inlinePos, bool) {
	model := m.Graph.Models[pos.elem]
	if model == nil || !slices.ContainsFunc(model.Children, func(c dtd.ChildRef) bool { return c.Name == name }) {
		return inlinePos{}, false
	}
	if _, declared := m.Graph.DTD.Elements[name]; !declared {
		return inlinePos{}, false
	}
	if m.Shared[name] {
		joins := append(slices.Clip(pos.joins), inlineJoin{rel: m.Relations[name], parentCode: strings.Join(pos.path, ".")})
		return inlinePos{joins: joins, elem: name}, true
	}
	return inlinePos{joins: pos.joins, path: append(slices.Clip(pos.path), name), elem: name}, true
}

// inlineDescendantPositions computes the positions reachable from pos by
// one-or-more child steps ending at the named element. Crossing a
// relation already on the join chain means recursion; that requires a
// fixpoint (recursive SQL) and is reported as unsupported unless the
// search is document-rooted (handled by the caller via Placements).
func inlineDescendantPositions(m *InlineMapping, pos inlinePos, name string) ([]inlinePos, error) {
	var out []inlinePos
	visited := map[string]bool{}
	var rec func(p inlinePos) error
	rec = func(p inlinePos) error {
		model := m.Graph.Models[p.elem]
		if model == nil {
			return nil
		}
		for _, ch := range model.Children {
			np, ok := inlineChild(m, p, ch.Name)
			if !ok {
				continue
			}
			if len(np.joins) > len(p.joins) && slices.ContainsFunc(p.joins, func(j inlineJoin) bool { return j.rel.Elem == ch.Name }) {
				return unsupported("inline", "descendant steps through recursive elements below the root (needs recursive SQL)")
			}
			k := np.key()
			if visited[k] {
				continue
			}
			visited[k] = true
			if ch.Name == name {
				out = append(out, np)
			}
			if err := rec(np); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(pos); err != nil {
		return nil, err
	}
	return out, nil
}

// inlineLayout is one position of the inlined schema as the predicate
// compiler sees it: the context alias is a row of the position's last
// relation, and the context node sits at the position's inner path.
type inlineLayout struct {
	byID
	m   *InlineMapping
	pos inlinePos
}

func (inlineLayout) scheme() string { return "inline" }
func (inlineLayout) chain(c []hop, pre, post string) (string, error) {
	return walkPath(c, "i", true, pre, post)
}

// position is a shared element's ordinal among its same-name siblings;
// an inlined element occurs at most once.
func (l inlineLayout) position(cur string, _ xpath.NodeTest) string {
	if len(l.pos.path) == 0 {
		return cur + ".ordinal"
	}
	return "1"
}

// value is the context element's text column.
func (l inlineLayout) value(cur string) string {
	return inlineColumn(l.pos.rel(), cur, ColumnKey(l.pos.path, ""))
}

// step joins the relation of a shared element below the context row,
// on parentid and parentcode; an inlined element, an attribute or
// text() is a column of the context row.
func (l inlineLayout) step(h hop, a, cur string) (string, []string) {
	if cur != "" && (len(l.pos.path) > 0 || h.axis == xpath.AxisAttribute || h.test.Kind == xpath.TestText) {
		return "", nil
	}
	j := l.pos.joins[len(l.pos.joins)-1]
	if cur == "" {
		return j.rel.Table + " " + a, nil
	}
	return j.rel.Table + " " + a, []string{a + ".parentid = " + cur + ".id", a + ".parentcode = " + QuoteString(j.parentCode)}
}

// test is "": the DTD routes fix every label.
func (inlineLayout) test(string, hop) string { return "" }

// result selects the route's host row, with the value column of its
// element, or of the attribute or text() its value step selects; an
// inlined element's column marks it present.
func (l inlineLayout) result(h hop, w *walked) string {
	rel := l.pos.rel()
	if len(l.pos.path) > 0 {
		present := "1 = 0"
		if c := inlineColumn(rel, w.cur, ColumnKey(l.pos.path, "")); c != "NULL" {
			present = c + " IS NOT NULL"
		}
		w.where = append(w.where, present)
	}
	val := "NULL"
	if i, ok := rel.ByKey[valueKey(l.pos.path, h)]; ok && rel.Columns[i].Kind != ColPresence {
		val = w.cur + "." + QuoteIdent(rel.Columns[i].Key)
		if h.axis == xpath.AxisAttribute || h.test.Kind == xpath.TestText {
			w.preds = append(w.preds, val+" IS NOT NULL")
		}
	}
	return "SELECT " + w.cur + ".id AS id, " + val + " AS val "
}

// predPath runs p's steps from the context position as a location
// path's route, joining the relation of each shared element it crosses
// on parentid and parentcode. It ends at that relation's row or at one
// of its columns: an inlined element's, an attribute's or text()'s. A
// path that never leaves the context row is a column of that row, with
// no subquery.
func (l inlineLayout) predPath(p *xpath.Path, cur string) (predPath, error) {
	if err := predSteps("inline", p); err != nil {
		return predPath{}, err
	}
	if slices.ContainsFunc(p.Steps, func(s xpath.Step) bool { return s.Axis == xpath.AxisDescendant }) {
		return predPath{}, unsupported("inline", "descendant steps inside predicates")
	}
	start := inlinePos{joins: []inlineJoin{{rel: l.pos.rel()}}, path: l.pos.path, elem: l.pos.elem}
	routes, err := l.routes(inlineRoute{pos: &start}, p.Steps)
	if err != nil || len(routes) == 0 {
		return nonePath, err // no such element or attribute: no nodes
	}
	r := routes[0] // child and value steps take at most one route
	w, _ := walk(r.hops, cur, cur+"_x", false, true)
	val := inlineColumn(r.pos.rel(), w.cur, valueKey(r.pos.path, r.hops[len(r.hops)-1]))
	switch {
	case !r.done && len(r.pos.path) == 0:
		// The last crossed row is the node.
	case val == "NULL":
		return nonePath, nil
	case len(w.from) == 0:
		return predPath{val: val}, nil
	default:
		w.where = append(w.where, val+" IS NOT NULL")
	}
	order := make([]string, len(w.from))
	for k := range order {
		order[k] = fmt.Sprintf("%s_x%d.ordinal", cur, k+1)
	}
	return predPath{q: w.render("", "SELECT 1 ", ""), val: val, order: strings.Join(order, ", ")}, nil
}

// valueKey is the column key of the node hop h ends at, on inner path
// path: its attribute's, or its element's.
func valueKey(path []string, h hop) string {
	if h.axis == xpath.AxisAttribute {
		return ColumnKey(path, h.test.Name)
	}
	return ColumnKey(path, "")
}

// inlineColumn renders column key of rel on alias a, or NULL when rel
// has no such column.
func inlineColumn(rel *InlineRelation, a, key string) string {
	if _, ok := rel.ByKey[key]; !ok {
		return "NULL"
	}
	return a + "." + QuoteIdent(key)
}
