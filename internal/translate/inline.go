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
	ByKey   map[string]*InlineColumn
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
			ByKey: map[string]*InlineColumn{},
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
	rel.Columns = append(rel.Columns, col)
	rel.ByKey[col.Key] = &rel.Columns[len(rel.Columns)-1]
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
	// free marks a root-anchored descendant entry: the position's last
	// relation is scanned without an ancestry join chain (exact for
	// document-rooted //, the only place it is produced).
	free bool
}

func (p inlinePos) rel() *InlineRelation { return p.joins[len(p.joins)-1].rel }

func (p inlinePos) key() string {
	names := make([]string, len(p.joins))
	for i, j := range p.joins {
		names[i] = j.rel.Elem + "@" + j.parentCode
	}
	return strings.Join(names, ">") + "|" + strings.Join(p.path, ".") + "|" + fmt.Sprint(p.free)
}

// Inline translates XPath to SQL over the inlined schema. Node identity
// is approximated by the hosting row's id (inlined elements do not carry
// their own ids — the documented information loss of inlining).
func Inline(p *xpath.Path, m *InlineMapping) (string, error) {
	if !p.Absolute {
		return "", unsupported("inline", "relative paths")
	}
	if len(p.Steps) == 0 {
		return "", unsupported("inline", "the bare document path /")
	}

	type route struct {
		pos   inlinePos
		conds []string
		// textOf, when true, selects the current column's text (a
		// trailing text() step).
		textOf bool
		attr   string // trailing attribute step
	}
	var routes, next []route
	// to adds route r moved by step s to pos, with s's predicates.
	to := func(r route, pos inlinePos, s xpath.Step) error {
		conds, err := inlineConds(m, pos, s)
		if err != nil {
			return err
		}
		next = append(next, route{pos: pos, conds: slices.Concat(r.conds, conds)})
		return nil
	}

	// First step.
	first := p.Steps[0]
	switch first.Axis {
	case xpath.AxisChild:
		if first.Test.Kind == xpath.TestWildcard {
			// `/*` is the one document element the DTD allows.
			first.Test = xpath.NodeTest{Kind: xpath.TestName, Name: m.Graph.DTD.Root}
		}
		if first.Test.Kind != xpath.TestName {
			return "", unsupported("inline", "a non-name root step")
		}
		rel, ok := m.Relations[first.Test.Name]
		if !ok || first.Test.Name != m.Graph.DTD.Root {
			return "", unsupported("inline", "a root element not matching the DTD root")
		}
		if err := to(route{}, inlinePos{joins: []inlineJoin{{rel: rel}}, elem: rel.Elem}, first); err != nil {
			return "", err
		}
	case xpath.AxisDescendant:
		if first.Test.Kind != xpath.TestName {
			return "", unsupported("inline", "// with a non-name test at the document root")
		}
		for _, pl := range m.Placements[first.Test.Name] {
			pos := inlinePos{joins: []inlineJoin{{rel: pl.Rel}}, path: pl.Path, elem: first.Test.Name, free: true}
			if err := to(route{}, pos, first); err != nil {
				return "", err
			}
		}
	default:
		return "", unsupported("inline", "axis "+first.Axis.String()+" at the document root")
	}
	routes, next = next, nil

	for _, s := range p.Steps[1:] {
		for _, r := range routes {
			if r.textOf || r.attr != "" {
				return "", unsupported("inline", "steps after a value step")
			}
			switch s.Axis {
			case xpath.AxisChild:
				switch s.Test.Kind {
				case xpath.TestName:
					if np, ok := inlineChild(m, r.pos, s.Test.Name); ok {
						if err := to(r, np, s); err != nil {
							return "", err
						}
					}
				case xpath.TestText:
					nr := r
					nr.textOf = true
					if len(s.Preds) > 0 {
						return "", unsupported("inline", "predicates on text()")
					}
					next = append(next, nr)
				default:
					return "", unsupported("inline", "wildcard or kind tests")
				}
			case xpath.AxisAttribute:
				if s.Test.Kind != xpath.TestName {
					return "", unsupported("inline", "attribute wildcards")
				}
				key := ColumnKey(r.pos.path, s.Test.Name)
				if _, ok := r.pos.rel().ByKey[key]; !ok {
					continue // attribute not declared here: no rows
				}
				nr := r
				nr.attr = s.Test.Name
				if len(s.Preds) > 0 {
					return "", unsupported("inline", "predicates on attribute steps")
				}
				next = append(next, nr)
			case xpath.AxisDescendant:
				if s.Test.Kind != xpath.TestName {
					return "", unsupported("inline", "// with a non-name test")
				}
				nps, err := inlineDescendantPositions(m, r.pos, s.Test.Name)
				if err != nil {
					return "", err
				}
				for _, np := range nps {
					if err := to(r, np, s); err != nil {
						return "", err
					}
				}
			default:
				return "", unsupported("inline", "axis "+s.Axis.String())
			}
			if len(next) > 128 {
				return "", fmt.Errorf("translate: inline route expansion exceeds 128 branches")
			}
		}
		routes, next = next, nil
	}

	if len(routes) == 0 {
		return "SELECT 0 AS id, NULL AS val WHERE 1 = 0", nil
	}
	var parts []string
	seen := map[string]bool{}
	for _, r := range routes {
		q := inlineRouteSQL(r.pos, r.conds, r.textOf, r.attr)
		if !seen[q] {
			seen[q] = true
			parts = append(parts, q)
		}
	}
	if len(parts) == 1 {
		return parts[0] + " ORDER BY id", nil
	}
	return "SELECT DISTINCT id, val FROM (" + strings.Join(parts, " UNION ALL ") + ") u ORDER BY id", nil
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
		return inlinePos{joins: joins, elem: name, free: pos.free}, true
	}
	return inlinePos{joins: pos.joins, path: append(slices.Clip(pos.path), name), elem: name, free: pos.free}, true
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

// inlineConds compiles step s's predicates at pos, whose last relation
// a route aliases i<k>, k the length of pos's join chain: the chain only
// grows by appending, so the alias holds for the route's final SQL.
func inlineConds(m *InlineMapping, pos inlinePos, s xpath.Step) ([]string, error) {
	l := inlineLayout{m: m, pos: pos}
	cur := fmt.Sprintf("i%d", len(pos.joins))
	conds := make([]string, len(s.Preds))
	for i, pe := range s.Preds {
		c, err := compilePred(l, pe, cur, s.Test)
		if err != nil {
			return nil, err
		}
		conds[i] = c
	}
	return conds, nil
}

// inlineLayout is one position of the inlined schema as the predicate
// compiler sees it: the context alias is a row of the position's last
// relation, and the context node sits at the position's inner path.
type inlineLayout struct {
	m   *InlineMapping
	pos inlinePos
}

func (inlineLayout) scheme() string { return "inline" }

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

// predPath walks p's steps with the location path's child step, joining
// the relation of each shared element it crosses on parentid and
// parentcode. It ends at that relation's row or at one of its columns:
// an inlined element's, an attribute's or text()'s. A path that never
// leaves the context row is a column of that row, with no subquery.
func (l inlineLayout) predPath(p *xpath.Path, cur string) (predPath, error) {
	if p.Absolute {
		return predPath{}, unsupported("inline", "absolute paths inside predicates")
	}
	pos := inlinePos{joins: []inlineJoin{{rel: l.pos.rel()}}, path: l.pos.path, elem: l.pos.elem}
	attr, atRow := "", true
	for i, s := range p.Steps {
		if len(s.Preds) > 0 {
			return predPath{}, unsupported("inline", "nested predicates")
		}
		last := i == len(p.Steps)-1
		switch {
		case s.Axis == xpath.AxisChild && s.Test.Kind == xpath.TestName:
			np, ok := inlineChild(l.m, pos, s.Test.Name)
			if !ok {
				return nonePath, nil
			}
			pos, atRow = np, len(np.path) == 0
		case last && s.Axis == xpath.AxisAttribute && s.Test.Kind == xpath.TestName:
			attr, atRow = s.Test.Name, false
		case last && s.Axis == xpath.AxisChild && s.Test.Kind == xpath.TestText:
			atRow = false // the element's own text column
		default:
			return predPath{}, unsupported("inline", "predicate step "+s.Axis.String())
		}
	}
	var from, where, order []string
	row := cur
	for k, j := range pos.joins[1:] {
		a := fmt.Sprintf("%s_x%d", cur, k+1)
		from = append(from, j.rel.Table+" "+a)
		where = append(where, a+".parentid = "+row+".id", a+".parentcode = "+QuoteString(j.parentCode))
		order = append(order, a+".ordinal")
		row = a
	}
	val := inlineColumn(pos.rel(), row, ColumnKey(pos.path, attr))
	switch {
	case atRow: // the last crossed row is the node
	case val == "NULL":
		return nonePath, nil
	case len(from) == 0:
		return predPath{val: val}, nil
	default:
		where = append(where, val+" IS NOT NULL")
	}
	q := "SELECT 1 FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(where, " AND ")
	return predPath{q: q, val: val, order: strings.Join(order, ", ")}, nil
}

// inlineColumn renders column key of rel on alias a, or NULL when rel
// has no such column.
func inlineColumn(rel *InlineRelation, a, key string) string {
	if _, ok := rel.ByKey[key]; !ok {
		return "NULL"
	}
	return a + "." + QuoteIdent(key)
}

// inlineRouteSQL renders one route: the relation join chain plus its
// predicates, selecting the host row id and the value column.
func inlineRouteSQL(pos inlinePos, conds []string, textOf bool, attr string) string {
	aliases := make([]string, len(pos.joins))
	var from []string
	var where []string
	for i, j := range pos.joins {
		a := fmt.Sprintf("i%d", i+1)
		aliases[i] = a
		from = append(from, j.rel.Table+" "+a)
		if i > 0 {
			where = append(where, fmt.Sprintf("%s.parentid = %s.id", a, aliases[i-1]))
			where = append(where, fmt.Sprintf("%s.parentcode = %s", a, QuoteString(j.parentCode)))
		}
	}
	last := aliases[len(aliases)-1]
	rel := pos.rel()

	// Presence condition for the final inlined element.
	if len(pos.path) > 0 {
		key := ColumnKey(pos.path, "")
		if _, ok := rel.ByKey[key]; ok {
			where = append(where, last+"."+QuoteIdent(key)+" IS NOT NULL")
		} else {
			where = append(where, "1 = 0")
		}
	}
	where = append(where, conds...)

	valExpr := "NULL"
	key := ColumnKey(pos.path, attr)
	if textOf {
		key = ColumnKey(pos.path, "")
	}
	if col, ok := rel.ByKey[key]; ok && (col.Kind == ColText || col.Kind == ColAttr) {
		valExpr = last + "." + QuoteIdent(key)
		if attr != "" || textOf {
			where = append(where, valExpr+" IS NOT NULL")
		}
	}

	sql := "SELECT " + last + ".id AS id, " + valExpr + " AS val FROM " + strings.Join(from, ", ")
	if len(where) > 0 {
		sql += " WHERE " + strings.Join(where, " AND ")
	}
	return sql
}
