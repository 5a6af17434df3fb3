package translate

import (
	"fmt"
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
		conds []routeCond
		// textOf, when true, selects the current column's text (a
		// trailing text() step).
		textOf bool
		attr   string // trailing attribute step
	}
	routes := []route{}

	// First step.
	first := p.Steps[0]
	rest := p.Steps
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
		routes = append(routes, route{pos: inlinePos{joins: []inlineJoin{{rel: rel}}, elem: rel.Elem}})
		if err := applyInlinePreds(m, &routes[0].conds, routes[0].pos, first.Preds); err != nil {
			return "", err
		}
		rest = p.Steps[1:]
	case xpath.AxisDescendant:
		if first.Test.Kind != xpath.TestName {
			return "", unsupported("inline", "// with a non-name test at the document root")
		}
		for _, pl := range m.Placements[first.Test.Name] {
			pos := inlinePos{joins: []inlineJoin{{rel: pl.Rel}}, path: pl.Path, elem: first.Test.Name, free: true}
			r := route{pos: pos}
			if err := applyInlinePreds(m, &r.conds, pos, first.Preds); err != nil {
				return "", err
			}
			routes = append(routes, r)
		}
		rest = p.Steps[1:]
	default:
		return "", unsupported("inline", "axis "+first.Axis.String()+" at the document root")
	}

	for _, s := range rest {
		var next []route
		for _, r := range routes {
			if r.textOf || r.attr != "" {
				return "", unsupported("inline", "steps after a value step")
			}
			switch s.Axis {
			case xpath.AxisChild:
				switch s.Test.Kind {
				case xpath.TestName:
					nps, err := inlineChildPositions(m, r.pos, s.Test.Name)
					if err != nil {
						return "", err
					}
					for _, np := range nps {
						nr := route{pos: np, conds: append([]routeCond{}, r.conds...)}
						if err := applyInlinePreds(m, &nr.conds, np, s.Preds); err != nil {
							return "", err
						}
						next = append(next, nr)
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
					nr := route{pos: np, conds: append([]routeCond{}, r.conds...)}
					if err := applyInlinePreds(m, &nr.conds, np, s.Preds); err != nil {
						return "", err
					}
					next = append(next, nr)
				}
			default:
				return "", unsupported("inline", "axis "+s.Axis.String())
			}
			if len(next) > 128 {
				return "", fmt.Errorf("translate: inline route expansion exceeds 128 branches")
			}
		}
		routes = next
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

// inlineChildPositions steps from pos to the named child element.
func inlineChildPositions(m *InlineMapping, pos inlinePos, name string) ([]inlinePos, error) {
	model := m.Graph.Models[pos.elem]
	if model == nil {
		return nil, nil
	}
	found := false
	for _, ch := range model.Children {
		if ch.Name == name {
			found = true
			break
		}
	}
	if !found {
		return nil, nil
	}
	if _, declared := m.Graph.DTD.Elements[name]; !declared {
		return nil, nil
	}
	if m.Shared[name] {
		child := inlineJoin{rel: m.Relations[name], parentCode: strings.Join(pos.path, ".")}
		joins := append(append([]inlineJoin{}, pos.joins...), child)
		return []inlinePos{{joins: joins, elem: name, free: pos.free}}, nil
	}
	np := inlinePos{
		joins: pos.joins,
		path:  append(append([]string{}, pos.path...), name),
		elem:  name,
		free:  pos.free,
	}
	return []inlinePos{np}, nil
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
			if _, declared := m.Graph.DTD.Elements[ch.Name]; !declared {
				continue
			}
			var np inlinePos
			if m.Shared[ch.Name] {
				for _, j := range p.joins {
					if j.rel.Elem == ch.Name {
						return unsupported("inline", "descendant steps through recursive elements below the root (needs recursive SQL)")
					}
				}
				np = inlinePos{
					joins: append(append([]inlineJoin{}, p.joins...), inlineJoin{rel: m.Relations[ch.Name], parentCode: strings.Join(p.path, ".")}),
					elem:  ch.Name,
					free:  p.free,
				}
			} else {
				np = inlinePos{
					joins: p.joins,
					path:  append(append([]string{}, p.path...), ch.Name),
					elem:  ch.Name,
					free:  p.free,
				}
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

// routeCond is one SQL condition anchored at a join index.
type routeCond struct {
	joinIdx int
	// cond receives the alias of joins[joinIdx] and returns SQL.
	cond func(alias string) string
}

// applyInlinePreds translates a step's predicates at pos.
func applyInlinePreds(m *InlineMapping, conds *[]routeCond, pos inlinePos, preds []xpath.Expr) error {
	for _, pe := range preds {
		c, err := inlinePred(m, pos, pe)
		if err != nil {
			return err
		}
		*conds = append(*conds, c)
	}
	return nil
}

func inlinePred(m *InlineMapping, pos inlinePos, e xpath.Expr) (routeCond, error) {
	idx := len(pos.joins) - 1
	switch e := e.(type) {
	case *xpath.BinaryExpr:
		switch e.Op {
		case "and", "or":
			l, err := inlinePred(m, pos, e.L)
			if err != nil {
				return routeCond{}, err
			}
			r, err := inlinePred(m, pos, e.R)
			if err != nil {
				return routeCond{}, err
			}
			op := strings.ToUpper(e.Op)
			if l.joinIdx != r.joinIdx {
				return routeCond{}, unsupported("inline", "mixed-anchor boolean predicates")
			}
			return routeCond{joinIdx: l.joinIdx, cond: func(a string) string {
				return "(" + l.cond(a) + " " + op + " " + r.cond(a) + ")"
			}}, nil
		default:
			return inlineComparison(m, pos, e)
		}
	case *xpath.NumberLit:
		n := numLiteral(e.Val)
		if len(pos.path) == 0 {
			// Position among same-name siblings of a shared element.
			return routeCond{joinIdx: idx, cond: func(a string) string {
				return a + ".ordinal = " + n
			}}, nil
		}
		// Inlined elements occur at most once.
		return routeCond{joinIdx: idx, cond: func(a string) string {
			if n == "1" {
				return "1 = 1"
			}
			return "1 = 0"
		}}, nil
	case *xpath.PathOperand:
		return inlineValueCond(m, pos, e.Path, false, func(col string) string {
			return col + " IS NOT NULL"
		})
	case *xpath.FuncCall:
		switch e.Name {
		case "not":
			if len(e.Args) != 1 {
				return routeCond{}, unsupported("inline", "not() arity")
			}
			inner, err := inlinePred(m, pos, e.Args[0])
			if err != nil {
				return routeCond{}, err
			}
			return routeCond{joinIdx: inner.joinIdx, cond: func(a string) string {
				return "NOT (" + inner.cond(a) + ")"
			}}, nil
		case "true":
			return routeCond{joinIdx: idx, cond: func(string) string { return "1 = 1" }}, nil
		case "false":
			return routeCond{joinIdx: idx, cond: func(string) string { return "1 = 0" }}, nil
		case "contains", "starts-with":
			if len(e.Args) != 2 {
				return routeCond{}, unsupported("inline", e.Name+"() arity")
			}
			lit, ok := e.Args[1].(*xpath.StringLit)
			if !ok {
				return routeCond{}, unsupported("inline", e.Name+"() with a non-literal pattern")
			}
			pattern := likePattern(e.Name, lit.Val)
			po, ok := e.Args[0].(*xpath.PathOperand)
			if !ok {
				return routeCond{}, unsupported("inline", "non-path operand in string function")
			}
			if len(po.Path.Steps) == 1 && po.Path.Steps[0].Axis == xpath.AxisSelf {
				key := ColumnKey(pos.path, "")
				if _, ok := pos.rel().ByKey[key]; !ok {
					return routeCond{joinIdx: idx, cond: func(string) string { return "1 = 0" }}, nil
				}
				return routeCond{joinIdx: idx, cond: func(a string) string {
					return fmt.Sprintf("%s.%s LIKE %s ESCAPE '\\'", a, QuoteIdent(key), QuoteString(pattern))
				}}, nil
			}
			return inlineValueCond(m, pos, po.Path, true, func(col string) string {
				return fmt.Sprintf("%s LIKE %s ESCAPE '\\'", col, QuoteString(pattern))
			})
		}
		return routeCond{}, unsupported("inline", e.Name+"() in a predicate")
	}
	return routeCond{}, unsupported("inline", fmt.Sprintf("predicate %T", e))
}

func inlineComparison(m *InlineMapping, pos inlinePos, e *xpath.BinaryExpr) (routeCond, error) {
	l, r, op := e.L, e.R, e.Op
	if isLiteral(l) && !isLiteral(r) {
		l, r = r, l
		op = flipXPathOp(op)
	}
	lit, err := literalSQL(r)
	if err != nil {
		return routeCond{}, err
	}
	if op == "!=" {
		op = "<>"
	}
	idx := len(pos.joins) - 1
	switch lx := l.(type) {
	case *xpath.FuncCall:
		if lx.Name == "position" {
			if len(pos.path) == 0 {
				sqlOp := op
				return routeCond{joinIdx: idx, cond: func(a string) string {
					return a + ".ordinal " + sqlOp + " " + lit
				}}, nil
			}
			// Inlined elements always occupy position 1; emit the
			// constant comparison and let the engine fold it.
			return routeCond{joinIdx: idx, cond: func(string) string {
				return "1 " + op + " " + lit
			}}, nil
		}
		return routeCond{}, unsupported("inline", lx.Name+"() comparison")
	case *xpath.PathOperand:
		if len(lx.Path.Steps) == 1 && lx.Path.Steps[0].Axis == xpath.AxisSelf {
			key := ColumnKey(pos.path, "")
			if _, ok := pos.rel().ByKey[key]; !ok {
				return routeCond{joinIdx: idx, cond: func(string) string { return "1 = 0" }}, nil
			}
			sqlOp := op
			return routeCond{joinIdx: idx, cond: func(a string) string {
				return a + "." + QuoteIdent(key) + " " + sqlOp + " " + lit
			}}, nil
		}
		return inlineValueCond(m, pos, lx.Path, false, func(col string) string {
			return col + " " + op + " " + lit
		})
	}
	return routeCond{}, unsupported("inline", fmt.Sprintf("comparison of %T", l))
}

// inlineValueCond resolves a relative predicate path to a condition over
// either a column of the anchor relation or an EXISTS over child
// relations. With first set, mk gets instead the path's string value as
// a string function reads it: the value of its first node in document
// order, or the empty string when it selects none.
func inlineValueCond(m *InlineMapping, pos inlinePos, p *xpath.Path, first bool, mk func(col string) string) (routeCond, error) {
	if p.Absolute {
		return routeCond{}, unsupported("inline", "absolute paths inside predicates")
	}
	idx := len(pos.joins) - 1
	none := routeCond{joinIdx: idx, cond: func(string) string { return "1 = 0" }}
	if first {
		none.cond = func(string) string { return mk("''") }
	}
	cur := pos
	// Chain of shared crossings: each adds one EXISTS level. code is
	// the parentCODE the crossing must match.
	type crossing struct {
		rel  *InlineRelation
		code string
	}
	var crossings []crossing
	attr := ""
	for i, s := range p.Steps {
		if len(s.Preds) > 0 {
			return routeCond{}, unsupported("inline", "nested predicates")
		}
		switch {
		case s.Axis == xpath.AxisChild && s.Test.Kind == xpath.TestName:
			model := m.Graph.Models[cur.elem]
			ok := false
			if model != nil {
				for _, ch := range model.Children {
					if ch.Name == s.Test.Name {
						ok = true
						break
					}
				}
			}
			if !ok {
				return none, nil
			}
			if m.Shared[s.Test.Name] {
				crossings = append(crossings, crossing{rel: m.Relations[s.Test.Name], code: strings.Join(cur.path, ".")})
				cur = inlinePos{joins: []inlineJoin{{rel: m.Relations[s.Test.Name]}}, elem: s.Test.Name}
			} else {
				cur = inlinePos{joins: cur.joins, path: append(append([]string{}, cur.path...), s.Test.Name), elem: s.Test.Name}
			}
		case s.Axis == xpath.AxisAttribute && s.Test.Kind == xpath.TestName:
			if i != len(p.Steps)-1 {
				return routeCond{}, unsupported("inline", "attribute mid-path")
			}
			attr = s.Test.Name
		case s.Axis == xpath.AxisChild && s.Test.Kind == xpath.TestText:
			if i != len(p.Steps)-1 {
				return routeCond{}, unsupported("inline", "text() mid-path")
			}
			// text() resolves to the element's own text column.
		default:
			return routeCond{}, unsupported("inline", "predicate step "+s.Axis.String())
		}
	}

	key := ColumnKey(cur.path, attr)
	lastRel := pos.rel()
	if len(crossings) > 0 {
		lastRel = crossings[len(crossings)-1].rel
	}
	if _, ok := lastRel.ByKey[key]; !ok {
		return none, nil
	}

	if len(crossings) == 0 {
		return routeCond{joinIdx: idx, cond: func(a string) string {
			if first {
				return mk("COALESCE(" + a + "." + QuoteIdent(key) + ", '')")
			}
			return mk(a + "." + QuoteIdent(key))
		}}, nil
	}
	if first {
		// The first node: join the crossing chain and order it by each
		// relation's sibling ordinal, outermost first.
		return routeCond{joinIdx: idx, cond: func(a string) string {
			var from, where, order []string
			parentAlias := a
			for ci, cr := range crossings {
				sub := fmt.Sprintf("%s_x%d", a, ci+1)
				from = append(from, cr.rel.Table+" "+sub)
				where = append(where, sub+".parentid = "+parentAlias+".id", sub+".parentcode = "+QuoteString(cr.code))
				order = append(order, sub+".ordinal")
				parentAlias = sub
			}
			col := parentAlias + "." + QuoteIdent(key)
			return mk("COALESCE((SELECT " + col + " FROM " + strings.Join(from, ", ") +
				" WHERE " + strings.Join(where, " AND ") + " AND " + col + " IS NOT NULL ORDER BY " +
				strings.Join(order, ", ") + " LIMIT 1), '')")
		}}, nil
	}
	// Build nested EXISTS over the crossing chain.
	return routeCond{joinIdx: idx, cond: func(a string) string {
		var b strings.Builder
		parentAlias := a
		closers := 0
		for ci, cr := range crossings {
			sub := fmt.Sprintf("%s_x%d", a, ci+1)
			b.WriteString("EXISTS (SELECT 1 FROM " + cr.rel.Table + " " + sub +
				" WHERE " + sub + ".parentid = " + parentAlias + ".id AND " +
				sub + ".parentcode = " + QuoteString(cr.code) + " AND ")
			parentAlias = sub
			closers++
		}
		b.WriteString(mk(parentAlias + "." + QuoteIdent(key)))
		for i := 0; i < closers; i++ {
			b.WriteString(")")
		}
		return b.String()
	}}, nil
}

// inlineRouteSQL renders one route: the relation join chain plus
// anchored conditions, selecting the host row id and the value column.
func inlineRouteSQL(pos inlinePos, conds []routeCond, textOf bool, attr string) string {
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
	for _, c := range conds {
		where = append(where, c.cond(aliases[c.joinIdx]))
	}

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
