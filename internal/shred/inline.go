package shred

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/dtd"
	"repro/internal/sqldb"
	"repro/internal/translate"
	"repro/internal/xmldom"
	"repro/internal/xpath"
)

// Inline is the DTD-driven shared-inlining mapping (Shanmugasundaram et
// al. 1999): the DTD's element graph determines a real relational
// schema. Elements that are set-valued, multi-parented, recursive, or
// the root get their own relation; every other element collapses into
// its ancestor relation as columns. Conforming queries then need far
// fewer joins than the generic mappings — the T4 experiment.
//
// Documented information loss (inherent to the mapping): comments, PIs
// and mixed-content ordering are not preserved, and inlined elements
// share their host row's id.
//
// The DTD text is the scheme's one state row, written at Setup; the
// mapping is derived from it, and a database holding an Inline layout
// reopens through StoredDTD.
type Inline struct {
	text    string
	dtd     *dtd.DTD
	mapping *translate.InlineMapping
}

// NewInline builds the scheme from DTD text. root names the document
// element ("" = first declared).
func NewInline(dtdText, root string) (*Inline, error) {
	d, err := dtd.Parse(dtdText, root)
	if err != nil {
		return nil, err
	}
	g := dtd.BuildGraph(d)
	m, err := translate.BuildInlineMapping(g)
	if err != nil {
		return nil, err
	}
	return &Inline{text: dtdText, dtd: d, mapping: m}, nil
}

// StoredDTD reads the DTD text and document element an Inline Setup
// stored in db; ok is false when db holds none.
func StoredDTD(db sqldb.Queryer) (text, root string, ok bool) {
	rows, err := db.Query("SELECT label, value FROM "+stateTable("inline")+" WHERE kind = ?", sqldb.NewText(stateDTD))
	if err != nil || rows.Len() != 1 {
		return "", "", false
	}
	return rows.Data[0][1].Text(), rows.Data[0][0].Text(), true
}

// Mapping exposes the derived relational mapping (for the T4 report:
// relation and column counts).
func (in *Inline) Mapping() *translate.InlineMapping { return in.mapping }

// Name implements Scheme.
func (in *Inline) Name() string { return "inline" }

// Setup implements Scheme.
func (in *Inline) Setup(db *sqldb.Database) error {
	for _, elem := range in.mapping.Order {
		rel := in.mapping.Relations[elem]
		cols := []string{
			"id INTEGER NOT NULL PRIMARY KEY",
			"parentid INTEGER",
			"parentcode TEXT",
			"ordinal INTEGER NOT NULL",
		}
		for _, c := range rel.Columns {
			typ := "TEXT"
			if c.Kind == translate.ColPresence {
				typ = "BOOLEAN"
			}
			cols = append(cols, translate.QuoteIdent(c.Key)+" "+typ)
		}
		ddl := fmt.Sprintf("CREATE TABLE %s (%s)", rel.Table, strings.Join(cols, ", "))
		if _, err := db.Exec(ddl); err != nil {
			return err
		}
		if _, err := db.Exec(fmt.Sprintf("CREATE INDEX %s_parent ON %s (parentcode, parentid)", rel.Table, rel.Table)); err != nil {
			return err
		}
	}
	if err := createState(db, "inline"); err != nil {
		return err
	}
	_, err := db.Exec("INSERT INTO "+stateTable("inline")+" VALUES (?, ?, ?)",
		sqldb.NewText(stateDTD), sqldb.NewText(in.dtd.Root), sqldb.NewText(in.text))
	return err
}

// openRow accumulates one relation row during loading.
type openRow struct {
	rel    *translate.InlineRelation
	id     int64
	parent sqldb.Value
	code   sqldb.Value // parentCODE: inner path of the parent element
	ord    int64
	vals   map[string]sqldb.Value
}

// values lays the row out in its relation's column order.
func (r *openRow) values() []sqldb.Value {
	row := make([]sqldb.Value, 4+len(r.rel.Columns))
	row[0] = sqldb.NewInt(r.id)
	row[1] = r.parent
	row[2] = r.code
	row[3] = sqldb.NewInt(r.ord)
	for i, c := range r.rel.Columns {
		if v, ok := r.vals[c.Key]; ok {
			row[4+i] = v
		} else {
			row[4+i] = sqldb.Null
		}
	}
	return row
}

// Insert implements Scheme: a document under the document node, or a
// subtree rooted at a shared element (a new relation row) under an
// element's row; inserting inlined fragments in order is not
// expressible. Either goes through one sink on the shredding walk, since
// the relations and their columns come from the DTD, not the document,
// and must conform to the DTD. A document's rows take their elements'
// pre-order ranks as ids; an inserted subtree's are numbered past the
// largest stored id, and its position counts among the parent row's
// same-name children. The subtree hangs at the one inner path of the
// parent's relation whose element admits its root (see hangsAt).
func (in *Inline) Insert(ctx context.Context, db sqldb.Writer, parentID int64, position int, src xmldom.TokenSource) error {
	s := &inlineSink{in: in, db: db, bs: newTableBatchers(ctx, db)}
	if parentID != 0 {
		var host *translate.InlineRelation
		for _, elem := range in.mapping.Order {
			rel := in.mapping.Relations[elem]
			v, err := db.QueryScalar("SELECT MAX(id) FROM " + rel.Table)
			if err != nil {
				return err
			}
			s.next = max(s.next, v.Int())
			n, err := db.QueryScalar("SELECT COUNT(*) FROM "+rel.Table+" WHERE id = ?", sqldb.NewInt(parentID))
			if err != nil {
				return err
			}
			if n.Int() > 0 {
				host = rel
			}
		}
		if host == nil {
			return errNoElement("inline", parentID)
		}
		s.next++
		s.place = &openRow{rel: host, parent: sqldb.NewInt(parentID), ord: int64(position) + 1}
	}
	if _, _, err := streamWalk(src, s, nil, walkAt{parent: parentID, next: 1, ordinal: 1}); err != nil {
		return err
	}
	return s.bs.flush()
}

// inlineSink shreds into the DTD's relations: a shared element opens a
// row of its own relation, an inlined one fills columns of its host's
// row, and a row is written when its element closes. A document's rows
// take their elements' pre-order ranks as ids; an inserted subtree's
// are numbered from next, and its root row is placed as place says:
// under the row of relation place.rel with id place.parent, at ordinal
// place.ord, after its following same-name siblings' ordinals shift.
type inlineSink struct {
	in     *Inline
	db     sqldb.Writer
	bs     *tableBatchers
	frames []*inlineFrame
	next   int64
	place  *openRow
}

// inlineFrame is one open element.
type inlineFrame struct {
	name  string
	model *dtd.SimpleModel
	// row receives the element's columns: its own row when it is
	// shared, its host's when it is inlined; path is its place inside
	// that row's relation (nil for a shared element).
	row  *openRow
	path []string
	// counts numbers the shared children of row per (parentcode, name).
	counts map[string]int64
	text   strings.Builder // direct text, when the model has text
}

func (s *inlineSink) open(f *streamFrame) error {
	in := s.in
	var host *inlineFrame
	switch {
	case len(s.frames) > 0:
		host = s.frames[len(s.frames)-1]
	case s.place == nil && f.name != in.dtd.Root:
		return errScheme("inline", "root element <%s> does not match DTD root <%s>", f.name, in.dtd.Root)
	case s.place != nil && !in.mapping.Shared[f.name]:
		return errScheme("inline", "only subtrees rooted at a shared element can be inserted")
	}
	if in.dtd.Elements[f.name] == nil {
		return errScheme("inline", "element <%s> is not declared in the DTD", f.name)
	}
	fr := &inlineFrame{name: f.name, model: in.mapping.Graph.Models[f.name]}
	switch {
	case in.mapping.Shared[f.name]:
		row := &openRow{rel: in.mapping.Relations[f.name], id: f.pre, parent: sqldb.Null, code: sqldb.Null,
			ord: 1, vals: map[string]sqldb.Value{}}
		if s.next > 0 {
			row.id, s.next = s.next, s.next+1
		}
		switch {
		case host != nil:
			row.parent = sqldb.NewInt(host.row.id)
			row.code = sqldb.NewText(strings.Join(host.path, "."))
			countKey := row.code.Text() + "|" + f.name
			host.counts[countKey]++
			row.ord = host.counts[countKey]
		case s.place != nil:
			code, err := in.hangsAt(s.place.rel, f.name)
			if err != nil {
				return err
			}
			if _, err := s.db.Exec("UPDATE "+row.rel.Table+" SET ordinal = ordinal + 1 WHERE parentid = ? AND parentcode = ? AND ordinal >= ?",
				s.place.parent, code, sqldb.NewInt(s.place.ord)); err != nil {
				return err
			}
			row.parent, row.code, row.ord = s.place.parent, code, s.place.ord
		}
		fr.row, fr.counts = row, map[string]int64{}
	case host == nil:
		return errScheme("inline", "internal: inlined element <%s> without a host", f.name)
	default:
		fr.row, fr.counts = host.row, host.counts
		fr.path = append(slices.Clip(host.path), f.name)
		key := translate.ColumnKey(fr.path, "")
		if _, ok := fr.row.rel.ByKey[key]; !ok {
			return errScheme("inline", "element <%s> at %s is not part of relation %s (non-conforming document)", f.name, key, fr.row.rel.Table)
		}
		if _, dup := fr.row.vals[key]; dup {
			return errScheme("inline", "element <%s> occurs more than once at %s (non-conforming document: DTD says at most one)", f.name, key)
		}
		fr.row.vals[key] = sqldb.NewBool(true) // presence; text replaces it at close
	}
	s.frames = append(s.frames, fr)
	return nil
}

// hangsAt returns the parentcode of a shared element name inserted under
// a row of relation host: the one inner path of host whose element's
// content model admits name, as the translator's child step reads the
// mapping. None or several refuse the insert.
func (in *Inline) hangsAt(host *translate.InlineRelation, name string) (sqldb.Value, error) {
	var codes []string
	for elem, spots := range in.mapping.Placements {
		model := in.mapping.Graph.Models[elem]
		if model == nil || !slices.ContainsFunc(model.Children, func(c dtd.ChildRef) bool { return c.Name == name }) {
			continue
		}
		for _, p := range spots {
			if p.Rel == host {
				codes = append(codes, strings.Join(p.Path, "."))
			}
		}
	}
	if len(codes) != 1 {
		return sqldb.Null, errScheme("inline", "<%s> hangs at %d places of a <%s> row; an insert needs exactly one", name, len(codes), host.Elem)
	}
	return sqldb.NewText(codes[0]), nil
}

func (s *inlineSink) node(n *shredNode) error {
	if len(s.frames) == 0 {
		return nil // a comment or PI outside the document element
	}
	top := s.frames[len(s.frames)-1]
	hasText := top.model != nil && top.model.HasText
	switch n.kind {
	case "attr":
		key := translate.ColumnKey(top.path, n.name.Text())
		if _, ok := top.row.rel.ByKey[key]; !ok {
			return errScheme("inline", "attribute %s on <%s> is not declared in the DTD", n.name.Text(), top.name)
		}
		top.row.vals[key] = n.value
	case "text":
		if hasText {
			top.text.WriteString(n.value.Text())
		}
	case "elem":
		s.frames = s.frames[:len(s.frames)-1]
		if hasText {
			top.row.vals[translate.ColumnKey(top.path, "")] = sqldb.NewText(top.text.String())
		}
		if top.path == nil {
			return s.bs.add(top.row.rel.Table, top.row.values())
		}
	}
	return nil
}

// Translate implements Scheme.
func (in *Inline) Translate(_ sqldb.Queryer, q *xpath.Path) (string, error) {
	return translate.Inline(q, in.mapping)
}

// Reconstruct implements Scheme: rebuilds the canonical document
// (element structure, attributes, text — without comments/PIs or mixed
// interleaving, per the mapping's documented loss).
func (in *Inline) Reconstruct(db sqldb.Queryer) (*xmldom.Document, error) {
	type relRow struct {
		rel    *translate.InlineRelation
		id     int64
		parent sqldb.Value
		code   string
		ord    int64
		vals   map[string]sqldb.Value
	}
	// children indexes child rows by (parent row id, parentcode).
	type childKey struct {
		parent int64
		code   string
	}
	children := map[childKey][]*relRow{}
	var roots []*relRow
	for _, elem := range in.mapping.Order {
		rel := in.mapping.Relations[elem]
		rows, err := db.Query("SELECT * FROM " + rel.Table)
		if err != nil {
			return nil, err
		}
		colIdx := map[string]int{}
		for i, c := range rows.Columns {
			colIdx[c] = i
		}
		for _, r := range rows.Data {
			rr := &relRow{
				rel:    rel,
				id:     r[colIdx["id"]].Int(),
				parent: r[colIdx["parentid"]],
				code:   r[colIdx["parentcode"]].Text(),
				ord:    r[colIdx["ordinal"]].Int(),
				vals:   map[string]sqldb.Value{},
			}
			for _, c := range rel.Columns {
				rr.vals[c.Key] = r[colIdx[c.Key]]
			}
			if rr.parent.IsNull() {
				roots = append(roots, rr)
			} else {
				k := childKey{parent: rr.parent.Int(), code: rr.code}
				children[k] = append(children[k], rr)
			}
		}
	}
	for k := range children {
		cs := children[k]
		sort.Slice(cs, func(i, j int) bool {
			if cs[i].ord != cs[j].ord {
				return cs[i].ord < cs[j].ord
			}
			return cs[i].id < cs[j].id
		})
	}
	if len(roots) != 1 {
		return nil, errScheme("inline", "expected exactly one root row, found %d", len(roots))
	}

	doc := &xmldom.Document{Root: &xmldom.Node{Kind: xmldom.DocumentNode}}
	// build renders a relation row; buildAt recurses through its inlined
	// region and pulls child-relation rows at each position.
	var build func(rr *relRow) (*xmldom.Node, error)
	build = func(rr *relRow) (*xmldom.Node, error) {
		var buildAt func(elem string, path []string, vals map[string]sqldb.Value) (*xmldom.Node, error)
		buildAt = func(elem string, path []string, vals map[string]sqldb.Value) (*xmldom.Node, error) {
			el := &xmldom.Node{Kind: xmldom.ElementNode, Name: elem}
			decl := in.dtd.Elements[elem]
			model := in.mapping.Graph.Models[elem]
			key := translate.ColumnKey(path, "")
			if model != nil && model.HasText {
				if v, ok := vals[key]; ok && !v.IsNull() && v.Text() != "" {
					el.Children = append(el.Children, &xmldom.Node{Kind: xmldom.TextNode, Value: v.Text(), Parent: el})
				}
			}
			if decl != nil {
				for _, a := range decl.Attrs {
					akey := translate.ColumnKey(path, a.Name)
					if v, ok := vals[akey]; ok && !v.IsNull() {
						el.Attrs = append(el.Attrs, &xmldom.Node{Kind: xmldom.AttributeNode, Name: a.Name, Value: v.Text(), Parent: el})
					}
				}
			}
			if model != nil {
				code := strings.Join(path, ".")
				for _, ch := range model.Children {
					if _, declared := in.dtd.Elements[ch.Name]; !declared {
						continue
					}
					if in.mapping.Shared[ch.Name] {
						for _, cr := range children[childKey{parent: rr.id, code: code}] {
							if cr.rel.Elem != ch.Name {
								continue
							}
							cn, err := build(cr)
							if err != nil {
								return nil, err
							}
							cn.Parent = el
							el.Children = append(el.Children, cn)
						}
						continue
					}
					childPath := append(append([]string{}, path...), ch.Name)
					ckey := translate.ColumnKey(childPath, "")
					v, ok := vals[ckey]
					if !ok || v.IsNull() {
						continue
					}
					cn, err := buildAt(ch.Name, childPath, vals)
					if err != nil {
						return nil, err
					}
					cn.Parent = el
					el.Children = append(el.Children, cn)
				}
			}
			return el, nil
		}
		return buildAt(rr.rel.Elem, nil, rr.vals)
	}
	rootEl, err := build(roots[0])
	if err != nil {
		return nil, err
	}
	rootEl.Parent = doc.Root
	doc.Root.Children = []*xmldom.Node{rootEl}
	doc.Number()
	return doc, nil
}

var _ Scheme = (*Inline)(nil)
var _ Scheme = (*Edge)(nil)
var _ Scheme = (*Binary)(nil)
var _ Scheme = (*Universal)(nil)
var _ Scheme = (*Interval)(nil)
var _ Scheme = (*Dewey)(nil)
