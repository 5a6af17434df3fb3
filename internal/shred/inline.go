package shred

import (
	"context"
	"fmt"
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

// Load implements Scheme. The document must conform to the DTD.
func (in *Inline) Load(ctx context.Context, db sqldb.Writer, doc *xmldom.Document) error {
	doc.Number()
	root := doc.RootElement()
	if root == nil {
		return errScheme("inline", "document has no root element")
	}
	if root.Name != in.dtd.Root {
		return errScheme("inline", "root element <%s> does not match DTD root <%s>", root.Name, in.dtd.Root)
	}

	bs := newTableBatchers(ctx, db)
	// sibCount tracks per-(host row, element) occurrence ordinals.
	var walk func(el *xmldom.Node, host *openRow, innerPath []string, sibCount map[string]int64) error
	walk = func(el *xmldom.Node, host *openRow, innerPath []string, sibCount map[string]int64) error {
		decl := in.dtd.Elements[el.Name]
		if decl == nil {
			return errScheme("inline", "element <%s> is not declared in the DTD", el.Name)
		}
		model := in.mapping.Graph.Models[el.Name]

		if in.mapping.Shared[el.Name] {
			rel := in.mapping.Relations[el.Name]
			parent := sqldb.Null
			code := sqldb.Null
			if host != nil {
				parent = sqldb.NewInt(host.id)
				code = sqldb.NewText(strings.Join(innerPath, "."))
			}
			countKey := code.Text() + "|" + el.Name
			sibCount[countKey]++
			row := &openRow{
				rel:    rel,
				id:     int64(el.Pre),
				parent: parent,
				code:   code,
				ord:    sibCount[countKey],
				vals:   map[string]sqldb.Value{},
			}
			if err := in.fillNode(row, el, nil, model); err != nil {
				return err
			}
			childCounts := map[string]int64{}
			for _, c := range el.Children {
				if c.Kind != xmldom.ElementNode {
					continue
				}
				if err := walk(c, row, nil, childCounts); err != nil {
					return err
				}
			}
			return bs.add(row.rel.Table, row.values())
		}

		// Inlined element: fill columns on the host row.
		if host == nil {
			return errScheme("inline", "internal: inlined element <%s> without a host", el.Name)
		}
		path := append(append([]string{}, innerPath...), el.Name)
		key := translate.ColumnKey(path, "")
		if _, ok := host.rel.ByKey[key]; !ok {
			return errScheme("inline", "element <%s> at %s is not part of relation %s (non-conforming document)", el.Name, key, host.rel.Table)
		}
		if _, dup := host.vals[key]; dup {
			return errScheme("inline", "element <%s> occurs more than once at %s (non-conforming document: DTD says at most one)", el.Name, key)
		}
		if err := in.fillNode(host, el, path, model); err != nil {
			return err
		}
		for _, c := range el.Children {
			if c.Kind != xmldom.ElementNode {
				continue
			}
			if err := walk(c, host, path, sibCount); err != nil {
				return err
			}
		}
		return nil
	}

	rootCounts := map[string]int64{}
	if err := walk(root, nil, nil, rootCounts); err != nil {
		return err
	}
	return bs.flush()
}

// fillNode stores an element's own value and attributes into row.
func (in *Inline) fillNode(row *openRow, el *xmldom.Node, path []string, model *dtd.SimpleModel) error {
	key := translate.ColumnKey(path, "")
	if model != nil && model.HasText {
		text := directText(el)
		row.vals[key] = sqldb.NewText(text)
	} else if len(path) > 0 {
		row.vals[key] = sqldb.NewBool(true)
	}
	for _, a := range el.Attrs {
		akey := translate.ColumnKey(path, a.Name)
		if _, ok := row.rel.ByKey[akey]; !ok {
			return errScheme("inline", "attribute %s on <%s> is not declared in the DTD", a.Name, el.Name)
		}
		row.vals[akey] = sqldb.NewText(a.Value)
	}
	return nil
}

// directText concatenates the element's immediate text children (mixed
// content order is not preserved — a documented inlining loss).
func directText(el *xmldom.Node) string {
	var b strings.Builder
	for _, c := range el.Children {
		if c.Kind == xmldom.TextNode {
			b.WriteString(c.Value)
		}
	}
	return b.String()
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

// InsertSubtree implements Scheme for subtrees rooted at a shared
// element (a new relation row); inserting inlined fragments in order is
// not expressible.
func (in *Inline) InsertSubtree(db sqldb.Writer, parentID int64, position int, subtree *xmldom.Node) error {
	if subtree.Kind != xmldom.ElementNode || !in.mapping.Shared[subtree.Name] {
		return errScheme("inline", "only subtrees rooted at a shared element can be inserted")
	}
	maxID := int64(0)
	for _, elem := range in.mapping.Order {
		rel := in.mapping.Relations[elem]
		v, err := db.QueryScalar("SELECT MAX(id) FROM " + rel.Table)
		if err != nil {
			return err
		}
		if !v.IsNull() && v.Int() > maxID {
			maxID = v.Int()
		}
	}
	nextID := maxID + 1

	rel := in.mapping.Relations[subtree.Name]
	// Ordinal: among same-name children of the parent row.
	if _, err := db.Exec("UPDATE "+rel.Table+" SET ordinal = ordinal + 1 WHERE parentid = ? AND parentcode = '' AND ordinal > ?",
		sqldb.NewInt(parentID), sqldb.NewInt(int64(position))); err != nil {
		return err
	}

	bs := newTableBatchers(nil, db)
	var store func(el *xmldom.Node, parent sqldb.Value, code string, ord int64) error
	store = func(el *xmldom.Node, parent sqldb.Value, code string, ord int64) error {
		r := in.mapping.Relations[el.Name]
		row := &openRow{rel: r, id: nextID, parent: parent, code: sqldb.NewText(code), ord: ord, vals: map[string]sqldb.Value{}}
		nextID++
		model := in.mapping.Graph.Models[el.Name]
		if err := in.fillNode(row, el, nil, model); err != nil {
			return err
		}
		var fill func(e *xmldom.Node, path []string) error
		childCounts := map[string]int64{}
		fill = func(e *xmldom.Node, path []string) error {
			for _, c := range e.Children {
				if c.Kind != xmldom.ElementNode {
					continue
				}
				if in.mapping.Shared[c.Name] {
					ck := strings.Join(path, ".") + "|" + c.Name
					childCounts[ck]++
					if err := store(c, sqldb.NewInt(row.id), strings.Join(path, "."), childCounts[ck]); err != nil {
						return err
					}
					continue
				}
				cpath := append(append([]string{}, path...), c.Name)
				cmodel := in.mapping.Graph.Models[c.Name]
				if err := in.fillNode(row, c, cpath, cmodel); err != nil {
					return err
				}
				if err := fill(c, cpath); err != nil {
					return err
				}
			}
			return nil
		}
		if err := fill(el, nil); err != nil {
			return err
		}
		return bs.add(r.Table, row.values())
	}
	if err := store(subtree, sqldb.NewInt(parentID), "", int64(position)+1); err != nil {
		return err
	}
	return bs.flush()
}

var _ Scheme = (*Inline)(nil)
var _ Scheme = (*Edge)(nil)
var _ Scheme = (*Binary)(nil)
var _ Scheme = (*Universal)(nil)
var _ Scheme = (*Interval)(nil)
var _ Scheme = (*Dewey)(nil)

// LoadDocument is a convenience: set up a fresh database and load doc
// under scheme s.
func LoadDocument(s Scheme, doc *xmldom.Document) (*sqldb.Database, error) {
	db := sqldb.New()
	if err := s.Setup(db); err != nil {
		return nil, err
	}
	if err := s.Load(context.Background(), db, doc); err != nil {
		return nil, err
	}
	return db, nil
}
