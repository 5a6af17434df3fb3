package shred

import (
	"context"
	"sort"
	"strings"

	"repro/internal/sqldb"
	"repro/internal/translate"
	"repro/internal/xmldom"
	"repro/internal/xpath"
)

// Edge is the Florescu-Kossmann edge mapping: one relation holding
// every parent-child edge of the document graph.
//
//	edge(source, ordinal, name, kind, target, value)
//
// Child steps are self-joins; descendant steps expand into bounded
// unions of join chains (the scheme has no structural index), which is
// the cost experiment F2 measures against the interval encoding.
type Edge struct {
	// maxDepth is remembered from the loaded document and bounds the
	// descendant expansion.
	maxDepth int
	// valueIndex requests an additional (name, value) index at Setup,
	// the F5 ablation toggle.
	valueIndex bool
	// catalog records observed label paths; UseCatalog switches the
	// descendant translation to catalog-driven expansion (ablation A1).
	catalog    *translate.PathCatalog
	useCatalog bool
}

// NewEdge returns an Edge scheme. withValueIndex adds the (name, value)
// index used by the F5 ablation.
func NewEdge(withValueIndex bool) *Edge {
	return &Edge{maxDepth: 16, valueIndex: withValueIndex, catalog: translate.NewPathCatalog()}
}

// UseCatalog toggles catalog-driven descendant expansion (ablation A1):
// `//x` unions only the label chains observed in the data instead of
// blind wildcard chains of every depth.
func (e *Edge) UseCatalog(on bool) { e.useCatalog = on }

// Name implements Scheme.
func (e *Edge) Name() string { return "edge" }

// Setup implements Scheme.
func (e *Edge) Setup(db *sqldb.Database) error {
	stmts := []string{
		`CREATE TABLE edge (
			source INTEGER NOT NULL,
			ordinal INTEGER NOT NULL,
			name TEXT,
			kind TEXT NOT NULL,
			target INTEGER NOT NULL PRIMARY KEY,
			value TEXT
		)`,
		`CREATE INDEX edge_source ON edge (source, ordinal)`,
		`CREATE INDEX edge_kind_name ON edge (kind, name)`,
	}
	if e.valueIndex {
		stmts = append(stmts, `CREATE INDEX edge_name_value ON edge (name, value)`)
	}
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			return err
		}
	}
	return nil
}

// Load implements Scheme: the document's replay goes through the same
// walk as a token stream.
func (e *Edge) Load(ctx context.Context, db *sqldb.Database, doc *xmldom.Document) error {
	return e.LoadStream(ctx, db, doc.Tokens())
}

// Translate implements Scheme.
func (e *Edge) Translate(q *xpath.Path) (string, error) {
	opt := translate.EdgeOptions{Table: "edge", MaxDepth: e.maxDepth}
	if e.useCatalog {
		opt.Catalog = e.catalog
	}
	return translate.Edge(q, opt)
}

// Reconstruct implements Scheme.
func (e *Edge) Reconstruct(db sqldb.Queryer) (*xmldom.Document, error) {
	rows, err := db.Query(`SELECT source, ordinal, name, kind, target, value FROM edge`)
	if err != nil {
		return nil, err
	}
	type edgeRow struct {
		source, ordinal, target int64
		name, kind, value       string
		hasValue                bool
	}
	bySource := map[int64][]edgeRow{}
	for _, r := range rows.Data {
		er := edgeRow{
			source:   r[0].Int(),
			ordinal:  r[1].Int(),
			name:     r[2].Text(),
			kind:     r[3].Text(),
			target:   r[4].Int(),
			value:    r[5].Text(),
			hasValue: !r[5].IsNull(),
		}
		bySource[er.source] = append(bySource[er.source], er)
	}
	for k := range bySource {
		rs := bySource[k]
		sort.Slice(rs, func(i, j int) bool { return rs[i].ordinal < rs[j].ordinal })
	}
	doc := &xmldom.Document{Root: &xmldom.Node{Kind: xmldom.DocumentNode}}
	var build func(parent *xmldom.Node, id int64) error
	build = func(parent *xmldom.Node, id int64) error {
		for _, er := range bySource[id] {
			switch er.kind {
			case "attr":
				a := &xmldom.Node{Kind: xmldom.AttributeNode, Name: er.name, Value: er.value, Parent: parent}
				parent.Attrs = append(parent.Attrs, a)
			case "elem":
				el := &xmldom.Node{Kind: xmldom.ElementNode, Name: er.name, Parent: parent}
				parent.Children = append(parent.Children, el)
				if err := build(el, er.target); err != nil {
					return err
				}
			case "text":
				t := &xmldom.Node{Kind: xmldom.TextNode, Value: er.value, Parent: parent}
				parent.Children = append(parent.Children, t)
			case "comment":
				c := &xmldom.Node{Kind: xmldom.CommentNode, Value: er.value, Parent: parent}
				parent.Children = append(parent.Children, c)
			case "pi":
				p := &xmldom.Node{Kind: xmldom.ProcInstNode, Name: er.name, Value: er.value, Parent: parent}
				parent.Children = append(parent.Children, p)
			default:
				return errScheme("edge", "unknown edge kind %q", er.kind)
			}
		}
		return nil
	}
	if err := build(doc.Root, 0); err != nil {
		return nil, err
	}
	if doc.RootElement() == nil {
		return nil, errScheme("edge", "no root element stored")
	}
	doc.Number()
	return doc, nil
}

// InsertSubtree implements Scheme: following siblings' ordinals shift by
// one (a local update), then the subtree's edges are appended with fresh
// node ids.
func (e *Edge) InsertSubtree(db *sqldb.Database, parentID int64, position int, subtree *xmldom.Node) error {
	nAttrs, err := db.QueryScalar(`SELECT COUNT(*) FROM edge WHERE source = ? AND kind = 'attr'`, sqldb.NewInt(parentID))
	if err != nil {
		return err
	}
	ordinal := nAttrs.Int() + int64(position) + 1
	if _, err := db.Exec(`UPDATE edge SET ordinal = ordinal + 1 WHERE source = ? AND ordinal >= ?`,
		sqldb.NewInt(parentID), sqldb.NewInt(ordinal)); err != nil {
		return err
	}
	maxID, err := db.QueryScalar(`SELECT MAX(target) FROM edge`)
	if err != nil {
		return err
	}

	// Keep the path catalog complete so catalog-driven descendant
	// expansion (ablation A1) stays exact after updates.
	parentPath, err := e.storedLabelPath(db, parentID)
	if err != nil {
		return err
	}

	s := &edgeSink{b: newBatcher(db, "edge")}
	at := walkAt{parent: parentID, path: parentPath, next: maxID.Int() + 1, ordinal: ordinal}
	if _, _, err := streamWalk(subtreeTokens(subtree), s, e.catalog, at); err != nil {
		return err
	}
	return s.b.flush()
}

// storedLabelPath walks parent links in the edge table to recover the
// label path of a stored element.
func (e *Edge) storedLabelPath(db *sqldb.Database, id int64) (string, error) {
	var segs []string
	cur := id
	for cur != 0 {
		rows, err := db.Query(`SELECT source, name FROM edge WHERE target = ?`, sqldb.NewInt(cur))
		if err != nil {
			return "", err
		}
		if rows.Len() == 0 {
			return "", errScheme("edge", "no node with id %d", cur)
		}
		segs = append([]string{rows.Data[0][1].Text()}, segs...)
		cur = rows.Data[0][0].Int()
	}
	return strings.Join(segs, "/"), nil
}
