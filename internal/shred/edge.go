package shred

import (
	"context"
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
	// valueIndex requests an additional (name, value) index at Setup,
	// the F5 ablation toggle.
	valueIndex bool
	// useCatalog switches the descendant translation from blind chains
	// bounded by the stored depth to the stored label paths (ablation
	// A1).
	useCatalog bool
}

// NewEdge returns an Edge scheme. withValueIndex adds the (name, value)
// index used by the F5 ablation.
func NewEdge(withValueIndex bool) *Edge {
	return &Edge{valueIndex: withValueIndex}
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
		`CREATE INDEX edge_source ON edge (source, kind, name, ordinal)`,
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
	return createState(db, "edge")
}

// Translate implements Scheme: descendant steps expand to chains no
// deeper than the stored depth bound, or along the stored label paths
// under UseCatalog.
func (e *Edge) Translate(db sqldb.Queryer, q *xpath.Path) (string, error) {
	st, err := readState(db, "edge")
	if err != nil {
		return "", err
	}
	opt := translate.EdgeOptions{MaxDepth: st.depth}
	if e.useCatalog {
		opt.Catalog = st.catalog
	}
	return translate.Edge(q, opt)
}

// Reconstruct implements Scheme.
func (e *Edge) Reconstruct(db sqldb.Queryer) (*xmldom.Document, error) {
	rows, err := db.Query(`SELECT target, source, ordinal, kind, name, value FROM edge`)
	if err != nil {
		return nil, err
	}
	return assemble("edge", appendStored(nil, rows))
}

// Insert implements Scheme: following siblings' ordinals shift by one
// (a local update), then the walk appends the edges with fresh node ids
// and saves the label paths and the depth bound it adds — a subtree
// reaching below the deepest stored node raises the bound descendant
// steps expand to.
func (e *Edge) Insert(ctx context.Context, db sqldb.Writer, parentID int64, position int, src xmldom.TokenSource) error {
	st, err := readState(db, "edge")
	if err != nil {
		return err
	}
	// The parent's label path keeps the path catalog complete, so
	// catalog-driven descendant expansion (ablation A1) stays exact
	// after updates.
	parentPath, err := e.storedLabelPath(db, parentID)
	if err != nil {
		return err
	}
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
	s := &edgeSink{b: newBatcher(ctx, db, "edge")}
	at := walkAt{parent: parentID, level: pathLevel(parentPath), path: parentPath, next: maxID.Int() + 1, ordinal: ordinal}
	_, maxLevel, err := streamWalk(src, s, st.catalog, at)
	if err != nil {
		return err
	}
	if err := s.b.flush(); err != nil {
		return err
	}
	if err := st.raiseDepth(db, maxLevel); err != nil {
		return err
	}
	return st.save(db)
}

// storedLabelPath walks parent links in the edge table to recover the
// label path of a stored element ("" for the document node, id 0).
func (e *Edge) storedLabelPath(db sqldb.Queryer, id int64) (string, error) {
	var segs []string
	cur := id
	for cur != 0 {
		rows, err := db.Query(`SELECT source, name FROM edge WHERE target = ? AND kind = 'elem'`, sqldb.NewInt(cur))
		if err != nil {
			return "", err
		}
		if rows.Len() == 0 {
			return "", errNoElement("edge", id)
		}
		segs = append([]string{rows.Data[0][1].Text()}, segs...)
		cur = rows.Data[0][0].Int()
	}
	return strings.Join(segs, "/"), nil
}
