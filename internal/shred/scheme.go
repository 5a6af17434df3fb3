// Package shred implements the paper's XML-to-relational mapping
// schemes. Each Scheme owns a relational layout inside a sqldb.Database:
// it creates the tables (Setup), decomposes a parsed document into
// tuples (Load), compiles XPath to SQL over its layout (Translate, via
// internal/translate), rebuilds the document from tuples (Reconstruct),
// and supports ordered subtree insertion where the encoding allows it
// (InsertSubtree).
//
// Node identity convention: a node's id is its pre-order rank in the
// originally loaded document (attributes ranked directly after their
// owner). Nodes added later receive fresh ids past the loaded range.
// The Inline scheme approximates identity by hosting-row id.
package shred

import (
	"context"
	"fmt"

	"repro/internal/sqldb"
	"repro/internal/xmldom"
	"repro/internal/xpath"
)

// Scheme is one XML-to-relational mapping.
type Scheme interface {
	// Name is the scheme's short identifier ("edge", "interval", ...).
	Name() string
	// Setup creates the scheme's tables and indexes.
	Setup(db *sqldb.Database) error
	// Load shreds one document. Schemes in this reproduction store a
	// single document per database. Cancellation is honored at
	// bulk-insert batch granularity, so a canceled or expired context
	// bounds a long load at its next flush.
	Load(ctx context.Context, db *sqldb.Database, doc *xmldom.Document) error
	// Translate compiles an XPath query to SQL with result columns
	// (id, val) in document order.
	Translate(q *xpath.Path) (string, error)
	// Reconstruct rebuilds the stored document from tuples. It takes
	// the read-only Queryer surface so it can run either against the
	// live database or against one pinned snapshot version
	// (reconstruct-while-updating).
	Reconstruct(db sqldb.Queryer) (*xmldom.Document, error)
	// InsertSubtree inserts subtree as the position-th element child
	// (0-based, counted among non-attribute children) of the element
	// with the given node id. Schemes that cannot express ordered
	// updates return an error.
	InsertSubtree(db *sqldb.Database, parentID int64, position int, subtree *xmldom.Node) error
}

// Query parses an XPath string, translates it under the scheme, and
// executes it.
func Query(db *sqldb.Database, s Scheme, query string) (*sqldb.Rows, error) {
	p, err := xpath.Parse(query)
	if err != nil {
		return nil, err
	}
	sql, err := s.Translate(p)
	if err != nil {
		return nil, err
	}
	return db.Query(sql)
}

// QueryIDs runs Query and returns just the id column.
func QueryIDs(db *sqldb.Database, s Scheme, query string) ([]int64, error) {
	rows, err := Query(db, s, query)
	if err != nil {
		return nil, err
	}
	out := make([]int64, 0, rows.Len())
	for _, r := range rows.Data {
		out = append(out, r[0].Int())
	}
	return out, nil
}

// batcher accumulates rows and bulk-inserts them in chunks. With a
// context attached (newBatcherCtx) each flush first checks it, so
// cancellation bounds a load at batch granularity.
type batcher struct {
	ctx   context.Context // nil: never canceled
	db    *sqldb.Database
	table string
	rows  [][]sqldb.Value
	limit int
}

func newBatcher(db *sqldb.Database, table string) *batcher {
	return &batcher{db: db, table: table, limit: 4096}
}

func newBatcherCtx(ctx context.Context, db *sqldb.Database, table string) *batcher {
	b := newBatcher(db, table)
	b.ctx = ctx
	return b
}

func (b *batcher) add(row []sqldb.Value) error {
	b.rows = append(b.rows, row)
	if len(b.rows) >= b.limit {
		return b.flush()
	}
	return nil
}

func (b *batcher) flush() error {
	if b.ctx != nil {
		if err := b.ctx.Err(); err != nil {
			return err
		}
	}
	if len(b.rows) == 0 {
		return nil
	}
	_, err := b.db.BulkInsert(b.table, b.rows)
	b.rows = b.rows[:0]
	return err
}

// simpleContent returns an element's denormalized value: the
// concatenation of its text children when it has no element children
// and at least one text child, else ok=false. Every scheme stores this
// on the element row so single-join value predicates work (the Vinline
// variant of Florescu & Kossmann).
func simpleContent(n *xmldom.Node) (string, bool) {
	if n.Kind != xmldom.ElementNode || len(n.Children) == 0 {
		return "", false
	}
	out := ""
	for _, c := range n.Children {
		switch c.Kind {
		case xmldom.TextNode:
			out += c.Value
		case xmldom.ElementNode:
			return "", false
		}
	}
	if out == "" {
		return "", false
	}
	return out, true
}

// nodeValue returns the value column for any node kind.
func nodeValue(n *xmldom.Node) sqldb.Value {
	switch n.Kind {
	case xmldom.AttributeNode, xmldom.TextNode, xmldom.CommentNode, xmldom.ProcInstNode:
		return sqldb.NewText(n.Value)
	case xmldom.ElementNode:
		if s, ok := simpleContent(n); ok {
			return sqldb.NewText(s)
		}
	}
	return sqldb.Null
}

// nodeName returns the name column (NULL for unnamed kinds).
func nodeName(n *xmldom.Node) sqldb.Value {
	switch n.Kind {
	case xmldom.ElementNode, xmldom.AttributeNode, xmldom.ProcInstNode:
		return sqldb.NewText(n.Name)
	}
	return sqldb.Null
}

// errScheme builds scheme-level errors.
func errScheme(scheme, format string, args ...any) error {
	return fmt.Errorf("shred/%s: %s", scheme, fmt.Sprintf(format, args...))
}
