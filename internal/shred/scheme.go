// Package shred implements the paper's XML-to-relational mapping
// schemes. Each Scheme owns a relational layout inside a sqldb.Database:
// it creates the tables (Setup), decomposes a token stream into tuples
// under a stored parent (Insert: a document under the document node of
// an empty database, or a fragment as an element's ordered child where
// the encoding allows it), compiles XPath to SQL over its layout
// (Translate, via internal/translate) and rebuilds the document from
// tuples (Reconstruct).
//
// Node identity convention: a node's id is its pre-order rank in the
// originally loaded document (attributes ranked directly after their
// owner). Nodes added later receive fresh ids past the loaded range.
// The Inline scheme approximates identity by hosting-row id.
package shred

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/sqldb"
	"repro/internal/xmldom"
	"repro/internal/xpath"
)

// Scheme is one XML-to-relational mapping.
type Scheme interface {
	// Name is the scheme's short identifier ("edge", "interval", ...).
	Name() string
	// Setup creates the scheme's tables and indexes, and the state
	// relation of a scheme that keeps state (state.go).
	Setup(db *sqldb.Database) error
	// Insert shreds src as the position-th child (0-based, counted
	// among non-attribute children) of the element with id parentID.
	// Parent 0 is the document node: inserting under it in an empty
	// database loads a document. src yields a document or a fragment;
	// under an element, comments and PIs outside the fragment's element
	// are dropped. Every scheme but Universal shreds the tokens as they
	// come, in memory proportional to the document's depth plus one
	// insert batch; Universal builds a tree and refuses every parent but
	// the document node, and Inline takes under an element only a
	// fragment rooted at a shared element. A parent that is not a stored
	// element is refused. Cancellation is honored at bulk-insert batch
	// granularity, so a canceled or expired context bounds a long insert
	// at its next flush.
	Insert(ctx context.Context, db sqldb.Writer, parentID int64, position int, src xmldom.TokenSource) error
	// Translate compiles an XPath query to SQL with result columns
	// (id, val) in document order, against the scheme state db holds.
	// Translate and Reconstruct take the read-only Queryer surface so
	// they run against the live database, an open transaction or one
	// pinned snapshot version (reconstruct-while-updating) alike.
	Translate(db sqldb.Queryer, q *xpath.Path) (string, error)
	// Reconstruct rebuilds the stored document from tuples.
	Reconstruct(db sqldb.Queryer) (*xmldom.Document, error)
}

// Query parses an XPath string, translates it under the scheme, and
// executes it.
func Query(db *sqldb.Database, s Scheme, query string) (*sqldb.Rows, error) {
	p, err := xpath.Parse(query)
	if err != nil {
		return nil, err
	}
	sql, err := s.Translate(db, p)
	if err != nil {
		return nil, err
	}
	return db.Query(sql)
}

// batcher accumulates rows and bulk-inserts them in chunks. With a
// context attached each flush first checks it, so cancellation bounds
// a load at batch granularity.
type batcher struct {
	ctx   context.Context // nil: never canceled
	db    sqldb.Writer
	table string
	rows  [][]sqldb.Value
	limit int
}

func newBatcher(ctx context.Context, db sqldb.Writer, table string) *batcher {
	return &batcher{ctx: ctx, db: db, table: table, limit: 4096}
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

// tableBatchers batches rows into several tables, one batcher each,
// created on first use.
type tableBatchers struct {
	ctx context.Context // nil: never canceled
	db  sqldb.Writer
	m   map[string]*batcher
}

func newTableBatchers(ctx context.Context, db sqldb.Writer) *tableBatchers {
	return &tableBatchers{ctx: ctx, db: db, m: map[string]*batcher{}}
}

func (bs *tableBatchers) add(table string, row []sqldb.Value) error {
	b := bs.m[table]
	if b == nil {
		b = newBatcher(bs.ctx, bs.db, table)
		bs.m[table] = b
	}
	return b.add(row)
}

// flush flushes every table's batch, in table-name order.
func (bs *tableBatchers) flush() error {
	tables := make([]string, 0, len(bs.m))
	for t := range bs.m {
		tables = append(tables, t)
	}
	slices.Sort(tables)
	for _, t := range tables {
		if err := bs.m[t].flush(); err != nil {
			return err
		}
	}
	return nil
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

// storedNode is one node as a node-per-row mapping reads it back for
// reconstruction: the node-plus-parent shape.
type storedNode struct {
	id, parent  int64 // parent 0 is the document node
	order       int64 // sibling rank: ascending is document order
	kind        string
	name, value string
}

// appendStored reads rows of (id, parent, order, kind, name, value),
// skipping the document node's own row where a mapping stores one.
func appendStored(dst []storedNode, rows *sqldb.Rows) []storedNode {
	for _, r := range rows.Data {
		if kind := r[3].Text(); kind != "doc" {
			dst = append(dst, storedNode{id: r[0].Int(), parent: r[1].Int(), order: r[2].Int(),
				kind: kind, name: r[4].Text(), value: r[5].Text()})
		}
	}
	return dst
}

// assemble rebuilds the document from its stored nodes; it is the
// reconstruction of every mapping that stores one row per node (Edge,
// Binary, Interval, Dewey) or per root-to-leaf chain (Universal). An
// element's stored value is its denormalized content and is dropped.
func assemble(scheme string, stored []storedNode) (*xmldom.Document, error) {
	doc := &xmldom.Document{Root: &xmldom.Node{Kind: xmldom.DocumentNode}}
	nodes := make([]xmldom.Node, len(stored))
	byID := make(map[int64]*xmldom.Node, len(stored)+1)
	byID[0] = doc.Root
	for i, r := range stored {
		n := &nodes[i]
		switch r.kind {
		case "elem":
			*n = xmldom.Node{Kind: xmldom.ElementNode, Name: r.name}
		case "attr":
			*n = xmldom.Node{Kind: xmldom.AttributeNode, Name: r.name, Value: r.value}
		case "text":
			*n = xmldom.Node{Kind: xmldom.TextNode, Value: r.value}
		case "comment":
			*n = xmldom.Node{Kind: xmldom.CommentNode, Value: r.value}
		case "pi":
			*n = xmldom.Node{Kind: xmldom.ProcInstNode, Name: r.name, Value: r.value}
		default:
			return nil, errScheme(scheme, "unknown node kind %q", r.kind)
		}
		n.Ordinal = int(r.order) // the stored rank, until Number renumbers
		byID[r.id] = n
	}
	for i, r := range stored {
		p := byID[r.parent]
		if p == nil {
			return nil, errScheme(scheme, "dangling parent reference %d", r.parent)
		}
		if n := &nodes[i]; n.Kind == xmldom.AttributeNode {
			p.Attrs = append(p.Attrs, n)
		} else {
			p.Children = append(p.Children, n)
		}
	}
	byRank := func(a, b *xmldom.Node) int { return cmp.Compare(a.Ordinal, b.Ordinal) }
	slices.SortFunc(doc.Root.Children, byRank)
	for i := range nodes {
		slices.SortFunc(nodes[i].Attrs, byRank)
		slices.SortFunc(nodes[i].Children, byRank)
	}
	if doc.RootElement() == nil {
		return nil, errScheme(scheme, "no root element stored")
	}
	doc.Number()
	return doc, nil
}

// errNoElement refuses an insert under a parent that is not a stored
// element.
func errNoElement(scheme string, id int64) error {
	return errScheme(scheme, "no element with id %d", id)
}

// errScheme builds scheme-level errors.
func errScheme(scheme, format string, args ...any) error {
	return fmt.Errorf("shred/%s: %s", scheme, fmt.Sprintf(format, args...))
}
