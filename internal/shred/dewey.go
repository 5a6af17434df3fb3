package shred

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/sqldb"
	"repro/internal/translate"
	"repro/internal/xmldom"
	"repro/internal/xpath"
)

// deweyWidth is the zero-padded digits per path component; deweyGap is
// the spacing between sibling labels, leaving room for midpoint
// insertion without relabeling (Tatarinov et al.'s insert-friendly
// ordering). deweyLimit = 10^deweyWidth bounds a component: a wider one
// would sort out of document order, so a parent holds at most
// deweyLimit/deweyGap - 1 = 99 999 attributes and children.
const (
	deweyWidth = 8
	deweyGap   = 1000
	deweyLimit = 100_000_000
)

// Dewey is the Dewey-order mapping: each node's key is the dotted,
// zero-padded chain of sibling labels, so lexicographic key order is
// document order, ancestry is a prefix test, and ordered insertion only
// relabels the inserted subtree. Sibling order and position are read
// off the labels, so no ordinal column is stored or maintained.
//
//	dewey(pre, path, parent, level, kind, name, value)
//
// pre is the node id; its index serves the parent lookup and MAX(pre)
// of an insert. Directories written when the table still carried an
// ordinal column open and answer queries, but inserts into them fail on
// row width: reload the document.
type Dewey struct {
	valueIndex bool
}

// NewDewey returns a Dewey scheme; withValueIndex adds the (name, value)
// index for the F5 ablation.
func NewDewey(withValueIndex bool) *Dewey {
	return &Dewey{valueIndex: withValueIndex}
}

// Name implements Scheme.
func (d *Dewey) Name() string { return "dewey" }

// Setup implements Scheme.
func (d *Dewey) Setup(db *sqldb.Database) error {
	stmts := []string{
		`CREATE TABLE dewey (
			pre INTEGER NOT NULL,
			path TEXT NOT NULL,
			parent TEXT,
			level INTEGER NOT NULL,
			kind TEXT NOT NULL,
			name TEXT,
			value TEXT
		)`,
		`CREATE INDEX dewey_pre ON dewey (pre)`,
		`CREATE INDEX dewey_path ON dewey (path)`,
		`CREATE INDEX dewey_parent ON dewey (parent)`,
		`CREATE INDEX dewey_kind_name ON dewey (kind, name, path)`,
	}
	if d.valueIndex {
		stmts = append(stmts, `CREATE INDEX dewey_name_value ON dewey (name, value)`)
	}
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			return err
		}
	}
	return nil
}

func deweyComp(i int64) string {
	return fmt.Sprintf("%0*d", deweyWidth, i)
}

// errLabelOverflow is returned before anything is written when a label
// component would reach deweyLimit.
func errLabelOverflow(comp int64) error {
	return errScheme("dewey", "label component %d exceeds %d digits (relabel required)", comp, deweyWidth)
}

// checkFanout rejects a subtree holding an element with more attributes
// and children than deweyWidth-digit labels deweyGap apart can number.
func checkFanout(n *xmldom.Node) error {
	if last := int64(len(n.Attrs)+len(n.Children)) * deweyGap; last >= deweyLimit {
		return errLabelOverflow(last)
	}
	for _, c := range n.Children {
		if err := checkFanout(c); err != nil {
			return err
		}
	}
	return nil
}

// Load implements Scheme. It keeps a DOM walk: a label overflow is
// refused before anything is written, so every fanout must be known
// before the first row.
func (d *Dewey) Load(ctx context.Context, db *sqldb.Database, doc *xmldom.Document) error {
	if err := checkFanout(doc.Root); err != nil {
		return err
	}
	doc.Number()
	b := newBatcherCtx(ctx, db, "dewey")
	var walk func(n *xmldom.Node, prefix string, level int) error
	walk = func(n *xmldom.Node, prefix string, level int) error {
		ord := int64(1)
		emit := func(c *xmldom.Node) error {
			label := prefix + deweyComp(ord*deweyGap)
			parent := sqldb.Null
			if prefix != "" {
				parent = sqldb.NewText(strings.TrimSuffix(prefix, "."))
			}
			row := []sqldb.Value{
				sqldb.NewInt(int64(c.Pre)),
				sqldb.NewText(label),
				parent,
				sqldb.NewInt(int64(level)),
				sqldb.NewText(c.Kind.String()),
				nodeName(c),
				nodeValue(c),
			}
			if err := b.add(row); err != nil {
				return err
			}
			ord++
			if c.Kind == xmldom.ElementNode {
				return walk(c, label+".", level+1)
			}
			return nil
		}
		for _, a := range n.Attrs {
			if err := emit(a); err != nil {
				return err
			}
		}
		for _, c := range n.Children {
			if err := emit(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(doc.Root, "", 1); err != nil {
		return err
	}
	return b.flush()
}

// Translate implements Scheme.
func (d *Dewey) Translate(q *xpath.Path) (string, error) {
	return translate.Dewey(q, translate.DeweyOptions{Table: "dewey"})
}

// Reconstruct implements Scheme.
func (d *Dewey) Reconstruct(db sqldb.Queryer) (*xmldom.Document, error) {
	rows, err := db.Query(`SELECT path, kind, name, value FROM dewey ORDER BY path`)
	if err != nil {
		return nil, err
	}
	doc := &xmldom.Document{Root: &xmldom.Node{Kind: xmldom.DocumentNode}}
	byPath := map[string]*xmldom.Node{"": doc.Root}
	for _, r := range rows.Data {
		path := r[0].Text()
		kind := r[1].Text()
		parentPath := ""
		if i := strings.LastIndexByte(path, '.'); i >= 0 {
			parentPath = path[:i]
		}
		parent := byPath[parentPath]
		if parent == nil {
			return nil, errScheme("dewey", "dangling parent path %q", parentPath)
		}
		var n *xmldom.Node
		switch kind {
		case "elem":
			n = &xmldom.Node{Kind: xmldom.ElementNode, Name: r[2].Text()}
		case "attr":
			n = &xmldom.Node{Kind: xmldom.AttributeNode, Name: r[2].Text(), Value: r[3].Text()}
		case "text":
			n = &xmldom.Node{Kind: xmldom.TextNode, Value: r[3].Text()}
		case "comment":
			n = &xmldom.Node{Kind: xmldom.CommentNode, Value: r[3].Text()}
		case "pi":
			n = &xmldom.Node{Kind: xmldom.ProcInstNode, Name: r[2].Text(), Value: r[3].Text()}
		default:
			return nil, errScheme("dewey", "unknown node kind %q", kind)
		}
		n.Parent = parent
		if n.Kind == xmldom.AttributeNode {
			parent.Attrs = append(parent.Attrs, n)
		} else {
			parent.Children = append(parent.Children, n)
		}
		byPath[path] = n
	}
	if doc.RootElement() == nil {
		return nil, errScheme("dewey", "no root element stored")
	}
	doc.Number()
	return doc, nil
}

// InsertSubtree implements Scheme. A new sibling label is the midpoint
// of its neighbors (or one gap past the last child), so the insert
// writes only the subtree's new rows and updates nothing in place
// (Tatarinov's headline result, experiment F3). The parent lookup and
// MAX(pre) are each one probe of dewey_pre; the sibling read lists the
// parent's children through dewey_parent. A label that would overflow
// deweyWidth digits is refused before anything is written.
func (d *Dewey) InsertSubtree(db *sqldb.Database, parentID int64, position int, subtree *xmldom.Node) error {
	prow, err := db.Query(`SELECT path, level FROM dewey WHERE pre = ? AND kind = 'elem'`, sqldb.NewInt(parentID))
	if err != nil {
		return err
	}
	if prow.Len() == 0 {
		return errScheme("dewey", "no element with id %d", parentID)
	}
	parentPath := prow.Data[0][0].Text()
	parentLevel := prow.Data[0][1].Int()

	sibs, err := db.Query(`SELECT path, kind FROM dewey WHERE parent = ? ORDER BY path`, sqldb.NewText(parentPath))
	if err != nil {
		return err
	}
	// Locate the insertion point among non-attribute children.
	var lo, hi int64 // component bounds around the new label
	childIdx := 0
	placedHi := false
	for _, r := range sibs.Data {
		comp := lastComp(r[0].Text())
		if r[1].Text() != "attr" {
			if childIdx == position {
				hi = comp
				placedHi = true
				break
			}
			childIdx++
		}
		lo = comp
	}

	var newComp int64
	switch {
	case !placedHi:
		newComp = lo + deweyGap
		if newComp >= deweyLimit {
			return errLabelOverflow(newComp)
		}
	case hi-lo >= 2:
		newComp = lo + (hi-lo)/2
	default:
		return errScheme("dewey", "no label gap left at this position (relabel required); spread your insertion points")
	}
	if err := checkFanout(subtree); err != nil {
		return err
	}

	maxID, err := db.QueryScalar(`SELECT MAX(pre) FROM dewey`)
	if err != nil {
		return err
	}
	nextID := maxID.Int() + 1

	b := newBatcher(db, "dewey")
	var insert func(n *xmldom.Node, path, parent string, level int64) error
	insert = func(n *xmldom.Node, path, parent string, level int64) error {
		row := []sqldb.Value{
			sqldb.NewInt(nextID),
			sqldb.NewText(path),
			sqldb.NewText(parent),
			sqldb.NewInt(level),
			sqldb.NewText(n.Kind.String()),
			nodeName(n),
			nodeValue(n),
		}
		nextID++
		if err := b.add(row); err != nil {
			return err
		}
		ord := int64(1)
		for _, a := range n.Attrs {
			if err := insert(a, path+"."+deweyComp(ord*deweyGap), path, level+1); err != nil {
				return err
			}
			ord++
		}
		for _, c := range n.Children {
			if err := insert(c, path+"."+deweyComp(ord*deweyGap), path, level+1); err != nil {
				return err
			}
			ord++
		}
		return nil
	}
	if err := insert(subtree, parentPath+"."+deweyComp(newComp), parentPath, parentLevel+1); err != nil {
		return err
	}
	return b.flush()
}

// lastComp parses the final numeric component of a Dewey path.
func lastComp(path string) int64 {
	if i := strings.LastIndexByte(path, '.'); i >= 0 {
		path = path[i+1:]
	}
	var n int64
	for i := 0; i < len(path); i++ {
		n = n*10 + int64(path[i]-'0')
	}
	return n
}
