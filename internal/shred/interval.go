package shred

import (
	"context"
	"sort"

	"repro/internal/sqldb"
	"repro/internal/translate"
	"repro/internal/xmldom"
	"repro/internal/xpath"
)

// Interval is the XPath-accelerator mapping (Grust): every node carries
// its pre-order rank, subtree size, level, parent and sibling ordinal,
// so each XPath axis is a region predicate and descendant steps are
// single range joins.
//
//	accel(pre, parent, size, level, ordinal, kind, name, value)
//
// The post rank is derivable from (pre, size, level) and is not stored.
// Three indexes serve the translated steps: (pre) region scans,
// (parent, ordinal) child steps and positions, and (kind, name, pre)
// name tests. A name test always comes with its kind, and XMark reuses
// element names as attribute names (@person, @item, @open_auction,
// @category), so keying names by kind keeps a name step from fetching
// its attribute namesakes; wildcard and text() steps use the kind
// prefix alone.
type Interval struct {
	valueIndex     bool
	childViaRegion bool
}

// NewInterval returns an Interval scheme; withValueIndex adds the
// (name, value) index for the F5 ablation.
func NewInterval(withValueIndex bool) *Interval {
	return &Interval{valueIndex: withValueIndex}
}

// ChildViaRegion toggles ablation A2: child steps as region predicates
// (pre-range + level) instead of parent-id probes.
func (iv *Interval) ChildViaRegion(on bool) { iv.childViaRegion = on }

// Name implements Scheme.
func (iv *Interval) Name() string { return "interval" }

// Setup implements Scheme.
func (iv *Interval) Setup(db *sqldb.Database) error {
	stmts := []string{
		// pre is logically unique but not declared PRIMARY KEY: the
		// renumbering sweep in InsertSubtree shifts many rows in one
		// UPDATE, which would transiently collide under a unique index.
		`CREATE TABLE accel (
			pre INTEGER NOT NULL,
			parent INTEGER,
			size INTEGER NOT NULL,
			level INTEGER NOT NULL,
			ordinal INTEGER NOT NULL,
			kind TEXT NOT NULL,
			name TEXT,
			value TEXT
		)`,
		`CREATE INDEX accel_pre ON accel (pre)`,
		`CREATE INDEX accel_parent ON accel (parent, ordinal)`,
		`CREATE INDEX accel_kind_name ON accel (kind, name, pre)`,
	}
	if iv.valueIndex {
		stmts = append(stmts, `CREATE INDEX accel_name_value ON accel (name, value)`)
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
func (iv *Interval) Load(ctx context.Context, db *sqldb.Database, doc *xmldom.Document) error {
	return iv.LoadStream(ctx, db, doc.Tokens())
}

// Translate implements Scheme.
func (iv *Interval) Translate(q *xpath.Path) (string, error) {
	return translate.Interval(q, translate.IntervalOptions{Table: "accel", ChildViaRegion: iv.childViaRegion})
}

// Reconstruct implements Scheme.
func (iv *Interval) Reconstruct(db sqldb.Queryer) (*xmldom.Document, error) {
	rows, err := db.Query(`SELECT pre, parent, kind, name, value, ordinal FROM accel ORDER BY pre`)
	if err != nil {
		return nil, err
	}
	doc := &xmldom.Document{Root: &xmldom.Node{Kind: xmldom.DocumentNode}}
	nodes := map[int64]*xmldom.Node{}
	type pending struct {
		node    *xmldom.Node
		parent  int64
		ordinal int64
		pre     int64
	}
	var pend []pending
	for _, r := range rows.Data {
		pre := r[0].Int()
		kind := r[2].Text()
		var n *xmldom.Node
		switch kind {
		case "doc":
			n = doc.Root
		case "elem":
			n = &xmldom.Node{Kind: xmldom.ElementNode, Name: r[3].Text()}
		case "attr":
			n = &xmldom.Node{Kind: xmldom.AttributeNode, Name: r[3].Text(), Value: r[4].Text()}
		case "text":
			n = &xmldom.Node{Kind: xmldom.TextNode, Value: r[4].Text()}
		case "comment":
			n = &xmldom.Node{Kind: xmldom.CommentNode, Value: r[4].Text()}
		case "pi":
			n = &xmldom.Node{Kind: xmldom.ProcInstNode, Name: r[3].Text(), Value: r[4].Text()}
		default:
			return nil, errScheme("interval", "unknown node kind %q", kind)
		}
		nodes[pre] = n
		if kind != "doc" {
			pend = append(pend, pending{node: n, parent: r[1].Int(), ordinal: r[5].Int(), pre: pre})
		}
	}
	sort.Slice(pend, func(i, j int) bool {
		if pend[i].parent != pend[j].parent {
			return pend[i].parent < pend[j].parent
		}
		if pend[i].ordinal != pend[j].ordinal {
			return pend[i].ordinal < pend[j].ordinal
		}
		return pend[i].pre < pend[j].pre
	})
	for _, p := range pend {
		parent := nodes[p.parent]
		if parent == nil {
			return nil, errScheme("interval", "dangling parent reference %d", p.parent)
		}
		p.node.Parent = parent
		if p.node.Kind == xmldom.AttributeNode {
			parent.Attrs = append(parent.Attrs, p.node)
		} else {
			parent.Children = append(parent.Children, p.node)
		}
	}
	if doc.RootElement() == nil {
		return nil, errScheme("interval", "no root element stored")
	}
	doc.Number()
	return doc, nil
}

// InsertSubtree implements Scheme. The interval encoding pays the
// paper's documented price here: every node at or after the insertion
// point must be renumbered (two document-wide UPDATE sweeps), in
// contrast to Dewey's local relabeling — the F3 contrast.
func (iv *Interval) InsertSubtree(db *sqldb.Database, parentID int64, position int, subtree *xmldom.Node) error {
	prow, err := db.Query(`SELECT level, size FROM accel WHERE pre = ?`, sqldb.NewInt(parentID))
	if err != nil {
		return err
	}
	if prow.Len() == 0 {
		return errScheme("interval", "no node with id %d", parentID)
	}
	pLevel := prow.Data[0][0].Int()
	pSize := prow.Data[0][1].Int()

	// Children (non-attribute) of the parent in order.
	kids, err := db.Query(
		`SELECT pre, ordinal FROM accel WHERE parent = ? AND kind <> 'attr' ORDER BY ordinal`,
		sqldb.NewInt(parentID))
	if err != nil {
		return err
	}
	nAttrs, err := db.QueryScalar(`SELECT COUNT(*) FROM accel WHERE parent = ? AND kind = 'attr'`, sqldb.NewInt(parentID))
	if err != nil {
		return err
	}

	// Insertion boundary: the pre of the child currently at `position`,
	// or the end of the parent's region for an append.
	var boundary int64
	if position < kids.Len() {
		boundary = kids.Data[position][0].Int()
	} else {
		position = kids.Len()
		boundary = parentID + pSize + 1
	}
	newOrdinal := nAttrs.Int() + int64(position) + 1

	// Count the subtree.
	k := int64(0)
	var count func(n *xmldom.Node)
	count = func(n *xmldom.Node) {
		k++
		k += int64(len(n.Attrs))
		for _, c := range n.Children {
			count(c)
		}
	}
	count(subtree)

	// Ancestors (including the parent) gain k descendants. Collect the
	// ancestor chain before shifting.
	var ancestors []sqldb.Value
	cur := parentID
	for {
		ancestors = append(ancestors, sqldb.NewInt(cur))
		r, err := db.Query(`SELECT parent FROM accel WHERE pre = ?`, sqldb.NewInt(cur))
		if err != nil {
			return err
		}
		if r.Len() == 0 || r.Data[0][0].IsNull() {
			break
		}
		cur = r.Data[0][0].Int()
	}
	for _, a := range ancestors {
		if _, err := db.Exec(`UPDATE accel SET size = size + ? WHERE pre = ?`, sqldb.NewInt(k), a); err != nil {
			return err
		}
	}

	// Document-wide renumbering.
	if _, err := db.Exec(`UPDATE accel SET pre = pre + ? WHERE pre >= ?`, sqldb.NewInt(k), sqldb.NewInt(boundary)); err != nil {
		return err
	}
	if _, err := db.Exec(`UPDATE accel SET parent = parent + ? WHERE parent >= ?`, sqldb.NewInt(k), sqldb.NewInt(boundary)); err != nil {
		return err
	}
	// Following siblings shift ordinal.
	if _, err := db.Exec(`UPDATE accel SET ordinal = ordinal + 1 WHERE parent = ? AND ordinal >= ?`,
		sqldb.NewInt(parentID), sqldb.NewInt(newOrdinal)); err != nil {
		return err
	}

	// Insert the subtree rows with contiguous pre numbers at boundary.
	s := &intervalSink{b: newBatcher(db, "accel")}
	at := walkAt{parent: parentID, level: int(pLevel), next: boundary, ordinal: newOrdinal}
	if _, _, err := streamWalk(subtreeTokens(subtree), s, nil, at); err != nil {
		return err
	}
	return s.b.flush()
}
