package shred

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/sqldb"
	"repro/internal/translate"
	"repro/internal/xmldom"
	"repro/internal/xpath"
)

// Universal is the denormalized strawman mapping: one wide relation with
// an (id, val) column pair per label and one row per leaf node carrying
// its whole root-to-leaf chain. Simple paths become single-table column
// conjunctions; the redundancy cost dominates experiment T1 and ordered
// updates are not expressible (every ancestor is copied into every leaf
// row).
//
// Restrictions (inherent to the mapping, documented in DESIGN.md):
// recursive documents (a label repeating on one root-to-leaf path) are
// rejected, and positional predicates are untranslatable.
type Universal struct {
	// suffix maps a label segment ("person", "@id", "#text") to its
	// sanitized column suffix; labels maps back.
	suffix  map[string]string
	labels  map[string]string
	order   []string
	catalog *translate.PathCatalog
}

// NewUniversal returns a Universal scheme.
func NewUniversal() *Universal {
	return &Universal{
		suffix:  map[string]string{},
		labels:  map[string]string{},
		catalog: translate.NewPathCatalog(),
	}
}

// Name implements Scheme.
func (u *Universal) Name() string { return "universal" }

// Setup implements Scheme. The universal table's columns depend on the
// document's labels, so the table is created by Load.
func (u *Universal) Setup(*sqldb.Database) error { return nil }

func segmentOf(n *xmldom.Node) string {
	switch n.Kind {
	case xmldom.ElementNode:
		return n.Name
	case xmldom.AttributeNode:
		return "@" + n.Name
	case xmldom.TextNode:
		return "#text"
	case xmldom.CommentNode:
		return "#comment"
	case xmldom.ProcInstNode:
		return "#pi"
	}
	return ""
}

func (u *Universal) suffixFor(seg string) string {
	if s, ok := u.suffix[seg]; ok {
		return s
	}
	base := translate.SanitizeName(seg)
	s := base
	for i := 2; ; i++ {
		if _, taken := u.labels[s]; !taken {
			break
		}
		s = fmt.Sprintf("%s_%d", base, i)
	}
	u.suffix[seg] = s
	u.labels[s] = seg
	u.order = append(u.order, seg)
	return s
}

// Load implements Scheme. It keeps a DOM walk: the wide table's columns
// are one per label, so every label must be seen before the first row.
func (u *Universal) Load(ctx context.Context, db *sqldb.Database, doc *xmldom.Document) error {
	doc.Number()

	// Pass 1: labels, catalog, recursion check.
	var label func(n *xmldom.Node, chain []string, labelPath string) error
	label = func(n *xmldom.Node, chain []string, labelPath string) error {
		seg := segmentOf(n)
		for _, c := range chain {
			if c == seg {
				return errScheme("universal", "recursive document: label %q repeats on one path (the universal mapping cannot represent it)", seg)
			}
		}
		u.suffixFor(seg)
		path := seg
		if labelPath != "" {
			path = labelPath + "/" + seg
		}
		u.catalog.Add(path)
		chain = append(chain, seg)
		for _, a := range n.Attrs {
			if err := label(a, chain, path); err != nil {
				return err
			}
		}
		for _, c := range n.Children {
			if err := label(c, chain, path); err != nil {
				return err
			}
		}
		return nil
	}
	root := doc.RootElement()
	if root == nil {
		return errScheme("universal", "document has no root element")
	}
	if err := label(root, nil, ""); err != nil {
		return err
	}

	// Create the wide table.
	var cols []string
	cols = append(cols, "leaf INTEGER NOT NULL PRIMARY KEY", "leafseg TEXT NOT NULL")
	for _, seg := range u.order {
		s := u.suffix[seg]
		cols = append(cols, fmt.Sprintf("%s INTEGER, %s TEXT",
			translate.QuoteIdent("id_"+s), translate.QuoteIdent("val_"+s)))
	}
	// No per-label indexes: the translation's presence tests (IS NOT
	// NULL) are not sargable and the predicate self-joins hash-join on
	// the anchor id. Indexing all ~2L columns would only multiply the
	// already-pathological load cost.
	if _, err := db.Exec("CREATE TABLE universal (" + strings.Join(cols, ", ") + ")"); err != nil {
		return err
	}

	// Pass 2: one row per leaf.
	width := 2 + 2*len(u.order)
	colPos := map[string]int{} // seg -> index of its id column in the row
	for i, seg := range u.order {
		colPos[seg] = 2 + 2*i
	}
	b := newBatcherCtx(ctx, db, "universal")
	var emit func(n *xmldom.Node, chain []*xmldom.Node) error
	emit = func(n *xmldom.Node, chain []*xmldom.Node) error {
		chain = append(chain, n)
		isLeaf := len(n.Children) == 0 && len(n.Attrs) == 0
		if isLeaf {
			row := make([]sqldb.Value, width)
			for i := range row {
				row[i] = sqldb.Null
			}
			row[0] = sqldb.NewInt(int64(n.Pre))
			row[1] = sqldb.NewText(segmentOf(n))
			for _, m := range chain {
				pos := colPos[segmentOf(m)]
				row[pos] = sqldb.NewInt(int64(m.Pre))
				row[pos+1] = nodeValue(m)
			}
			return b.add(row)
		}
		for _, a := range n.Attrs {
			if err := emit(a, chain); err != nil {
				return err
			}
		}
		for _, c := range n.Children {
			if err := emit(c, chain); err != nil {
				return err
			}
		}
		return nil
	}
	if err := emit(root, nil); err != nil {
		return err
	}
	return b.flush()
}

// Translate implements Scheme.
func (u *Universal) Translate(q *xpath.Path) (string, error) {
	return translate.Universal(q, translate.UniversalOptions{
		Catalog: u.catalog,
		Column: func(seg string) (string, bool) {
			s, ok := u.suffix[seg]
			return s, ok
		},
	})
}

// Reconstruct implements Scheme: merge the leaf rows' ancestor chains.
func (u *Universal) Reconstruct(db sqldb.Queryer) (*xmldom.Document, error) {
	rows, err := db.Query(`SELECT * FROM universal ORDER BY leaf`)
	if err != nil {
		return nil, err
	}
	colSeg := map[int]string{} // id-column position -> segment label
	for i, name := range rows.Columns {
		if strings.HasPrefix(name, "id_") {
			if seg, ok := u.labels[name[3:]]; ok {
				colSeg[i] = seg
			}
		}
	}
	doc := &xmldom.Document{Root: &xmldom.Node{Kind: xmldom.DocumentNode}}
	nodes := map[int64]*xmldom.Node{}
	for _, r := range rows.Data {
		type entry struct {
			pre int64
			seg string
			val string
			has bool
		}
		var chain []entry
		for i, seg := range colSeg {
			if r[i].IsNull() {
				continue
			}
			chain = append(chain, entry{pre: r[i].Int(), seg: seg, val: r[i+1].Text(), has: !r[i+1].IsNull()})
		}
		sort.Slice(chain, func(a, b int) bool { return chain[a].pre < chain[b].pre })
		var parent *xmldom.Node = doc.Root
		for _, e := range chain {
			n, ok := nodes[e.pre]
			if !ok {
				switch {
				case strings.HasPrefix(e.seg, "@"):
					n = &xmldom.Node{Kind: xmldom.AttributeNode, Name: e.seg[1:], Value: e.val, Parent: parent}
					parent.Attrs = append(parent.Attrs, n)
				case e.seg == "#text":
					n = &xmldom.Node{Kind: xmldom.TextNode, Value: e.val, Parent: parent}
					parent.Children = append(parent.Children, n)
				case e.seg == "#comment":
					n = &xmldom.Node{Kind: xmldom.CommentNode, Value: e.val, Parent: parent}
					parent.Children = append(parent.Children, n)
				case e.seg == "#pi":
					n = &xmldom.Node{Kind: xmldom.ProcInstNode, Value: e.val, Parent: parent}
					parent.Children = append(parent.Children, n)
				default:
					n = &xmldom.Node{Kind: xmldom.ElementNode, Name: e.seg, Parent: parent}
					parent.Children = append(parent.Children, n)
				}
				nodes[e.pre] = n
			}
			parent = n
		}
	}
	if doc.RootElement() == nil {
		return nil, errScheme("universal", "no rows stored")
	}
	// Children were appended in leaf order, which is document order;
	// but attribute/child interleaving can misorder empty elements that
	// share a prefix — sort children by pre to be safe.
	var fix func(n *xmldom.Node)
	preOf := map[*xmldom.Node]int64{}
	for pre, n := range nodes {
		preOf[n] = pre
	}
	fix = func(n *xmldom.Node) {
		sort.SliceStable(n.Children, func(i, j int) bool { return preOf[n.Children[i]] < preOf[n.Children[j]] })
		sort.SliceStable(n.Attrs, func(i, j int) bool { return preOf[n.Attrs[i]] < preOf[n.Attrs[j]] })
		for _, c := range n.Children {
			fix(c)
		}
	}
	fix(doc.Root)
	doc.Number()
	return doc, nil
}

// InsertSubtree implements Scheme. Ordered insertion is not expressible
// on the universal layout (every ancestor id is denormalized into every
// leaf row); the F3 experiment documents this as "not supported".
func (u *Universal) InsertSubtree(*sqldb.Database, int64, int, *xmldom.Node) error {
	return errScheme("universal", "ordered insertion is not supported by the universal mapping")
}
