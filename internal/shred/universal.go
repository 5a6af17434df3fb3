package shred

import (
	"cmp"
	"context"
	"fmt"
	"slices"
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
//
// The label segment → column suffix table and the label paths are the
// scheme's state rows; the column order is the table's.
type Universal struct{}

// NewUniversal returns a Universal scheme.
func NewUniversal() *Universal { return &Universal{} }

// Name implements Scheme.
func (u *Universal) Name() string { return "universal" }

// Setup implements Scheme. The universal table's columns depend on the
// document's labels, so the table is created by Insert.
func (u *Universal) Setup(db *sqldb.Database) error { return createState(db, "universal") }

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

// suffixFor resolves (assigning on first sight) a label segment's
// column suffix; order collects the segments in column order.
func suffixFor(st *schemeState, order *[]string, seg string) {
	if _, ok := st.column[seg]; ok {
		return
	}
	taken := map[string]bool{}
	for _, s := range st.column {
		taken[s] = true
	}
	base := translate.SanitizeName(seg)
	s := base
	for i := 2; taken[s]; i++ {
		s = fmt.Sprintf("%s_%d", base, i)
	}
	st.set(st.column, stateColumn, seg, s)
	*order = append(*order, seg)
}

// Insert implements Scheme for the document node alone: ordered
// insertion is not expressible on the universal layout (every ancestor
// id is denormalized into every leaf row), and the F3 experiment
// documents it as "not supported". Universal alone builds a tree from
// the tokens: the wide table's columns are one per label, so every
// label must be seen before the first row.
func (u *Universal) Insert(ctx context.Context, db sqldb.Writer, parentID int64, _ int, src xmldom.TokenSource) error {
	if parentID != 0 {
		return errScheme("universal", "ordered insertion is not supported by the universal mapping")
	}
	doc, err := xmldom.Build(src)
	if err != nil {
		return err
	}
	st, err := readState(db, "universal")
	if err != nil {
		return err
	}
	var order []string

	// Pass 1: labels, catalog, recursion check.
	var label func(n *xmldom.Node, chain []string, labelPath string) error
	label = func(n *xmldom.Node, chain []string, labelPath string) error {
		seg := segmentOf(n)
		for _, c := range chain {
			if c == seg {
				return errScheme("universal", "recursive document: label %q repeats on one path (the universal mapping cannot represent it)", seg)
			}
		}
		suffixFor(st, &order, seg)
		path := joinPath(labelPath, seg)
		st.catalog.Add(path)
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
	// leafseg is the leaf's label segment, or a PI leaf's target, which
	// no label column holds.
	cols = append(cols, "leaf INTEGER NOT NULL PRIMARY KEY", "leafseg TEXT NOT NULL")
	for _, seg := range order {
		s := st.column[seg]
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
	width := 2 + 2*len(order)
	colPos := map[string]int{} // seg -> index of its id column in the row
	for i, seg := range order {
		colPos[seg] = 2 + 2*i
	}
	b := newBatcher(ctx, db, "universal")
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
			if n.Kind == xmldom.ProcInstNode {
				row[1] = sqldb.NewText(n.Name)
			}
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
	if err := b.flush(); err != nil {
		return err
	}
	return st.save(db)
}

// Translate implements Scheme.
func (u *Universal) Translate(db sqldb.Queryer, q *xpath.Path) (string, error) {
	st, err := readState(db, "universal")
	if err != nil {
		return "", err
	}
	return translate.Universal(q, translate.UniversalOptions{
		Catalog: st.catalog,
		Column: func(seg string) (string, bool) {
			s, ok := st.column[seg]
			return s, ok
		},
	})
}

// Reconstruct implements Scheme: every id column of a row names one
// node of its leaf's root-to-leaf chain, and in id order each is the
// parent of the next.
func (u *Universal) Reconstruct(db sqldb.Queryer) (*xmldom.Document, error) {
	st, err := readState(db, "universal")
	if err != nil {
		return nil, err
	}
	labels := make(map[string]string, len(st.column)) // column suffix → segment
	for seg, suffix := range st.column {
		labels[suffix] = seg
	}
	rows, err := db.Query(`SELECT * FROM universal`)
	if err != nil {
		return nil, err
	}
	type idCol struct {
		pos int // the id column; its value column follows it
		seg string
	}
	var cols []idCol
	for i, name := range rows.Columns {
		if suffix, ok := strings.CutPrefix(name, "id_"); ok {
			if seg, ok := labels[suffix]; ok {
				cols = append(cols, idCol{i, seg})
			}
		}
	}
	var stored []storedNode
	seen := map[int64]bool{}
	var chain []idCol
	for _, r := range rows.Data {
		chain = chain[:0]
		for _, c := range cols {
			if !r[c.pos].IsNull() {
				chain = append(chain, c)
			}
		}
		slices.SortFunc(chain, func(a, b idCol) int { return cmp.Compare(r[a.pos].Int(), r[b.pos].Int()) })
		parent := int64(0)
		for _, c := range chain {
			id := r[c.pos].Int()
			if !seen[id] {
				seen[id] = true
				n := storedNode{id: id, parent: parent, order: id, kind: "elem", name: c.seg, value: r[c.pos+1].Text()}
				switch {
				case strings.HasPrefix(c.seg, "@"):
					n.kind, n.name = "attr", c.seg[1:]
				case c.seg == "#text":
					n.kind = "text"
				case c.seg == "#comment":
					n.kind = "comment"
				case c.seg == "#pi":
					n.kind, n.name = "pi", r[1].Text() // a PI is its row's leaf
				}
				stored = append(stored, n)
			}
			parent = id
		}
	}
	return assemble("universal", stored)
}
