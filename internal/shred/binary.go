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

// Binary is the attribute-partitioned variant of the edge mapping
// (Florescu & Kossmann): the edge table split horizontally by label, so
// a step with a name test scans only that label's (much smaller)
// partition. Partitions carry (source, ordinal, target, value); the
// label is implicit in the table.
//
// Element partitions are named be_<label>, attribute partitions
// ba_<label>, and text/comment/pi nodes share bt_text / bt_comment /
// bt_pi. A path catalog collected at load time drives descendant-step
// expansion.
type Binary struct {
	elemTables map[string]string
	attrTables map[string]string
	catalog    *translate.PathCatalog
	valueIndex bool
	nameSeq    int
}

// NewBinary returns a Binary scheme; withValueIndex adds (value) indexes
// on every partition for the F5 ablation.
func NewBinary(withValueIndex bool) *Binary {
	return &Binary{
		elemTables: map[string]string{},
		attrTables: map[string]string{},
		catalog:    translate.NewPathCatalog(),
		valueIndex: withValueIndex,
	}
}

// Name implements Scheme.
func (bn *Binary) Name() string { return "binary" }

// Setup implements Scheme: partitions are created lazily per label
// during Load; only the fixed kind partitions exist up front.
func (bn *Binary) Setup(db *sqldb.Database) error {
	for _, t := range []string{"bt_text", "bt_comment", "bt_pi"} {
		if err := bn.createPartition(db, t); err != nil {
			return err
		}
	}
	return nil
}

func (bn *Binary) createPartition(db *sqldb.Database, table string) error {
	stmts := []string{
		fmt.Sprintf(`CREATE TABLE %s (
			source INTEGER NOT NULL,
			ordinal INTEGER NOT NULL,
			target INTEGER NOT NULL PRIMARY KEY,
			value TEXT
		)`, table),
		fmt.Sprintf(`CREATE INDEX %s_source ON %s (source, ordinal)`, table, table),
	}
	if bn.valueIndex {
		stmts = append(stmts, fmt.Sprintf(`CREATE INDEX %s_value ON %s (value)`, table, table))
	}
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			return err
		}
	}
	return nil
}

// partitionFor resolves (creating on demand) the partition table for a
// named node. Sanitized labels can collide; a sequence suffix keeps the
// table names unique.
func (bn *Binary) partitionFor(db *sqldb.Database, m map[string]string, prefix, label string) (string, error) {
	if t, ok := m[label]; ok {
		return t, nil
	}
	base := prefix + translate.SanitizeName(label)
	table := base
	for taken := true; taken; {
		taken = false
		for _, existing := range bn.elemTables {
			if existing == table {
				taken = true
			}
		}
		for _, existing := range bn.attrTables {
			if existing == table {
				taken = true
			}
		}
		if taken {
			bn.nameSeq++
			table = fmt.Sprintf("%s_%d", base, bn.nameSeq)
		}
	}
	if err := bn.createPartition(db, table); err != nil {
		return "", err
	}
	m[label] = table
	return table, nil
}

// Load implements Scheme: the document's replay goes through the same
// walk as a token stream.
func (bn *Binary) Load(ctx context.Context, db *sqldb.Database, doc *xmldom.Document) error {
	return bn.LoadStream(ctx, db, doc.Tokens())
}

// Translate implements Scheme.
func (bn *Binary) Translate(q *xpath.Path) (string, error) {
	return translate.Binary(q, translate.BinaryOptions{
		Catalog: bn.catalog,
		ElemTable: func(label string) (string, bool) {
			t, ok := bn.elemTables[label]
			return t, ok
		},
		AttrTable: func(label string) (string, bool) {
			t, ok := bn.attrTables[label]
			return t, ok
		},
		TextTable: "bt_text",
	})
}

// Reconstruct implements Scheme: the partitions are unioned back into
// edge form and assembled.
func (bn *Binary) Reconstruct(db sqldb.Queryer) (*xmldom.Document, error) {
	type edgeRow struct {
		source, ordinal, target int64
		name, kind, value       string
	}
	bySource := map[int64][]edgeRow{}
	collect := func(table, kind, name string) error {
		rows, err := db.Query("SELECT source, ordinal, target, value FROM " + table)
		if err != nil {
			return err
		}
		for _, r := range rows.Data {
			er := edgeRow{
				source:  r[0].Int(),
				ordinal: r[1].Int(),
				target:  r[2].Int(),
				name:    name,
				kind:    kind,
				value:   r[3].Text(),
			}
			bySource[er.source] = append(bySource[er.source], er)
		}
		return nil
	}
	elemLabels := make([]string, 0, len(bn.elemTables))
	for l := range bn.elemTables {
		elemLabels = append(elemLabels, l)
	}
	sort.Strings(elemLabels)
	for _, l := range elemLabels {
		if err := collect(bn.elemTables[l], "elem", l); err != nil {
			return nil, err
		}
	}
	attrLabels := make([]string, 0, len(bn.attrTables))
	for l := range bn.attrTables {
		attrLabels = append(attrLabels, l)
	}
	sort.Strings(attrLabels)
	for _, l := range attrLabels {
		if err := collect(bn.attrTables[l], "attr", l); err != nil {
			return nil, err
		}
	}
	if err := collect("bt_text", "text", ""); err != nil {
		return nil, err
	}
	if err := collect("bt_comment", "comment", ""); err != nil {
		return nil, err
	}
	if err := collect("bt_pi", "pi", ""); err != nil {
		return nil, err
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
				parent.Attrs = append(parent.Attrs, &xmldom.Node{Kind: xmldom.AttributeNode, Name: er.name, Value: er.value, Parent: parent})
			case "elem":
				el := &xmldom.Node{Kind: xmldom.ElementNode, Name: er.name, Parent: parent}
				parent.Children = append(parent.Children, el)
				if err := build(el, er.target); err != nil {
					return err
				}
			case "text":
				parent.Children = append(parent.Children, &xmldom.Node{Kind: xmldom.TextNode, Value: er.value, Parent: parent})
			case "comment":
				parent.Children = append(parent.Children, &xmldom.Node{Kind: xmldom.CommentNode, Value: er.value, Parent: parent})
			case "pi":
				parent.Children = append(parent.Children, &xmldom.Node{Kind: xmldom.ProcInstNode, Value: er.value, Parent: parent})
			}
		}
		return nil
	}
	if err := build(doc.Root, 0); err != nil {
		return nil, err
	}
	if doc.RootElement() == nil {
		return nil, errScheme("binary", "no root element stored")
	}
	doc.Number()
	return doc, nil
}

// InsertSubtree implements Scheme: like Edge, a local ordinal shift on
// the parent's partitions plus appends — but the shift must touch every
// partition holding a child of the parent.
func (bn *Binary) InsertSubtree(db *sqldb.Database, parentID int64, position int, subtree *xmldom.Node) error {
	// Count attributes of the parent across attribute partitions.
	var nAttrs int64
	for _, t := range bn.attrTables {
		v, err := db.QueryScalar("SELECT COUNT(*) FROM "+t+" WHERE source = ?", sqldb.NewInt(parentID))
		if err != nil {
			return err
		}
		nAttrs += v.Int()
	}
	ordinal := nAttrs + int64(position) + 1

	allTables := bn.allPartitions()
	var maxID int64
	for _, t := range allTables {
		if _, err := db.Exec("UPDATE "+t+" SET ordinal = ordinal + 1 WHERE source = ? AND ordinal >= ?",
			sqldb.NewInt(parentID), sqldb.NewInt(ordinal)); err != nil {
			return err
		}
		v, err := db.QueryScalar("SELECT MAX(target) FROM " + t)
		if err != nil {
			return err
		}
		if !v.IsNull() && v.Int() > maxID {
			maxID = v.Int()
		}
	}
	parentPath, err := bn.labelPathOf(db, parentID)
	if err != nil {
		return err
	}
	sink := &binarySink{bn: bn, db: db, batchers: map[string]*batcher{}}
	at := walkAt{parent: parentID, path: parentPath, next: maxID + 1, ordinal: ordinal}
	if _, _, err := streamWalk(subtreeTokens(subtree), sink, bn.catalog, at); err != nil {
		return err
	}
	return sink.flush()
}

// labelPathOf reconstructs the label path of a stored element by walking
// parent links across partitions (update-path bookkeeping only).
func (bn *Binary) labelPathOf(db *sqldb.Database, id int64) (string, error) {
	if id == 0 {
		return "", nil
	}
	var segs []string
	cur := id
	for cur != 0 {
		found := false
		for label, t := range bn.elemTables {
			rows, err := db.Query("SELECT source FROM "+t+" WHERE target = ?", sqldb.NewInt(cur))
			if err != nil {
				return "", err
			}
			if rows.Len() > 0 {
				segs = append([]string{label}, segs...)
				cur = rows.Data[0][0].Int()
				found = true
				break
			}
		}
		if !found {
			return "", errScheme("binary", "node %d not found in any element partition", cur)
		}
	}
	return strings.Join(segs, "/"), nil
}

func (bn *Binary) allPartitions() []string {
	var out []string
	for _, t := range bn.elemTables {
		out = append(out, t)
	}
	for _, t := range bn.attrTables {
		out = append(out, t)
	}
	out = append(out, "bt_text", "bt_comment", "bt_pi")
	sort.Strings(out)
	return out
}
