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
// bt_pi, which adds a name column for the PI's target. The label →
// partition table and the label paths that drive descendant-step
// expansion are the scheme's state rows.
type Binary struct {
	valueIndex bool
}

// NewBinary returns a Binary scheme; withValueIndex adds (value) indexes
// on every partition for the F5 ablation.
func NewBinary(withValueIndex bool) *Binary {
	return &Binary{valueIndex: withValueIndex}
}

// Name implements Scheme.
func (bn *Binary) Name() string { return "binary" }

// Setup implements Scheme: partitions are created lazily per label
// during Insert; only the fixed kind partitions exist up front.
func (bn *Binary) Setup(db *sqldb.Database) error {
	for _, t := range []string{"bt_text", "bt_comment", "bt_pi"} {
		if err := bn.createPartition(db, t); err != nil {
			return err
		}
	}
	return createState(db, "binary")
}

func (bn *Binary) createPartition(db sqldb.Writer, table string) error {
	extra := ""
	if table == "bt_pi" {
		extra = ", name TEXT" // the PI's target
	}
	stmts := []string{
		fmt.Sprintf(`CREATE TABLE %s (
			source INTEGER NOT NULL,
			ordinal INTEGER NOT NULL,
			target INTEGER NOT NULL PRIMARY KEY,
			value TEXT%s
		)`, table, extra),
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
// named node. Sanitized labels can collide; a suffix numbering the
// labels that share a table name keeps the names unique.
func (bn *Binary) partitionFor(db sqldb.Writer, st *schemeState, kind, label string) (string, error) {
	m, prefix := st.elem, "be_"
	if kind == stateAttr {
		m, prefix = st.attr, "ba_"
	}
	if t, ok := m[label]; ok {
		return t, nil
	}
	taken := map[string]bool{}
	for _, t := range st.elem {
		taken[t] = true
	}
	for _, t := range st.attr {
		taken[t] = true
	}
	base := prefix + translate.SanitizeName(label)
	table := base
	for i := 1; taken[table]; i++ {
		table = fmt.Sprintf("%s_%d", base, i)
	}
	if err := bn.createPartition(db, table); err != nil {
		return "", err
	}
	st.set(m, kind, label, table)
	return table, nil
}

// Translate implements Scheme.
func (bn *Binary) Translate(db sqldb.Queryer, q *xpath.Path) (string, error) {
	st, err := readState(db, "binary")
	if err != nil {
		return "", err
	}
	return translate.Binary(q, translate.BinaryOptions{
		Catalog: st.catalog,
		ElemTable: func(label string) (string, bool) {
			t, ok := st.elem[label]
			return t, ok
		},
		AttrTable: func(label string) (string, bool) {
			t, ok := st.attr[label]
			return t, ok
		},
	})
}

// Reconstruct implements Scheme: each partition's rows are read back
// with the kind and label its table implies.
func (bn *Binary) Reconstruct(db sqldb.Queryer) (*xmldom.Document, error) {
	st, err := readState(db, "binary")
	if err != nil {
		return nil, err
	}
	queries := []string{
		`SELECT target, source, ordinal, 'text', NULL, value FROM bt_text`,
		`SELECT target, source, ordinal, 'comment', NULL, value FROM bt_comment`,
		`SELECT target, source, ordinal, 'pi', name, value FROM bt_pi`,
	}
	for kind, tables := range map[string]map[string]string{"elem": st.elem, "attr": st.attr} {
		for label, t := range tables {
			queries = append(queries, fmt.Sprintf(`SELECT target, source, ordinal, '%s', %s, value FROM %s`,
				kind, translate.QuoteString(label), t))
		}
	}
	var stored []storedNode
	for _, q := range queries {
		rows, err := db.Query(q)
		if err != nil {
			return nil, err
		}
		stored = appendStored(stored, rows)
	}
	return assemble("binary", stored)
}

// Insert implements Scheme: like Edge, a local ordinal shift on the
// parent's partitions plus appends — but the shift must touch every
// partition holding a child of the parent. The walk creates each new
// label's partition on first sight; every partition's batch is flushed
// in table-name order, then the partitions and label paths it added
// are saved.
func (bn *Binary) Insert(ctx context.Context, db sqldb.Writer, parentID int64, position int, src xmldom.TokenSource) error {
	st, err := readState(db, "binary")
	if err != nil {
		return err
	}
	parentPath, err := labelPathOf(db, st, parentID)
	if err != nil {
		return err
	}
	// Count attributes of the parent across attribute partitions.
	var nAttrs int64
	for _, t := range st.attr {
		v, err := db.QueryScalar("SELECT COUNT(*) FROM "+t+" WHERE source = ?", sqldb.NewInt(parentID))
		if err != nil {
			return err
		}
		nAttrs += v.Int()
	}
	ordinal := nAttrs + int64(position) + 1

	var maxID int64
	for _, t := range st.partitions() {
		if _, err := db.Exec("UPDATE "+t+" SET ordinal = ordinal + 1 WHERE source = ? AND ordinal >= ?",
			sqldb.NewInt(parentID), sqldb.NewInt(ordinal)); err != nil {
			return err
		}
		v, err := db.QueryScalar("SELECT MAX(target) FROM " + t)
		if err != nil {
			return err
		}
		maxID = max(maxID, v.Int())
	}
	s := &binarySink{bn: bn, st: st, db: db, bs: newTableBatchers(ctx, db)}
	at := walkAt{parent: parentID, path: parentPath, next: maxID + 1, ordinal: ordinal}
	if _, _, err := streamWalk(src, s, st.catalog, at); err != nil {
		return err
	}
	if err := s.bs.flush(); err != nil {
		return err
	}
	return st.save(db)
}

// labelPathOf reconstructs the label path of a stored element by walking
// parent links across partitions ("" for the document node, id 0).
func labelPathOf(db sqldb.Queryer, st *schemeState, id int64) (string, error) {
	var segs []string
	for cur := id; cur != 0; {
		found := false
		for label, t := range st.elem {
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
			return "", errNoElement("binary", id)
		}
	}
	return strings.Join(segs, "/"), nil
}

// partitions lists every partition table, sorted.
func (st *schemeState) partitions() []string {
	out := []string{"bt_text", "bt_comment", "bt_pi"}
	for _, t := range st.elem {
		out = append(out, t)
	}
	for _, t := range st.attr {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}
