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
		`CREATE INDEX dewey_parent ON dewey (parent, kind, name)`,
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

// errLabelOverflow refuses a label component that would reach
// deweyLimit.
func errLabelOverflow(comp int64) error {
	return errScheme("dewey", "label component %d exceeds %d digits (relabel required)", comp, deweyWidth)
}

// Translate implements Scheme.
func (d *Dewey) Translate(_ sqldb.Queryer, q *xpath.Path) (string, error) {
	return translate.Dewey(q)
}

// Reconstruct implements Scheme: a node's parent is the row whose path
// is its parent label, and its rank among siblings is its last label
// component.
func (d *Dewey) Reconstruct(db sqldb.Queryer) (*xmldom.Document, error) {
	rows, err := db.Query(`SELECT pre, path, parent, kind, name, value FROM dewey`)
	if err != nil {
		return nil, err
	}
	idOf := make(map[string]int64, rows.Len())
	for _, r := range rows.Data {
		idOf[r[1].Text()] = r[0].Int()
	}
	stored := make([]storedNode, 0, rows.Len())
	for _, r := range rows.Data {
		var parent int64
		if !r[2].IsNull() {
			var ok bool
			if parent, ok = idOf[r[2].Text()]; !ok {
				return nil, errScheme("dewey", "dangling parent path %q", r[2].Text())
			}
		}
		stored = append(stored, storedNode{id: r[0].Int(), parent: parent, order: lastComp(r[1].Text()),
			kind: r[3].Text(), name: r[4].Text(), value: r[5].Text()})
	}
	return assemble("dewey", stored)
}

// Insert implements Scheme. A new sibling label is the midpoint of its
// neighbors (or one gap past the last child), so the insert writes only
// the subtree's new rows and updates nothing in place (Tatarinov's
// headline result, experiment F3). The document node has no row: its
// label is "" and its children's parent is NULL, so a load into an
// empty database labels its top-level nodes one gap apart from the
// first. The parent lookup and MAX(pre) are each one probe of
// dewey_pre; the sibling read lists the parent's children through
// dewey_parent, whose (parent, kind, name) key groups them by name, and
// sorts them by path. A label that would overflow deweyWidth digits is
// refused when the walk reaches it, after the batches before it were
// written — unless the insert runs in one transaction
// (sqldb.Database.Update, as core's loads and inserts do), which the
// refusal then rolls back whole.
func (d *Dewey) Insert(ctx context.Context, db sqldb.Writer, parentID int64, position int, src xmldom.TokenSource) error {
	var parentPath string
	var parentLevel int64
	sibs := `SELECT path, kind FROM dewey WHERE parent IS NULL ORDER BY path`
	var args []sqldb.Value
	if parentID != 0 {
		prow, err := db.Query(`SELECT path, level FROM dewey WHERE pre = ? AND kind = 'elem'`, sqldb.NewInt(parentID))
		if err != nil {
			return err
		}
		if prow.Len() == 0 {
			return errNoElement("dewey", parentID)
		}
		parentPath, parentLevel = prow.Data[0][0].Text(), prow.Data[0][1].Int()
		sibs, args = `SELECT path, kind FROM dewey WHERE parent = ? ORDER BY path`, []sqldb.Value{sqldb.NewText(parentPath)}
	}
	rows, err := db.Query(sibs, args...)
	if err != nil {
		return err
	}
	// Locate the insertion point among non-attribute children.
	var lo, hi int64 // component bounds around the new label
	childIdx := 0
	placedHi := false
	for _, r := range rows.Data {
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

	newComp := lo + deweyGap
	if placedHi {
		if hi-lo < 2 {
			return errScheme("dewey", "no label gap left at this position (relabel required); spread your insertion points")
		}
		newComp = lo + (hi-lo)/2
	}

	maxID, err := db.QueryScalar(`SELECT MAX(pre) FROM dewey`)
	if err != nil {
		return err
	}

	s := &deweySink{b: newBatcher(ctx, db, "dewey"), labels: []string{parentPath}, first: newComp}
	at := walkAt{parent: parentID, level: int(parentLevel), next: maxID.Int() + 1, ordinal: 1}
	if _, _, err := streamWalk(src, s, nil, at); err != nil {
		return err
	}
	return s.b.flush()
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
