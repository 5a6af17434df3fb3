package shred

// Scheme state. Edge, Binary and Universal translate against facts the
// data rows do not spell out: the label paths the document holds (the
// path catalog), Edge's descendant-depth bound, Binary's label →
// partition table and Universal's label → column suffix. Inline
// translates against its DTD. Each keeps those facts as rows of one
// small relation of its own,
//
//	<scheme>_state(kind, label, value)
//
// written through the Writer of the load or insert that learns them.
// A rolled-back write takes its state with it, a pinned snapshot reads
// the state it pinned, and a data directory reopens with it. Interval
// and Dewey keep no state beyond their node rows and create no such
// relation.

import (
	"fmt"
	"strconv"

	"repro/internal/sqldb"
	"repro/internal/translate"
)

// State row kinds.
const (
	statePath   = "path"   // label: one label path of the document
	stateDepth  = "depth"  // value: Edge's deepest node level
	stateElem   = "elem"   // label → value: Binary's element partition
	stateAttr   = "attr"   // label → value: Binary's attribute partition
	stateColumn = "column" // label segment → value: Universal's column suffix
	stateDTD    = "dtd"    // label: the document element, value: Inline's DTD text
)

func stateTable(scheme string) string { return scheme + "_state" }

// createState creates scheme's state relation (Setup).
func createState(db sqldb.Writer, scheme string) error {
	_, err := db.Exec("CREATE TABLE " + stateTable(scheme) + " (kind TEXT NOT NULL, label TEXT NOT NULL, value TEXT)")
	return err
}

// schemeState is a scheme's state as one translation, reconstruction,
// load or insert reads it; a write extends it and saves what it added.
type schemeState struct {
	table   string
	catalog *translate.PathCatalog
	stored  int // catalog paths already in the table
	depth   int // 0: no depth row
	elem    map[string]string
	attr    map[string]string
	column  map[string]string
	added   [][]sqldb.Value // rows other than paths, for save
}

// readState reads scheme's state relation through db.
func readState(db sqldb.Queryer, scheme string) (*schemeState, error) {
	s := &schemeState{
		table:   stateTable(scheme),
		catalog: translate.NewPathCatalog(),
		elem:    map[string]string{},
		attr:    map[string]string{},
		column:  map[string]string{},
	}
	rows, err := db.Query("SELECT kind, label, value FROM " + s.table)
	if err != nil {
		return nil, err
	}
	for _, r := range rows.Data {
		label, value := r[1].Text(), r[2].Text()
		switch r[0].Text() {
		case statePath:
			s.catalog.Add(label)
		case stateDepth:
			if s.depth, err = strconv.Atoi(value); err != nil {
				return nil, errScheme(scheme, "bad depth row %q", value)
			}
		case stateElem:
			s.elem[label] = value
		case stateAttr:
			s.attr[label] = value
		case stateColumn:
			s.column[label] = value
		}
	}
	s.stored = s.catalog.Len()
	return s, nil
}

// set records label → value under kind in its map and queues the row.
func (s *schemeState) set(m map[string]string, kind, label, value string) {
	m[label] = value
	s.added = append(s.added, []sqldb.Value{sqldb.NewText(kind), sqldb.NewText(label), sqldb.NewText(value)})
}

// save writes the label paths the catalog gained and the queued rows.
func (s *schemeState) save(db sqldb.Writer) error {
	rows := s.added
	for _, p := range s.catalog.Since(s.stored) {
		rows = append(rows, []sqldb.Value{sqldb.NewText(statePath), sqldb.NewText(p), sqldb.Null})
	}
	if len(rows) == 0 {
		return nil
	}
	if _, err := db.BulkInsert(s.table, rows); err != nil {
		return fmt.Errorf("shred: saving scheme state: %w", err)
	}
	s.added, s.stored = nil, s.catalog.Len()
	return nil
}

// raiseDepth makes level the stored depth bound when it is deeper.
func (s *schemeState) raiseDepth(db sqldb.Writer, level int) error {
	if level <= s.depth {
		return nil
	}
	sql := "UPDATE " + s.table + " SET value = ? WHERE kind = ?"
	if s.depth == 0 {
		sql = "INSERT INTO " + s.table + " (value, kind, label) VALUES (?, ?, '')"
	}
	s.depth = level
	_, err := db.Exec(sql, sqldb.NewText(strconv.Itoa(level)), sqldb.NewText(stateDepth))
	return err
}
