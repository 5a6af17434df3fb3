package sqldb

// PagePayload encodes page pi of a table's heap as the pages file
// stores it, for the external test package's page-fault benchmark.
func PagePayload(db *Database, table string, pi int) []byte {
	t := db.readState().table(table)
	rows := make([][]Value, heapPageSize)
	for i := range rows {
		rows[i] = t.row(int64(pi)<<heapPageShift+int64(i), nil)
	}
	return encodeRows(rows, nil)
}

// FaultedPage is a full page frame built as a buffer-pool fault builds
// it, over a payload already read and checksummed.
type FaultedPage struct{ f *pageFrame }

// FaultPage checks a full page payload and returns its sealed frame; no
// row is decoded.
func FaultPage(payload []byte) (FaultedPage, error) {
	f, err := scanPagePayload(1, payload, heapPageSize)
	return FaultedPage{f}, err
}

// Row returns slot i's row, decoded into *scratch.
func (p FaultedPage) Row(i int, scratch *[]Value) []Value { return p.f.row(i, scratch) }

// Encode materializes the page as a copy-on-write writer does and
// encodes all its row slots as the pages file stores them.
func (p FaultedPage) Encode() []byte { return encodeRows(p.f.clone().rows[:], nil) }

// IndexShape is one index's tree as the external tests compare it: its
// node count, its distinct-prefix counts and its entries in order, each
// a key and a rowid.
type IndexShape struct {
	Nodes    int
	Distinct []int
	Keys     []string
	Rids     []int64
}

// IndexShapes returns the shape of every index of the published state,
// by index name.
func IndexShapes(db *Database) map[string]IndexShape {
	out := map[string]IndexShape{}
	st := db.readState()
	for _, t := range st.tables {
		for _, idx := range t.indexes {
			s := IndexShape{Nodes: treeNodes(idx.tree.root), Distinct: idx.tree.distinct}
			for _, e := range collectAll(idx.tree) {
				s.Keys = append(s.Keys, e.key)
				s.Rids = append(s.Rids, e.rid)
			}
			out[idx.def.Name] = s
		}
	}
	return out
}
