package sqldb

// PagePayload encodes page pi of a table's heap as the pages file
// stores it, for the external test package's page-fault benchmark.
func PagePayload(db *Database, table string, pi int) []byte {
	t := db.readState().table(table)
	f := &pageFrame{}
	for i := range f.rows {
		f.rows[i] = t.row(int64(pi)<<heapPageShift + int64(i))
	}
	return encodePageFrame(f, heapPageSize)
}

// FaultedPage is a full page frame built as a buffer-pool fault builds
// it, over a payload already read and checksummed.
type FaultedPage struct{ f *pageFrame }

// FaultPage checks a full page payload and returns its image-backed
// frame; no row is decoded.
func FaultPage(payload []byte) (FaultedPage, error) {
	f, err := scanPagePayload(1, payload, heapPageSize)
	return FaultedPage{f}, err
}

// Row returns slot i's row, decoding it on first use.
func (p FaultedPage) Row(i int) []Value { return p.f.row(i) }

// Encode materializes the page as a copy-on-write writer does and
// encodes all its row slots as the pages file stores them.
func (p FaultedPage) Encode() []byte { return encodePageFrame(p.f.clone(), heapPageSize) }
