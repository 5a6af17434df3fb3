package sqldb

// PagePayload encodes page pi of a table's heap as the pages file
// stores it, for the external test package's page-decode benchmark.
func PagePayload(db *Database, table string, pi int) []byte {
	t := db.readState().table(table)
	f := &pageFrame{}
	for i := range f.rows {
		f.rows[i] = t.row(int64(pi)<<heapPageShift + int64(i))
	}
	return encodePageFrame(f, heapPageSize)
}

// DecodePagePayload decodes a full page payload and returns its live
// row count.
func DecodePagePayload(payload []byte) (int, error) {
	f, err := decodePagePayload(1, payload, heapPageSize)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, r := range f.rows {
		if r != nil {
			n++
		}
	}
	return n, nil
}
