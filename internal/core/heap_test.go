package core

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"repro/internal/xmlgen"
)

// indexHeapPerRowCeiling bounds the heap an in-memory Interval store
// holds per shredded row: heap pages plus the B-trees. Measured on a
// 2-core x86-64 VM at 1430 B/row with 64-byte Value keys in the trees,
// 870-980 B/row with packed byte keys, 520-570 B/row once a Value
// shrank from 64 to 24 bytes (an eight-column row from a 512-byte to a
// 192-byte allocation), and 455-510 B/row with three B-trees instead of
// four (one (kind, name, pre) index replacing (name, pre) and
// (kind, pre)) and each bulk batch's keys in one string per index (the
// upper end under CPU contention from concurrently running packages,
// which lets the heap fragment further between collections).
const indexHeapPerRowCeiling = 540

// TestIndexHeapPerRow guards the packed B-tree keys and the 24-byte
// Value: HeapInuse after a
// forced GC, before and after an in-memory factor-0.1 Interval
// LoadXMLStream, per row.
func TestIndexHeapPerRow(t *testing.T) {
	src := xmlgen.AuctionXML(xmlgen.Config{Factor: 0.1, Seed: 1})
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapInuse
	}
	before := heap()
	st, err := Open(Interval)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.LoadXMLStream(context.Background(), strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	after := heap()
	rows := st.Stats().Rows
	runtime.KeepAlive(src)
	runtime.KeepAlive(st)
	perRow := (float64(after) - float64(before)) / float64(rows)
	t.Logf("%d rows, %.0f B of heap per row", rows, perRow)
	if perRow > indexHeapPerRowCeiling {
		t.Errorf("%.0f B of heap per row, ceiling %d", perRow, indexHeapPerRowCeiling)
	}
}
