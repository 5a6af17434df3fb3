package core

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"repro/internal/xmlgen"
)

// indexHeapPerRowCeiling bounds the live heap an in-memory Interval
// store holds per shredded row: heap pages plus the B-trees. Measured
// as HeapInuse on a 2-core x86-64 VM, it was 1430 B/row with 64-byte
// Value keys in the trees, 870-980 B/row with packed byte keys, 520-570
// B/row once a Value shrank from 64 to 24 bytes, 455-510 B/row with
// three B-trees instead of four, and 411-491 B/row once B-tree nodes
// held their keys in pointer-free packed runs with a shared prefix —
// but HeapInuse counts the spans live objects fragment, which moves
// with GC timing: 541 B/row in one full `go test ./...` on a busy host.
// Measured as live bytes (HeapAlloc after a forced GC) the figure is
// the same on every run, alone or beside the rest of the suite: 325
// B/row with the (parent, ordinal) accel_parent key and 8-byte numbers
// in keys, 342 with (parent, kind, name, ordinal), 320 once numbers
// took three to six bytes, and 389 with the narrow key and the B-tree
// keys unpacked again; 308 once the trees were built bottom-up at
// commit, and 244 once a Value shrank from 24 to 16 bytes and rows
// were cut from one block per heap page; 122 once a sealed heap page was
// its encoded image, and 92 once each B-tree node held its keys in one
// array with offsets and rowids as narrow as the node needs. The
// ceiling is 92 plus 6 %.
const indexHeapPerRowCeiling = 98

// TestIndexHeapPerRow guards the packed B-tree keys and the 16-byte
// Value: the live heap (HeapAlloc after a forced GC, which counts the
// bytes of reachable objects and not the spans they fragment, so it
// does not move with GC timing) before and after an in-memory
// factor-0.1 Interval LoadXMLStream, per row.
func TestIndexHeapPerRow(t *testing.T) {
	src := xmlgen.AuctionXML(xmlgen.Config{Factor: 0.1, Seed: 1})
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
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
