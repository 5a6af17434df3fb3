package sqldb

import (
	"sync"
	"sync/atomic"
	"testing"
)

// countSlotDecodes counts lazy slot decodes until the test ends.
func countSlotDecodes(t *testing.T) *atomic.Int64 {
	t.Helper()
	n := new(atomic.Int64)
	hook := func() { n.Add(1) }
	testSlotDecoded.Store(&hook)
	t.Cleanup(func() { testSlotDecoded.Store(nil) })
	return n
}

// evictedPage returns the index of a full page of tbl the pool has
// evicted.
func evictedPage(t *testing.T, tbl *table) int {
	t.Helper()
	for pi := range tbl.fullPages() {
		if tbl.pages[pi].res.Load() == nil {
			return pi
		}
	}
	t.Fatal("no evicted page")
	return 0
}

// TestFaultDecodesOnlyTouchedRows pins the laziness of a fault under a
// two-page pool: a full scan decodes each row of every page it faults
// exactly once, and a one-row index probe into an evicted page decodes
// that row and no other.
func TestFaultDecodesOnlyTouchedRows(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, val TEXT)`)
	fillWide(t, db, 8*heapPageSize+100)
	db.SetBufferPool(2)
	tbl := db.readState().table("t")
	// The resident frames are the writer's, decoded already: every
	// decode belongs to a page the scan faults.
	decodes := countSlotDecodes(t)
	misses := db.Stats().BufferPool.Misses
	if got := dumpRows(t, db, `SELECT SUM(grp) FROM t`); got == "" {
		t.Fatal("scan returned nothing")
	}
	faults := db.Stats().BufferPool.Misses - misses
	if faults == 0 {
		t.Fatal("full scan faulted no page")
	}
	if got := decodes.Load(); got != int64(faults)*heapPageSize {
		t.Fatalf("full scan decoded %d rows over %d faulted pages, want %d", got, faults, int64(faults)*heapPageSize)
	}

	decodes.Store(0)
	pi := evictedPage(t, tbl)
	id := int64(pi)<<heapPageShift + 37
	misses = db.Stats().BufferPool.Misses
	rows, err := db.Query(`SELECT val FROM t WHERE id = ?`, NewInt(id))
	if err != nil || rows.Len() != 1 {
		t.Fatalf("probe: %v, %d rows", err, rows.Len())
	}
	if got := db.Stats().BufferPool.Misses - misses; got != 1 {
		t.Fatalf("probe faulted %d pages, want 1", got)
	}
	if got := decodes.Load(); got != 1 {
		t.Fatalf("one-row probe decoded %d rows, want 1", got)
	}
	f := tbl.pages[pi].res.Load()
	if f == nil || f.img == nil {
		t.Fatalf("probed page is not resident image-backed")
	}
	for i, s := range f.img.lazy {
		if decoded := s == 0; decoded != (i == 37) {
			t.Fatalf("slot %d decoded = %v after probing slot 37", i, decoded)
		}
	}
}

// TestLazyFrameConcurrentReaders has several goroutines read the rows
// of one evicted page while it is faulted in, half in ascending and half
// in descending slot order so they race on the same undecoded slots;
// every reader must see rows identical to the unbounded heap's. Run it
// under -race: a slot's publication must never be read torn.
func TestLazyFrameConcurrentReaders(t *testing.T) {
	const readers = 8
	ref, db := New(), New()
	for _, d := range []*Database{ref, db} {
		d.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, val TEXT)`)
		fillWide(t, d, 6*heapPageSize)
	}
	db.SetBufferPool(2)
	want, tbl := ref.readState().table("t"), db.readState().table("t")
	for round := range 3 {
		pi := evictedPage(t, tbl)
		base := int64(pi) << heapPageShift
		got := make([][][]Value, readers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := range readers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rows := make([][]Value, heapPageSize)
				<-start
				for k := range rows {
					i := k
					if g%2 == 1 {
						i = heapPageSize - 1 - k
					}
					rows[i] = tbl.row(base + int64(i))
				}
				got[g] = rows
			}()
		}
		close(start)
		wg.Wait()
		for g, rows := range got {
			for i, row := range rows {
				if w := want.row(base + int64(i)); !IdenticalRows([][]Value{row}, [][]Value{w}) {
					t.Fatalf("round %d reader %d slot %d: got %v, want %v", round, g, i, row, w)
				}
			}
		}
		// Fault two other pages so the next round finds this one evicted.
		for _, other := range []int{(pi + 2) % 6, (pi + 4) % 6} {
			tbl.row(int64(other) << heapPageShift)
		}
	}
}
