package sqldb

import (
	"errors"
	"slices"
	"sync"
	"testing"
)

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

// TestFaultDecodesOnlyTouchedRows pins what a fault does under a
// two-page pool: a full scan faults the pages it needs, a one-row index
// probe into an evicted page faults that page alone and leaves it
// resident as its image, and a page whose image is corrupt fails the
// probe that faults it, with ErrPageIO.
func TestFaultDecodesOnlyTouchedRows(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, val TEXT)`)
	fillWide(t, db, 8*heapPageSize+100)
	db.SetBufferPool(2)
	tbl := db.readState().table("t")
	misses := db.Stats().BufferPool.Misses
	if got := dumpRows(t, db, `SELECT SUM(grp) FROM t`); got == "" {
		t.Fatal("scan returned nothing")
	}
	if db.Stats().BufferPool.Misses == misses {
		t.Fatal("full scan faulted no page")
	}

	probe := func(pi int) (*Rows, error) {
		return db.Query(`SELECT val FROM t WHERE id = ?`, NewInt(int64(pi)<<heapPageShift+37))
	}
	pi := evictedPage(t, tbl)
	misses = db.Stats().BufferPool.Misses
	rows, err := probe(pi)
	if err != nil || rows.Len() != 1 {
		t.Fatalf("probe: %v, %d rows", err, rows.Len())
	}
	if got := db.Stats().BufferPool.Misses - misses; got != 1 {
		t.Fatalf("probe faulted %d pages, want 1", got)
	}
	if f := tbl.pages[pi].res.Load(); f == nil || f.rows != nil || f.img == nil {
		t.Fatalf("probed page is not resident as its image")
	}

	// Rewrite an evicted page's image with half its payload under a good
	// checksum: the structural check fails the fault.
	pi = evictedPage(t, tbl)
	p := tbl.pages[pi]
	payload, err := p.file.read(p.pid, p.slots)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.file.f.WriteAt(framePageImage(p.pid, payload[:len(payload)/2]), (p.pid-1)*pageSlotSize); err != nil {
		t.Fatal(err)
	}
	if _, err := probe(pi); !errors.Is(err, ErrPageIO) {
		t.Fatalf("probe of a corrupt page: %v, want ErrPageIO", err)
	}
	if p.res.Load() != nil {
		t.Fatal("a corrupt page became resident")
	}
}

// TestLazyFrameConcurrentReaders has several goroutines read the rows
// of one evicted page while it is faulted in, half in ascending and half
// in descending slot order, each into its own scratch; every reader must
// see rows identical to the unbounded heap's. Run it under -race:
// readers share the page's image and nothing else.
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
				var scratch []Value
				<-start
				for k := range rows {
					i := k
					if g%2 == 1 {
						i = heapPageSize - 1 - k
					}
					rows[i] = slices.Clone(tbl.row(base+int64(i), &scratch))
				}
				got[g] = rows
			}()
		}
		close(start)
		wg.Wait()
		for g, rows := range got {
			for i, row := range rows {
				if w := want.row(base+int64(i), nil); !IdenticalRows([][]Value{row}, [][]Value{w}) {
					t.Fatalf("round %d reader %d slot %d: got %v, want %v", round, g, i, row, w)
				}
			}
		}
		// Fault two other pages so the next round finds this one evicted.
		for _, other := range []int{(pi + 2) % 6, (pi + 4) % 6} {
			tbl.row(int64(other)<<heapPageShift, nil)
		}
	}
}
