package sqldb

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// BenchmarkBtree measures the index B-tree on keys shaped like an
// Interval name index's, (kind, name, pre): 300 names, each over a run
// of ascending numbers.
//
//   - insert/ascending and insert/random: one Insert per op, in key
//     order or in a random one; the tree starts over every 1<<16 keys.
//   - probe: a probe cursor's seek to a random (kind, name, pre) start,
//     then a walk of up to eight entries that stops at the end of the
//     name, as an index join does per outer row.
//   - build: buildBtree over all 1<<16 entries, their keys packed into
//     one arena in a random order, as an index rebuild at open collects
//     them in rowid order; one op is one whole build.
//
// Each reports bytes/entry: what a tree of all 1<<16 keys, grown in the
// same order, holds in its nodes and their arrays. It fails above
// btreeBytesPerEntryCeiling.
func BenchmarkBtree(b *testing.B) {
	const size = 1 << 16
	keys := make([]string, size)
	for i := range keys {
		keys[i] = encKey(NewInt(1), NewText(fmt.Sprintf("name%03d", i%300)), NewInt(int64(i)))
	}
	slices.Sort(keys)
	names := make([]string, size) // names[i] is keys[i]'s (kind, name)
	for i, k := range keys {
		names[i] = k[:keyColumnEnd(k, keyColumnEnd(k, 0))]
	}
	rng := rand.New(rand.NewSource(1))
	ascending := make([]int, size)
	for i := range ascending {
		ascending[i] = i
	}
	random := slices.Clone(ascending)
	rng.Shuffle(size, func(i, j int) { random[i], random[j] = random[j], random[i] })
	grow := func(order []int) *btree {
		tr := newBtree(1, 3)
		for _, i := range order {
			tr.Insert(keys[i], int64(i))
		}
		return tr
	}
	perEntry := func(tr *btree) float64 {
		bytes := float64(footprint(tr.root)) / float64(tr.Len())
		if bytes > btreeBytesPerEntryCeiling {
			b.Fatalf("%.2f bytes per entry, want <= %d", bytes, btreeBytesPerEntryCeiling)
		}
		return bytes
	}

	for _, c := range []struct {
		name  string
		order []int
	}{{"ascending", ascending}, {"random", random}} {
		b.Run("insert/"+c.name, func(b *testing.B) {
			bytes := perEntry(grow(c.order))
			b.ReportAllocs()
			b.ResetTimer()
			var tr *btree
			for n := 0; n < b.N; n++ {
				if n%size == 0 {
					tr = newBtree(1, 3)
				}
				i := c.order[n%size]
				tr.Insert(keys[i], int64(i))
			}
			b.StopTimer()
			b.ReportMetric(bytes, "bytes/entry")
		})
	}

	for _, c := range []struct {
		name  string
		order []int
	}{{"ascending", ascending}, {"random", random}} {
		b.Run("probe/"+c.name, func(b *testing.B) {
			tr := grow(random)
			bytes := perEntry(tr)
			var p probeCursor
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				i := c.order[n%size]
				stop := keyBound{key: names[i], incl: true}
				p.seek(tr, keys[i], 0)
				for k := 0; k < 8; k++ {
					if _, ok := stop.next(&p.btreeCursor); !ok {
						break
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(bytes, "bytes/entry")
		})
	}
	b.Run("build", func(b *testing.B) {
		var arena []byte
		ends := make([]int, size)
		for k, i := range random {
			arena = append(arena, keys[i]...)
			ends[k] = len(arena)
		}
		built := make([]btreeEntry, size)
		start := 0
		for k := range random {
			built[k] = btreeEntry{key: keyView(arena[start:ends[k]]), rid: int64(k)}
			start = ends[k]
		}
		entries := make([]btreeEntry, size)
		b.ReportAllocs()
		for b.Loop() {
			copy(entries, built)
			if tr, _, _ := buildBtree(1, 3, entries); tr.Len() != size {
				b.Fatalf("built %d entries, want %d", tr.Len(), size)
			}
		}
	})
}

// btreeBytesPerEntryCeiling bounds BenchmarkBtree's bytes per entry, in
// the tree grown by ascending and by random inserts. They read 19.9 and
// 22.7 while a node held its keys in four arrays (prefix, suffix, uint32
// end offsets, int64 rowids), and 9.7 and 10.8 with one array whose
// offsets and rowid deltas are as narrow as the node needs; the ceiling
// is the larger plus about 11 %.
const btreeBytesPerEntryCeiling = 12

// footprint returns the bytes the nodes under n and their arrays hold,
// counted at capacity: each node's header, its key array, and an inner
// node's children and counts.
func footprint(n *btreeNode) int {
	s := int(unsafe.Sizeof(*n)) + cap(n.keys.b) + 8*cap(n.children) + 8*cap(n.counts)
	for _, c := range n.children {
		s += footprint(c)
	}
	return s
}

// bulkLoadAllocsCeiling bounds BenchmarkBulkLoad's allocations per
// load. It read 371,531 with a tree insert per row, 153,303 once the
// trees were built bottom-up at commit, and 22,224 once rows were cut
// from one block per heap page and key buffers stayed on the stack (the
// 65,536 row copies and as many key buffers went); the ceiling is that
// plus about 12 %.
const bulkLoadAllocsCeiling = 25000

// BenchmarkBulkLoad measures a load as a shredder makes one: one Update
// of sixteen 4096-row BulkInsert batches into an empty table with four
// non-unique indexes shaped like Interval's (pre; parent, kind, name;
// kind, name, pre; name, value), rows in the order a streaming shredder
// emits them (an element when it closes). One op is the whole load into
// a fresh database; B/op and allocs/op count the heap, the four trees
// and the transaction's garbage. It fails when a load allocates more
// than bulkLoadAllocsCeiling times: a per-row allocation is back.
func BenchmarkBulkLoad(b *testing.B) {
	const batch, batches = 4096, 16
	rows := make([][]Value, batch*batches)
	for i := range rows {
		// Post-order: a run of eight leaves, then their parent.
		pre := int64(i/9*9 + (i+1)%9)
		kind, name := "elem", fmt.Sprintf("name%03d", i%300)
		if i%3 == 0 {
			kind, name = "text", ""
		}
		rows[i] = []Value{NewInt(pre), NewInt(pre / 9 * 9), NewText(kind), NewText(name), NewText(fmt.Sprint("value ", i%1000))}
	}
	load := func() {
		db := New()
		db.MustExec(`CREATE TABLE accel (pre INTEGER NOT NULL, parent INTEGER NOT NULL, kind TEXT NOT NULL, name TEXT, value TEXT)`)
		db.MustExec(`CREATE INDEX accel_pre ON accel (pre)`)
		db.MustExec(`CREATE INDEX accel_parent ON accel (parent, kind, name)`)
		db.MustExec(`CREATE INDEX accel_kind_name ON accel (kind, name, pre)`)
		db.MustExec(`CREATE INDEX accel_name_value ON accel (name, value)`)
		if err := db.Update(func(tx *Tx) error {
			for lo := 0; lo < len(rows); lo += batch {
				if _, err := tx.BulkInsert("accel", rows[lo:lo+batch]); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(1, load); allocs > bulkLoadAllocsCeiling {
		b.Fatalf("%.0f allocations per load, want <= %d", allocs, bulkLoadAllocsCeiling)
	}
	b.ReportAllocs()
	for b.Loop() {
		load()
	}
}
