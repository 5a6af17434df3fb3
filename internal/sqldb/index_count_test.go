package sqldb

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// TestCountToMatchesCountRange counts ranges from a probe cursor's
// landing (btreeCursor.countTo) and from two root descents
// (btree.countRange) over trees of one leaf, two levels and three
// levels, built in bulk and grown by Insert with every fifth entry
// deleted (underfull and empty leaves), for every start and stop the
// three-letter alphabet makes: inclusive and exclusive stops shorter,
// as long as and longer than the start, and no stop at all.
func TestCountToMatchesCountRange(t *testing.T) {
	var bounds []string
	for _, a := range []string{"", "a", "b", "c"} {
		for _, b := range []string{"", "a", "b", "c"} {
			if a != "" || b == "" {
				bounds = append(bounds, a+b)
			}
		}
	}
	for _, size := range []int{1, 50, 2000, 6000} {
		for _, incr := range []bool{false, true} {
			tree := probeTree(rand.New(rand.NewSource(int64(size))), size, incr)
			var p probeCursor
			for _, from := range bounds {
				for strict := range 2 {
					p.seek(tree, from, strict)
					for _, to := range bounds {
						for _, incl := range []bool{false, true} {
							stop := keyBound{key: to, incl: incl}
							got := p.countTo(&stop)
							if want := tree.countRange(from, strict, keyBound{key: to, incl: incl}); got != want {
								t.Fatalf("size %d incremental %v: from (%q, %d) to (%q, incl %v): countTo %d, countRange %d",
									size, incr, from, strict, to, incl, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestLiteralRangeCountAllocatesNothing holds the planner's range
// count to its stack: indexProbe.count encodes literal bounds into
// arrays of its own and counts from the tree, allocating nothing.
func TestLiteralRangeCountAllocatesNothing(t *testing.T) {
	tree := newBtree(1, 2)
	for i := range 3000 {
		tree.Insert(encKey(NewText(fmt.Sprint("name", i%10)), NewInt(int64(i))), int64(i))
	}
	lit := func(v Value) compiledExpr { return func(*evalCtx, []Value) (Value, error) { return v, nil } }
	p := indexProbe{eq: []compiledExpr{lit(NewText("name3"))}, lo: lit(NewInt(100)), hi: lit(NewInt(2000)), loIncl: true}
	var n int
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if n, err = p.count(nil, tree); err != nil {
			t.Fatal(err)
		}
	})
	if n != 190 {
		t.Fatalf("counted %d entries of name3 in [100, 2000), want 190", n)
	}
	if allocs != 0 {
		t.Errorf("a literal-bounded range count allocates %.1f times, want 0", allocs)
	}
}

// countFixture is a table t(id, p, k, o) indexed on (p, k, o), the
// shape of a child step's (parent, kind, name, ordinal) key: parents 0
// to 9 hold a few children each and parent 3 holds 3000, so its runs
// span many leaves; a few rows have a NULL parent. Rows are inserted
// in a shuffled order, so a scan of t in rowid order visits keys out of
// order.
func countFixture(t *testing.T) *Database {
	t.Helper()
	db := New()
	db.MustExec(`CREATE TABLE t (id INTEGER NOT NULL, p INTEGER, k TEXT NOT NULL, o INTEGER NOT NULL)`)
	db.MustExec(`CREATE INDEX t_pko ON t (p, k, o)`)
	type row struct {
		p Value
		k string
		o int64
	}
	var rows []row
	for p := range 10 {
		n := 3 + p%4
		if p == 3 {
			n = 3000
		}
		for o := range n {
			rows = append(rows, row{p: NewInt(int64(p)), k: []string{"a", "b", "c"}[o%3], o: int64(o)})
		}
	}
	for o := range 5 {
		rows = append(rows, row{p: Null, k: "a", o: int64(o)})
	}
	rand.New(rand.NewSource(1)).Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	for id, r := range rows {
		db.MustExec(`INSERT INTO t VALUES (?, ?, ?, ?)`, NewInt(int64(id)), r.p, NewText(r.k), NewInt(r.o))
	}
	return db
}

// The same counts asked two ways: COUNT(*) over a range that applies
// every condition is answered on the index; COUNT(id), id NOT NULL,
// walks the range and reads every row.
const (
	indexedCount = `SELECT COUNT(*) FROM t WHERE p = ? AND k = ? AND o < ?`
	walkedCount  = `SELECT COUNT(id) FROM t WHERE p = ? AND k = ? AND o < ?`
)

// countGrid returns indexedCount for every probe of a grid of parents,
// names and ordinal bounds, NULL bounds included, after checking each
// against walkedCount.
func countGrid(t *testing.T, q Queryer) []int64 {
	t.Helper()
	var out []int64
	for _, p := range []Value{Null, NewInt(0), NewInt(3), NewInt(7), NewInt(42)} {
		for _, k := range []string{"a", "b", "zz"} {
			for _, o := range []Value{Null, NewInt(0), NewInt(2), NewInt(100), NewInt(1999), NewInt(5000)} {
				args := []Value{p, NewText(k), o}
				got, err := q.QueryScalar(indexedCount, args...)
				if err != nil {
					t.Fatal(err)
				}
				want, err := q.QueryScalar(walkedCount, args...)
				if err != nil {
					t.Fatal(err)
				}
				if got.Int() != want.Int() {
					t.Fatalf("p=%v k=%s o<%v: index count %d, walked count %d", p, k, o, got.Int(), want.Int())
				}
				out = append(out, got.Int())
			}
		}
	}
	return out
}

// TestIndexCountMatchesWalk compares the index-only COUNT(*) with the
// walked count over a fresh table, after deletes leave tombstones,
// inside a transaction after its own inserts and deletes, and on a
// snapshot pinned before a concurrent insert.
func TestIndexCountMatchesWalk(t *testing.T) {
	db := countFixture(t)
	for sql, want := range map[string]bool{indexedCount: true, walkedCount: false} {
		plan, err := db.Explain(sql, NewInt(3), NewText("a"), NewInt(5))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(plan, "IndexCount t via t_pko (eq 2, range lo=false hi=true)") != want {
			t.Fatalf("%s: IndexCount in plan = %v, want %v:\n%s", sql, !want, want, plan)
		}
	}
	countGrid(t, db)

	db.MustExec(`DELETE FROM t WHERE id % 3 = 0`)
	countGrid(t, db)

	err := db.Update(func(tx *Tx) error {
		n0, err := tx.QueryScalar(indexedCount, NewInt(3), NewText("a"), NewInt(20000))
		if err != nil {
			return err
		}
		for i := range 500 {
			if _, err := tx.Exec(`INSERT INTO t VALUES (?, 3, 'a', ?)`, NewInt(int64(100000+i)), NewInt(int64(10000+i))); err != nil {
				return err
			}
		}
		if _, err := tx.Exec(`DELETE FROM t WHERE p = 3 AND k = 'b' AND o < 1000`); err != nil {
			return err
		}
		countGrid(t, tx)
		if n, err := tx.QueryScalar(indexedCount, NewInt(3), NewText("a"), NewInt(20000)); err != nil || n.Int() != n0.Int()+500 {
			t.Errorf("inside the transaction: %v, %v; want %d", n, err, n0.Int()+500)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	snap := db.AcquireSnapshot()
	defer snap.Release()
	before := countGrid(t, snap)
	for i := range 300 {
		db.MustExec(`INSERT INTO t VALUES (?, 3, 'b', ?)`, NewInt(int64(200000+i)), NewInt(int64(i)))
	}
	if after := countGrid(t, snap); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Errorf("the pinned snapshot's counts moved with a later insert:\n%v\n%v", before, after)
	}
	if fmt.Sprint(countGrid(t, db)) == fmt.Sprint(before) {
		t.Error("the database's counts did not move with the insert")
	}
}

// TestCorrelatedIndexCount runs a correlated sibling count — each row's
// earlier namesakes under its parent, the positional step's count —
// with the outer rows in key order (an index scan: the count resumes
// from its finger and descends once) and out of it (a scan in shuffled
// rowid order: it descends afresh), and compares both with the walked
// count.
func TestCorrelatedIndexCount(t *testing.T) {
	db := countFixture(t)
	db.MustExec(`DELETE FROM t WHERE id % 7 = 0`)
	const body = ` FROM t s WHERE s.p = o.p AND s.k = o.k AND s.o < o.o)`
	for _, c := range []struct {
		outer   string
		ordered bool // outer rows arrive in the index's key order
	}{
		{`FROM t o WHERE o.p >= 0`, true},
		{`FROM t o WHERE o.id >= 0`, false},
	} {
		indexed := `SELECT o.id, (SELECT COUNT(*)` + body + ` ` + c.outer + ` ORDER BY o.id`
		walked := `SELECT o.id, (SELECT COUNT(s.id)` + body + ` ` + c.outer + ` ORDER BY o.id`
		got, err := db.Query(indexed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := db.Query(walked)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() == 0 || !IdenticalRows(got.Data, want.Data) {
			t.Fatalf("%s: index counts differ from walked counts (%d rows, %d rows)", c.outer, got.Len(), want.Len())
		}
		// EXPLAIN renders a filter's subqueries: the second sibling.
		text, err := db.ExplainAnalyze(`SELECT o.id ` + c.outer + ` AND (SELECT COUNT(*)` + body + ` = 1`)
		if err != nil {
			t.Fatal(err)
		}
		var line string
		for _, l := range strings.Split(text, "\n") {
			if strings.Contains(l, "IndexCount") {
				line = l
			}
		}
		if line == "" {
			t.Fatalf("%s: no IndexCount in the plan:\n%s", c.outer, text)
		}
		if resumed := strings.Contains(line, "descents=1 "); resumed != c.ordered {
			t.Errorf("%s: outer rows in key order %v, yet one descent is %v: %s", c.outer, c.ordered, resumed, line)
		}
	}
}

// TestDistinctAllocatesPerKey: DISTINCT over N rows with D distinct
// keys allocates for the D keys it keeps, not once per row.
func TestDistinctAllocatesPerKey(t *testing.T) {
	const n, d = 4096, 8
	rows := make([][]Value, n)
	for i := range rows {
		rows[i] = []Value{NewInt(int64(i % d)), NewText("same")}
	}
	node := &distinctNode{in: &valuesNode{rows: rows, schema: schema{{name: "a"}, {name: "b"}}}}
	it, err := node.open(&evalCtx{})
	if err != nil {
		t.Fatal(err)
	}
	kept := 0
	allocs := testing.AllocsPerRun(20, func() {
		if err := it.rewind(); err != nil {
			t.Fatal(err)
		}
		for kept = 0; ; kept++ {
			row, err := it.next()
			if err != nil {
				t.Fatal(err)
			}
			if row == nil {
				break
			}
		}
	})
	if kept != d {
		t.Fatalf("DISTINCT kept %d rows, want %d", kept, d)
	}
	if allocs > 2*d {
		t.Errorf("DISTINCT over %d rows with %d keys: %.0f allocations per run, want at most %d", n, d, allocs, 2*d)
	}
}

// TestDistinctKeysShareChunks: DISTINCT over rows that are all distinct
// keeps its keys in chunks, not one allocation each, and a rewound
// iterator hands the chunk out again only after it has forgotten the
// keys in it: every run keeps every row.
func TestDistinctKeysShareChunks(t *testing.T) {
	const n = 512
	rows := make([][]Value, n)
	for i := range rows {
		rows[i] = []Value{NewInt(int64(i)), NewText(fmt.Sprintf("k%d", i%7))}
	}
	node := &distinctNode{in: &valuesNode{rows: rows, schema: schema{{name: "a"}, {name: "b"}}}}
	it, err := node.open(&evalCtx{})
	if err != nil {
		t.Fatal(err)
	}
	run := func() int {
		if err := it.rewind(); err != nil {
			t.Fatal(err)
		}
		for kept := 0; ; kept++ {
			row, err := it.next()
			if err != nil {
				t.Fatal(err)
			}
			if row == nil {
				return kept
			}
		}
	}
	if kept := run(); kept != n {
		t.Fatalf("first run kept %d rows, want %d", kept, n)
	}
	var kept int
	allocs := testing.AllocsPerRun(20, func() { kept = run() })
	if kept != n {
		t.Fatalf("rewound run kept %d rows, want %d", kept, n)
	}
	if allocs > 8 {
		t.Errorf("DISTINCT over %d distinct rows: %.0f allocations per rewound run, want at most 8", n, allocs)
	}
}

// TestSortStableInPlace: a sort on two keys, one descending, orders the
// rows as a stable sort of the input does, ties in input order, and
// allocates for the input and one key block, not per row.
func TestSortStableInPlace(t *testing.T) {
	const n = 4096
	rng := rand.New(rand.NewSource(3))
	rows := make([][]Value, n)
	for i := range rows {
		rows[i] = []Value{NewInt(int64(rng.Intn(5))), NewText(string(rune('a' + rng.Intn(3)))), NewInt(int64(i))}
	}
	col := func(c int) compiledExpr {
		return func(_ *evalCtx, row []Value) (Value, error) { return row[c], nil }
	}
	node := &sortNode{
		in:   &valuesNode{rows: rows, schema: schema{{name: "a"}, {name: "b"}, {name: "seq"}}},
		keys: []compiledExpr{col(0), col(1)},
		desc: []bool{true, false},
	}
	want := append([][]Value(nil), rows...)
	sort.SliceStable(want, func(i, j int) bool {
		if c := Compare(want[i][0], want[j][0]); c != 0 {
			return c > 0
		}
		return Compare(want[i][1], want[j][1]) < 0
	})
	got, err := node.sorted(&evalCtx{})
	if err != nil {
		t.Fatal(err)
	}
	if !IdenticalRows(got, want) {
		t.Fatal("sorted rows differ from a stable sort of the input")
	}
	if allocs := testing.AllocsPerRun(5, func() { node.sorted(&evalCtx{}) }); allocs > 24 {
		t.Errorf("sorting %d rows: %.0f allocations, want at most 24", n, allocs)
	}
}

// TestMaterializeSizesFromHeldRows: draining an operator that already
// holds its rows (a sort) sizes the result once, so it is exactly as
// long as it is full.
func TestMaterializeSizesFromHeldRows(t *testing.T) {
	const n = 3000
	rows := make([][]Value, n)
	for i := range rows {
		rows[i] = []Value{NewInt(int64(n - i))}
	}
	in := &valuesNode{rows: rows, schema: schema{{name: "a"}}}
	first := func(_ *evalCtx, row []Value) (Value, error) { return row[0], nil }
	got, err := materialize(&evalCtx{}, &sortNode{in: in, keys: []compiledExpr{first}, desc: []bool{false}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n || cap(got) != n || got[0][0].Int() != 1 {
		t.Fatalf("sorted result: len %d cap %d first %v, want len and cap %d, first 1", len(got), cap(got), got[0][0], n)
	}
}
