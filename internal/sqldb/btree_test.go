package sqldb

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// encKey packs values the way an index packs a row's key columns.
func encKey(vals ...Value) string {
	var b []byte
	for _, v := range vals {
		b = appendKeyValue(b, v)
	}
	return string(b)
}

func intKey(is ...int64) string {
	vals := make([]Value, len(is))
	for i, x := range is {
		vals[i] = NewInt(x)
	}
	return encKey(vals...)
}

func collectAll(t *btree) []btreeEntry {
	var out []btreeEntry
	for c := t.seek(""); c.valid(); c.advance() {
		out = append(out, c.entry())
	}
	return out
}

// distinctRecount counts the distinct l-column prefixes of sorted
// entries, l = 1..width.
func distinctRecount(entries []btreeEntry, width int) []int {
	counts := make([]int, width)
	for l := 1; l <= width; l++ {
		var prev string
		for i, e := range entries {
			end := 0
			for k := 0; k < l; k++ {
				end = keyColumnEnd(e.key, end)
			}
			if p := e.key[:end]; i == 0 || p != prev {
				counts[l-1]++
				prev = p
			}
		}
	}
	return counts
}

// checkBtree verifies the tree's structure: nodes within the order,
// inner nodes with one more child than separators, every entry of a
// subtree at or above the separator on its left and below the one on
// its right, entries in strict (key, rid) order, and size equal to the
// entry count. strict also requires each separator to equal its right
// subtree's first entry, which holds for built trees and until the
// first Delete (deletes leave separators in place). exactDistinct
// requires the distinct-prefix counts to match a recount, which holds
// for built trees. Every inner node's per-child counts must match the
// entries under the child.
func checkBtree(t *testing.T, tr *btree, strict, exactDistinct bool) []btreeEntry {
	t.Helper()
	var all []btreeEntry
	var walk func(n *btreeNode, lo, hi *btreeEntry)
	walk = func(n *btreeNode, lo, hi *btreeEntry) {
		if len(n.entries) > btreeOrder {
			t.Fatalf("node holds %d entries, order %d", len(n.entries), btreeOrder)
		}
		if n.leaf {
			for _, e := range n.entries {
				if lo != nil && compareEntry(e, lo.key, lo.rid) < 0 || hi != nil && compareEntry(e, hi.key, hi.rid) >= 0 {
					t.Fatalf("entry %q/%d outside its separators", e.key, e.rid)
				}
				all = append(all, e)
			}
			return
		}
		if len(n.children) != len(n.entries)+1 || len(n.counts) != len(n.children) {
			t.Fatalf("inner node: %d children, %d counts for %d separators", len(n.children), len(n.counts), len(n.entries))
		}
		for i, child := range n.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = &n.entries[i-1]
			}
			if i < len(n.entries) {
				chi = &n.entries[i]
			}
			before := len(all)
			walk(child, clo, chi)
			if n.counts[i] != len(all)-before {
				t.Fatalf("inner node counts %d entries under child %d, which holds %d", n.counts[i], i, len(all)-before)
			}
			if strict && i > 0 {
				if len(all) == before || all[before] != n.entries[i-1] {
					t.Fatalf("separator %q/%d is not its right subtree's first entry", n.entries[i-1].key, n.entries[i-1].rid)
				}
			}
		}
	}
	walk(tr.root, nil, nil)
	for i := 1; i < len(all); i++ {
		if compareEntry(all[i-1], all[i].key, all[i].rid) >= 0 {
			t.Fatalf("entries %d and %d out of (key, rid) order", i-1, i)
		}
	}
	if tr.Len() != len(all) {
		t.Fatalf("size %d, %d entries", tr.Len(), len(all))
	}
	if scan := collectAll(tr); len(scan) != len(all) {
		t.Fatalf("cursor scan yields %d entries, tree holds %d", len(scan), len(all))
	}
	if exactDistinct {
		if want := distinctRecount(all, len(tr.distinct)); !slices.Equal(tr.distinct, want) {
			t.Fatalf("distinct counts %v, recount %v", tr.distinct, want)
		}
	}
	return all
}

func TestBtreeOrderedInsertScan(t *testing.T) {
	tr := newBtree(1, 1)
	const n = 1000
	for i := 0; i < n; i++ {
		tr.Insert(intKey(int64(i)), int64(i))
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	got := checkBtree(t, tr, true, false)
	for i, e := range got {
		if e.key != intKey(int64(i)) {
			t.Fatalf("entry %d has key %q", i, e.key)
		}
	}
	if d := tr.DistinctPrefix(1); d != n {
		t.Errorf("distinct = %d, want %d", d, n)
	}
}

// TestBtreeEqualKeyDeleteReinsert is the regression for the separator
// descent bug: with >64 equal keys (so leaves split), deleting and
// re-inserting every (key, rid) must not duplicate or lose entries.
// This is exactly what an UPDATE on a non-key column does to an index.
func TestBtreeEqualKeyDeleteReinsert(t *testing.T) {
	tr := newBtree(1, 1)
	const n = 300
	key := encKey(NewText("same"))
	for i := 0; i < n; i++ {
		tr.Insert(key, int64(i))
	}
	for i := 0; i < n; i++ {
		if !tr.Delete(key, int64(i)) {
			t.Fatalf("delete of rid %d failed", i)
		}
		tr.Insert(key, int64(i))
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d after delete/reinsert cycle, want %d", tr.Len(), n)
	}
	got := checkBtree(t, tr, false, false)
	seen := map[int64]bool{}
	for _, e := range got {
		if seen[e.rid] {
			t.Fatalf("duplicate rid %d in scan", e.rid)
		}
		seen[e.rid] = true
	}
	if d := tr.DistinctPrefix(1); d != 1 {
		t.Errorf("distinct = %d, want 1", d)
	}
}

func TestBtreeRangeScan(t *testing.T) {
	tr := newBtree(1, 2)
	for i := 0; i < 500; i++ {
		tr.Insert(intKey(int64(i%50), int64(i)), int64(i))
	}
	// Prefix scan: all entries with first column 7.
	seven := intKey(7)
	count := 0
	for c := tr.seek(seven); c.valid(); c.advance() {
		e := c.entry()
		if prefixCompare(e.key, seven) > 0 {
			break
		}
		if !strings.HasPrefix(e.key, seven) {
			t.Fatalf("prefix scan hit key %q", e.key)
		}
		count++
	}
	if count != 10 {
		t.Fatalf("prefix scan found %d entries, want 10", count)
	}
	// seekAfter: strictly greater than prefix 7.
	c := tr.seekAfter(seven)
	if !c.valid() || !strings.HasPrefix(c.entry().key, intKey(8)) {
		t.Fatalf("seekAfter(7) landed on %q", c.entry().key)
	}
}

// Property: the tree agrees with a reference sorted slice under random
// interleaved inserts and deletes.
func TestBtreeAgainstReferenceModel(t *testing.T) {
	type op struct {
		Key uint8
		Rid uint8
		Del bool
	}
	check := func(ops []op) bool {
		tr := newBtree(1, 1)
		ref := map[btreeEntry]bool{}
		for _, o := range ops {
			e := btreeEntry{key: intKey(int64(o.Key % 16)), rid: int64(o.Rid % 32)}
			if o.Del {
				tr.Delete(e.key, e.rid)
				delete(ref, e)
			} else {
				tr.Insert(e.key, e.rid)
				ref[e] = true
			}
		}
		return sameEntries(collectAll(tr), ref) && tr.Len() == len(ref)
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// sameEntries reports whether got, which must be in (key, rid) order,
// holds exactly the entries of ref.
func sameEntries(got []btreeEntry, ref map[btreeEntry]bool) bool {
	if len(got) != len(ref) {
		return false
	}
	for i, e := range got {
		if !ref[e] || i > 0 && compareEntry(got[i-1], e.key, e.rid) >= 0 {
			return false
		}
	}
	return true
}

func TestBtreeDistinctPrefixTracking(t *testing.T) {
	tr := newBtree(1, 2)
	// 20 names × 5 values each.
	for n := 0; n < 20; n++ {
		for v := 0; v < 5; v++ {
			tr.Insert(encKey(NewText(fmt.Sprintf("name%02d", n)), NewInt(int64(v))), int64(n*5+v))
		}
	}
	if d := tr.DistinctPrefix(1); d < 18 || d > 20 {
		t.Errorf("distinct(1) = %d, want ~20", d)
	}
	if d := tr.DistinctPrefix(2); d < 95 || d > 100 {
		t.Errorf("distinct(2) = %d, want ~100", d)
	}
}

// TestBtreeBuildInvariants builds trees bottom-up at sizes around leaf
// and fan-out boundaries over two-column keys with repeats, checks the
// structure and the exact distinct counts, then runs a randomized
// insert/delete sequence through beginWrite: full leaves split on the
// first insert, the copy-on-write writer must match a reference model,
// and the built version must read exactly as before.
func TestBtreeBuildInvariants(t *testing.T) {
	const order, fan = btreeOrder, btreeOrder + 1
	for _, n := range []int{0, 1, 2, order - 1, order, order + 1, order * fan, order*fan + 1, 3*order*fan + 17} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n)))
			entries := make([]btreeEntry, n)
			for i := range entries {
				name := NewText(fmt.Sprintf("n%d", rng.Intn(7)))
				if rng.Intn(9) == 0 {
					name = Null
				}
				entries[i] = btreeEntry{key: encKey(name, NewInt(int64(rng.Intn(n/3+1)))), rid: int64(i)}
			}
			rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
			built, _, _ := buildBtree(1, 2, entries)
			want := checkBtree(t, built, true, true)
			if len(want) != n {
				t.Fatalf("built %d entries from %d", len(want), n)
			}

			w := built.beginWrite(2)
			ref := map[btreeEntry]bool{}
			for _, e := range want {
				ref[e] = true
			}
			for i := 0; i < 3*order+n/4; i++ {
				if rng.Intn(3) == 0 && len(want) > 0 {
					e := want[rng.Intn(len(want))]
					if w.Delete(e.key, e.rid) != ref[e] {
						t.Fatalf("Delete(%q, %d) disagrees with the model", e.key, e.rid)
					}
					delete(ref, e)
					continue
				}
				e := btreeEntry{key: intKey(int64(rng.Intn(40))), rid: int64(n + i)}
				if rng.Intn(2) == 0 {
					e.key = encKey(NewText(fmt.Sprintf("n%d", rng.Intn(9))), NewInt(int64(rng.Intn(50))))
				}
				w.Insert(e.key, e.rid)
				ref[e] = true
			}
			got := checkBtree(t, w, false, false)
			if !sameEntries(got, ref) {
				t.Fatalf("writer holds %d entries, model %d", len(got), len(ref))
			}
			if got := checkBtree(t, built, true, true); !slices.Equal(got, want) {
				t.Fatal("the writer disturbed the built version")
			}
			checkCountRange(t, built, want)
			checkCountRange(t, w, got)
		})
	}
}

// checkCountRange compares the planner's range counts with a walk of
// the same ranges over all, tr's entries in order: every one- and
// two-column equality prefix over the test's names, with and without
// a lower and an upper bound on the second column.
func checkCountRange(t *testing.T, tr *btree, all []btreeEntry) {
	t.Helper()
	lit := func(v Value) compiledExpr { return func(*evalCtx, []Value) (Value, error) { return v, nil } }
	for n := -1; n < 10; n++ {
		name := NewText(fmt.Sprintf("n%d", n))
		if n < 0 {
			name = NewInt(7) // the integer keys the writer adds
		}
		for _, p := range []indexProbe{
			{eq: []compiledExpr{lit(name)}},
			{eq: []compiledExpr{lit(name), lit(NewInt(3))}},
			{eq: []compiledExpr{lit(name)}, lo: lit(NewInt(4))},
			{eq: []compiledExpr{lit(name)}, lo: lit(NewInt(4)), loIncl: true, hi: lit(NewInt(20))},
			{eq: []compiledExpr{lit(name)}, hi: lit(NewInt(9)), hiIncl: true},
			{lo: lit(name), hi: lit(NewText("n5"))},
		} {
			got, err := p.count(nil, tr)
			if err != nil {
				t.Fatal(err)
			}
			var buf probeBuf
			var cur probeCursor
			want := 0
			stop, _ := p.seek(nil, nil, tr, &buf, &cur, nil)
			for ; cur.valid() && !stop.passed(cur.entry().key); cur.advance() {
				want++
			}
			if got != want {
				t.Fatalf("probe %+v over %d entries: count %d, walk %d", p, len(all), got, want)
			}
		}
	}
}

// TestBtreeBuildDuplicates: the build reports the least rowid whose key
// an earlier rowid already holds, as an insert-order build would.
func TestBtreeBuildDuplicates(t *testing.T) {
	a, b, c := intKey(1), intKey(2), intKey(3)
	entries := []btreeEntry{{b, 9}, {a, 0}, {c, 4}, {b, 2}, {a, 7}, {c, 5}, {b, 6}}
	if _, dup, ok := buildBtree(1, 1, entries); !ok || dup != 5 {
		t.Fatalf("duplicate = %d (%v), want rowid 5", dup, ok)
	}
	if _, _, ok := buildBtree(1, 1, []btreeEntry{{a, 3}, {b, 3}, {c, 3}}); ok {
		t.Fatal("distinct keys reported as duplicates")
	}
}

// TestIndexesSurviveReopen: after a checkpoint, Close and OpenDurable,
// every index holds exactly the (key, rowid) entries it held before —
// the rebuilt trees are bottom-up builds, the originals grew by insert,
// update and delete — and its distinct-prefix counts are exact.
func TestIndexesSurviveReopen(t *testing.T) {
	fs := NewMemVFS()
	d := mustOpenDurable(t, fs, DurableOptions{})
	db := d.DB()
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT, v REAL, b BLOB)`)
	db.MustExec(`CREATE INDEX t_name_v ON t (name, v)`)
	db.MustExec(`CREATE INDEX t_v ON t (v)`)
	db.MustExec(`CREATE UNIQUE INDEX t_b ON t (b)`)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		name := NewText(fmt.Sprintf("k\x00%d", rng.Intn(40)))
		if i%11 == 0 {
			name = Null
		}
		v := NewFloat(float64(rng.Intn(200)) / 4)
		if i%13 == 0 {
			v = NewInt(int64(rng.Intn(50)))
		}
		db.MustExec(`INSERT INTO t VALUES (?, ?, ?, ?)`, NewInt(int64(i)), name, v, NewBlob([]byte(fmt.Sprint(i))))
	}
	db.MustExec(`DELETE FROM t WHERE id % 7 = 3`)
	db.MustExec(`UPDATE t SET v = v + 1000 WHERE id % 5 = 1`)
	before := indexEntries(db)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpenDurable(t, fs, DurableOptions{})
	defer re.Close()
	after := indexEntries(re.DB())
	if len(after) != len(before) {
		t.Fatalf("%d indexes after reopen, %d before", len(after), len(before))
	}
	for name, want := range before {
		if !slices.Equal(after[name], want) {
			t.Errorf("index %s: %d entries after reopen, %d before, or they differ", name, len(after[name]), len(want))
		}
	}
	tbl := re.DB().readState().table("t")
	for _, idx := range tbl.indexes {
		counts := distinctRecount(checkBtree(t, idx.tree, true, true), len(idx.def.Columns))
		for l := 1; l <= len(idx.def.Columns); l++ {
			if d, want := idx.tree.DistinctPrefix(l), counts[l-1]; d != want {
				t.Errorf("index %s: DistinctPrefix(%d) = %d, recount %d", idx.def.Name, l, d, want)
			}
		}
	}
}

// indexEntries returns every index's entries by index name.
func indexEntries(db *Database) map[string][]btreeEntry {
	out := map[string][]btreeEntry{}
	for _, name := range db.TableNames() {
		for _, idx := range db.readState().table(name).indexes {
			out[idx.def.Name] = collectAll(idx.tree)
		}
	}
	return out
}
