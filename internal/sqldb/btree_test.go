package sqldb

import (
	"fmt"
	"math/rand"
	"reflect"
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

// entry returns the cursor's entry with its key built; the caller must
// check valid first.
func (c *btreeCursor) entry() btreeEntry {
	pre, suf := c.key()
	return btreeEntry{key: pre + suf, rid: c.rid()}
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
// entries under the child, and every node's packed run must be well
// formed (checkRun).
func checkBtree(t *testing.T, tr *btree, strict, exactDistinct bool) []btreeEntry {
	t.Helper()
	var all []btreeEntry
	var walk func(n *btreeNode, lo, hi *btreeEntry)
	walk = func(n *btreeNode, lo, hi *btreeEntry) {
		keys := checkRun(t, &n.keys)
		if len(keys) > btreeOrder {
			t.Fatalf("node holds %d entries, order %d", len(keys), btreeOrder)
		}
		if n.leaf {
			for _, e := range keys {
				if lo != nil && compareEntries(e, *lo) < 0 || hi != nil && compareEntries(e, *hi) >= 0 {
					t.Fatalf("entry %q/%d outside its separators", e.key, e.rid)
				}
				all = append(all, e)
			}
			return
		}
		if len(n.children) != len(keys)+1 || len(n.counts) != len(n.children) {
			t.Fatalf("inner node: %d children, %d counts for %d separators", len(n.children), len(n.counts), len(keys))
		}
		for i, child := range n.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = &keys[i-1]
			}
			if i < len(keys) {
				chi = &keys[i]
			}
			before := len(all)
			walk(child, clo, chi)
			if n.counts[i] != len(all)-before {
				t.Fatalf("inner node counts %d entries under child %d, which holds %d", n.counts[i], i, len(all)-before)
			}
			if strict && i > 0 {
				if len(all) == before || all[before] != keys[i-1] {
					t.Fatalf("separator %q/%d is not its right subtree's first entry", keys[i-1].key, keys[i-1].rid)
				}
			}
		}
	}
	walk(tr.root, nil, nil)
	for i := 1; i < len(all); i++ {
		if compareEntries(all[i-1], all[i]) >= 0 {
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

// checkRun verifies a packed run — no more entries than slots, offsets
// ascending to the end of the suffix bytes in a field wide enough for
// them, every rowid at or above the base, the prefix the longest its
// first and last keys share — and returns its entries.
func checkRun(t *testing.T, r *packedKeys) []btreeEntry {
	t.Helper()
	if r.n > r.c {
		t.Fatalf("run holds %d entries in %d slots", r.n, r.c)
	}
	if r.n > 0 && widthFor(uint64(r.sufLen())) > r.ew {
		t.Fatalf("%d suffix bytes behind %d-byte offsets", r.sufLen(), r.ew)
	}
	if r.keyAt() < r.ridAt()+int(r.c)*int(r.rw) || r.sufAt() < r.keyAt() || r.sufAt() > len(r.b) {
		t.Fatalf("rowids from %d, prefix from %d, suffix from %d: out of order in %d bytes", r.ridAt(), r.keyAt(), r.sufAt(), len(r.b))
	}
	var out []btreeEntry
	for i := range r.len() {
		if end := r.end(i); end < r.start(i) || end > r.sufLen() {
			t.Fatalf("offset %d of key %d outside [%d, %d]", end, i, r.start(i), r.sufLen())
		}
		if r.rid(i) < r.base {
			t.Fatalf("rowid %d of key %d below the base %d", r.rid(i), i, r.base)
		}
		out = append(out, btreeEntry{key: r.key(i), rid: r.rid(i)})
	}
	if len(out) == 0 {
		if len(r.pre()) != 0 || r.sufLen() != 0 {
			t.Fatalf("empty run keeps a %d-byte prefix and %d suffix bytes", len(r.pre()), r.sufLen())
		}
		return nil
	}
	if end := r.end(len(out) - 1); end != r.sufLen() {
		t.Fatalf("offsets end at %d, suffix holds %d bytes", end, r.sufLen())
	}
	first, last := out[0].key, out[len(out)-1].key
	if want := first[:commonPrefixLen(first, last)]; r.pre() != want {
		t.Fatalf("run prefix %q, its end keys share %q", r.pre(), want)
	}
	return out
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

// modelKeys are two-column keys for the reference model: TEXT of 0 to
// 300 bytes sharing long leading runs, so leaf prefixes shrink and grow
// as keys come and go at a leaf's ends; numbers and NULLs, which share
// nothing with the TEXT keys; and last, one key over 64 KiB, which
// needs offsets wider than 16 bits.
func modelKeys() []string {
	base := strings.Repeat("ab", 150)
	var keys []string
	for _, l := range []int{0, 1, 7, 40, 41, 120, 299, 300} {
		keys = append(keys,
			encKey(NewText(base[:l]), NewInt(int64(l))),
			encKey(NewText(base[:l]), NewFloat(-0.5)),
			encKey(NewText(base[:l/2]+"z"+base[:l/2]), NewInt(1)))
	}
	keys = append(keys, intKey(5, 6), intKey(5, 7), encKey(Null, NewInt(1)), encKey(NewInt(-3), Null))
	return append(keys, encKey(NewText(strings.Repeat("ab", 1<<15)+"!"), NewInt(2)))
}

// pickKey returns one of keys, the long last one only rarely so the
// trees stay small.
func pickKey(rng *rand.Rand, keys []string) string {
	if rng.Intn(64) == 0 {
		return keys[len(keys)-1]
	}
	return keys[rng.Intn(len(keys)-1)]
}

// Property: the tree agrees with a reference set under random
// interleaved inserts and deletes of two-column keys, long enough to
// split leaves and fill two levels, and stays well formed throughout.
func TestBtreeAgainstReferenceModel(t *testing.T) {
	type op struct {
		Key string
		Rid int64
		Del bool
	}
	keys := modelKeys()
	check := func(ops []op) bool {
		tr := newBtree(1, 2)
		ref := map[btreeEntry]bool{}
		for _, o := range ops {
			e := btreeEntry{key: o.Key, rid: o.Rid}
			if o.Del {
				if tr.Delete(e.key, e.rid) != ref[e] {
					return false
				}
				delete(ref, e)
			} else {
				tr.Insert(e.key, e.rid)
				ref[e] = true
			}
		}
		return sameEntries(checkBtree(t, tr, false, false), ref) && tr.Len() == len(ref)
	}
	cfg := &quick.Config{MaxCount: 40, Values: func(args []reflect.Value, rng *rand.Rand) {
		ops := make([]op, rng.Intn(2500))
		for i := range ops {
			ops[i] = op{Key: pickKey(rng, keys), Rid: int64(rng.Intn(64)), Del: rng.Intn(3) == 0}
		}
		args[0] = reflect.ValueOf(ops)
	}}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestBtreeCopyOnWrite: a handle taken before beginWrite reads exactly
// its original entries after the writer's inserts, deletes and splits —
// and so does the writer's handle after a second writer's.
func TestBtreeCopyOnWrite(t *testing.T) {
	keys := modelKeys()
	rng := rand.New(rand.NewSource(5))
	tr := newBtree(1, 2)
	for i := 0; i < 3000; i++ {
		tr.Insert(pickKey(rng, keys), int64(i))
	}
	write := func(tr *btree, gen uint64) *btree {
		w := tr.beginWrite(gen)
		live := collectAll(w)
		for i := 0; i < 3000; i++ {
			if rng.Intn(3) == 0 {
				e := live[rng.Intn(len(live))]
				w.Delete(e.key, e.rid)
				continue
			}
			w.Insert(pickKey(rng, keys), int64(gen)<<20+int64(i))
		}
		return w
	}
	want := checkBtree(t, tr, false, false)
	w := write(tr, 2)
	wantW := checkBtree(t, w, false, false)
	if slices.Equal(wantW, want) {
		t.Fatal("the writer changed nothing")
	}
	write(w, 3)
	if got := checkBtree(t, tr, false, false); !slices.Equal(got, want) {
		t.Fatalf("the original handle reads %d entries after two writers, %d before, or they differ", len(got), len(want))
	}
	if got := checkBtree(t, w, false, false); !slices.Equal(got, wantW) {
		t.Fatalf("the first writer's handle reads %d entries after the second writer, %d before, or they differ", len(got), len(wantW))
	}
}

// TestPackedKeysHoldNoPointers guards the point of the packed run: no
// field holds a pointer but its one array, whose elements cannot, so the
// array is allocated in memory the garbage collector does not scan.
func TestPackedKeysHoldNoPointers(t *testing.T) {
	typ := reflect.TypeOf(packedKeys{})
	for i := range typ.NumField() {
		f := typ.Field(i)
		held := f.Type
		if held.Kind() == reflect.Slice {
			held = held.Elem()
		}
		if mayHoldPointer(held) {
			t.Errorf("packedKeys.%s is a %s: a run's storage must hold no pointers", f.Name, f.Type)
		}
	}
}

func mayHoldPointer(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && mayHoldPointer(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if mayHoldPointer(t.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true
}

// sameEntries reports whether got, which must be in (key, rid) order,
// holds exactly the entries of ref.
func sameEntries(got []btreeEntry, ref map[btreeEntry]bool) bool {
	if len(got) != len(ref) {
		return false
	}
	for i, e := range got {
		if !ref[e] || i > 0 && compareEntries(got[i-1], e) >= 0 {
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
			for _, ok := stop.next(&cur.btreeCursor); ok; _, ok = stop.next(&cur.btreeCursor) {
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

// TestSortEntriesMatchesCompare holds the abbreviated radix sort to
// compareEntries on keys built to tie: shared prefixes longer than an
// abbreviation, keys that are prefixes of others with zero bytes after,
// equal keys under several rowids, and rowids out of order.
func TestSortEntriesMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{2, 63, 64, 500, 5000} {
		for trial := range 4 {
			entries := make([]btreeEntry, n)
			for i := range entries {
				key := make([]byte, rng.Intn(24))
				for j := range key {
					key[j] = byte(rng.Intn(3))
				}
				if trial%2 == 1 {
					key = append([]byte("a shared prefix of twenty"), key...)
				}
				entries[i] = btreeEntry{key: string(key), rid: int64(rng.Intn(n))}
			}
			want := slices.Clone(entries)
			slices.SortFunc(want, compareEntries)
			sortEntries(entries)
			for i := range want {
				if entries[i] != want[i] {
					t.Fatalf("n=%d trial %d: entry %d is %q/%d, want %q/%d", n, trial, i, entries[i].key, entries[i].rid, want[i].key, want[i].rid)
				}
			}
		}
	}
}
