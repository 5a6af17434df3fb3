package sqldb

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// A transaction's inserts into an empty table defer its non-unique
// indexes: the entries are collected and each tree is built bottom-up
// when the transaction next reads or rewrites the table, or commits.

const bulkSchema = `CREATE TABLE t (id INTEGER PRIMARY KEY, k TEXT NOT NULL, g INTEGER, v TEXT)`

var bulkIndexes = []string{
	`CREATE INDEX t_kg ON t (k, g)`,
	`CREATE INDEX t_g ON t (g)`,
	`CREATE UNIQUE INDEX t_v ON t (v)`,
}

// bulkBatches returns n batches of size rows of t in a random key
// order: row i has id i and unique v "v<i>".
func bulkBatches(n, size int) [][][]Value {
	rng := rand.New(rand.NewSource(43))
	batches := make([][][]Value, n)
	for b := range batches {
		for r := 0; r < size; r++ {
			i := int64(b*size + r)
			g := NewInt(int64(rng.Intn(400)))
			if rng.Intn(9) == 0 {
				g = Null
			}
			batches[b] = append(batches[b], []Value{NewInt(i), NewText(fmt.Sprintf("k%02d", rng.Intn(30))), g, NewText(fmt.Sprint("v", i))})
		}
	}
	return batches
}

// newBulkDB returns a database holding t and its indexes, empty.
func newBulkDB(t *testing.T) *Database {
	t.Helper()
	db := New()
	for _, sql := range append([]string{bulkSchema}, bulkIndexes...) {
		db.MustExec(sql)
	}
	return db
}

// builtByCreateIndex loads rows into t before its indexes exist, so
// every index is a CREATE INDEX build over them.
func builtByCreateIndex(t *testing.T, rows [][]Value) *Database {
	t.Helper()
	db := New()
	db.MustExec(bulkSchema)
	if _, err := db.BulkInsert("t", rows); err != nil {
		t.Fatal(err)
	}
	for _, sql := range bulkIndexes {
		db.MustExec(sql)
	}
	return db
}

// treeNodes counts the nodes under n.
func treeNodes(n *btreeNode) int {
	c := 1
	for _, ch := range n.children {
		c += treeNodes(ch)
	}
	return c
}

// sameNonUniqueTrees fails unless every non-unique index of t holds the
// same entries in got as in want, in as many nodes, with the same
// distinct-prefix counts.
func sameNonUniqueTrees(t *testing.T, got, want *Database) {
	t.Helper()
	gt, wt := got.readState().table("t"), want.readState().table("t")
	for _, wi := range wt.indexes {
		if wi.def.Unique {
			continue
		}
		gi := gt.index(wi.def.Name)
		if gi.deferred != nil {
			t.Errorf("index %s: published with a deferred build", wi.def.Name)
		}
		if ge, we := collectAll(gi.tree), collectAll(wi.tree); !slices.Equal(ge, we) {
			t.Errorf("index %s: %d entries, want %d, or they differ", wi.def.Name, len(ge), len(we))
		}
		if g, w := treeNodes(gi.tree.root), treeNodes(wi.tree.root); g != w {
			t.Errorf("index %s: %d nodes, a CREATE INDEX build has %d", wi.def.Name, g, w)
		}
		if !slices.Equal(gi.tree.distinct, wi.tree.distinct) {
			t.Errorf("index %s: distinct prefixes %v, want %v", wi.def.Name, gi.tree.distinct, wi.tree.distinct)
		}
	}
	checkIndexes(t, got)
}

// TestBulkLoadBuildsIndexesBottomUp: an Update of several BulkInsert
// batches into an empty table publishes, per non-unique index, the
// tree CREATE INDEX builds over the same rows: the same (key, rowid)
// sequence, node count and distinct-prefix counts.
func TestBulkLoadBuildsIndexesBottomUp(t *testing.T) {
	batches := bulkBatches(5, 700)
	db := newBulkDB(t)
	if err := db.Update(func(tx *Tx) error {
		for _, b := range batches {
			if _, err := tx.BulkInsert("t", b); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sameNonUniqueTrees(t, db, builtByCreateIndex(t, slices.Concat(batches...)))
}

// explainAt renders sql's plan against the state st.
func explainAt(t *testing.T, db *Database, st *dbState, sql string) string {
	t.Helper()
	e, _, err := db.cachedPlanFor(st, sql, "Explain")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	explainTree(&b, e.p.root, 0, nil, nil)
	return b.String()
}

// TestBulkLoadQueryBetweenBatches: a tx.Query between batches builds the
// deferred trees first and answers through each index as a scan of the
// rows does; the batches after it go into those trees row by row.
func TestBulkLoadQueryBetweenBatches(t *testing.T) {
	batches := bulkBatches(4, 300)
	db := newBulkDB(t)
	count := func(rows [][]Value, pred func([]Value) bool) int64 {
		var n int64
		for _, r := range rows {
			if pred(r) {
				n++
			}
		}
		return n
	}
	probes := []struct {
		sql, via string
		args     []Value
		pred     func([]Value) bool
	}{
		{`SELECT COUNT(*) FROM t WHERE k = ? AND g < ?`, "via t_kg", []Value{NewText("k07"), NewInt(200)},
			func(r []Value) bool { return r[1].Text() == "k07" && !r[2].IsNull() && r[2].Int() < 200 }},
		{`SELECT COUNT(*) FROM t WHERE g = ?`, "via t_g", []Value{NewInt(17)},
			func(r []Value) bool { return !r[2].IsNull() && r[2].Int() == 17 }},
	}
	if err := db.Update(func(tx *Tx) error {
		for i, b := range batches {
			if _, err := tx.BulkInsert("t", b); err != nil {
				return err
			}
			if i != 1 {
				continue
			}
			sofar := slices.Concat(batches[:2]...)
			for _, p := range probes {
				n, err := tx.QueryScalar(p.sql, p.args...)
				if err != nil {
					return err
				}
				if want := count(sofar, p.pred); n.Int() != want {
					t.Errorf("%s: %d rows between batches, a scan finds %d", p.sql, n.Int(), want)
				}
				if plan := explainAt(t, db, tx.st, p.sql); !strings.Contains(plan, p.via) {
					t.Errorf("%s: plan does not read the index:\n%s", p.sql, plan)
				}
			}
			for _, idx := range tx.st.table("t").indexes {
				if idx.deferred != nil || idx.tree.Len() != len(sofar) {
					t.Errorf("index %s after the query: deferred %v, %d entries for %d rows", idx.def.Name, idx.deferred != nil, idx.tree.Len(), len(sofar))
				}
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	all := slices.Concat(batches...)
	for _, p := range probes {
		n, err := db.QueryScalar(p.sql, p.args...)
		if err != nil {
			t.Fatal(err)
		}
		if want := count(all, p.pred); n.Int() != want {
			t.Errorf("%s: %d rows after commit, a scan finds %d", p.sql, n.Int(), want)
		}
	}
	checkIndexes(t, db)
}

// TestBulkLoadFailedBatch: a batch refused mid-transaction, before any
// row is stored (NOT NULL) or after some are (a duplicate primary key
// at its last row), leaves exactly the earlier batches' entries, and
// the transaction goes on and commits.
func TestBulkLoadFailedBatch(t *testing.T) {
	batches := bulkBatches(3, 400)
	nullK := slices.Clone(batches[1])
	nullK[200] = []Value{NewInt(9999), Null, NewInt(1), NewText("null-k")}
	dupID := slices.Clone(batches[1])
	dupID[len(dupID)-1] = []Value{NewInt(3), NewText("k00"), NewInt(1), NewText("dup-id")}
	db := newBulkDB(t)
	if err := db.Update(func(tx *Tx) error {
		if _, err := tx.BulkInsert("t", batches[0]); err != nil {
			return err
		}
		for _, bad := range [][][]Value{nullK, dupID} {
			if _, err := tx.BulkInsert("t", bad); err == nil {
				t.Errorf("a batch with a bad row was accepted")
			}
		}
		for _, b := range batches[1:] {
			if _, err := tx.BulkInsert("t", b); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sameNonUniqueTrees(t, db, builtByCreateIndex(t, slices.Concat(batches...)))
}

// TestBulkLoadAbortPublishesNothing: an aborted load leaves the table
// and every index empty, with no build pending, and a later load
// builds its trees as if the first never ran.
func TestBulkLoadAbortPublishesNothing(t *testing.T) {
	batches := bulkBatches(3, 400)
	db := newBulkDB(t)
	boom := errors.New("abort")
	if err := db.Update(func(tx *Tx) error {
		for _, b := range batches {
			if _, err := tx.BulkInsert("t", b); err != nil {
				return err
			}
		}
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("Update: %v", err)
	}
	tbl := db.readState().table("t")
	for _, idx := range tbl.indexes {
		if idx.deferred != nil || idx.tree.Len() != 0 {
			t.Errorf("index %s after abort: deferred %v, %d entries", idx.def.Name, idx.deferred != nil, idx.tree.Len())
		}
	}
	if tbl.live != 0 {
		t.Errorf("%d rows after abort", tbl.live)
	}
	if err := db.Update(func(tx *Tx) error {
		_, err := tx.BulkInsert("t", batches[2])
		return err
	}); err != nil {
		t.Fatal(err)
	}
	sameNonUniqueTrees(t, db, builtByCreateIndex(t, batches[2]))
}

// TestBulkLoadReplayedAfterCrash: a load whose commit reached the log
// but no checkpoint is replayed through applyInsert at reopen, as one
// transaction, and the replayed indexes equal the loaded ones.
func TestBulkLoadReplayedAfterCrash(t *testing.T) {
	batches := bulkBatches(4, 500)
	defer SetTxStreamBytes(SetTxStreamBytes(16 << 10))
	for _, mode := range []CrashMode{CrashLoseUnsynced, CrashKeepAll} {
		fs := NewMemVFS()
		d := mustOpenDurable(t, fs, DurableOptions{})
		db := d.DB()
		for _, sql := range append([]string{bulkSchema}, bulkIndexes...) {
			db.MustExec(sql)
		}
		if err := db.Update(func(tx *Tx) error {
			for _, b := range batches {
				if _, err := tx.BulkInsert("t", b); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if d.Stats().Continuations == 0 {
			t.Fatalf("the load logged no continuation frame")
		}
		crashed := fs.Clone()
		crashed.Crash(mode)
		re := mustOpenDurable(t, crashed, DurableOptions{})
		sameNonUniqueTrees(t, re.DB(), db)
		sameNonUniqueTrees(t, re.DB(), builtByCreateIndex(t, slices.Concat(batches...)))
		if got, want := collectAll(re.DB().readState().table("t").index("t_v").tree), collectAll(db.readState().table("t").index("t_v").tree); !slices.Equal(got, want) {
			t.Errorf("%v: unique index t_v: %d entries after replay, %d loaded", mode, len(got), len(want))
		}
		re.Close()
		d.Close()
	}
}

// TestBulkLoadUniqueIndexRefusesAtStatement: the unique indexes of a
// table whose other indexes defer are kept row by row, so a duplicate
// fails the statement that brings it, not the commit.
func TestBulkLoadUniqueIndexRefusesAtStatement(t *testing.T) {
	batches := bulkBatches(2, 300)
	dup := slices.Clone(batches[1])
	dup[150] = []Value{NewInt(5000), NewText("k01"), NewInt(2), NewText("v7")}
	db := newBulkDB(t)
	if err := db.Update(func(tx *Tx) error {
		if _, err := tx.BulkInsert("t", batches[0]); err != nil {
			return err
		}
		for _, idx := range tx.st.table("t").indexes {
			if idx.def.Unique != (idx.deferred == nil) {
				t.Errorf("index %s (unique %v): deferred %v", idx.def.Name, idx.def.Unique, idx.deferred != nil)
			}
		}
		if _, err := tx.BulkInsert("t", dup); err == nil || !strings.Contains(err.Error(), "unique index t_v violated") {
			t.Errorf("duplicate v: %v, want the unique index violation", err)
		}
		_, err := tx.BulkInsert("t", batches[1])
		return err
	}); err != nil {
		t.Fatal(err)
	}
	sameNonUniqueTrees(t, db, builtByCreateIndex(t, slices.Concat(batches...)))
}
