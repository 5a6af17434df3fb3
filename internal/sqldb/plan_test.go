package sqldb

import (
	"fmt"
	"strings"
	"testing"
)

// chainDB models the F5 shape: one tiny root, a skewed fan-out, and a
// selective leaf predicate. The join order must start at the selective
// end, which the value index counts exactly.
func chainDB(t *testing.T, withValueIndex bool) *Database {
	t.Helper()
	db := New()
	db.MustExec(`CREATE TABLE e (source INTEGER, name TEXT, target INTEGER PRIMARY KEY, value TEXT)`)
	db.MustExec(`CREATE INDEX e_source ON e (source)`)
	db.MustExec(`CREATE INDEX e_name ON e (name)`)
	if withValueIndex {
		db.MustExec(`CREATE INDEX e_nv ON e (name, value)`)
	}
	// Node 1 = root "table" under source 0; 500 "row" children; each row
	// one "val" child with distinct value.
	db.MustExec(`INSERT INTO e VALUES (0, 'table', 1, NULL)`)
	id := int64(2)
	for i := 0; i < 500; i++ {
		rowID := id
		id++
		db.MustExec(`INSERT INTO e VALUES (1, 'row', ?, NULL)`, NewInt(rowID))
		db.MustExec(`INSERT INTO e VALUES (?, 'val', ?, ?)`,
			NewInt(rowID), NewInt(id), NewText(fmt.Sprintf("v%03d", i)))
		id++
	}
	return db
}

const chainQuery = `
	SELECT e3.target FROM e e1, e e2, e e3
	WHERE e1.source = 0 AND e1.name = 'table'
	  AND e2.source = e1.target AND e2.name = 'row'
	  AND e3.source = e2.target AND e3.name = 'val' AND e3.value = 'v007'`

func TestJoinOrderUsesValueIndex(t *testing.T) {
	db := chainDB(t, true)
	plan, err := db.Explain(chainQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "e_nv") {
		t.Errorf("plan does not drive from the value index:\n%s", plan)
	}
	rows, err := db.Query(chainQuery)
	if err != nil || rows.Len() != 1 {
		t.Fatalf("result: %v %v", rows, err)
	}
}

func TestJoinOrderCorrectWithoutIndex(t *testing.T) {
	db := chainDB(t, false)
	rows, err := db.Query(chainQuery)
	if err != nil || rows.Len() != 1 {
		t.Fatalf("result: %v %v", rows, err)
	}
}

func TestRangeIndexJoin(t *testing.T) {
	// The interval-style descendant join: c.pre BETWEEN p.pre+1 AND
	// p.pre+p.size must execute as a range index join, not O(n*m).
	db := New()
	db.MustExec(`CREATE TABLE a (pre INTEGER, size INTEGER, name TEXT)`)
	db.MustExec(`CREATE INDEX a_pre ON a (pre)`)
	db.MustExec(`CREATE INDEX a_name_pre ON a (name, pre)`)
	// Three parents each with a contiguous block of children.
	pre := int64(0)
	for p := 0; p < 3; p++ {
		parentPre := pre
		db.MustExec(`INSERT INTO a VALUES (?, 100, 'p')`, NewInt(parentPre))
		pre++
		for c := 0; c < 100; c++ {
			db.MustExec(`INSERT INTO a VALUES (?, 0, 'c')`, NewInt(pre))
			pre++
		}
	}
	q := `SELECT COUNT(*) FROM a p, a c
	      WHERE p.name = 'p' AND c.name = 'c'
	        AND c.pre > p.pre AND c.pre <= p.pre + p.size`
	v, err := db.QueryScalar(q)
	if err != nil || v.Int() != 300 {
		t.Fatalf("range join count = %v (%v)", v, err)
	}
	plan, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "IndexJoin") || !strings.Contains(plan, "range lo=true hi=true") {
		t.Errorf("descendant join did not use a range index join:\n%s", plan)
	}
}

func TestIndexBoundTypeSafety(t *testing.T) {
	// A numeric comparison against a TEXT column must not use the
	// text-ordered index (it would scan in the wrong order), yet must
	// still return the coerced-comparison answer.
	db := New()
	db.MustExec(`CREATE TABLE t (v TEXT)`)
	db.MustExec(`CREATE INDEX t_v ON t (v)`)
	for _, s := range []string{"99.5", "100", "250.00", "30", "abc", "251"} {
		db.MustExec(`INSERT INTO t VALUES (?)`, NewText(s))
	}
	v, err := db.QueryScalar(`SELECT COUNT(*) FROM t WHERE v > 250`)
	if err != nil {
		t.Fatal(err)
	}
	// "251" compares numerically; non-numeric "abc" orders after all
	// numbers (SQLite-style type ordering).
	if v.Int() != 2 {
		t.Errorf("coerced > = %d, want 2", v.Int())
	}
	v, err = db.QueryScalar(`SELECT COUNT(*) FROM t WHERE v = 250`)
	if err != nil {
		t.Fatal(err)
	}
	if v.Int() != 1 { // "250.00" == 250 under coercion
		t.Errorf("coerced = : %d, want 1", v.Int())
	}
	// Text bounds may and should use the index; same answer either way.
	v, _ = db.QueryScalar(`SELECT COUNT(*) FROM t WHERE v = '250.00'`)
	if v.Int() != 1 {
		t.Errorf("text eq: %d", v.Int())
	}
}

func TestCorrelatedSubqueryUsesIndex(t *testing.T) {
	// The positional-count pattern: the correlated scalar subquery's
	// outer reference acts as an index bound, turning an O(n^2) filter
	// into probes. Verify correctness; speed is covered by F1/Q5.
	db := New()
	db.MustExec(`CREATE TABLE s (parent INTEGER, ord INTEGER, val TEXT)`)
	db.MustExec(`CREATE INDEX s_parent ON s (parent, ord)`)
	for p := 0; p < 20; p++ {
		for o := 1; o <= 5; o++ {
			db.MustExec(`INSERT INTO s VALUES (?, ?, ?)`,
				NewInt(int64(p)), NewInt(int64(o)), NewText(fmt.Sprintf("p%do%d", p, o)))
		}
	}
	rows, err := db.Query(`
		SELECT val FROM s x
		WHERE (SELECT COUNT(*) FROM s y WHERE y.parent = x.parent AND y.ord < x.ord) + 1 = 2
		ORDER BY val`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 20 {
		t.Fatalf("second-position rows = %d, want 20", rows.Len())
	}
	for _, r := range rows.Data {
		if !strings.HasSuffix(r[0].Text(), "o2") {
			t.Fatalf("wrong row selected: %s", r[0].Text())
		}
	}
}

// TestAccessPathByEstimate: with a parent index and a (kind, name, pre)
// index on a node table where one parent holds most rows and attribute
// names repeat element names, the access path is the index whose range
// holds the fewest estimated rows, not the one with the longest bound
// prefix. A probe fixed at run time (parameters stand in for the outer
// references of a correlated subquery) takes the parent index; a
// constant name test takes (kind, name, …), whose count is exact.
func TestAccessPathByEstimate(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE n (pre INTEGER, parent INTEGER, ordinal INTEGER, kind TEXT, name TEXT)`)
	db.MustExec(`CREATE INDEX n_parent ON n (parent, ordinal)`)
	db.MustExec(`CREATE INDEX n_kind_name ON n (kind, name, pre)`)
	pre := int64(0)
	add := func(parent, ordinal int64, kind, name string) int64 {
		pre++
		db.MustExec(`INSERT INTO n VALUES (?, ?, ?, ?, ?)`, NewInt(pre), NewInt(parent), NewInt(ordinal), NewText(kind), NewText(name))
		return pre
	}
	root := add(0, 0, "elem", "site")
	for i := int64(0); i < 300; i++ {
		person := add(root, i, "elem", "person")
		for o, child := range []string{"name", "address", "profile"} {
			add(person, int64(o+1), "elem", child)
		}
		add(person, 0, "attr", "id")
		add(person+2, 0, "attr", "person") // an attribute namesake
	}
	add(root, 300, "elem", "rare")

	for _, c := range []struct{ sql, index string }{
		// The positional COUNT(*) probe: every bound fixed at run time.
		{`SELECT COUNT(*) FROM n s WHERE s.parent = ? AND s.kind = ? AND s.name = ? AND s.ordinal < ?`, "n_parent"},
		// The EXISTS child probe: a run-time parent, a constant name.
		{`SELECT 1 FROM n c WHERE c.parent = ? AND c.kind = 'elem' AND c.name = 'name'`, "n_parent"},
		// A constant name test, even beside a constant parent.
		{`SELECT pre FROM n WHERE kind = 'elem' AND name = 'person'`, "n_kind_name"},
		{`SELECT pre FROM n WHERE parent = 1 AND kind = 'elem' AND name = 'rare'`, "n_kind_name"},
	} {
		plan, err := db.Explain(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "IndexScan n via "+c.index+" ") {
			t.Errorf("%s: want a scan of %s:\n%s", c.sql, c.index, plan)
		}
	}
	// The correlated forms answer as the parameterized ones plan.
	first, err := db.QueryScalar(`SELECT COUNT(*) FROM n a WHERE a.kind = 'elem' AND a.name = 'name'
		AND (SELECT COUNT(*) FROM n s WHERE s.parent = a.parent AND s.kind = a.kind AND s.name = a.name AND s.ordinal < a.ordinal) + 1 = 1
		AND EXISTS (SELECT 1 FROM n c WHERE c.parent = a.parent AND c.kind = 'elem' AND c.name = 'profile')`)
	if err != nil || first.Int() != 300 {
		t.Fatalf("correlated probes: %v %v, want 300", first, err)
	}
}

func TestCrossJoinAndMultiJoinOrders(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE x (a INTEGER)`)
	db.MustExec(`CREATE TABLE y (b INTEGER)`)
	db.MustExec(`CREATE TABLE z (c INTEGER)`)
	for i := 0; i < 4; i++ {
		db.MustExec(`INSERT INTO x VALUES (?)`, NewInt(int64(i)))
		db.MustExec(`INSERT INTO y VALUES (?)`, NewInt(int64(i)))
		db.MustExec(`INSERT INTO z VALUES (?)`, NewInt(int64(i)))
	}
	v, err := db.QueryScalar(`SELECT COUNT(*) FROM x, y, z`)
	if err != nil || v.Int() != 64 {
		t.Fatalf("cross join: %v %v", v, err)
	}
	// A join chain linking x-y and y-z: any order must give the same.
	v, err = db.QueryScalar(`SELECT COUNT(*) FROM x, y, z WHERE x.a = y.b AND y.b = z.c`)
	if err != nil || v.Int() != 4 {
		t.Fatalf("chain join: %v %v", v, err)
	}
	// Non-equi join condition.
	v, err = db.QueryScalar(`SELECT COUNT(*) FROM x, y WHERE x.a < y.b`)
	if err != nil || v.Int() != 6 {
		t.Fatalf("non-equi join: %v %v", v, err)
	}
}

func TestDerivedTableJoins(t *testing.T) {
	db := testDB(t)
	v, err := db.QueryScalar(`
		SELECT COUNT(*) FROM nums n, (SELECT n AS tn FROM tags WHERE tag = 'five') f
		WHERE n.n = f.tn`)
	if err != nil || v.Int() != 20 {
		t.Fatalf("derived join: %v %v", v, err)
	}
	// Aggregate over a derived aggregate.
	v, err = db.QueryScalar(`
		SELECT MAX(c) FROM (SELECT grp, COUNT(*) AS c FROM nums GROUP BY grp) g`)
	if err != nil || v.Int() != 50 {
		t.Fatalf("nested agg: %v %v", v, err)
	}
}

func TestInsertSelectAndBulk(t *testing.T) {
	db := testDB(t)
	db.MustExec(`CREATE TABLE copy (n INTEGER, label TEXT)`)
	n, err := db.Exec(`INSERT INTO copy SELECT n, label FROM nums WHERE grp = 'even'`)
	if err != nil || n != 50 {
		t.Fatalf("insert-select: %d %v", n, err)
	}
	// BulkInsert coerces to declared types.
	if _, err := db.BulkInsert("copy", [][]Value{{NewText("7"), NewInt(9)}}); err != nil {
		t.Fatal(err)
	}
	v, _ := db.QueryScalar(`SELECT COUNT(*) FROM copy WHERE n = 7 AND label = '9'`)
	if v.Int() != 1 {
		t.Error("bulk coercion failed")
	}
	// Wrong arity rejected.
	if _, err := db.BulkInsert("copy", [][]Value{{NewInt(1)}}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := db.BulkInsert("nosuch", nil); err == nil {
		t.Error("unknown table accepted")
	}
}

func TestConcurrentReaders(t *testing.T) {
	db := testDB(t)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 50; i++ {
				if _, err := db.Query(`SELECT COUNT(*) FROM nums WHERE grp = 'even'`); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
