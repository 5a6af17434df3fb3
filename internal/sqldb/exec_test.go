package sqldb

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// testDB builds a small two-table fixture.
func testDB(t *testing.T) *Database {
	t.Helper()
	db := New()
	db.MustExec(`CREATE TABLE nums (n INTEGER PRIMARY KEY, sq INTEGER, label TEXT, grp TEXT)`)
	for i := 1; i <= 100; i++ {
		grp := "even"
		if i%2 == 1 {
			grp = "odd"
		}
		db.MustExec(`INSERT INTO nums VALUES (?, ?, ?, ?)`,
			NewInt(int64(i)), NewInt(int64(i*i)), NewText(fmt.Sprintf("n%03d", i)), NewText(grp))
	}
	db.MustExec(`CREATE TABLE tags (n INTEGER, tag TEXT)`)
	for i := 1; i <= 100; i += 5 {
		db.MustExec(`INSERT INTO tags VALUES (?, 'five')`, NewInt(int64(i)))
	}
	for i := 1; i <= 100; i += 7 {
		db.MustExec(`INSERT INTO tags VALUES (?, 'seven')`, NewInt(int64(i)))
	}
	return db
}

func scalarInt(t *testing.T, db *Database, sql string, args ...Value) int64 {
	t.Helper()
	v, err := db.QueryScalar(sql, args...)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return v.Int()
}

func TestWhereAndRanges(t *testing.T) {
	db := testDB(t)
	if got := scalarInt(t, db, `SELECT COUNT(*) FROM nums WHERE n BETWEEN 10 AND 19`); got != 10 {
		t.Errorf("BETWEEN: %d", got)
	}
	if got := scalarInt(t, db, `SELECT COUNT(*) FROM nums WHERE n >= 90`); got != 11 {
		t.Errorf(">=: %d", got)
	}
	if got := scalarInt(t, db, `SELECT COUNT(*) FROM nums WHERE label LIKE 'n00%'`); got != 9 {
		t.Errorf("LIKE prefix: %d", got)
	}
	if got := scalarInt(t, db, `SELECT COUNT(*) FROM nums WHERE n IN (1, 50, 100, 200)`); got != 3 {
		t.Errorf("IN: %d", got)
	}
	if got := scalarInt(t, db, `SELECT COUNT(*) FROM nums WHERE NOT (grp = 'even')`); got != 50 {
		t.Errorf("NOT: %d", got)
	}
}

func TestProjectionAndExpressions(t *testing.T) {
	db := testDB(t)
	rows, err := db.Query(`SELECT n, sq - n * n, label || '!' FROM nums WHERE n <= 3 ORDER BY n`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 3 {
		t.Fatalf("rows = %d", rows.Len())
	}
	for i, r := range rows.Data {
		if r[0].Int() != int64(i+1) || r[1].Int() != 0 || !strings.HasSuffix(r[2].Text(), "!") {
			t.Errorf("row %d = %v", i, r)
		}
	}
	v, err := db.QueryScalar(`SELECT CASE WHEN 1 > 2 THEN 'a' WHEN 2 > 1 THEN 'b' ELSE 'c' END`)
	if err != nil || v.Text() != "b" {
		t.Errorf("CASE = %v (%v)", v, err)
	}
}

func TestJoinsAgree(t *testing.T) {
	db := testDB(t)
	// The same join in comma, JOIN-ON, and EXISTS form must agree.
	a := scalarInt(t, db, `SELECT COUNT(*) FROM nums, tags WHERE nums.n = tags.n`)
	b := scalarInt(t, db, `SELECT COUNT(*) FROM nums JOIN tags ON nums.n = tags.n`)
	c := scalarInt(t, db, `SELECT COUNT(*) FROM tags, nums WHERE tags.n = nums.n`)
	if a != b || b != c {
		t.Fatalf("join counts disagree: %d %d %d", a, b, c)
	}
	if a != 20+15 {
		t.Fatalf("join count = %d, want 35", a)
	}
	// Join with extra filters.
	got := scalarInt(t, db, `SELECT COUNT(*) FROM nums, tags WHERE nums.n = tags.n AND tags.tag = 'five' AND nums.grp = 'odd'`)
	if got != 10 {
		t.Fatalf("filtered join = %d, want 10", got)
	}
}

func TestLeftJoin(t *testing.T) {
	db := testDB(t)
	rows, err := db.Query(`
		SELECT nums.n, tags.tag FROM nums LEFT JOIN tags ON nums.n = tags.n
		WHERE nums.n <= 10 ORDER BY nums.n, tags.tag`)
	if err != nil {
		t.Fatal(err)
	}
	// n=1 matches five and seven, n=6 matches five, n=8 matches seven;
	// 2,3,4,5,7,9,10 have... five: 1,6; seven: 1,8; so 1 has 2 rows,
	// 6 and 8 one row each, the other 7 values NULL rows.
	if rows.Len() != 2+1+1+7 {
		t.Fatalf("left join rows = %d: %v", rows.Len(), rows.Data)
	}
	nullCount := 0
	for _, r := range rows.Data {
		if r[1].IsNull() {
			nullCount++
		}
	}
	if nullCount != 7 {
		t.Fatalf("null-padded rows = %d, want 7", nullCount)
	}
}

func TestAggregates(t *testing.T) {
	db := testDB(t)
	rows, err := db.Query(`
		SELECT grp, COUNT(*) AS c, SUM(n) AS s, AVG(n) AS a, MIN(n), MAX(n)
		FROM nums GROUP BY grp ORDER BY grp`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2 {
		t.Fatalf("groups = %d", rows.Len())
	}
	even := rows.Data[0]
	if even[0].Text() != "even" || even[1].Int() != 50 || even[2].Int() != 2550 ||
		even[3].Float() != 51 || even[4].Int() != 2 || even[5].Int() != 100 {
		t.Errorf("even group = %v", even)
	}
	// HAVING.
	n := scalarInt(t, db, `SELECT COUNT(*) FROM (SELECT grp FROM nums GROUP BY grp HAVING SUM(n) > 2520) g`)
	if n != 1 {
		t.Errorf("HAVING groups = %d", n)
	}
	// Global aggregate over empty input yields one row.
	rows, err = db.Query(`SELECT COUNT(*), SUM(n), MIN(n) FROM nums WHERE n > 1000`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 || rows.Data[0][0].Int() != 0 || !rows.Data[0][1].IsNull() || !rows.Data[0][2].IsNull() {
		t.Errorf("empty aggregate = %v", rows.Data)
	}
	// COUNT(DISTINCT).
	if got := scalarInt(t, db, `SELECT COUNT(DISTINCT tag) FROM tags`); got != 2 {
		t.Errorf("COUNT(DISTINCT) = %d", got)
	}
	// Aggregate in ORDER BY.
	rows, err = db.Query(`SELECT tag FROM tags GROUP BY tag ORDER BY COUNT(*) DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0].Text() != "five" {
		t.Errorf("order by count: %v", rows.Data)
	}
}

func TestDistinctAndLimit(t *testing.T) {
	db := testDB(t)
	if got := scalarInt(t, db, `SELECT COUNT(*) FROM (SELECT DISTINCT grp FROM nums) d`); got != 2 {
		t.Errorf("DISTINCT = %d", got)
	}
	rows, err := db.Query(`SELECT n FROM nums ORDER BY n DESC LIMIT 3 OFFSET 2`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 3 || rows.Data[0][0].Int() != 98 {
		t.Errorf("limit/offset = %v", rows.Data)
	}
}

func TestSubqueries(t *testing.T) {
	db := testDB(t)
	// Correlated EXISTS.
	got := scalarInt(t, db, `
		SELECT COUNT(*) FROM nums WHERE EXISTS (
			SELECT 1 FROM tags WHERE tags.n = nums.n AND tags.tag = 'seven')`)
	if got != 15 {
		t.Errorf("correlated EXISTS = %d, want 15", got)
	}
	// Correlated scalar subquery.
	rows, err := db.Query(`
		SELECT n, (SELECT COUNT(*) FROM tags WHERE tags.n = nums.n) AS ntags
		FROM nums WHERE n <= 2 ORDER BY n`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][1].Int() != 2 || rows.Data[1][1].Int() != 0 {
		t.Errorf("scalar sub = %v", rows.Data)
	}
	// IN subquery with NOT.
	// Distinct tagged n: 20 fives + 15 sevens - 3 in both (1, 36, 71).
	got = scalarInt(t, db, `SELECT COUNT(*) FROM nums WHERE n NOT IN (SELECT n FROM tags)`)
	if got != 100-32 {
		t.Errorf("NOT IN = %d, want 68", got)
	}
}

func TestUnionAll(t *testing.T) {
	db := testDB(t)
	rows, err := db.Query(`
		SELECT n FROM nums WHERE n <= 2
		UNION ALL SELECT n FROM nums WHERE n >= 99
		ORDER BY 1 DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 4 || rows.Data[0][0].Int() != 100 || rows.Data[3][0].Int() != 1 {
		t.Errorf("union = %v", rows.Data)
	}
}

func TestUpdateDeleteSemantics(t *testing.T) {
	db := testDB(t)
	n, err := db.Exec(`UPDATE nums SET sq = 0 WHERE grp = 'odd'`)
	if err != nil || n != 50 {
		t.Fatalf("update: %d %v", n, err)
	}
	if got := scalarInt(t, db, `SELECT COUNT(*) FROM nums WHERE sq = 0`); got != 50 {
		t.Errorf("after update: %d", got)
	}
	n, err = db.Exec(`DELETE FROM nums WHERE n <= 10`)
	if err != nil || n != 10 {
		t.Fatalf("delete: %d %v", n, err)
	}
	if got := scalarInt(t, db, `SELECT COUNT(*) FROM nums`); got != 90 {
		t.Errorf("after delete: %d", got)
	}
	// Index still consistent: lookups by PK succeed/fail correctly.
	if got := scalarInt(t, db, `SELECT COUNT(*) FROM nums WHERE n = 5`); got != 0 {
		t.Errorf("deleted row still visible")
	}
	if got := scalarInt(t, db, `SELECT COUNT(*) FROM nums WHERE n = 55`); got != 1 {
		t.Errorf("surviving row missing")
	}
}

func TestConstraints(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT NOT NULL)`)
	db.MustExec(`INSERT INTO t VALUES (1, 'x')`)
	if _, err := db.Exec(`INSERT INTO t VALUES (1, 'y')`); err == nil {
		t.Error("duplicate PK accepted")
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (2, NULL)`); err == nil {
		t.Error("NULL into NOT NULL accepted")
	}
	db.MustExec(`CREATE UNIQUE INDEX t_b ON t (b)`)
	if _, err := db.Exec(`INSERT INTO t VALUES (3, 'x')`); err == nil {
		t.Error("unique index violation accepted")
	}
	// Update into a conflict must fail too.
	db.MustExec(`INSERT INTO t VALUES (4, 'z')`)
	if _, err := db.Exec(`UPDATE t SET b = 'x' WHERE a = 4`); err == nil {
		t.Error("update into unique violation accepted")
	}
}

func TestNullThreeValuedLogic(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE t (a INTEGER, b INTEGER)`)
	db.MustExec(`INSERT INTO t VALUES (1, NULL), (2, 5), (NULL, NULL)`)
	if got := scalarInt(t, db, `SELECT COUNT(*) FROM t WHERE b = 5`); got != 1 {
		t.Errorf("= with NULLs: %d", got)
	}
	if got := scalarInt(t, db, `SELECT COUNT(*) FROM t WHERE b <> 5`); got != 0 {
		t.Errorf("<> must exclude NULLs: %d", got)
	}
	if got := scalarInt(t, db, `SELECT COUNT(*) FROM t WHERE b IS NULL`); got != 2 {
		t.Errorf("IS NULL: %d", got)
	}
	if got := scalarInt(t, db, `SELECT COUNT(a) FROM t`); got != 2 {
		t.Errorf("COUNT(col) skips NULLs: %d", got)
	}
	if got := scalarInt(t, db, `SELECT COUNT(*) FROM t WHERE a = 1 OR b = 5`); got != 2 {
		t.Errorf("OR with unknown: %d", got)
	}
	// NULL = NULL is unknown, never true.
	if got := scalarInt(t, db, `SELECT COUNT(*) FROM t WHERE a = a`); got != 2 {
		t.Errorf("a = a with NULL: %d", got)
	}
	if got := scalarInt(t, db, `SELECT COUNT(*) FROM t WHERE COALESCE(b, 0) = 0`); got != 2 {
		t.Errorf("COALESCE: %d", got)
	}
}

func TestOrderByVariants(t *testing.T) {
	db := testDB(t)
	// Output alias.
	rows, err := db.Query(`SELECT n * -1 AS neg FROM nums WHERE n <= 3 ORDER BY neg`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0].Int() != -3 {
		t.Errorf("order by alias: %v", rows.Data)
	}
	// Hidden key not in select list.
	rows, err = db.Query(`SELECT label FROM nums WHERE n <= 3 ORDER BY sq DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0].Text() != "n003" {
		t.Errorf("order by hidden: %v", rows.Data)
	}
	if len(rows.Columns) != 1 {
		t.Errorf("hidden key leaked: %v", rows.Columns)
	}
	// NULLs sort first ascending.
	db.MustExec(`CREATE TABLE o (v INTEGER)`)
	db.MustExec(`INSERT INTO o VALUES (2), (NULL), (1)`)
	rows, err = db.Query(`SELECT v FROM o ORDER BY v`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Data[0][0].IsNull() || rows.Data[2][0].Int() != 2 {
		t.Errorf("null ordering: %v", rows.Data)
	}
}

func TestIndexVsScanConsistency(t *testing.T) {
	// The same queries with and without secondary indexes must agree.
	build := func(withIdx bool) *Database {
		db := New()
		db.MustExec(`CREATE TABLE t (a INTEGER, b TEXT, c INTEGER)`)
		if withIdx {
			db.MustExec(`CREATE INDEX t_a ON t (a)`)
			db.MustExec(`CREATE INDEX t_bc ON t (b, c)`)
		}
		for i := 0; i < 500; i++ {
			db.MustExec(`INSERT INTO t VALUES (?, ?, ?)`,
				NewInt(int64(i%37)), NewText(fmt.Sprintf("s%d", i%11)), NewInt(int64(i)))
		}
		return db
	}
	plain, indexed := build(false), build(true)
	queries := []string{
		`SELECT COUNT(*) FROM t WHERE a = 5`,
		`SELECT COUNT(*) FROM t WHERE a > 30`,
		`SELECT COUNT(*) FROM t WHERE b = 's3' AND c > 100`,
		`SELECT COUNT(*) FROM t WHERE b = 's3' AND c BETWEEN 100 AND 300`,
		`SELECT COUNT(*) FROM t WHERE b LIKE 's1%'`,
		`SELECT SUM(c) FROM t WHERE a = 7 AND b = 's7'`,
	}
	for _, q := range queries {
		a := scalarInt(t, plain, q)
		b := scalarInt(t, indexed, q)
		if a != b {
			t.Errorf("%s: plain=%d indexed=%d", q, a, b)
		}
	}
	// Index creation on existing data must also agree.
	plain.MustExec(`CREATE INDEX late_a ON t (a)`)
	for _, q := range queries {
		if a, b := scalarInt(t, plain, q), scalarInt(t, indexed, q); a != b {
			t.Errorf("after late index, %s: %d vs %d", q, a, b)
		}
	}
}

func TestDropTableAndIndex(t *testing.T) {
	db := testDB(t)
	db.MustExec(`CREATE INDEX nums_grp ON nums (grp)`)
	db.MustExec(`DROP INDEX nums_grp`)
	if _, err := db.Exec(`DROP INDEX nums_grp`); err == nil {
		t.Error("double drop index accepted")
	}
	db.MustExec(`DROP TABLE tags`)
	if _, err := db.Query(`SELECT * FROM tags`); err == nil {
		t.Error("query after drop table succeeded")
	}
}

func TestScalarFunctions(t *testing.T) {
	cases := []struct {
		expr string
		want Value
	}{
		{`LENGTH('hello')`, NewInt(5)},
		{`UPPER('aBc')`, NewText("ABC")},
		{`LOWER('AbC')`, NewText("abc")},
		{`SUBSTR('hello', 2, 3)`, NewText("ell")},
		{`SUBSTR('hello', 3)`, NewText("llo")},
		{`REPLACE('aXbXc', 'X', '-')`, NewText("a-b-c")},
		{`INSTR('hello', 'll')`, NewInt(3)},
		{`INSTR('hello', 'zz')`, NewInt(0)},
		{`TRIM('  x  ')`, NewText("x")},
		{`ABS(-4)`, NewInt(4)},
		{`COALESCE(NULL, NULL, 3)`, NewInt(3)},
		{`IFNULL(NULL, 'd')`, NewText("d")},
		{`NULLIF(2, 2)`, Null},
		{`NULLIF(2, 3)`, NewInt(2)},
		{`ROUND(2.567, 1)`, NewFloat(2.6)},
		// Integer arithmetic never wraps: out-of-range results and
		// literals are REAL, and int64's minimum is writable.
		{`9223372036854775807 + 1`, NewFloat(9223372036854775808)},
		{`-9223372036854775807 - 2`, NewFloat(-9223372036854775809)},
		{`9223372036854775807 - -1`, NewFloat(9223372036854775808)},
		{`4611686018427387904 * 2`, NewFloat(9223372036854775808)},
		{`-9223372036854775808 * -1`, NewFloat(9223372036854775808)},
		{`-9223372036854775808 / -1`, NewFloat(9223372036854775808)},
		{`-(-9223372036854775808)`, NewFloat(9223372036854775808)},
		{`-9223372036854775808`, NewInt(math.MinInt64)},
		{`-9223372036854775807 - 1`, NewInt(math.MinInt64)},
		{`4611686018427387903 * 2 + 1`, NewInt(math.MaxInt64)},
		{`-4611686018427387904 * 2`, NewInt(math.MinInt64)},
		{`9223372036854775808`, NewFloat(9223372036854775808)},
		{`99999999999999999999`, NewFloat(1e20)},
	}
	for _, dop := range []int{1, 4} {
		db := New()
		db.SetParallelism(dop)
		for _, c := range cases {
			v, err := db.QueryScalar(`SELECT ` + c.expr)
			if err != nil {
				t.Errorf("dop=%d %s: %v", dop, c.expr, err)
				continue
			}
			if v.t != c.want.t || Compare(v, c.want) != 0 {
				t.Errorf("dop=%d %s = %#v, want %#v", dop, c.expr, v, c.want)
			}
		}
	}
}

func TestExplainRendersPlans(t *testing.T) {
	db := testDB(t)
	plan, err := db.Explain(`SELECT grp, COUNT(*) FROM nums, tags WHERE nums.n = tags.n GROUP BY grp ORDER BY grp LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"Aggregate", "Limit", "Sort"} {
		if !strings.Contains(plan, frag) {
			t.Errorf("plan missing %s:\n%s", frag, plan)
		}
	}
	if !strings.Contains(plan, "Join") && !strings.Contains(plan, "Scan") {
		t.Errorf("plan missing join/scan:\n%s", plan)
	}
}

func TestPreparedReuse(t *testing.T) {
	db := testDB(t)
	prep, err := db.Prepare(`SELECT COUNT(*) FROM nums WHERE grp = ? AND n > ?`)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct {
		grp  string
		min  int64
		want int64
	}{{"even", 0, 50}, {"odd", 50, 25}, {"even", 98, 1}} {
		rows, err := prep.Query(NewText(c.grp), NewInt(c.min))
		if err != nil {
			t.Fatal(err)
		}
		if rows.Data[0][0].Int() != c.want {
			t.Errorf("case %d: %d, want %d", i, rows.Data[0][0].Int(), c.want)
		}
	}
}
