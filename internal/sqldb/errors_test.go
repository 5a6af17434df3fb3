package sqldb

import (
	"strings"
	"testing"
)

func expectQueryError(t *testing.T, db *Database, sql, frag string) {
	t.Helper()
	_, err := db.Query(sql)
	if err == nil {
		t.Errorf("%s: expected error", sql)
		return
	}
	if !strings.Contains(err.Error(), frag) {
		t.Errorf("%s: error %q does not mention %q", sql, err, frag)
	}
}

func TestSemanticErrors(t *testing.T) {
	db := testDB(t)
	expectQueryError(t, db, `SELECT nope FROM nums`, "unknown column")
	expectQueryError(t, db, `SELECT n FROM nosuch`, "no such table")
	expectQueryError(t, db, `SELECT bogus.n FROM nums`, "unknown column")
	expectQueryError(t, db, `SELECT grp FROM nums WHERE grp = n2`, "unknown column")
	// Ambiguity: both tables have a column n.
	expectQueryError(t, db, `SELECT n FROM nums, tags`, "ambiguous")
	expectQueryError(t, db, `SELECT nums.label FROM nums, tags WHERE n = tags.n`, "ambiguous")
	// Duplicate alias.
	expectQueryError(t, db, `SELECT 1 FROM nums x, tags x`, "duplicate table alias")
	// Aggregation misuse.
	expectQueryError(t, db, `SELECT label, COUNT(*) FROM nums GROUP BY grp`, "GROUP BY")
	expectQueryError(t, db, `SELECT SUM(n, sq) FROM nums`, "exactly one argument")
	expectQueryError(t, db, `SELECT SUM(*) FROM nums`, "not valid")
	// ORDER BY ordinal range.
	expectQueryError(t, db, `SELECT n FROM nums ORDER BY 2`, "out of range")
	// DISTINCT + hidden order key.
	expectQueryError(t, db, `SELECT DISTINCT grp FROM nums ORDER BY sq`, "DISTINCT")
	// Scalar subquery cardinality is a runtime error.
	expectQueryError(t, db, `SELECT (SELECT n FROM nums) FROM nums`, "returned")
	// IN subquery column count.
	expectQueryError(t, db, `SELECT n FROM nums WHERE n IN (SELECT n, sq FROM nums)`, "one column")
	// UNION ALL column count mismatch.
	expectQueryError(t, db, `SELECT n FROM nums UNION ALL SELECT n, sq FROM nums`, "column counts")
	// Unknown function.
	expectQueryError(t, db, `SELECT WIBBLE(n) FROM nums`, "unknown function")
}

func TestExecErrors(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec(`SELECT 1`); err == nil {
		t.Error("Exec of SELECT accepted")
	}
	if _, err := db.Query(`DELETE FROM nums`); err == nil {
		t.Error("Query of DELETE accepted")
	}
	if _, err := db.Exec(`INSERT INTO nums (n) VALUES (1, 2)`); err == nil {
		t.Error("value arity mismatch accepted")
	}
	if _, err := db.Exec(`INSERT INTO nums (nosuch) VALUES (1)`); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := db.Exec(`UPDATE nums SET nosuch = 1`); err == nil {
		t.Error("update of unknown column accepted")
	}
	if _, err := db.Exec(`CREATE TABLE nums (n INTEGER)`); err == nil {
		t.Error("duplicate table accepted")
	}
	if _, err := db.Exec(`CREATE INDEX dup ON nums (n)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE INDEX dup ON nums (sq)`); err == nil {
		t.Error("duplicate index name accepted")
	}
	if _, err := db.Exec(`CREATE INDEX i2 ON nums (nosuch)`); err == nil {
		t.Error("index on unknown column accepted")
	}
	// Missing parameter value.
	if _, err := db.Query(`SELECT n FROM nums WHERE n = ?`); err == nil {
		t.Error("missing parameter accepted")
	}
}

func TestAggregationShapes(t *testing.T) {
	db := testDB(t)
	// Expression group keys match structurally.
	rows, err := db.Query(`SELECT n % 10, COUNT(*) FROM nums GROUP BY n % 10 ORDER BY 1`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 10 || rows.Data[0][1].Int() != 10 {
		t.Fatalf("mod groups: %v", rows.Data[:2])
	}
	// Aggregates inside arithmetic.
	v, err := db.QueryScalar(`SELECT MAX(n) - MIN(n) + 1 FROM nums`)
	if err != nil || v.Int() != 100 {
		t.Fatalf("agg arithmetic: %v %v", v, err)
	}
	// HAVING referencing a group key and an aggregate.
	rows, err = db.Query(`
		SELECT grp, COUNT(*) FROM nums
		GROUP BY grp HAVING grp = 'odd' AND COUNT(*) > 10`)
	if err != nil || rows.Len() != 1 || rows.Data[0][0].Text() != "odd" {
		t.Fatalf("having: %v %v", rows, err)
	}
	// The same aggregate used twice is computed once (no error, right
	// value).
	rows, err = db.Query(`SELECT COUNT(*), COUNT(*) * 2 FROM nums`)
	if err != nil || rows.Data[0][1].Int() != 200 {
		t.Fatalf("repeated aggregate: %v %v", rows, err)
	}
	// CASE over an aggregate.
	v, err = db.QueryScalar(`SELECT CASE WHEN COUNT(*) > 50 THEN 'big' ELSE 'small' END FROM nums`)
	if err != nil || v.Text() != "big" {
		t.Fatalf("case over aggregate: %v %v", v, err)
	}
	// AVG returns a float even for integer inputs.
	v, err = db.QueryScalar(`SELECT AVG(n) FROM nums WHERE n <= 2`)
	if err != nil || v.t != TypeFloat || v.Float() != 1.5 {
		t.Fatalf("avg: %v %v", v, err)
	}
}

func TestCaseInsensitivity(t *testing.T) {
	db := New()
	db.MustExec(`create table MixedCase (Col INTEGER)`)
	db.MustExec(`insert into mixedcase values (1)`)
	v, err := db.QueryScalar(`SELECT COL FROM MIXEDCASE WHERE col = 1`)
	if err != nil || v.Int() != 1 {
		t.Fatalf("case insensitivity: %v %v", v, err)
	}
	// Quoted identifiers preserve spelling but resolve case-insensitively
	// (one namespace).
	v, err = db.QueryScalar(`SELECT "Col" FROM "MixedCase"`)
	if err != nil || v.Int() != 1 {
		t.Fatalf("quoted: %v %v", v, err)
	}
}

func TestPreparedStaleAfterDropTable(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE t (n INTEGER)`)
	db.MustExec(`INSERT INTO t VALUES (1), (2), (3)`)
	prep, err := db.Prepare(`SELECT COUNT(*) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if rows, err := prep.Query(); err != nil || rows.Data[0][0].Int() != 3 {
		t.Fatalf("fresh prepared: %v %v", rows, err)
	}
	db.MustExec(`DROP TABLE t`)
	if _, err := prep.Query(); err == nil {
		t.Fatal("prepared statement executed against a dropped table")
	} else if !strings.Contains(err.Error(), "stale") {
		t.Fatalf("error %q does not mention staleness", err)
	}
}

func TestPreparedStaleAfterDropAndRecreate(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE t (n INTEGER)`)
	db.MustExec(`INSERT INTO t VALUES (1), (2), (3)`)
	prep, err := db.Prepare(`SELECT COUNT(*) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(`DROP TABLE t`)
	db.MustExec(`CREATE TABLE t (n INTEGER)`)
	db.MustExec(`INSERT INTO t VALUES (7)`)
	// The seed bug: the old plan still pointed at the orphaned table and
	// silently returned its 3 rows. It must error instead.
	rows, err := prep.Query()
	if err == nil {
		t.Fatalf("prepared statement survived drop+recreate (returned %v — reading the orphaned table)", rows.Data)
	}
	if !strings.Contains(err.Error(), "stale") {
		t.Fatalf("error %q does not mention staleness", err)
	}
	// A fresh Prepare against the new incarnation works.
	prep2, err := db.Prepare(`SELECT COUNT(*) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if rows, err := prep2.Query(); err != nil || rows.Data[0][0].Int() != 1 {
		t.Fatalf("re-prepared: %v %v", rows, err)
	}
}

func TestPreparedStaleAfterIndexDDL(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE t (n INTEGER)`)
	prep, err := db.Prepare(`SELECT n FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE INDEX t_n ON t (n)`)
	if _, err := prep.Query(); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("prepared plan survived CREATE INDEX: %v", err)
	}
}

func TestBulkInsertAtomicOnValidationFailure(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE t (n INTEGER NOT NULL, s TEXT)`)
	db.MustExec(`CREATE INDEX t_n ON t (n)`)
	rows := [][]Value{
		{NewInt(1), NewText("a")},
		{NewInt(2), NewText("b")},
		{Null, NewText("violates NOT NULL")},
		{NewInt(4), NewText("d")},
	}
	n, err := db.BulkInsert("t", rows)
	if err == nil {
		t.Fatal("NOT NULL violation accepted")
	}
	if n != 0 {
		t.Errorf("reported %d inserted rows on failure", n)
	}
	if v, _ := db.QueryScalar(`SELECT COUNT(*) FROM t`); v.Int() != 0 {
		t.Errorf("table half-populated: %d rows survived a failed batch", v.Int())
	}
	// Index must be empty too: probe through the indexed column.
	if v, _ := db.QueryScalar(`SELECT COUNT(*) FROM t WHERE n = 1`); v.Int() != 0 {
		t.Errorf("index entries survived a failed batch")
	}
}

func TestBulkInsertRollsBackOnConstraintFailure(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE t (n INTEGER PRIMARY KEY, s TEXT)`)
	db.MustExec(`INSERT INTO t VALUES (3, 'existing')`)
	rows := [][]Value{
		{NewInt(1), NewText("a")},
		{NewInt(2), NewText("b")},
		{NewInt(3), NewText("duplicate pk")},
		{NewInt(4), NewText("d")},
	}
	n, err := db.BulkInsert("t", rows)
	if err == nil {
		t.Fatal("duplicate primary key accepted")
	}
	if n != 0 {
		t.Errorf("reported %d inserted rows on failure", n)
	}
	// Only the pre-existing row survives, and the rolled-back rows are
	// invisible both to scans and to the primary-key index.
	if v, _ := db.QueryScalar(`SELECT COUNT(*) FROM t`); v.Int() != 1 {
		t.Errorf("rows after rollback = %d, want 1", v.Int())
	}
	if v, _ := db.QueryScalar(`SELECT COUNT(*) FROM t WHERE n = 1`); v.Int() != 0 {
		t.Errorf("rolled-back row reachable via primary key")
	}
	// The batch can be retried after fixing the conflict.
	if n, err := db.BulkInsert("t", [][]Value{{NewInt(1), NewText("a")}, {NewInt(2), NewText("b")}}); err != nil || n != 2 {
		t.Fatalf("retry: n=%d err=%v", n, err)
	}
}

func TestDropRecreateTableIndexConsistency(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE t (n INTEGER, s TEXT)`)
	db.MustExec(`CREATE INDEX t_idx ON t (n)`)
	db.MustExec(`INSERT INTO t VALUES (1, 'old')`)
	db.MustExec(`DROP TABLE t`)

	// Recreating the table must not resurrect the old index...
	db.MustExec(`CREATE TABLE t (n INTEGER, s TEXT)`)
	ts := db.Stats().Tables
	if len(ts) != 1 || ts[0].Indexes != 0 {
		t.Fatalf("recreated table stats = %+v (stale index resurrected?)", ts)
	}
	// ...and creating an index of the same name must not collide with
	// the dropped incarnation's definition.
	if _, err := db.Exec(`CREATE INDEX t_idx ON t (s)`); err != nil {
		t.Fatalf("index name from dropped table still taken: %v", err)
	}
	db.MustExec(`INSERT INTO t VALUES (2, 'new')`)
	rows, err := db.Query(`SELECT n FROM t WHERE s = 'new'`)
	if err != nil || rows.Len() != 1 || rows.Data[0][0].Int() != 2 {
		t.Fatalf("query via recreated index: %v %v", rows, err)
	}
	// Dropping an index whose table is already gone stays tolerated.
	db.MustExec(`CREATE INDEX t_extra ON t (n)`)
	db.MustExec(`DROP TABLE t`)
	if _, err := db.Exec(`DROP INDEX t_extra`); err == nil {
		t.Log("drop of index removed with its table accepted") // either behavior is fine, must not panic
	}
}

func TestStatsAndCatalog(t *testing.T) {
	db := testDB(t)
	stats := db.Stats().Tables
	if len(stats) != 2 {
		t.Fatalf("stats tables = %d", len(stats))
	}
	if stats[0].Name != "nums" || stats[0].Rows != 100 || stats[0].Bytes == 0 {
		t.Errorf("nums stats = %+v", stats[0])
	}
	if db.TotalRows() != 100+20+15 {
		t.Errorf("total rows = %d", db.TotalRows())
	}
	def := db.TableDef("nums")
	if def == nil || len(def.Columns) != 4 || def.Columns[0].Name != "n" {
		t.Errorf("table def = %+v", def)
	}
	if db.TableDef("nosuch") != nil {
		t.Error("def for missing table")
	}
	names := db.TableNames()
	if len(names) != 2 || names[0] != "nums" {
		t.Errorf("names = %v", names)
	}
}
