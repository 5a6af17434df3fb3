package sqldb

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestExplainAnalyzeOperators runs one query per operator kind under
// EXPLAIN ANALYZE and checks that the root's actual row count equals
// the real result cardinality, that the expected operator appears with
// sane counters, and that the annotations render.
func TestExplainAnalyzeOperators(t *testing.T) {
	db := testDB(t)
	cases := []struct {
		name string
		sql  string
		// op must appear both in the rendered text and the structured
		// op list.
		op string
	}{
		{"seq_scan", `SELECT * FROM tags`, "SeqScan"},
		{"index_scan", `SELECT * FROM nums WHERE n BETWEEN 10 AND 19`, "IndexScan"},
		{"index_join", `SELECT nums.n, tags.tag FROM nums JOIN tags ON nums.n = tags.n`, "IndexJoin"},
		{"hash_join", `SELECT t1.n, t2.tag FROM tags t1 JOIN tags t2 ON t1.tag = t2.tag`, "HashJoin"},
		{"nl_join", `SELECT t1.n FROM tags t1 JOIN tags t2 ON t1.n < t2.n`, "NestedLoopJoin"},
		{"aggregate", `SELECT grp, COUNT(*) FROM nums GROUP BY grp`, "Aggregate"},
		{"sort", `SELECT n FROM nums ORDER BY sq DESC`, "Sort"},
		{"distinct", `SELECT DISTINCT grp FROM nums`, "Distinct"},
		{"limit", `SELECT n FROM nums ORDER BY n LIMIT 5`, "Limit"},
		{"union_all", `SELECT n FROM nums WHERE n < 3 UNION ALL SELECT n FROM nums WHERE n > 98`, "UnionAll"},
		{"derived_filter", `SELECT * FROM (SELECT grp, COUNT(*) c FROM nums GROUP BY grp) d WHERE d.c > 10`, "Filter"},
		{"values", `SELECT 1`, "Values"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rows, err := db.Query(tc.sql)
			if err != nil {
				t.Fatalf("query: %v", err)
			}
			ap, err := db.ExplainAnalyzePlan(tc.sql)
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			if ap.Rows != rows.Len() {
				t.Errorf("analyzed Rows = %d, executed cardinality = %d", ap.Rows, rows.Len())
			}
			if len(ap.Ops) == 0 {
				t.Fatal("no operator reports")
			}
			if ap.Ops[0].Rows != int64(rows.Len()) {
				t.Errorf("root actual rows = %d, want %d", ap.Ops[0].Rows, rows.Len())
			}
			if !strings.Contains(ap.Text, tc.op) {
				t.Errorf("plan text missing %q:\n%s", tc.op, ap.Text)
			}
			if !strings.Contains(ap.Text, "actual rows=") || !strings.Contains(ap.Text, "Execution:") {
				t.Errorf("plan text missing annotations:\n%s", ap.Text)
			}
			foundOp := false
			for _, op := range ap.Ops {
				if op.Kind == tc.op || (tc.op == "Filter" && op.Kind == "Filter") {
					foundOp = true
				}
				if op.Nexts < op.Rows {
					t.Errorf("%s: nexts=%d < rows=%d", op.Kind, op.Nexts, op.Rows)
				}
				if op.Opens < 1 {
					t.Errorf("%s: opens=%d, want >= 1", op.Kind, op.Opens)
				}
			}
			if !foundOp {
				t.Errorf("structured ops missing %q: %+v", tc.op, ap.Ops)
			}
		})
	}
}

// TestExplainAnalyzeJoinBuildSizes checks the build-side counters the
// join operators record.
func TestExplainAnalyzeJoinBuildSizes(t *testing.T) {
	db := testDB(t)
	// tags holds 20 + 15 = 35 rows; the hash join builds on its right
	// input, the nested-loop join materializes its inner side.
	for _, tc := range []struct {
		sql  string
		op   string
		want int64
	}{
		{`SELECT t1.n FROM tags t1 JOIN tags t2 ON t1.tag = t2.tag`, "HashJoin", 35},
		{`SELECT t1.n FROM tags t1 JOIN tags t2 ON t1.n < t2.n`, "NestedLoopJoin", 35},
	} {
		ap, err := db.ExplainAnalyzePlan(tc.sql)
		if err != nil {
			t.Fatalf("analyze: %v", err)
		}
		found := false
		for _, op := range ap.Ops {
			if op.Kind == tc.op {
				found = true
				if op.BuildRows != tc.want {
					t.Errorf("%s build rows = %d, want %d", tc.op, op.BuildRows, tc.want)
				}
			}
		}
		if !found {
			t.Errorf("%s not in plan for %s", tc.op, tc.sql)
		}
	}
}

// TestExplainAnalyzeWithParams runs a parameterized statement under
// EXPLAIN ANALYZE.
func TestExplainAnalyzeWithParams(t *testing.T) {
	db := testDB(t)
	ap, err := db.ExplainAnalyzePlan(`SELECT n FROM nums WHERE n <= ?`, NewInt(10))
	if err != nil {
		t.Fatal(err)
	}
	if ap.Rows != 10 {
		t.Errorf("rows = %d, want 10", ap.Rows)
	}
}

// TestExplainPrefixThroughQuery drives the textual EXPLAIN [ANALYZE]
// prefix through the ordinary Query entry point.
func TestExplainPrefixThroughQuery(t *testing.T) {
	db := testDB(t)
	rows, err := db.Query(`EXPLAIN ANALYZE SELECT grp, COUNT(*) FROM nums GROUP BY grp`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Columns) != 1 || rows.Columns[0] != "plan" {
		t.Fatalf("columns = %v", rows.Columns)
	}
	var text strings.Builder
	for _, r := range rows.Data {
		text.WriteString(r[0].Text())
		text.WriteByte('\n')
	}
	if !strings.Contains(text.String(), "actual rows=") || !strings.Contains(text.String(), "Execution: 2 row(s)") {
		t.Errorf("EXPLAIN ANALYZE output missing annotations:\n%s", text.String())
	}

	// Lower case, plain EXPLAIN: plan only, no actuals.
	rows, err = db.Query(`explain select * from nums`)
	if err != nil {
		t.Fatal(err)
	}
	var plain strings.Builder
	for _, r := range rows.Data {
		plain.WriteString(r[0].Text())
		plain.WriteByte('\n')
	}
	if !strings.Contains(plain.String(), "SeqScan") || strings.Contains(plain.String(), "actual rows=") {
		t.Errorf("plain EXPLAIN output wrong:\n%s", plain.String())
	}

	// EXPLAIN must not swallow identifiers that merely start with it.
	if _, err := db.Exec(`CREATE TABLE explainer (x INTEGER)`); err != nil {
		t.Fatalf("identifier prefix: %v", err)
	}
}

// TestExplainAnalyzeMatchesRepeatedRuns checks that cached-plan
// executions keep reporting per-run (not cumulative) actuals.
func TestExplainAnalyzeMatchesRepeatedRuns(t *testing.T) {
	db := testDB(t)
	const sql = `SELECT n FROM nums WHERE grp = 'odd'`
	want := -1
	for i := 0; i < 3; i++ {
		ap, err := db.ExplainAnalyzePlan(sql)
		if err != nil {
			t.Fatal(err)
		}
		if want == -1 {
			want = ap.Rows
		}
		if ap.Rows != want || ap.Ops[0].Rows != int64(want) {
			t.Fatalf("run %d: rows = %d (root %d), want %d", i, ap.Rows, ap.Ops[0].Rows, want)
		}
	}
}

// checkAccounting runs sql on db through Query and through EXPLAIN
// ANALYZE and checks the accounting contract against want, the expected
// result: Query returns want byte-identical; the analyzed run reports
// want's cardinality at the root; every operator was opened and was
// asked for at least as many rows as it produced; and the untimed run
// folded exactly the analyzed run's per-operator opens, rows, next()
// calls and build sizes into the metrics registry.
func checkAccounting(t *testing.T, db *Database, want *Rows, sql string, args ...Value) {
	t.Helper()
	before := db.Metrics()
	got, err := db.Query(sql, args...)
	if err != nil {
		t.Fatal(err)
	}
	after := db.Metrics()
	if !reflect.DeepEqual(want.Columns, got.Columns) || !IdenticalRows(want.Data, got.Data) {
		t.Fatalf("%d rows vs expected %d rows, or order/value drift", got.Len(), want.Len())
	}
	ap, err := db.ExplainAnalyzePlan(sql, args...)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if ap.Rows != want.Len() || len(ap.Ops) == 0 || ap.Ops[0].Rows != int64(want.Len()) {
		t.Fatalf("analyzed cardinality %d, want %d", ap.Rows, want.Len())
	}
	analyzed := map[string]OpTotalStats{}
	for _, op := range ap.Ops {
		if op.Opens < 1 {
			t.Errorf("%s: opens=%d, want >= 1", op.Kind, op.Opens)
		}
		if op.Nexts < op.Rows {
			t.Errorf("%s: nexts=%d < rows=%d", op.Kind, op.Nexts, op.Rows)
		}
		s := analyzed[op.Kind]
		s.Opens += uint64(op.Opens)
		s.Rows += uint64(op.Rows)
		s.Nexts += uint64(op.Nexts)
		s.BuildRows += uint64(op.BuildRows)
		analyzed[op.Kind] = s
	}
	folded := map[string]OpTotalStats{}
	for _, op := range after.Operators {
		folded[op.Kind] = op
	}
	for _, op := range before.Operators {
		s := folded[op.Kind]
		s.Opens -= op.Opens
		s.Rows -= op.Rows
		s.Nexts -= op.Nexts
		s.BuildRows -= op.BuildRows
		folded[op.Kind] = s
	}
	for kind, f := range folded {
		f.Kind, f.Time = "", 0
		if a := analyzed[kind]; f != a {
			t.Errorf("%s: registry folded %+v, analyzed run reported %+v", kind, f, a)
		}
	}
	for kind := range analyzed {
		if _, ok := folded[kind]; !ok && analyzed[kind] != (OpTotalStats{}) {
			t.Errorf("%s: analyzed but never folded into the registry", kind)
		}
	}
}

// TestVectorizedMatchesRowEngine drives the battery and holds every
// execution to the first answer and to the accounting contract of
// checkAccounting. The name is kept from the batch-engine differential
// this test succeeds.
func TestVectorizedMatchesRowEngine(t *testing.T) {
	db := bigFixture(t, 10000)
	for _, tc := range parallelBattery {
		t.Run(tc.name, func(t *testing.T) {
			want, err := db.Query(tc.sql, tc.args...)
			if err != nil {
				t.Fatal(err)
			}
			checkAccounting(t, db, want, tc.sql, tc.args...)
		})
	}
}

// TestExplainAnalyzeDescents: an index join whose outer rows arrive in
// key order descends the B-tree once and resumes every later probe,
// at any outer size; outer rows in descending order descend once per
// probe. Index scans report their descents too.
func TestExplainAnalyzeDescents(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE s (id INTEGER PRIMARY KEY, k INTEGER)`)
	db.MustExec(`CREATE INDEX s_k ON s (k)`)
	var rows []string
	for id := range 20000 {
		rows = append(rows, fmt.Sprintf("(%d, %d)", id, id/2))
	}
	insertRows(t, db, "s", rows)
	for _, n := range []int{10, 3000} {
		for _, order := range []string{"up", "down"} {
			rows = rows[:0]
			for id := range n {
				k := id * 3
				if order == "down" {
					k = (n - 1 - id) * 3
				}
				rows = append(rows, fmt.Sprintf("(%d, %d)", id, k))
			}
			tbl := fmt.Sprintf("o_%s_%d", order, n)
			db.MustExec("CREATE TABLE " + tbl + " (id INTEGER PRIMARY KEY, k INTEGER)")
			insertRows(t, db, tbl, rows)
			ap, err := db.ExplainAnalyzePlan("SELECT o.id, s.id FROM " + tbl + " o, s WHERE s.k = o.k")
			if err != nil {
				t.Fatal(err)
			}
			if ap.Rows != 2*n {
				t.Fatalf("%s: %d rows, want %d", tbl, ap.Rows, 2*n)
			}
			want := int64(1)
			if order == "down" {
				want = int64(n)
			}
			found := false
			for _, op := range ap.Ops {
				if op.Kind == "IndexJoin" {
					found = true
					if op.Descents != want {
						t.Errorf("%s: descents=%d, want %d:\n%s", tbl, op.Descents, want, ap.Text)
					}
				}
			}
			if !found || !strings.Contains(ap.Text, fmt.Sprintf("descents=%d ", want)) {
				t.Errorf("%s: no IndexJoin line with descents=%d:\n%s", tbl, want, ap.Text)
			}
		}
	}
	text, err := db.ExplainAnalyze(`SELECT id FROM s WHERE k BETWEEN 10 AND 20`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "IndexScan") || !strings.Contains(text, "descents=1 ") {
		t.Errorf("index scan line lacks descents=1:\n%s", text)
	}
}
