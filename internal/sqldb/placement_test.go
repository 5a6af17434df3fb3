package sqldb_test

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/shred"
	"repro/internal/sqldb"
	"repro/internal/xmlgen"
	"repro/internal/xpath"
)

// testDB is the engine suite's nums/tags fixture: nums n = 1..100 with
// an index on n; tags n = 1, 6, 11, ... 'five' and 1, 8, 15, ... 'seven'.
func testDB(t *testing.T) *sqldb.Database {
	t.Helper()
	db := sqldb.New()
	db.MustExec(`CREATE TABLE nums (n INTEGER PRIMARY KEY, sq INTEGER, label TEXT, grp TEXT)`)
	for i := 1; i <= 100; i++ {
		db.MustExec(`INSERT INTO nums VALUES (?, ?, ?, ?)`, sqldb.NewInt(int64(i)), sqldb.NewInt(int64(i*i)),
			sqldb.NewText(fmt.Sprintf("n%03d", i)), sqldb.NewText([]string{"even", "odd"}[i%2]))
	}
	db.MustExec(`CREATE TABLE tags (n INTEGER, tag TEXT)`)
	for i := 1; i <= 100; i += 5 {
		db.MustExec(`INSERT INTO tags VALUES (?, 'five')`, sqldb.NewInt(int64(i)))
	}
	for i := 1; i <= 100; i += 7 {
		db.MustExec(`INSERT INTO tags VALUES (?, 'seven')`, sqldb.NewInt(int64(i)))
	}
	return db
}

func scalarInt(t *testing.T, db *sqldb.Database, sql string) int64 {
	t.Helper()
	v, err := db.QueryScalar(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return v.Int()
}

// planLine is one operator line of an EXPLAIN rendering.
type planLine struct {
	depth int
	text  string
}

func explainLines(t *testing.T, db *sqldb.Database, sql string) []planLine {
	t.Helper()
	plan, err := db.Explain(sql)
	if err != nil {
		t.Fatalf("explain %s: %v", sql, err)
	}
	var out []planLine
	for _, l := range strings.Split(strings.TrimRight(plan, "\n"), "\n") {
		trimmed := strings.TrimLeft(l, " ")
		out = append(out, planLine{depth: (len(l) - len(trimmed)) / 2, text: trimmed})
	}
	return out
}

// filterContext returns the operator directly above and directly below
// the plan's only Filter line.
func filterContext(t *testing.T, lines []planLine) (parent, child string) {
	t.Helper()
	at := -1
	for i, l := range lines {
		if strings.HasPrefix(l.text, "Filter") {
			if at >= 0 {
				t.Fatalf("more than one Filter:\n%v", lines)
			}
			at = i
		}
	}
	if at < 0 || at+1 >= len(lines) {
		t.Fatalf("no Filter with an input:\n%v", lines)
	}
	for i := at - 1; i >= 0; i-- {
		if lines[i].depth == lines[at].depth-1 {
			parent = lines[i].text
			break
		}
	}
	return parent, lines[at+1].text
}

// The hash-join key must be exact for integers: 2^53+1 and 2^53 are
// different values, however close they are as floats. Integral floats
// share the integer's key; other floats join by their bits.
func TestHashJoinLargeIntegerKeys(t *testing.T) {
	db := sqldb.New()
	db.MustExec(`CREATE TABLE l (a INTEGER)`)
	db.MustExec(`CREATE TABLE r (b INTEGER)`)
	db.MustExec(`CREATE TABLE f (c REAL)`)
	db.MustExec(`INSERT INTO l VALUES (9007199254740993), (2), (7)`)
	db.MustExec(`INSERT INTO r VALUES (9007199254740992), (3), (7)`)
	db.MustExec(`INSERT INTO f VALUES (2.0), (2.5), (7.0)`)

	run := func(sql, op string) string {
		t.Helper()
		plan, err := db.Explain(sql)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, op) {
			t.Fatalf("%s: want %s, plan:\n%s", sql, op, plan)
		}
		rows, err := db.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, r := range rows.Data {
			for _, v := range r {
				b.WriteString(v.String() + " ")
			}
			b.WriteString("; ")
		}
		return b.String()
	}
	hash := run(`SELECT l.a, r.b FROM l, r WHERE l.a = r.b ORDER BY l.a`, "HashJoin")
	loop := run(`SELECT l.a, r.b FROM l, r WHERE NOT (l.a <> r.b) ORDER BY l.a`, "NestedLoopJoin")
	if hash != loop || hash != "7 7 ; " {
		t.Errorf("hash join %q, nested loop %q, want %q", hash, loop, "7 7 ; ")
	}
	if got := scalarInt(t, db, `SELECT COUNT(*) FROM l WHERE a = 9007199254740992`); got != 0 {
		t.Errorf("single-table filter matched %d rows", got)
	}

	mixedHash := run(`SELECT l.a, f.c FROM l, f WHERE l.a = f.c ORDER BY l.a`, "HashJoin")
	mixedLoop := run(`SELECT l.a, f.c FROM l, f WHERE NOT (l.a <> f.c) ORDER BY l.a`, "NestedLoopJoin")
	if mixedHash != mixedLoop || !strings.HasPrefix(mixedHash, "2 2") {
		t.Errorf("int/float hash join %q, nested loop %q", mixedHash, mixedLoop)
	}
	self := run(`SELECT x.c FROM f x, f y WHERE x.c = y.c ORDER BY x.c`, "HashJoin")
	if strings.Count(self, ";") != 3 {
		t.Errorf("float self-join = %q, want every row once", self)
	}
}

// A correlated EXISTS over one relation filters that relation's access
// path, not the joined rows.
func TestSubqueryFilterBelowJoin(t *testing.T) {
	db := testDB(t)
	q := `SELECT COUNT(*) FROM nums, tags WHERE nums.n <= 20 AND nums.n = tags.n
		AND EXISTS (SELECT 1 FROM tags t2 WHERE t2.n = nums.n AND t2.tag = 'seven')`
	parent, child := filterContext(t, explainLines(t, db, q))
	if !strings.HasPrefix(child, "IndexScan nums") || !strings.Contains(parent, "Join") {
		t.Errorf("EXISTS filter between %q and %q, want between the join and the nums scan", parent, child)
	}
	// n ≤ 20 joined with tags: 1 (five, seven), 6, 11, 16 (five), 8, 15
	// (seven); the rows whose n has a 'seven' tag are 1 ×2, 8 and 15.
	if got := scalarInt(t, db, q); got != 4 {
		t.Errorf("count = %d, want 4", got)
	}
}

// An inner alias shadows the outer alias of the same name: the EXISTS
// below reads its own "tags" (a nums row), so it is uncorrelated and
// filters the first access path rather than waiting for the outer tags.
func TestSubqueryInnerAliasShadowsOuter(t *testing.T) {
	db := testDB(t)
	q := `SELECT COUNT(*) FROM nums, tags WHERE nums.n <= 3 AND nums.n = tags.n
		AND EXISTS (SELECT 1 FROM nums tags WHERE tags.n = 1)`
	parent, child := filterContext(t, explainLines(t, db, q))
	if !strings.HasPrefix(child, "IndexScan nums") || !strings.HasPrefix(parent, "HashJoin") {
		t.Errorf("EXISTS filter between %q and %q, want between the join and the nums scan", parent, child)
	}
	if got := scalarInt(t, db, q); got != 2 {
		t.Errorf("count = %d, want 2", got)
	}
}

// An unqualified correlated name cannot be tied to a relation by the
// planner, so the conjunct stays in the top filter.
func TestUnqualifiedCorrelationStaysOnTop(t *testing.T) {
	db := testDB(t)
	q := `SELECT COUNT(*) FROM nums, tags WHERE nums.n = tags.n
		AND EXISTS (SELECT 1 FROM tags t2 WHERE t2.n = sq)`
	parent, child := filterContext(t, explainLines(t, db, q))
	if !strings.HasPrefix(parent, "Aggregate") || !strings.Contains(child, "Join") {
		t.Errorf("EXISTS filter between %q and %q, want directly above the join", parent, child)
	}
	// Among tagged n, n² is itself tagged for n = 1 (two tag rows),
	// 6 (36) and 8 (64).
	if got := scalarInt(t, db, q); got != 4 {
		t.Errorf("count = %d, want 4", got)
	}
}

// A scalar subquery that can return several rows stays on top: moved
// below the join it would fail on rows the join discards.
func TestMultiRowScalarSubqueryFailsAsBefore(t *testing.T) {
	db := testDB(t)
	hidden := `SELECT nums.n FROM nums, tags WHERE nums.n = tags.n AND tags.tag = 'none'
		AND (SELECT t2.n FROM tags t2 WHERE t2.n = nums.n) = 1`
	rows, err := db.Query(hidden)
	if err != nil || rows.Len() != 0 {
		t.Errorf("join that discards every row: %v, %v; want no rows, no error", rows, err)
	}
	for q, want := range map[string]string{
		`SELECT nums.n FROM nums, tags WHERE nums.n = tags.n AND tags.tag = 'five'
			AND (SELECT t2.n FROM tags t2 WHERE t2.n = nums.n) = 1`: "sqldb: scalar subquery returned 2 rows",
		`SELECT nums.n FROM nums, tags WHERE nums.n = tags.n AND (SELECT n FROM tags) = 1`: "sqldb: scalar subquery returned 35 rows",
	} {
		if _, err := db.Query(q); err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", q, err, want)
		}
		if _, child := filterContext(t, explainLines(t, db, q)); !strings.Contains(child, "Join") {
			t.Errorf("%s: filter above %q, want above the join", q, child)
		}
	}
}

var colsRe = regexp.MustCompile(` cols=\d+/\d+`)

// LEFT JOIN keeps its written-order plan: no pruning, no filter moves.
func TestLeftJoinPlanUnchanged(t *testing.T) {
	db := testDB(t)
	q := `SELECT nums.n, tags.tag FROM nums LEFT JOIN tags ON nums.n = tags.n
		WHERE nums.n <= 10 AND EXISTS (SELECT 1 FROM tags t2 WHERE t2.n = nums.n) ORDER BY nums.n, tags.tag`
	plan, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "NestedLoopLeftJoin cols=6/6") {
		t.Errorf("left join pruned:\n%s", plan)
	}
	want := `Sort on 2 key(s) (est 910.0)
  Project 2 cols (est 910.0)
    Filter (est 910.0)
      NestedLoopLeftJoin (est 1818.0)
        SeqScan nums as nums (est 101.0)
        SeqScan tags as tags (est 36.0)
`
	// The plan as it rendered before join widths were printed.
	if got := colsRe.ReplaceAllString(plan, ""); got != want {
		t.Errorf("plan:\n%s\nwant:\n%s", got, want)
	}
	rows, err := db.Query(q)
	if err != nil || rows.Len() != 4 {
		t.Fatalf("rows = %v, err = %v", rows, err)
	}
}

// SELECT * and t.* keep every column through the joins; a join read
// through one column emits just that column.
func TestJoinOutputPruning(t *testing.T) {
	db := testDB(t)
	for _, c := range []struct {
		sql, cols string
		width     int
	}{
		{`SELECT * FROM nums, tags WHERE nums.n = tags.n AND tags.tag = 'seven'`, "cols=6/6", 6},
		{`SELECT tags.*, nums.label FROM nums, tags WHERE nums.n = tags.n AND tags.tag = 'seven'`, "cols=3/6", 3},
		{`SELECT nums.label FROM nums, tags WHERE nums.n = tags.n AND tags.tag = 'seven'`, "cols=1/6", 1},
	} {
		plan, err := db.Explain(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, c.cols) {
			t.Errorf("%s: want %s in\n%s", c.sql, c.cols, plan)
		}
		rows, err := db.Query(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows.Columns) != c.width || rows.Len() != 15 {
			t.Errorf("%s: %d columns, %d rows", c.sql, len(rows.Columns), rows.Len())
		}
		for _, r := range rows.Data {
			if len(r) != c.width {
				t.Fatalf("%s: row %v", c.sql, r)
			}
		}
	}
	analyzed, err := db.ExplainAnalyze(`SELECT nums.label FROM nums, tags WHERE nums.n = tags.n`)
	if err != nil || !strings.Contains(analyzed, "cols=1/6") {
		t.Errorf("EXPLAIN ANALYZE lacks cols: %v\n%s", err, analyzed)
	}
}

// xmarkPlan explains an XPath query's Interval translation over an
// XMark factor-0.1 store.
func xmarkPlan(t *testing.T, db *sqldb.Database, s shred.Scheme, query string) []planLine {
	t.Helper()
	p, err := xpath.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	sql, err := s.Translate(p)
	if err != nil {
		t.Fatal(err)
	}
	return explainLines(t, db, sql)
}

// The F1 twig and positional classes get their subquery filters where
// their correlated aliases are bound, and their joins emit only what is
// read above them.
func TestXMarkSubqueryPlacement(t *testing.T) {
	s := shred.NewInterval(false)
	db, err := shred.LoadDocument(s, xmlgen.Auction(xmlgen.Config{Factor: 0.1, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}

	// Q4: EXISTS(initial > 200) filters the open_auction access path,
	// before the bidder and increase joins.
	q4 := xmarkPlan(t, db, s, "//open_auction[initial > 200]/bidder/increase")
	if parent, child := filterContext(t, q4); !strings.HasPrefix(child, "IndexScan accel via accel_name_pre") ||
		!strings.HasPrefix(parent, "IndexJoin") {
		t.Errorf("Q4 EXISTS filter between %q and %q, want directly above the open_auction scan:\n%v", parent, child, q4)
	}

	// Q5: the positional COUNT filters bidders right after the bidder
	// join — which keeps only bidder's pre, parent, kind, name and
	// ordinal — and below the increase join, the last one.
	q5 := xmarkPlan(t, db, s, "/site/open_auctions/open_auction/bidder[1]/increase")
	parent, child := filterContext(t, q5)
	if !strings.HasPrefix(parent, "IndexJoin") || !strings.HasPrefix(child, "IndexJoin") || !strings.Contains(child, "cols=5/9") {
		t.Errorf("Q5 COUNT filter between %q and %q, want between the increase join and a 5-column bidder join:\n%v", parent, child, q5)
	}
	for i, l := range q5 {
		if l.text == parent && !strings.HasPrefix(q5[i-1].text, "Project") {
			t.Errorf("Q5 COUNT filter is not below the last join:\n%v", q5)
		}
	}
}
