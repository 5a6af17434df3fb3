package sqldb

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// The probe-order and rewind battery: index joins and correlated
// subqueries whose outer rows arrive ascending, descending and shuffled
// must answer exactly as their references do — the same join over
// tables without indexes (a seq-scan filter) and each subquery run on
// its own with the outer values spelled out — and leave no page pinned.

// drawProbeKey draws a key: mostly a string of one to nine letters over
// {a, b}, so keys of different lengths share prefixes ('a', 'ab',
// 'abb'), else NULL, the empty string, or — for outer rows — a key
// between or past the inner ones.
func drawProbeKey(rng *rand.Rand, outer bool) string {
	switch r := rng.Intn(20); {
	case r == 0:
		return "NULL"
	case r == 1:
		return "''"
	case outer && r == 2:
		return []string{"'c'", "'zz'", "'abababab'"}[rng.Intn(3)]
	}
	b := make([]byte, 1+rng.Intn(9))
	for i := range b {
		b[i] = "ab"[rng.Intn(2)]
	}
	return "'" + string(b) + "'"
}

// probeOuterTables names the outer tables by the order their rows sit
// in the heap, which is the order a scan hands them to a join.
var probeOuterTables = []string{"oasc", "odesc", "oshuf"}

type probeOuterRow struct {
	key string // a SQL literal
	lo  int
}

// insertRows inserts rows (SQL value lists) in batches.
func insertRows(t *testing.T, db *Database, table string, rows []string) {
	t.Helper()
	for len(rows) > 0 {
		n := min(len(rows), 500)
		db.MustExec("INSERT INTO " + table + " VALUES " + strings.Join(rows[:n], ", "))
		rows = rows[n:]
	}
}

// probeBatteryDB builds the battery's database under a bounded pool, so
// pins are counted (its cap holds every page: the battery is about
// probes, not faults): inner tables i (4400 rows: three-level indexes)
// and i1 (40 rows: one-leaf indexes) indexed on (k, v) and v, their
// unindexed mirrors n and n1, and one 2100-row outer table per row
// order. The outer tables carry a (k, lo) index too, so the planner
// estimates both join directions alike and drives from the smaller
// side: their seq scan feeds the index join in heap order.
func probeBatteryDB(t *testing.T) *Database {
	t.Helper()
	db := New()
	db.SetBufferPool(64)
	rng := rand.New(rand.NewSource(30))
	for _, inner := range []struct {
		name, mirror string
		rows         int
	}{{"i", "n", 4400}, {"i1", "n1", 40}} {
		var rows []string
		for id := range inner.rows {
			rows = append(rows, fmt.Sprintf("(%d, %s, %d, %d)", id, drawProbeKey(rng, false), rng.Intn(100), rng.Intn(4)))
		}
		for _, tbl := range []string{inner.name, inner.mirror} {
			db.MustExec("CREATE TABLE " + tbl + " (id INTEGER PRIMARY KEY, k TEXT, v INTEGER, w INTEGER)")
			insertRows(t, db, tbl, rows)
		}
		db.MustExec("CREATE INDEX " + inner.name + "_kv ON " + inner.name + " (k, v)")
		db.MustExec("CREATE INDEX " + inner.name + "_v ON " + inner.name + " (v)")
	}
	outer := make([]probeOuterRow, 2100)
	for i := range outer {
		outer[i] = probeOuterRow{key: drawProbeKey(rng, true), lo: rng.Intn(42) - 1}
	}
	order := slices.Clone(outer)
	for _, tbl := range probeOuterTables {
		switch tbl {
		case "oasc":
			// Key order: NULL first, then the quoted strings.
			slices.SortStableFunc(order, func(a, b probeOuterRow) int {
				if c := strings.Compare(strings.ReplaceAll(a.key, "NULL", ""), strings.ReplaceAll(b.key, "NULL", "")); c != 0 {
					return c
				}
				return a.lo - b.lo
			})
		case "odesc":
			slices.Reverse(order)
		case "oshuf":
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		var rows []string
		for id, r := range order {
			rows = append(rows, fmt.Sprintf("(%d, %s, %d)", id, r.key, r.lo))
		}
		db.MustExec("CREATE TABLE " + tbl + " (id INTEGER PRIMARY KEY, k TEXT, lo INTEGER)")
		insertRows(t, db, tbl, rows)
		db.MustExec("CREATE INDEX " + tbl + "_klo ON " + tbl + " (k, lo)")
	}
	return db
}

// checkUnpinned fails when a page is still pinned after a statement.
func checkUnpinned(t *testing.T, db *Database, what string) {
	t.Helper()
	if p := db.Stats().BufferPool.Pinned; p != 0 {
		t.Fatalf("%s: %d page(s) still pinned", what, p)
	}
}

// probeJoins are index-join conditions over outer x and inner y; y is
// the indexed inner table or its unindexed mirror. (A range on an
// index's leading column alone plans from the inner side at these
// sizes; the Interval descendant joins of the XPath differentials
// probe that shape.)
var probeJoins = []string{
	"y.k = x.k",
	"y.k = x.k AND y.v > x.lo",  // strict lower bound
	"y.k = x.k AND y.v >= x.lo", // inclusive lower bound
	"y.k = x.k AND y.v >= x.lo AND y.v <= x.lo + 2",
	"y.k = x.k AND y.v < x.lo",              // upper bound only
	"y.k = x.k AND y.w <> 1",                // a residual on the probed table
	"y.k = x.k AND y.w < x.lo AND y.v <> 3", // residuals on both sides
	"y.v = x.lo AND (y.k = x.k OR x.k IS NULL)",
}

func TestIndexJoinProbeOrders(t *testing.T) {
	db := probeBatteryDB(t)
	for _, inner := range [][2]string{{"i", "n"}, {"i1", "n1"}} {
		for _, cond := range probeJoins {
			ref := ""
			for _, outer := range probeOuterTables {
				q := func(y string) string {
					// A third of the outer rows keeps results small.
					return "SELECT x.k, x.lo, y.id FROM " + outer + " x, " + y + " y WHERE x.lo % 3 = 1 AND " + cond
				}
				plan, err := db.Explain(q(inner[0]))
				if err != nil {
					t.Fatal(err)
				}
				// The 40-row i1 drives instead, probing the outer
				// table's index where it can (its own one-leaf tree is
				// probed by the subquery battery's rewound index scans).
				if inner[0] == "i" && !strings.Contains(plan, "IndexJoin i") {
					t.Fatalf("%s: no index join into i:\n%s", q(inner[0]), plan)
				}
				got := sortedRows(t, db, q(inner[0]))
				if ref == "" {
					ref = sortedRows(t, db, q(inner[1]))
				}
				if got != ref {
					t.Fatalf("%s: index join differs from the seq-scan join", q(inner[0]))
				}
				checkUnpinned(t, db, q(inner[0]))
			}
		}
	}
}

// sortedRows is dumpRows with the rows in sorted order.
func sortedRows(t *testing.T, db *Database, q string) string {
	t.Helper()
	lines := strings.Split(dumpRows(t, db, q), "\n")
	slices.Sort(lines)
	return strings.Join(lines, "\n")
}

// probeSubqueries are correlated expressions over outer x; {y} is the
// indexed inner table, {k} and {lo} stand for x's columns.
var probeSubqueries = []string{
	"EXISTS (SELECT 1 FROM {y} WHERE {y}.k = {k} AND {y}.v > {lo})",
	"NOT EXISTS (SELECT 1 FROM {y} WHERE {y}.k = {k} AND {y}.v >= {lo})",
	"{lo} IN (SELECT {y}.v FROM {y} WHERE {y}.k = {k})",
	"{lo} NOT IN (SELECT {y}.v FROM {y} WHERE {y}.k = {k} AND {y}.w = 2)",
	"(SELECT COUNT(*) FROM {y} WHERE {y}.k = {k} AND {y}.v < {lo})",
	"(SELECT MIN({y}.v) FROM {y} WHERE {y}.k = {k} AND {y}.w = 3)",
	"(SELECT MAX({y}.v) FROM {y} WHERE {y}.k = {k})",
	"(SELECT {y}.id FROM {y} WHERE {y}.k = {k} ORDER BY {y}.v DESC, {y}.id LIMIT 1 OFFSET 1)",
	"{lo} IN (SELECT DISTINCT {y}.v FROM {y} WHERE {y}.k = {k} AND {y}.w > 0)",
	"EXISTS (SELECT {y}.w FROM {y} WHERE {y}.k = {k} GROUP BY {y}.w HAVING MAX({y}.v) < {lo} + 12)",
	"(SELECT COUNT(*) FROM n1 a, n1 b WHERE a.k = {k} AND b.id = a.id + 1 AND b.w = 1)",
	"EXISTS (SELECT 1 FROM {y} WHERE {y}.k = {k} AND {y}.v > {lo} AND EXISTS (SELECT 1 FROM i1 WHERE i1.k = {y}.k AND i1.v < {y}.v))",
	"{lo} IN (SELECT {y}.v FROM {y} WHERE {y}.k = {k} AND {y}.w = 0 UNION ALL SELECT {y}.v + 1 FROM {y} WHERE {y}.k = {k} AND {y}.w = 1)",
	"(SELECT COUNT(*) FROM {y} p, {y} q WHERE p.k = {k} AND q.k = p.k AND q.v = p.v + 1 AND q.w = 2)",
}

func TestCorrelatedSubqueryRewinds(t *testing.T) {
	db := probeBatteryDB(t)
	fill := func(form, y, k, lo string) string {
		return strings.NewReplacer("{y}", y, "{k}", k, "{lo}", lo).Replace(form)
	}
	for _, y := range []string{"i", "i1"} {
		for _, form := range probeSubqueries {
			// The reference runs the body on its own for each distinct
			// outer row, the outer values bound as parameters in the
			// order the placeholders appear.
			ref := "SELECT " + fill(form, y, "?", "?")
			var params []string
			for rest := form; ; {
				k, lo := strings.Index(rest, "{k}"), strings.Index(rest, "{lo}")
				if k < 0 && lo < 0 {
					break
				}
				if lo < 0 || (k >= 0 && k < lo) {
					params, rest = append(params, "k"), rest[k+3:]
				} else {
					params, rest = append(params, "lo"), rest[lo+4:]
				}
			}
			memo := map[[2]string]string{}
			alone := func(k, lo Value) string {
				key := [2]string{renderValue(k), renderValue(lo)}
				if w, ok := memo[key]; ok {
					return w
				}
				var args []Value
				for _, p := range params {
					args = append(args, map[string]Value{"k": k, "lo": lo}[p])
				}
				rows, err := db.Query(ref, args...)
				if err != nil {
					t.Fatalf("%s: %v", form, err)
				}
				memo[key] = renderValue(rows.Data[0][0])
				return memo[key]
			}
			for _, tbl := range []string{"oasc", "odesc", "oshuf"} {
				q := "SELECT x.k, x.lo, " + fill(form, y, "x.k", "x.lo") + " FROM " + tbl + " x WHERE x.id % 3 = 0"
				rows, err := db.Query(q)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				for _, r := range rows.Data {
					if got, want := renderValue(r[2]), alone(r[0], r[1]); got != want {
						t.Fatalf("%s: outer (%v, %v) gives %q, alone %q", q, r[0], r[1], got, want)
					}
				}
				checkUnpinned(t, db, q)
			}
		}
	}
}

// renderValue renders v as dumpRows does.
func renderValue(v Value) string {
	if v.IsNull() {
		return "<null>"
	}
	return v.Text()
}

// TestScalarSubqueryRowCountError: a scalar subquery over more than one
// row fails with the count, on the first outer row that yields several
// and on later ones alike.
func TestScalarSubqueryRowCountError(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE o (id INTEGER PRIMARY KEY, k INTEGER)")
	db.MustExec("CREATE TABLE s (id INTEGER PRIMARY KEY, k INTEGER)")
	db.MustExec("CREATE INDEX s_k ON s (k)")
	db.MustExec("INSERT INTO o VALUES (1, 1), (2, 2), (3, 3)")
	db.MustExec("INSERT INTO s VALUES (1, 1), (2, 3), (3, 3), (4, 3)")
	for _, q := range []string{
		"SELECT o.id, (SELECT s.id FROM s WHERE s.k = o.k) FROM o",
		"SELECT o.id FROM o WHERE (SELECT s.id FROM s WHERE s.k = o.k) > 0",
	} {
		_, err := db.Query(q)
		if err == nil || !strings.Contains(err.Error(), "scalar subquery returned 3 rows") {
			t.Fatalf("%s: %v", q, err)
		}
	}
}

// TestUpdateReadsItsOwnWrites: an UPDATE whose SET subquery probes an
// index of the table it updates sees every row it has updated so far —
// its writes move index entries under the subquery's probe cursor,
// which must descend afresh instead of resuming from a stale finger.
func TestUpdateReadsItsOwnWrites(t *testing.T) {
	db := New()
	db.SetBufferPool(4)
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, v INTEGER)")
	db.MustExec("CREATE INDEX t_kv ON t (k, v)")
	rng := rand.New(rand.NewSource(5))
	type row struct{ k, v int }
	rows := make([]row, 3000)
	var lits []string
	for id := range rows {
		rows[id] = row{k: rng.Intn(5), v: rng.Intn(50)}
		lits = append(lits, fmt.Sprintf("(%d, %d, %d)", id, rows[id].k, rows[id].v))
	}
	insertRows(t, db, "t", lits)
	db.MustExec("UPDATE t SET v = (SELECT COUNT(*) FROM t t2 WHERE t2.k = t.k AND t2.v < t.v) * 3 + 1")
	checkUnpinned(t, db, "update")
	// Replay row by row in rowid order, as the statement runs.
	for id := range rows {
		n := 0
		for _, r := range rows {
			if r.k == rows[id].k && r.v < rows[id].v {
				n++
			}
		}
		rows[id].v = n*3 + 1
	}
	got := mustQuery(t, db, "SELECT id, v FROM t ORDER BY id")
	for id, r := range got.Data {
		if int(r[1].Int()) != rows[id].v {
			t.Fatalf("row %d: v = %d, want %d", id, r[1].Int(), rows[id].v)
		}
	}
}

// TestProbeAllocationsFlat: an index join and correlated COUNT(*) and
// EXISTS subqueries allocate the same number of objects over 1,000
// outer rows as over 10,000 — nothing per outer row once the first has
// opened the operators. The join's probes all find a candidate that its
// in-place residual rejects, so it returns no row to pay for.
func TestProbeAllocationsFlat(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE s (id INTEGER PRIMARY KEY, k INTEGER, w INTEGER)")
	db.MustExec("CREATE INDEX s_k ON s (k)")
	var rows []string
	for id := range 50000 {
		rows = append(rows, fmt.Sprintf("(%d, %d, 1)", id, id))
	}
	insertRows(t, db, "s", rows)
	for _, n := range []int{1000, 10000} {
		rows = rows[:0]
		for id := range n {
			rows = append(rows, fmt.Sprintf("(%d, %d)", id, (id*7919)%50000))
		}
		tbl := fmt.Sprintf("o%d", n)
		db.MustExec("CREATE TABLE " + tbl + " (id INTEGER PRIMARY KEY, k INTEGER)")
		insertRows(t, db, tbl, rows)
	}
	for _, c := range []struct {
		q       string
		matches bool // every outer row qualifies (else none)
	}{
		{"SELECT COUNT(*) FROM {o} o, s WHERE s.k = o.k AND s.w <> 1", false},
		{"SELECT COUNT(*) FROM {o} o WHERE (SELECT COUNT(*) FROM s WHERE s.k = o.k AND s.w <> 1) = 0", true},
		{"SELECT COUNT(*) FROM {o} o WHERE EXISTS (SELECT 1 FROM s WHERE s.k = o.k)", true},
	} {
		var allocs []float64
		for _, n := range []int{1000, 10000} {
			sql := strings.ReplaceAll(c.q, "{o}", fmt.Sprintf("o%d", n))
			if plan, _ := db.Explain(sql); strings.Contains(sql, ", s WHERE") && !strings.Contains(plan, "IndexJoin s") {
				t.Fatalf("%s: no index join into s:\n%s", sql, plan)
			}
			want := int64(0)
			if c.matches {
				want = int64(n)
			}
			if got := mustQuery(t, db, sql).Data[0][0].Int(); got != want {
				t.Fatalf("%s = %d, want %d", sql, got, want)
			}
			allocs = append(allocs, testing.AllocsPerRun(5, func() {
				if _, err := db.Query(sql); err != nil {
					t.Fatal(err)
				}
			}))
		}
		t.Logf("%s: %v objects", c.q, allocs[0])
		if allocs[0] != allocs[1] {
			t.Errorf("%s: %v objects over 1,000 outer rows, %v over 10,000", c.q, allocs[0], allocs[1])
		}
	}
}
