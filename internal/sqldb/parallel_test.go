package sqldb

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// Differential battery for morsel-driven parallel execution: every
// query must return byte-identical results (values AND order) under
// serial and parallel execution, because the gather operator merges
// morsels strictly in rowid order. The battery covers scans, joins on
// all three join operators, exact and non-exact aggregations, DISTINCT,
// ORDER BY/LIMIT, UNION ALL, subqueries, integer overflow, and edge
// inputs at the morsel boundary; TestVectorizedF1MixShapes adds the F1
// mix shapes.

// parallelFixture loads identical data into n databases so plans can
// differ only by the parallel decoration.
func parallelFixture(t *testing.T, rows int, dops ...int) []*Database {
	t.Helper()
	dbs := make([]*Database, len(dops))
	for i, dop := range dops {
		db := New()
		db.SetParallelism(dop)
		db.MustExec(`CREATE TABLE big (id INTEGER PRIMARY KEY, grp TEXT, n INTEGER, f FLOAT, tag TEXT)`)
		db.MustExec(`CREATE TABLE small (id INTEGER PRIMARY KEY, label TEXT)`)
		db.MustExec(`CREATE INDEX big_n ON big (n)`)
		batch := make([][]Value, 0, rows)
		for k := 0; k < rows; k++ {
			tag := Null
			if k%3 == 0 {
				tag = NewText(fmt.Sprintf("t%d", k%11))
			}
			batch = append(batch, []Value{
				NewInt(int64(k)),
				NewText(fmt.Sprintf("g%d", k%23)),
				NewInt(int64(k % 101)),
				NewFloat(float64(k) / 7),
				tag,
			})
		}
		if _, err := db.BulkInsert("big", batch); err != nil {
			t.Fatal(err)
		}
		var sm [][]Value
		for k := 0; k < 101; k++ {
			sm = append(sm, []Value{NewInt(int64(k)), NewText(fmt.Sprintf("label-%d", k))})
		}
		if _, err := db.BulkInsert("small", sm); err != nil {
			t.Fatal(err)
		}
		// Deletes punch tombstones into the heap so morsel ranges cross
		// dead rows.
		db.MustExec(`DELETE FROM big WHERE id % 37 = 0`)
		dbs[i] = db
	}
	return dbs
}

var parallelBattery = []struct {
	name string
	sql  string
	args []Value
}{
	{"scan-filter", `SELECT id, grp FROM big WHERE n % 7 = 0`, nil},
	{"scan-expr", `SELECT id * 2 + n, f / 2 FROM big WHERE id > 100 AND id < 9000`, nil},
	{"scan-param", `SELECT id FROM big WHERE n < ?`, []Value{NewInt(13)}},
	{"null-filter", `SELECT id, tag FROM big WHERE tag IS NOT NULL AND n > 50`, nil},
	{"hash-join", `SELECT b.id, s.label FROM big b, small s WHERE b.n = s.id AND b.id % 5 = 0`, nil},
	{"self-join", `SELECT a.id, c.id FROM big a, big c WHERE a.id = c.n AND a.id < 40`, nil},
	{"left-join", `SELECT b.id, s.label FROM big b LEFT JOIN small s ON b.n = s.id AND s.id < 10 WHERE b.id < 300`, nil},
	{"nl-join", `SELECT b.id, s.id FROM big b, small s WHERE b.id < 30 AND s.id < b.n`, nil},
	{"count-star", `SELECT COUNT(*) FROM big`, nil},
	{"agg-exact", `SELECT grp, COUNT(*), SUM(n), MIN(id), MAX(n) FROM big GROUP BY grp`, nil},
	{"agg-avg-int", `SELECT grp, AVG(n) FROM big GROUP BY grp`, nil},
	{"agg-float", `SELECT grp, SUM(f) FROM big GROUP BY grp`, nil},
	{"agg-distinct", `SELECT grp, COUNT(DISTINCT n) FROM big GROUP BY grp`, nil},
	{"agg-having", `SELECT grp, COUNT(*) FROM big GROUP BY grp HAVING COUNT(*) > 400`, nil},
	{"agg-global", `SELECT SUM(n), MIN(grp), MAX(grp) FROM big WHERE id % 2 = 0`, nil},
	{"agg-empty", `SELECT COUNT(*), SUM(n) FROM big WHERE id < 0`, nil},
	{"distinct", `SELECT DISTINCT grp FROM big WHERE n < 40`, nil},
	{"order-by", `SELECT id, n FROM big WHERE n % 11 = 0 ORDER BY n DESC, id`, nil},
	{"limit-offset", `SELECT id FROM big WHERE n > 20 LIMIT 25 OFFSET 10`, nil},
	{"union-all", `SELECT id FROM big WHERE n = 3 UNION ALL SELECT id FROM big WHERE n = 5`, nil},
	{"in-subquery", `SELECT id FROM big WHERE n IN (SELECT id FROM small WHERE id < 5)`, nil},
	{"exists-subquery", `SELECT s.id FROM small s WHERE EXISTS (SELECT 1 FROM big b WHERE b.n = s.id AND b.id < 200)`, nil},
	{"scalar-subquery", `SELECT id, (SELECT MAX(id) FROM small) FROM big WHERE id < 50`, nil},
	{"index-range", `SELECT id, n FROM big WHERE n >= 90 AND n <= 95`, nil},
	{"int-overflow", `SELECT id, id + 9223372036854775800, -9223372036854775808 - n, n * 3074457345618258603, -(-9223372036854775807 - id % 2) FROM big WHERE id % 13 = 0`, nil},
	{"agg-overflow", `SELECT grp, SUM(n * 3074457345618258603), MAX(id + 9223372036854775800) FROM big GROUP BY grp`, nil},
}

// f1MixBattery mirrors the query shapes of the paper's F1 mix over an
// interval-encoded accelerator relation (see accelFixture): scan-heavy
// grouped aggregation, the parent/pre self hash join, containment by
// range predicates, an indexed child step, NULL predicates, an empty
// result and morsel-aligned modulus filters.
var f1MixBattery = []struct {
	name string
	sql  string
}{
	{"h1-scan-agg", `SELECT kind, COUNT(*), MIN(pre), MAX(level) FROM accel WHERE size % 5 <> 1 GROUP BY kind`},
	{"h2-hash-join", `SELECT COUNT(*) FROM accel c, accel p WHERE c.parent = p.pre AND p.size > 3 AND c.level > 2`},
	{"containment", `SELECT d.pre FROM accel a, accel d WHERE a.kind = 2 AND a.size > 8 AND a.pre % 50 = 0 AND d.pre > a.pre AND d.pre <= a.post`},
	{"child-step", `SELECT c.pre, c.tag FROM accel p, accel c WHERE p.kind = 3 AND p.level = 1 AND c.parent = p.pre ORDER BY c.pre`},
	{"tag-null", `SELECT pre FROM accel WHERE tag IS NULL AND level > 4`},
	{"empty-result", `SELECT pre, kind FROM accel WHERE size > 1000`},
	{"mod-boundary", `SELECT pre FROM accel WHERE pre % 1024 = 0`},
	{"distinct-range", `SELECT DISTINCT kind FROM accel WHERE level BETWEEN 2 AND 4`},
}

// accelFixture loads a synthetic element relation shaped like the
// Interval shredder's accelerator table into one database per dop.
func accelFixture(t *testing.T, rows int, dops ...int) []*Database {
	t.Helper()
	dbs := make([]*Database, len(dops))
	for i, dop := range dops {
		db := New()
		db.SetParallelism(dop)
		db.MustExec(`CREATE TABLE accel (pre INTEGER PRIMARY KEY, post INTEGER, parent INTEGER, kind INTEGER, tag TEXT, size INTEGER, level INTEGER)`)
		db.MustExec(`CREATE INDEX accel_parent ON accel (parent)`)
		batch := make([][]Value, 0, rows)
		for k := 0; k < rows; k++ {
			tag := NewText(fmt.Sprintf("e%d", k%6))
			if k%5 == 0 {
				tag = Null
			}
			batch = append(batch, []Value{
				NewInt(int64(k)), NewInt(int64(k + k*13%50)), NewInt(int64(k / 3)),
				NewInt(int64(k % 6)), tag, NewInt(int64(k % 11)), NewInt(int64(k % 9)),
			})
		}
		if _, err := db.BulkInsert("accel", batch); err != nil {
			t.Fatal(err)
		}
		dbs[i] = db
	}
	return dbs
}

// edgeFixture loads one table t(id, n, tag) of the given size into one
// database per dop: n cycles 0..99, tag is NULL on every third row.
func edgeFixture(t *testing.T, rows int, dops ...int) []*Database {
	t.Helper()
	dbs := make([]*Database, len(dops))
	for i, dop := range dops {
		db := New()
		db.SetParallelism(dop)
		db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, n INTEGER, tag TEXT)`)
		batch := make([][]Value, 0, rows)
		for k := 0; k < rows; k++ {
			tag := NewText(fmt.Sprintf("v%d", k%7))
			if k%3 == 0 {
				tag = Null
			}
			batch = append(batch, []Value{NewInt(int64(k)), NewInt(int64(k % 100)), tag})
		}
		if rows > 0 {
			if _, err := db.BulkInsert("t", batch); err != nil {
				t.Fatal(err)
			}
		}
		dbs[i] = db
	}
	return dbs
}

// parallelDiff runs sql on every database and requires the serial
// answer (dbs[0]) byte-identical — columns, values and order — from the
// others. It returns the serial answer.
func parallelDiff(t *testing.T, dbs []*Database, sql string, args ...Value) *Rows {
	t.Helper()
	want, err := dbs[0].Query(sql, args...)
	if err != nil {
		t.Fatalf("serial %q: %v", sql, err)
	}
	for i, db := range dbs[1:] {
		got, err := db.Query(sql, args...)
		if err != nil {
			t.Fatalf("parallel[%d] %q: %v", i, sql, err)
		}
		if !reflect.DeepEqual(want.Columns, got.Columns) {
			t.Fatalf("parallel[%d] %q: columns %v != %v", i, sql, got.Columns, want.Columns)
		}
		if !reflect.DeepEqual(want.Data, got.Data) {
			t.Fatalf("parallel[%d] %q: %d rows vs %d rows, or order/value drift\nserial: %.6v\nparallel: %.6v",
				i, sql, want.Len(), got.Len(), want.Data, got.Data)
		}
	}
	return want
}

// TestParallelMatchesSerial runs the battery on an unbounded heap and
// again under a three-page buffer pool, where every scan faults most of
// its pages back in from the spill file (serial against DOP 4 there:
// sixteen workers only thrash the pool harder).
func TestParallelMatchesSerial(t *testing.T) {
	for _, pool := range []int{0, 3} {
		if pool == 0 {
			parallelMatchesSerial(t, pool)
			continue
		}
		t.Run(fmt.Sprintf("pool=%d", pool), func(t *testing.T) { parallelMatchesSerial(t, pool) })
	}
}

func parallelMatchesSerial(t *testing.T, pool int) {
	dops := []int{1, 4, 16}
	if pool > 0 {
		dops = dops[:2]
	}
	pooled := func(dbs []*Database) []*Database {
		for _, db := range dbs {
			db.SetBufferPool(pool)
		}
		return dbs
	}
	dbs := pooled(parallelFixture(t, 10000, dops...))
	for _, tc := range parallelBattery {
		if pool > 0 && tc.name == "nl-join" {
			// Its inner side is an index probe per outer row, so behind
			// a three-page pool nearly every fetched row faults its page
			// in: a minute of thrashing that the unbounded run covers.
			continue
		}
		t.Run(tc.name, func(t *testing.T) { parallelDiff(t, dbs, tc.sql, tc.args...) })
	}

	// Edge inputs: empty and fully filtered streams, LIMIT/OFFSET around
	// the morsel boundary, tables one row either side of a morsel, and
	// NULL comparisons (three-valued logic drops the row).
	t.Run("empty-table", func(t *testing.T) {
		dbs := pooled(edgeFixture(t, 0, dops...))
		for _, sql := range []string{
			`SELECT id FROM t`,
			`SELECT id FROM t WHERE n > 5`,
			`SELECT COUNT(*), SUM(n) FROM t`,
			`SELECT tag, COUNT(*) FROM t GROUP BY tag`,
			`SELECT id FROM t LIMIT 10`,
			`SELECT a.id FROM t a, t b WHERE a.n = b.n`,
		} {
			parallelDiff(t, dbs, sql)
		}
	})
	t.Run("all-rows-filtered", func(t *testing.T) {
		dbs := pooled(edgeFixture(t, 3000, dops...))
		for _, sql := range []string{
			`SELECT id FROM t WHERE n < 0`,
			`SELECT id FROM t WHERE tag = 'nope'`,
			`SELECT COUNT(*) FROM t WHERE id > 100000`,
			`SELECT DISTINCT n FROM t WHERE n > 100`,
			`SELECT a.id FROM t a, t b WHERE a.n = b.n AND a.id < 0`,
		} {
			parallelDiff(t, dbs, sql)
		}
	})
	t.Run("limit-offset-sweep", func(t *testing.T) {
		const rows = 2500
		dbs := pooled(edgeFixture(t, rows, dops...))
		offsets := []int{0, 1, morselSize - 1, morselSize, morselSize + 1, 2*morselSize - 1, 2 * morselSize, 2400, rows, 3000}
		limits := []int{0, 1, 512, morselSize - 1, morselSize, morselSize + 1, 2 * morselSize, 5000}
		for _, off := range offsets {
			for _, lim := range limits {
				got := parallelDiff(t, dbs, fmt.Sprintf(`SELECT id FROM t LIMIT %d OFFSET %d`, lim, off))
				if want := min(max(rows-off, 0), lim); got.Len() != want {
					t.Errorf("LIMIT %d OFFSET %d: %d rows, want %d", lim, off, got.Len(), want)
				}
			}
		}
		// The same boundaries under a filter, so the rows the filter keeps
		// (not the heap slots) are what the limit counts.
		for _, off := range []int{511, 512, 513} {
			parallelDiff(t, dbs, fmt.Sprintf(`SELECT id FROM t WHERE id %% 2 = 0 LIMIT 600 OFFSET %d`, off))
		}
	})
	t.Run("morsel-size-tables", func(t *testing.T) {
		for _, rows := range []int{morselSize - 1, morselSize, morselSize + 1, 2 * morselSize} {
			dbs := pooled(edgeFixture(t, rows, dops...))
			if got := parallelDiff(t, dbs, `SELECT id FROM t`); got.Len() != rows {
				t.Fatalf("rows=%d: scan returned %d", rows, got.Len())
			}
			parallelDiff(t, dbs, `SELECT COUNT(*) FROM t`)
			parallelDiff(t, dbs, fmt.Sprintf(`SELECT id FROM t LIMIT %d`, rows))
		}
	})
	t.Run("null-comparisons", func(t *testing.T) {
		dbs := pooled(edgeFixture(t, 3000, dops...))
		for _, sql := range []string{
			`SELECT id FROM t WHERE tag > 'v3'`,
			`SELECT id FROM t WHERE tag = 'v1' OR n < 5`,
			`SELECT id FROM t WHERE tag IS NULL`,
			`SELECT id FROM t WHERE tag IS NOT NULL AND n > 90`,
			`SELECT COUNT(tag), COUNT(*) FROM t`,
			`SELECT tag, COUNT(*) FROM t GROUP BY tag`,
			`SELECT a.id, b.id FROM t a, t b WHERE a.tag = b.tag AND a.id < 9 AND b.id < 9`,
		} {
			parallelDiff(t, dbs, sql)
		}
	})
	if bp := dbs[0].Stats().BufferPool; pool > 0 && bp.Misses == 0 {
		t.Fatalf("the pool never faulted a page in: %+v", bp)
	}
}

// TestVectorizedF1MixShapes runs the F1 mix shapes over the accelerator
// relation serially and through the gather at DOP 4: rows must be
// byte-identical, and each execution's operator accounting must hold
// (see checkAccounting). The name is kept from the batch-engine
// differential this test succeeds.
func TestVectorizedF1MixShapes(t *testing.T) {
	dbs := accelFixture(t, 6000, 1, 4)
	for _, tc := range f1MixBattery {
		t.Run(tc.name, func(t *testing.T) {
			want := parallelDiff(t, dbs, tc.sql)
			for _, db := range dbs {
				checkAccounting(t, db, want, tc.sql)
			}
		})
	}
}

// TestParallelPreservesHeapOrder pins the order contract directly: with
// no ORDER BY, rows come back in heap (rowid) order — the document
// order every shredding scheme relies on.
func TestParallelPreservesHeapOrder(t *testing.T) {
	dbs := parallelFixture(t, 8000, 8)
	rows, err := dbs[0].Query(`SELECT id FROM big WHERE n % 3 = 0`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() == 0 {
		t.Fatal("no rows")
	}
	last := int64(-1)
	for _, r := range rows.Data {
		if r[0].I <= last {
			t.Fatalf("heap order violated: id %d after %d", r[0].I, last)
		}
		last = r[0].I
	}
}

// TestParallelPlanAnnotations checks the planner decision points and
// the EXPLAIN/EXPLAIN ANALYZE surfaces.
func TestParallelPlanAnnotations(t *testing.T) {
	dbs := parallelFixture(t, 9000, 1, 4)
	serial, par := dbs[0], dbs[1]

	sp, err := serial.Explain(`SELECT id FROM big WHERE n % 7 = 0`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sp, "Gather") {
		t.Fatalf("serial plan has a Gather:\n%s", sp)
	}

	pp, err := par.Explain(`SELECT id FROM big WHERE n % 7 = 0`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pp, "Gather over big (dop 4") {
		t.Fatalf("parallel plan lacks Gather:\n%s", pp)
	}

	ap, err := par.ExplainAnalyze(`SELECT id FROM big WHERE n % 7 = 0`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ap, "workers=") || !strings.Contains(ap, "worker_rows=") {
		t.Fatalf("analyzed parallel plan lacks worker annotations:\n%s", ap)
	}

	// Exact aggregation becomes a ParallelAggregate...
	app, err := par.Explain(`SELECT grp, SUM(n) FROM big GROUP BY grp`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(app, "ParallelAggregate") {
		t.Fatalf("exact aggregation did not parallelize:\n%s", app)
	}
	// ...while a float SUM must not (non-associative), but still gets a
	// Gather feeding the serial aggregate.
	fpp, err := par.Explain(`SELECT grp, SUM(f) FROM big GROUP BY grp`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(fpp, "ParallelAggregate") {
		t.Fatalf("float SUM was parallelized:\n%s", fpp)
	}
	if !strings.Contains(fpp, "Gather") {
		t.Fatalf("float SUM aggregation input not gathered:\n%s", fpp)
	}

	// Small tables stay serial even with the knob up.
	small, err := par.Explain(`SELECT label FROM small WHERE id > 3`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(small, "Gather") {
		t.Fatalf("sub-threshold table was parallelized:\n%s", small)
	}

	// Changing the knob bumps the epoch and re-decides cached plans.
	par.SetParallelism(1)
	rp, err := par.Explain(`SELECT id FROM big WHERE n % 7 = 0`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(rp, "Gather") {
		t.Fatalf("plan kept its Gather after SetParallelism(1):\n%s", rp)
	}
}

// TestParallelErrorPropagation makes a worker fail mid-scan and checks
// the error surfaces and the engine (and its worker pool) stays usable.
func TestParallelErrorPropagation(t *testing.T) {
	db := New()
	db.SetParallelism(4)
	db.MustExec(`CREATE TABLE t (a INTEGER)`)
	db.MustExec(`CREATE TABLE dup (k INTEGER, v INTEGER)`)
	// The scalar subquery yields two rows only for a = 5900, several
	// morsels deep in the heap.
	db.MustExec(`INSERT INTO dup VALUES (5900, 1), (5900, 2)`)
	batch := make([][]Value, 0, 6000)
	for i := 0; i < 6000; i++ {
		batch = append(batch, []Value{NewInt(int64(i))})
	}
	if _, err := db.BulkInsert("t", batch); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`SELECT (SELECT v FROM dup WHERE k = t.a) FROM t`); err == nil {
		t.Fatal("worker error did not surface through the gather")
	}
	rows, err := db.Query(`SELECT COUNT(*) FROM t WHERE a >= 5900`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0].I != 100 {
		t.Fatalf("engine wedged after worker error: count = %v", rows.Data[0][0])
	}
}

// TestVectorizedContextCancel checks that a pre-canceled context aborts
// scans, joins, aggregations and sorts, serially and through the
// gather, with context.Canceled, and that the engine stays usable. The
// name is kept from the batch-engine test this one succeeds.
func TestVectorizedContextCancel(t *testing.T) {
	dbs := parallelFixture(t, 5000, 1, 4)
	for _, db := range dbs {
		dop := db.Parallelism()
		for _, sql := range []string{
			`SELECT COUNT(*) FROM big WHERE n > 1`,
			`SELECT b.id, s.label FROM big b, small s WHERE b.n = s.id`,
			`SELECT grp, SUM(n) FROM big GROUP BY grp`,
			`SELECT id FROM big ORDER BY n DESC, id`,
		} {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := db.QueryContext(ctx, sql); !errors.Is(err, context.Canceled) {
				t.Errorf("dop=%d %q: pre-canceled context: err = %v, want context.Canceled", dop, sql, err)
			}
			if _, err := db.Query(sql); err != nil {
				t.Errorf("dop=%d %q: engine wedged after canceled query: %v", dop, sql, err)
			}
		}
	}
}

// TestParallelQueriesUnderConcurrentMutations is the -race gate:
// parallel readers hammer a durable store while writers insert, update
// and delete, DDL creates and drops an index, and a checkpointer
// rotates the WAL. Queries may fail transiently only with legitimate
// engine errors; results that do arrive must be internally consistent.
func TestParallelQueriesUnderConcurrentMutations(t *testing.T) {
	inner := NewMemVFS()
	d, err := OpenDurable(inner, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	db := d.DB()
	db.SetParallelism(4)
	db.MustExec(`CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER, c TEXT)`)
	batch := make([][]Value, 0, 8000)
	for i := 0; i < 8000; i++ {
		batch = append(batch, []Value{NewInt(int64(i)), NewInt(int64(i % 64)), NewText(fmt.Sprintf("c%d", i%17))})
	}
	if _, err := db.BulkInsert("t", batch); err != nil {
		t.Fatal(err)
	}

	const loops = 30
	var wg sync.WaitGroup
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
	}

	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			queries := []string{
				`SELECT a, b FROM t WHERE b % 5 = 0`,
				`SELECT c, COUNT(*), SUM(b) FROM t GROUP BY c`,
				`SELECT x.a FROM t x, t y WHERE x.a = y.b AND x.a < 64`,
			}
			for i := 0; i < loops; i++ {
				q := queries[(i+r)%len(queries)]
				if _, err := db.Query(q); err != nil {
					fail("reader %d: %v", r, err)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() { // writer: inserts + deletes
		defer wg.Done()
		for i := 0; i < loops; i++ {
			k := int64(100000 + i)
			if _, err := db.Exec(`INSERT INTO t VALUES (?, ?, 'w')`, NewInt(k), NewInt(k%64)); err != nil {
				fail("insert: %v", err)
				return
			}
			if i%3 == 0 {
				if _, err := db.Exec(`DELETE FROM t WHERE a = ?`, NewInt(k)); err != nil {
					fail("delete: %v", err)
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() { // updater
		defer wg.Done()
		for i := 0; i < loops; i++ {
			if _, err := db.Exec(`UPDATE t SET b = b + 1 WHERE a % 997 = ?`, NewInt(int64(i%7))); err != nil {
				fail("update: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // DDL: create/drop an index under the readers
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if _, err := db.Exec(`CREATE INDEX t_b ON t (b)`); err != nil {
				fail("create index: %v", err)
				return
			}
			if _, err := db.Exec(`DROP INDEX t_b`); err != nil {
				fail("drop index: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // checkpointer
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if err := d.Checkpoint(); err != nil {
				fail("checkpoint: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	checkIndexes(t, db)
}
