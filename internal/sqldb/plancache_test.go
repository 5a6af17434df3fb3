package sqldb

import (
	"strings"
	"testing"
)

func TestPlanCacheHitMissCounters(t *testing.T) {
	db := testDB(t)
	base := db.PlanCacheStats()
	const q = `SELECT n FROM nums WHERE n < 10`
	for i := 0; i < 3; i++ {
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	s := db.PlanCacheStats()
	if got := s.Misses - base.Misses; got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
	if got := s.Hits - base.Hits; got != 2 {
		t.Errorf("hits = %d, want 2", got)
	}
	if s.Entries == 0 {
		t.Error("no entries cached")
	}
}

func TestPlanCacheResultsStableAcrossHits(t *testing.T) {
	db := testDB(t)
	const q = `SELECT grp, COUNT(*) FROM nums GROUP BY grp ORDER BY 1`
	first, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	second, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Data) != len(second.Data) {
		t.Fatalf("row counts differ: %d vs %d", len(first.Data), len(second.Data))
	}
	for i := range first.Data {
		for j := range first.Data[i] {
			if Compare(first.Data[i][j], second.Data[i][j]) != 0 {
				t.Fatalf("row %d differs: %v vs %v", i, first.Data[i], second.Data[i])
			}
		}
	}
	// Cached plans still see new data (plans cache compilation, not
	// results).
	db.MustExec(`INSERT INTO nums VALUES (1000, 1000000, 'n1000', 'big')`)
	third, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, r := range third.Data {
		total += r[1].Int()
	}
	if total != 101 {
		t.Errorf("total after insert = %d, want 101", total)
	}
}

func TestPlanCacheInvalidatedByDDL(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE t (n INTEGER)`)
	db.MustExec(`INSERT INTO t VALUES (1), (2)`)
	const q = `SELECT COUNT(*) FROM t`
	if v, err := db.QueryScalar(q); err != nil || v.Int() != 2 {
		t.Fatalf("initial: %v %v", v, err)
	}
	epoch := db.SchemaEpoch()

	// Drop and recreate the table: the cached plan must not resurrect
	// the orphaned storage.
	db.MustExec(`DROP TABLE t`)
	if db.SchemaEpoch() == epoch {
		t.Fatal("DROP TABLE did not advance the schema epoch")
	}
	if _, err := db.Query(q); err == nil || !strings.Contains(err.Error(), "no such table") {
		t.Fatalf("query after drop: %v", err)
	}
	db.MustExec(`CREATE TABLE t (n INTEGER)`)
	db.MustExec(`INSERT INTO t VALUES (7)`)
	if v, err := db.QueryScalar(q); err != nil || v.Int() != 1 {
		t.Fatalf("after recreate: %v %v (stale plan read the orphaned table?)", v, err)
	}
	if inv := db.PlanCacheStats().Invalidations; inv == 0 {
		t.Error("no invalidations counted")
	}
}

func TestPlanCacheInvalidatedByIndexDDL(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE t (n INTEGER)`)
	for i := 0; i < 20; i++ {
		db.MustExec(`INSERT INTO t VALUES (?)`, NewInt(int64(i)))
	}
	const q = `SELECT n FROM t WHERE n = 5`
	run := func() {
		t.Helper()
		rows, err := db.Query(q)
		if err != nil || rows.Len() != 1 || rows.Data[0][0].Int() != 5 {
			t.Fatalf("rows = %v err = %v", rows, err)
		}
	}
	run() // plan without index
	epoch := db.SchemaEpoch()
	db.MustExec(`CREATE INDEX t_n ON t (n)`)
	if db.SchemaEpoch() == epoch {
		t.Fatal("CREATE INDEX did not advance the schema epoch")
	}
	run() // replanned; may now use the index
	// Dropping the index detaches its B-tree from maintenance. A stale
	// plan scanning it would miss subsequent inserts.
	db.MustExec(`DROP INDEX t_n`)
	db.MustExec(`INSERT INTO t VALUES (5)`)
	rows, err := db.Query(q)
	if err != nil || rows.Len() != 2 {
		t.Fatalf("after index drop + insert: rows = %d err = %v (stale index plan?)", rows.Len(), err)
	}
}

func TestPlanCacheBounded(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE t (n INTEGER)`)
	db.plans = newPlanCache(4)
	for i := 0; i < 10; i++ {
		sql := `SELECT n FROM t WHERE n = ` + string(rune('0'+i))
		if _, err := db.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	s := db.PlanCacheStats()
	if s.Entries > 4 {
		t.Errorf("entries = %d exceeds capacity 4", s.Entries)
	}
	if s.Evictions == 0 {
		t.Error("no evictions under capacity pressure")
	}
	// Zero capacity disables caching.
	db.plans = newPlanCache(0)
	before := db.PlanCacheStats().Hits
	db.Query(`SELECT n FROM t`)
	db.Query(`SELECT n FROM t`)
	if db.PlanCacheStats().Hits != before {
		t.Error("disabled cache served a hit")
	}
}

func TestExplainReportsCached(t *testing.T) {
	db := testDB(t)
	const q = `SELECT n FROM nums WHERE n < 5`
	first, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(first, "(cached)") {
		t.Errorf("first explain claims cached:\n%s", first)
	}
	second, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(second, "(cached)") {
		t.Errorf("second explain not marked cached:\n%s", second)
	}
	// DDL invalidates: the marker disappears again.
	db.MustExec(`CREATE TABLE unrelated (x INTEGER)`)
	third, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(third, "(cached)") {
		t.Errorf("explain after DDL still cached:\n%s", third)
	}
}

func TestStatsIncludePlanCache(t *testing.T) {
	db := testDB(t)
	db.Query(`SELECT n FROM nums`)
	db.Query(`SELECT n FROM nums`)
	s := db.Stats()
	if s.PlanCache.Hits == 0 || s.PlanCache.Misses == 0 {
		t.Errorf("cache counters missing from Stats: %+v", s.PlanCache)
	}
	if s.SchemaEpoch == 0 {
		t.Error("schema epoch missing from Stats")
	}
}
