package sqldb

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestNormalizeSQL(t *testing.T) {
	a := NormalizeSQL(`SELECT n FROM nums WHERE n = 42 AND label = 'x'`)
	b := NormalizeSQL("select\n\tn from nums where n=7 and label='yyyy'")
	if a != b {
		t.Errorf("literal variants normalize differently:\n%q\n%q", a, b)
	}
	c := NormalizeSQL(`SELECT n FROM nums WHERE n = ? AND label = ?`)
	if a != c {
		t.Errorf("param form normalizes differently:\n%q\n%q", a, c)
	}
	if strings.ContainsAny(a, "47") || strings.Contains(a, "'x'") {
		t.Errorf("literals survived normalization: %q", a)
	}
	// Input that does not lex comes back trimmed but otherwise unchanged.
	if got := NormalizeSQL("  SELECT 'unterminated  "); got != "SELECT 'unterminated" {
		t.Errorf("unlexable input: %q", got)
	}
}

func TestLatencyBucketBounds(t *testing.T) {
	for i, d := range []time.Duration{0, 4 * time.Microsecond} {
		if got := latencyBucket(d); got != 0 {
			t.Errorf("case %d: bucket(%v) = %d, want 0", i, d, got)
		}
	}
	if got := latencyBucket(5 * time.Microsecond); got != 1 {
		t.Errorf("bucket(5µs) = %d, want 1", got)
	}
	if got := latencyBucket(2 * time.Second); got != latencyBuckets-1 {
		t.Errorf("bucket(2s) = %d, want overflow %d", got, latencyBuckets-1)
	}
}

// TestMetricsAccumulate checks the counters Query folds into the
// registry: totals, histogram mass, template grouping and per-operator
// kind totals.
func TestMetricsAccumulate(t *testing.T) {
	db := testDB(t)
	base := db.Metrics()

	for i := 1; i <= 4; i++ {
		rows, err := db.Query(fmt.Sprintf(`SELECT n FROM nums WHERE n <= %d`, i))
		if err != nil {
			t.Fatal(err)
		}
		if rows.Len() != i {
			t.Fatalf("cardinality %d != %d", rows.Len(), i)
		}
	}
	if _, err := db.Query(`SELECT grp, COUNT(*) FROM nums GROUP BY grp`); err != nil {
		t.Fatal(err)
	}

	m := db.Metrics()
	if got := m.Queries - base.Queries; got != 5 {
		t.Errorf("queries delta = %d, want 5", got)
	}
	if got := m.Rows - base.Rows; got != 1+2+3+4+2 {
		t.Errorf("rows delta = %d, want 12", got)
	}
	if m.QueryTime <= base.QueryTime {
		t.Error("query time did not advance")
	}
	var hist uint64
	for _, b := range m.Latency {
		hist += b.Count
	}
	if hist != m.Queries {
		t.Errorf("histogram mass %d != queries %d", hist, m.Queries)
	}
	// The four literal variants share one normalized template.
	wantTpl := NormalizeSQL(`SELECT n FROM nums WHERE n <= 1`)
	found := false
	for _, ts := range m.Templates {
		if ts.Template == wantTpl {
			found = true
			if ts.Count != 4 {
				t.Errorf("template count = %d, want 4", ts.Count)
			}
			if ts.Mean() > ts.Max {
				t.Errorf("mean %v > max %v", ts.Mean(), ts.Max)
			}
		}
	}
	if !found {
		t.Errorf("template %q not in snapshot", wantTpl)
	}
	// Operator totals must include the kinds these plans use.
	kinds := map[string]OpTotalStats{}
	for _, op := range m.Operators {
		kinds[op.Kind] = op
	}
	for _, k := range []string{"IndexScan", "Aggregate", "SeqScan", "Project"} {
		if kinds[k].Opens == 0 {
			t.Errorf("operator %s has no recorded opens: %+v", k, m.Operators)
		}
	}
	if agg := kinds["Aggregate"]; agg.Rows < 2 {
		t.Errorf("aggregate rows = %d, want >= 2", agg.Rows)
	}
}

func TestMetricsPlanCompiles(t *testing.T) {
	db := testDB(t)
	base := db.Metrics()
	const sql = `SELECT n FROM nums WHERE grp = 'even'`
	for i := 0; i < 3; i++ {
		if _, err := db.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	m := db.Metrics()
	// Three runs of one statement compile once; the cache serves the rest.
	if got := m.PlanCompiles - base.PlanCompiles; got != 1 {
		t.Errorf("plan compiles delta = %d, want 1", got)
	}
}

func TestMetricsQueryError(t *testing.T) {
	db := testDB(t)
	base := db.Metrics()
	if _, err := db.Query(`SELECT (SELECT n FROM nums)`); err == nil {
		t.Fatal("expected scalar-subquery error")
	}
	m := db.Metrics()
	if got := m.QueryErrors - base.QueryErrors; got != 1 {
		t.Errorf("query errors delta = %d, want 1", got)
	}
	if m.Queries != base.Queries {
		t.Errorf("failed query counted as success")
	}
}

// setSlowThreshold sets the latency above which db's queries are kept
// in the slow-query log; zero disables the log.
func setSlowThreshold(db *Database, d time.Duration) {
	db.metrics.mu.Lock()
	db.metrics.slowThreshold = d
	db.metrics.mu.Unlock()
}

func TestSlowQueryLog(t *testing.T) {
	db := testDB(t)
	setSlowThreshold(db, time.Nanosecond)
	for i := 0; i < 40; i++ {
		if _, err := db.Query(fmt.Sprintf(`SELECT %d FROM nums WHERE n = 1`, i)); err != nil {
			t.Fatal(err)
		}
	}
	m := db.Metrics()
	if len(m.SlowQueries) != slowLogCap {
		t.Fatalf("slow log length = %d, want %d", len(m.SlowQueries), slowLogCap)
	}
	// Ring keeps the newest slowLogCap entries, oldest first.
	if want := fmt.Sprintf(`SELECT %d FROM nums WHERE n = 1`, 40-slowLogCap); m.SlowQueries[0].SQL != want {
		t.Errorf("oldest retained = %q, want %q", m.SlowQueries[0].SQL, want)
	}
	if last := m.SlowQueries[len(m.SlowQueries)-1]; last.SQL != `SELECT 39 FROM nums WHERE n = 1` || last.Rows != 1 {
		t.Errorf("newest retained = %+v", last)
	}

	// Zero threshold disables the log.
	setSlowThreshold(db, 0)
	if _, err := db.Query(`SELECT 999 FROM nums WHERE n = 1`); err != nil {
		t.Fatal(err)
	}
	if got := db.Metrics().SlowQueries; len(got) != slowLogCap || got[len(got)-1].SQL != `SELECT 39 FROM nums WHERE n = 1` {
		t.Errorf("disabled log still recorded: %+v", got[len(got)-1])
	}
}

// TestTemplateOverflow drives more distinct templates than the map
// holds; the excess must fold into the overflow bucket instead of
// growing without bound.
func TestTemplateOverflow(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE t (a INTEGER PRIMARY KEY)`)
	db.MustExec(`INSERT INTO t VALUES (1)`)
	base := len(db.Metrics().Templates)
	const extra = maxTemplates + 20
	for i := 0; i < extra; i++ {
		// Each statement has a distinct conjunct count, hence a distinct
		// template even after literal normalization.
		sql := `SELECT a FROM t WHERE a = 1` + strings.Repeat(` AND a = 1`, i)
		if _, err := db.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	m := db.Metrics()
	if len(m.Templates) > maxTemplates+1 {
		t.Errorf("template map grew to %d, cap is %d", len(m.Templates), maxTemplates+1)
	}
	var overflow *TemplateStats
	for i := range m.Templates {
		if m.Templates[i].Template == overflowTemplate {
			overflow = &m.Templates[i]
		}
	}
	if overflow == nil {
		t.Fatalf("no %q bucket among %d templates", overflowTemplate, len(m.Templates))
	}
	if want := uint64(base + extra - maxTemplates); overflow.Count != want {
		t.Errorf("overflow count = %d, want %d", overflow.Count, want)
	}
}

// TestPreparedQueryRecorded checks the Prepared path feeds the same
// registry.
func TestPreparedQueryRecorded(t *testing.T) {
	db := testDB(t)
	p, err := db.Prepare(`SELECT n FROM nums WHERE n <= ?`)
	if err != nil {
		t.Fatal(err)
	}
	base := db.Metrics()
	for i := 1; i <= 3; i++ {
		rows, err := p.Query(NewInt(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if rows.Len() != i {
			t.Fatalf("prepared cardinality %d != %d", rows.Len(), i)
		}
	}
	m := db.Metrics()
	if got := m.Queries - base.Queries; got != 3 {
		t.Errorf("prepared queries delta = %d, want 3", got)
	}
	if got := m.Rows - base.Rows; got != 6 {
		t.Errorf("prepared rows delta = %d, want 6", got)
	}
}
