package sqldb_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/sqldb"
)

func usesIndexMinMax(t *testing.T, db *sqldb.Database, sql string) bool {
	t.Helper()
	plan, err := db.Explain(sql)
	if err != nil {
		t.Fatalf("explain %s: %v", sql, err)
	}
	return strings.Contains(plan, "IndexMinMax")
}

// checkMinMax compares MIN and MAX of each column answered by the index
// probe with the aggregate scan the same query runs under WHERE 1 = 1.
func checkMinMax(t *testing.T, db *sqldb.Database, step string, cols ...string) {
	t.Helper()
	for _, col := range cols {
		for _, fn := range []string{"MIN", "MAX"} {
			probe := fmt.Sprintf(`SELECT %s(%s) FROM m`, fn, col)
			scan := probe + ` WHERE 1 = 1`
			if !usesIndexMinMax(t, db, probe) {
				t.Fatalf("%s: %s is not planned as IndexMinMax", step, probe)
			}
			if usesIndexMinMax(t, db, scan) {
				t.Fatalf("%s: %s is planned as IndexMinMax", step, scan)
			}
			got, err := db.QueryScalar(probe)
			if err != nil {
				t.Fatalf("%s: %s: %v", step, probe, err)
			}
			want, err := db.QueryScalar(scan)
			if err != nil {
				t.Fatalf("%s: %s: %v", step, scan, err)
			}
			if !sqldb.Identical(got, want) {
				t.Errorf("%s: %s = %#v, scan says %#v", step, probe, got, want)
			}
		}
	}
}

// TestIndexMinMaxMatchesScan is the differential battery for the
// IndexMinMax rule: empty table, all-NULL column, NULLs among values,
// integer/float coercion and signed-zero ties (equal under Compare,
// different bits: the lowest rowid must win, as in the scan), text
// keys, and the extreme row deleted or updated.
func TestIndexMinMaxMatchesScan(t *testing.T) {
	negZero := sqldb.NewFloat(math.Copysign(0, -1))
	db := sqldb.New()
	db.MustExec(`CREATE TABLE m (i INTEGER, f REAL, z REAL, s TEXT, n INTEGER, w TEXT)`)
	db.MustExec(`CREATE INDEX m_i ON m (i)`)
	db.MustExec(`CREATE INDEX m_f ON m (f)`)
	db.MustExec(`CREATE INDEX m_zw ON m (z, w)`) // ties ordered by w, not rowid
	db.MustExec(`CREATE INDEX m_s ON m (s)`)
	db.MustExec(`CREATE INDEX m_n ON m (n)`)
	cols := []string{"i", "f", "z", "s", "n"}
	checkMinMax(t, db, "empty", cols...)

	for r := 0; r < 3000; r++ {
		i := sqldb.NewInt(int64(r*7919%5003) - 2500)
		if r%5 == 0 {
			i = sqldb.Null
		}
		// Whole numbers given as integers and as floats coerce to
		// the same REAL.
		f := sqldb.NewInt(int64(r % 97))
		if r%2 == 1 {
			f = sqldb.NewFloat(float64(r%97) + 0.5*float64(r%3))
		}
		z := sqldb.NewFloat(0)
		if r%3 == 0 {
			z = negZero
		}
		w := sqldb.NewText(fmt.Sprintf("w%05d", 3000-r))
		db.MustExec(`INSERT INTO m VALUES (?, ?, ?, ?, NULL, ?)`, i, f, z,
			sqldb.NewText(fmt.Sprintf("s%04d", r*31%3001)), w)
	}
	checkMinMax(t, db, "loaded", cols...)
	if v, _ := db.QueryScalar(`SELECT MIN(z) FROM m`); !math.Signbit(v.Float()) {
		t.Fatalf("MIN(z) = %v, want the -0.0 of rowid 0", v)
	}

	// Extreme rows deleted. MIN(s) is rowid 0, the first -0.0, so
	// a +0.0 row now has the lowest rowid among the zeros.
	db.MustExec(`DELETE FROM m WHERE i = (SELECT MAX(i) FROM m) OR s = (SELECT MIN(s) FROM m)`)
	checkMinMax(t, db, "deleted", cols...)
	if v, _ := db.QueryScalar(`SELECT MAX(z) FROM m`); math.Signbit(v.Float()) {
		t.Fatalf("MAX(z) = %v after deleting rowid 0, want +0.0", v)
	}
	// Extreme rows updated past the other end, or to NULL.
	db.MustExec(`UPDATE m SET i = 9999 WHERE i = (SELECT MIN(i) FROM m)`)
	db.MustExec(`UPDATE m SET s = NULL WHERE s = (SELECT MAX(s) FROM m)`)
	db.MustExec(`UPDATE m SET f = -1 WHERE f = (SELECT MAX(f) FROM m)`)
	checkMinMax(t, db, "updated", cols...)

	db.MustExec(`DELETE FROM m`)
	checkMinMax(t, db, "emptied", cols...)
}

// TestIndexMinMaxShapes pins where the rule fires: a whole-table MIN or
// MAX of an index's leading column, under any alias or expression — and
// nowhere else.
func TestIndexMinMaxShapes(t *testing.T) {
	db := sqldb.New()
	db.MustExec(`CREATE TABLE m (i INTEGER, g INTEGER, b INTEGER)`)
	db.MustExec(`CREATE INDEX m_i ON m (i)`)
	db.MustExec(`CREATE INDEX m_gb ON m (g, b)`)
	db.MustExec(`CREATE TABLE k (i INTEGER)`)
	for r := 1; r <= 50; r++ {
		db.MustExec(`INSERT INTO m VALUES (?, ?, ?)`, sqldb.NewInt(int64(r)), sqldb.NewInt(int64(r%4)), sqldb.NewInt(int64(-r)))
		db.MustExec(`INSERT INTO k VALUES (?)`, sqldb.NewInt(int64(r)))
	}
	fires := map[string]string{
		`SELECT MAX(i) FROM m`:             "50",
		`SELECT min(x.i) FROM m x`:         "1",
		`SELECT MAX(i) + 1 AS next FROM m`: "51",
		`SELECT MAX(g) FROM m`:             "3",
	}
	for sql, want := range fires {
		if !usesIndexMinMax(t, db, sql) {
			t.Errorf("%s: IndexMinMax not used", sql)
		}
		v, err := db.QueryScalar(sql)
		if err != nil || v.String() != want {
			t.Errorf("%s = %v (%v), want %s", sql, v, err, want)
		}
	}
	plan, err := db.Explain(`SELECT MAX(i) FROM m`)
	if err != nil || !strings.Contains(plan, "IndexMinMax m_i MAX") {
		t.Errorf("EXPLAIN line: %q (%v)", plan, err)
	}
	for _, sql := range []string{
		`SELECT MAX(i) FROM m WHERE i < 10`,
		`SELECT MAX(i) FROM m WHERE 1 = 1`,
		`SELECT g, MAX(i) FROM m GROUP BY g`,
		`SELECT MAX(i) FROM m HAVING MAX(i) > 0`,
		`SELECT MAX(b) FROM m`,
		`SELECT MAX(m.i) FROM m, k`,
		`SELECT MAX(m.i) FROM m JOIN k ON k.i = m.i`,
		`SELECT MAX(i), MIN(i) FROM m`,
		`SELECT MAX(DISTINCT i) FROM m`,
		`SELECT MAX(i + 0) FROM m`,
		`SELECT MAX(i) FROM (SELECT i FROM m) d`,
	} {
		if usesIndexMinMax(t, db, sql) {
			t.Errorf("%s: IndexMinMax used", sql)
		}
	}
}

// TestIndexMinMaxPinnedSnapshot: a pinned snapshot keeps answering from
// its own B-tree version while a writer commits larger keys, and live
// reads never go backwards.
func TestIndexMinMaxPinnedSnapshot(t *testing.T) {
	db := sqldb.New()
	db.MustExec(`CREATE TABLE k (v INTEGER)`)
	db.MustExec(`CREATE INDEX k_v ON k (v)`)
	for v := 1; v <= 100; v++ {
		db.MustExec(`INSERT INTO k VALUES (?)`, sqldb.NewInt(int64(v)))
	}
	snap := db.AcquireSnapshot()
	defer snap.Release()

	const last = 400
	done := make(chan error, 1)
	go func() {
		for v := 101; v <= last; v++ {
			if _, err := db.Exec(`INSERT INTO k VALUES (?)`, sqldb.NewInt(int64(v))); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	var seen int64
	check := func() {
		got, err := snap.QueryScalar(`SELECT MAX(v) FROM k`)
		if err != nil || got.Int() != 100 {
			t.Fatalf("pinned MAX(v) = %v (%v), want 100", got, err)
		}
		live, err := db.QueryScalar(`SELECT MAX(v) FROM k`)
		if err != nil || live.Int() < seen || live.Int() > last {
			t.Fatalf("live MAX(v) = %v (%v) after %d", live, err, seen)
		}
		seen = live.Int()
	}
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			check()
			if seen != last {
				t.Fatalf("live MAX(v) = %d after the writer finished, want %d", seen, last)
			}
			if !usesIndexMinMax(t, db, `SELECT MAX(v) FROM k`) {
				t.Fatal("MAX(v) is not planned as IndexMinMax")
			}
			return
		default:
			check()
		}
	}
}
