package sqldb

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"
)

// TestSaveLoadRoundTrip dumps and reloads a database with full pages,
// tombstones and secondary indexes, unbounded and under a two-page pool
// — where the dump has to fault evicted pages in through pins.
func TestSaveLoadRoundTrip(t *testing.T) {
	for _, pool := range []int{0, 2} {
		t.Run(fmt.Sprintf("pool=%d", pool), func(t *testing.T) { saveLoadRoundTrip(t, pool) })
	}
}

func saveLoadRoundTrip(t *testing.T, pool int) {
	db := testDB(t)
	db.SetBufferPool(pool)
	db.MustExec(`CREATE INDEX nums_grp ON nums (grp)`)
	db.MustExec(`CREATE UNIQUE INDEX nums_label ON nums (label)`)
	db.MustExec(`DELETE FROM nums WHERE n > 90`) // deleted rows must not come back
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, val TEXT)`)
	fillWide(t, db, 5*heapPageSize+7)
	db.MustExec(`DELETE FROM t WHERE grp = 5`)
	if bp := db.Stats().BufferPool; pool > 0 && bp.Evictions == 0 {
		t.Fatalf("nothing was evicted before the dump: %+v", bp)
	}

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if bp := db.Stats().BufferPool; pool > 0 && bp.Misses == 0 {
		t.Fatalf("the dump faulted no page in: %+v", bp)
	}
	re, err := LoadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if diff := dbStateDiff(db, re); diff != "" {
		t.Fatalf("restored state differs: %s", diff)
	}
	checkIndexes(t, re)

	// Same data through the same queries.
	queries := []string{
		`SELECT COUNT(*) FROM nums`,
		`SELECT SUM(n) FROM nums WHERE grp = 'even'`,
		`SELECT COUNT(*) FROM nums, tags WHERE nums.n = tags.n`,
		`SELECT MAX(n) FROM nums`,
		`SELECT SUM(id) FROM t WHERE grp = 7`,
	}
	for _, q := range queries {
		a, err := db.QueryScalar(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := re.QueryScalar(q)
		if err != nil {
			t.Fatal(err)
		}
		if Compare(a, b) != 0 {
			t.Errorf("%s: %v vs %v", q, a, b)
		}
	}

	// Indexes were rebuilt: plans use them and constraints hold.
	plan, err := re.Explain(`SELECT COUNT(*) FROM nums WHERE grp = 'even'`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "nums_grp") {
		t.Errorf("restored plan does not use the secondary index:\n%s", plan)
	}
	if _, err := re.Exec(`INSERT INTO nums VALUES (200, 0, 'n001', 'even')`); err == nil {
		t.Error("unique index not enforced after restore")
	}
	if _, err := re.Exec(`INSERT INTO nums VALUES (1, 0, 'nX', 'even')`); err == nil {
		t.Error("primary key not enforced after restore")
	}

	// Restored database is independently writable.
	if _, err := re.Exec(`INSERT INTO nums VALUES (200, 0, 'n200', 'even')`); err != nil {
		t.Fatal(err)
	}
	a, _ := db.QueryScalar(`SELECT COUNT(*) FROM nums`)
	b, _ := re.QueryScalar(`SELECT COUNT(*) FROM nums`)
	if b.Int() != a.Int()+1 {
		t.Errorf("restore not independent: %v vs %v", a, b)
	}
}

func TestLoadFromRejectsGarbage(t *testing.T) {
	if _, err := LoadFrom(strings.NewReader("not a snapshot")); err == nil {
		t.Fatal("garbage accepted")
	}
	var buf bytes.Buffer
	db := New()
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	re, err := LoadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(re.TableNames()) != 0 {
		t.Errorf("empty snapshot restored tables: %v", re.TableNames())
	}
}

func TestSaveLoadValueTypes(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE v (i INTEGER, f REAL, s TEXT, b BOOLEAN)`)
	db.MustExec(`INSERT INTO v VALUES (1, 2.5, 'x', TRUE), (NULL, NULL, NULL, NULL)`)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	re, err := LoadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := re.Query(`SELECT * FROM v ORDER BY i`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2 {
		t.Fatalf("rows = %d", rows.Len())
	}
	if !rows.Data[0][0].IsNull() {
		t.Errorf("NULLs lost: %v", rows.Data[0])
	}
	r := rows.Data[1]
	if r[0].Int() != 1 || r[1].Float() != 2.5 || r[2].Text() != "x" || !r[3].Bool() {
		t.Errorf("typed row = %v", r)
	}
}

// sealedSnapshot wraps payload in a snapshot envelope under magic, the
// way every format since v2 framed its gob payload.
func sealedSnapshot(magic string, payload []byte) []byte {
	out := []byte(magic)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
}

// TestOlderSnapshotFormatsRefused feeds a dump and a data directory in
// each older snapshot format: both are refused with the typed error
// that says to reload the document.
func TestOlderSnapshotFormatsRefused(t *testing.T) {
	type header struct {
		Magic   string
		Version int
		Seq     uint64
	}
	gobOf := func(version int) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(header{Magic: "xmlrdb-snapshot-v1", Version: version}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	formats := map[string][]byte{
		"v1": gobOf(1), // a bare gob stream, the magic inside
		"v2": sealedSnapshot("xmlrdb-snapshot-v2\n", gobOf(2)),
		"v3": sealedSnapshot("xmlrdb-snapshot-v3\n", gobOf(3)),
	}
	for name, data := range formats {
		t.Run(name, func(t *testing.T) {
			_, err := LoadFrom(bytes.NewReader(data))
			if !errors.Is(err, ErrUnsupportedSnapshot) || !strings.Contains(err.Error(), "reload the document") {
				t.Fatalf("dump: %v, want ErrUnsupportedSnapshot", err)
			}
			fs := NewMemVFS()
			if err := WriteFileAtomic(fs, snapshotFile, data); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenDurable(fs, DurableOptions{}); !errors.Is(err, ErrUnsupportedSnapshot) {
				t.Fatalf("data directory: %v, want ErrUnsupportedSnapshot", err)
			}
		})
	}
}

// TestLoadFromRefusesPageReferences: a checkpoint's snapshot points
// into its data directory's pages file, which a standalone load does
// not have — an error, not a panic or a half-loaded table.
func TestLoadFromRefusesPageReferences(t *testing.T) {
	if _, err := LoadFrom(bytes.NewReader(fuzzPageRefSeed())); err == nil || !strings.Contains(err.Error(), "inline its pages") {
		t.Fatalf("LoadFrom of a checkpoint snapshot: %v", err)
	}
}
