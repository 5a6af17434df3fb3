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

// checkpointedCopy checkpoints d and returns a copy of its data
// directory as it then stands.
func checkpointedCopy(t *testing.T, d *DurableDB, fs *MemVFS) *MemVFS {
	t.Helper()
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return fs.Clone()
}

// reopenDir opens a data directory that holds a checkpoint.
func reopenDir(t *testing.T, fs VFS, pool int) *Database {
	t.Helper()
	d, err := OpenDurable(fs, DurableOptions{BufferPoolPages: pool})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d.DB()
}

// TestSaveLoadRoundTrip checkpoints a database with full pages,
// tombstones and secondary indexes and reopens a copy of its data
// directory, unbounded and under a two-page pool — where the checkpoint
// has to reach evicted pages.
func TestSaveLoadRoundTrip(t *testing.T) {
	for _, pool := range []int{0, 2} {
		t.Run(fmt.Sprintf("pool=%d", pool), func(t *testing.T) { saveLoadRoundTrip(t, pool) })
	}
}

func saveLoadRoundTrip(t *testing.T, pool int) {
	fs := NewMemVFS()
	d, err := OpenDurable(fs, DurableOptions{BufferPoolPages: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	db := d.DB()
	fillTestDB(db)
	db.MustExec(`CREATE INDEX nums_grp ON nums (grp)`)
	db.MustExec(`CREATE UNIQUE INDEX nums_label ON nums (label)`)
	db.MustExec(`DELETE FROM nums WHERE n > 90`) // deleted rows must not come back
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, val TEXT)`)
	fillWide(t, db, 5*heapPageSize+7)
	db.MustExec(`DELETE FROM t WHERE grp = 5`)
	if bp := db.Stats().BufferPool; pool > 0 && bp.Evictions == 0 {
		t.Fatalf("nothing was evicted before the checkpoint: %+v", bp)
	}

	re := reopenDir(t, checkpointedCopy(t, d, fs), pool)
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

// TestLoadFromRejectsGarbage: a data directory whose snapshot file is
// not a snapshot is refused, and one checkpointed empty reopens empty.
func TestLoadFromRejectsGarbage(t *testing.T) {
	fs := NewMemVFS()
	if err := WriteFileAtomic(fs, snapshotFile, []byte("not a snapshot")); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(fs, DurableOptions{}); err == nil {
		t.Fatal("garbage accepted")
	}
	fs = NewMemVFS()
	d, err := OpenDurable(fs, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	re := reopenDir(t, checkpointedCopy(t, d, fs), 0)
	if len(re.TableNames()) != 0 {
		t.Errorf("empty snapshot restored tables: %v", re.TableNames())
	}
}

func TestSaveLoadValueTypes(t *testing.T) {
	fs := NewMemVFS()
	d, err := OpenDurable(fs, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.DB().MustExec(`CREATE TABLE v (i INTEGER, f REAL, s TEXT, b BOOLEAN)`)
	d.DB().MustExec(`INSERT INTO v VALUES (1, 2.5, 'x', TRUE), (NULL, NULL, NULL, NULL)`)
	re := reopenDir(t, checkpointedCopy(t, d, fs), 0)
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

// TestOlderSnapshotFormatsRefused feeds a data directory in each older
// snapshot format: it is refused with the typed error that says to
// reload the document.
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
			fs := NewMemVFS()
			if err := WriteFileAtomic(fs, snapshotFile, data); err != nil {
				t.Fatal(err)
			}
			_, err := OpenDurable(fs, DurableOptions{})
			if !errors.Is(err, ErrUnsupportedSnapshot) || !strings.Contains(err.Error(), "reload the document") {
				t.Fatalf("data directory: %v, want ErrUnsupportedSnapshot", err)
			}
		})
	}
}

// TestLoadFromRefusesPageReferences: a checkpoint's snapshot points
// into its data directory's pages file; in a directory without that
// file it is refused with an error, not a panic or a half-loaded table.
func TestLoadFromRefusesPageReferences(t *testing.T) {
	fs := NewMemVFS()
	if err := WriteFileAtomic(fs, snapshotFile, fuzzPageRefSeed()); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(fs, DurableOptions{}); err == nil || !strings.Contains(err.Error(), "pages file") {
		t.Fatalf("opening a snapshot without its pages file: %v", err)
	}
}

// TestSnapshotOfATailSealedAfterCapture captures a state whose last
// page is a tail, then lets a writer fill that page until the pool
// seals it and evicts it, before the captured state is written: a
// checkpoint does not quiesce writers, and the snapshot must still
// inline the tail's rows as the state held them.
func TestSnapshotOfATailSealedAfterCapture(t *testing.T) {
	d, err := OpenDurable(NewMemVFS(), DurableOptions{BufferPoolPages: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	db := d.DB()
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, val TEXT)`)
	fillWide(t, db, heapPageSize+7)
	state := db.state.Load()
	tail := state.table("t").pages[1]
	want := encodeRows(tail.res.Load().rows[:7], nil)

	// Fill the tail and open the next page, which seals the tail; a
	// lookup on page 0 then evicts it from the one-page pool.
	batch := make([][]Value, 0, heapPageSize)
	for i := heapPageSize + 7; i < 2*heapPageSize+1; i++ {
		batch = append(batch, []Value{NewInt(int64(i)), NewInt(0), NewText("late")})
	}
	if _, err := db.BulkInsert("t", batch); err != nil {
		t.Fatal(err)
	}
	dumpRows(t, db, `SELECT val FROM t WHERE id = 0`)
	if tail.res.Load() != nil {
		t.Fatal("the captured tail page is still resident")
	}

	var buf bytes.Buffer
	if _, err := writeSnapshot(&buf, state, db.pool); err != nil {
		t.Fatalf("snapshot of the captured state: %v", err)
	}
	payload, err := openSealed(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshot
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Tables) != 1 || len(snap.Tables[0].Pages) != 2 {
		t.Fatalf("snapshot holds %+v", snap.Tables)
	}
	if got := snap.Tables[0].Pages[1].Inline; !bytes.Equal(got, want) {
		t.Fatalf("inlined tail is %d bytes, want the captured %d", len(got), len(want))
	}
}
