package sqldb

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// ---------------------------------------------------------------------------
// State-comparison helpers shared with the crash-injection battery.

// dbStateDiff compares two databases structurally — table definitions,
// the multiset of live row images, and secondary index definitions —
// and returns a description of the first difference, or "".
func dbStateDiff(a, b *Database) string {
	an, bn := a.TableNames(), b.TableNames()
	if !reflect.DeepEqual(an, bn) {
		return fmt.Sprintf("tables %v vs %v", an, bn)
	}
	for _, name := range an {
		ta, tb := a.readState().table(name), b.readState().table(name)
		if !reflect.DeepEqual(*ta.def, *tb.def) {
			return fmt.Sprintf("table %s: def %+v vs %+v", name, *ta.def, *tb.def)
		}
		ra, rb := rowImages(ta), rowImages(tb)
		if !reflect.DeepEqual(ra, rb) {
			return fmt.Sprintf("table %s: rows\n  %v\nvs\n  %v", name, ra, rb)
		}
		ia, ib := indexDefs(ta), indexDefs(tb)
		if !reflect.DeepEqual(ia, ib) {
			return fmt.Sprintf("table %s: indexes %+v vs %+v", name, ia, ib)
		}
	}
	return ""
}

func rowImages(t *table) []string {
	var keys []string
	for rid := int64(0); rid < t.slotCount(); rid++ {
		if row := t.row(rid, nil); row != nil {
			keys = append(keys, rowImageKey(row))
		}
	}
	sort.Strings(keys)
	return keys
}

func indexDefs(t *table) []IndexDef {
	var defs []IndexDef
	for _, idx := range t.indexes {
		if idx == t.pkIndex {
			continue
		}
		d := idx.def
		d.Columns = append([]int{}, d.Columns...)
		defs = append(defs, d)
	}
	sort.Slice(defs, func(i, j int) bool { return defs[i].Name < defs[j].Name })
	return defs
}

// checkIndexes verifies every B-tree index against its heap: each entry
// points at a live row whose key columns match, and entry counts equal
// the live row count.
func checkIndexes(t *testing.T, db *Database) {
	t.Helper()
	for _, name := range db.TableNames() {
		tbl := db.readState().table(name)
		for _, idx := range tbl.indexes {
			seen := 0
			for c := idx.tree.seek(""); c.valid(); c.advance() {
				e := c.entry()
				seen++
				if e.rid < 0 || e.rid >= tbl.slotCount() || tbl.row(e.rid, nil) == nil {
					t.Fatalf("table %s index %s: entry %q points at dead rid %d", name, idx.def.Name, e.key, e.rid)
				}
				if got := appendRowKey(nil, idx.def.Columns, tbl.row(e.rid, nil)); string(got) != e.key {
					t.Fatalf("table %s index %s: entry key %q != row key %q (rid %d)", name, idx.def.Name, e.key, got, e.rid)
				}
			}
			if seen != tbl.live {
				t.Fatalf("table %s index %s: %d entries for %d live rows", name, idx.def.Name, seen, tbl.live)
			}
			if idx.tree.Len() != tbl.live {
				t.Fatalf("table %s index %s: Len()=%d, live=%d", name, idx.def.Name, idx.tree.Len(), tbl.live)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Record codec

func sampleRecords() []*walRecord {
	def := TableDef{
		Name: "kv",
		Columns: []Column{
			{Name: "k", Type: TypeInt, NotNull: true},
			{Name: "v", Type: TypeText},
		},
		PrimaryKey: []int{0},
	}
	rows := [][]Value{
		{NewInt(1), NewText("one")},
		{NewInt(2), Null},
		{NewFloat(1.5), NewBool(true)},
		{NewBlob([]byte{0, 1, 2}), NewText("")},
		{NewFloat(math.Copysign(0, -1)), Null},
	}
	return []*walRecord{
		{Op: opCreateTable, Seq: 1, Def: &def},
		{Op: opCreateIndex, Seq: 2, Index: &IndexDef{Name: "kv_v", Table: "kv", Columns: []int{1}, Unique: true}},
		{Op: opInsert, Seq: 3, Table: "kv", Rows: rows},
		{Op: opDelete, Seq: 4, Table: "kv", Rows: rows[:1]},
		{Op: opUpdate, Seq: 5, Table: "kv", OldRows: rows[:2], Rows: rows[2:]},
		{Op: opDropIndex, Seq: 6, Name: "kv_v"},
		{Op: opDropTable, Seq: 7, Table: "kv"},
		{Op: opGroup, Seq: 8, Group: []*walRecord{
			{Op: opCreateTable, Seq: 8, Def: &def},
			{Op: opInsert, Seq: 9, Table: "kv", Rows: rows},
		}},
	}
}

// sameRecord is reflect.DeepEqual for WAL records, except that row
// images compare with IdenticalRows: a Value holds a pointer, which
// DeepEqual would compare by address.
func sameRecord(a, b *walRecord) bool {
	return a.Op == b.Op && a.Seq == b.Seq && a.Table == b.Table && a.Name == b.Name &&
		reflect.DeepEqual(a.Def, b.Def) && reflect.DeepEqual(a.Index, b.Index) &&
		IdenticalRows(a.Rows, b.Rows) && IdenticalRows(a.OldRows, b.OldRows) &&
		slices.EqualFunc(a.Group, b.Group, sameRecord)
}

func TestWALRecordCodecRoundTrip(t *testing.T) {
	for _, rec := range sampleRecords() {
		payload := encodeRecordPayload(nil, rec)
		got, err := decodeRecordPayload(payload, 0)
		if err != nil {
			t.Fatalf("op %d: decode: %v", rec.Op, err)
		}
		if !sameRecord(rec, got) {
			t.Errorf("op %d: round trip mismatch:\n  in:  %+v\n  out: %+v", rec.Op, rec, got)
		}
	}
}

func TestWALScanStopsAtCorruption(t *testing.T) {
	recs := sampleRecords()
	var log []byte
	for _, rec := range recs {
		log = appendFrame(log, encodeRecordPayload(nil, rec))
	}
	got, goodLen := scanWAL(log)
	if goodLen != int64(len(log)) {
		t.Fatalf("clean log: goodLen %d != %d", goodLen, len(log))
	}
	// opGroup flattens into its two members.
	if want := len(recs) + 1; len(got) != want {
		t.Fatalf("clean log: %d records, want %d", len(got), want)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Seq > got[i].Seq {
			t.Fatalf("replay records out of seq order: %d after %d", got[i].Seq, got[i-1].Seq)
		}
	}

	// Every truncation point: the scan keeps exactly the whole frames
	// before the cut and never errors.
	frames, _ := scanWALFrames(log)
	for cut := 0; cut <= len(log); cut++ {
		_, goodLen := scanWAL(log[:cut])
		wantLen := int64(0)
		for _, f := range frames {
			if wantLen+int64(len(f.raw)) > int64(cut) {
				break
			}
			wantLen += int64(len(f.raw))
		}
		if goodLen != wantLen {
			t.Fatalf("cut %d: goodLen %d, want %d", cut, goodLen, wantLen)
		}
	}

	// A flipped bit anywhere in a frame invalidates it and everything after.
	for _, bit := range []int{0, 5, 9, len(log) / 2, len(log) - 1} {
		bad := append([]byte(nil), log...)
		bad[bit] ^= 0x40
		_, goodLen := scanWAL(bad)
		if goodLen > int64(bit) {
			t.Fatalf("bit flip at %d: goodLen %d extends past corruption", bit, goodLen)
		}
	}

	// A zero length field stops the scan (all-zero preallocated tail).
	tail := append(append([]byte(nil), log...), make([]byte, 64)...)
	_, goodLen = scanWAL(tail)
	if goodLen != int64(len(log)) {
		t.Fatalf("zeroed tail: goodLen %d != %d", goodLen, len(log))
	}

	// A continuation run no commit frame follows is torn tail too, and
	// its records are not replayed.
	cont := &walRecord{Op: opCont, Seq: 99, Group: []*walRecord{{Op: opDropTable, Seq: 99, Table: "kv"}}}
	tail = appendFrame(append([]byte(nil), log...), encodeRecordPayload(nil, cont))
	if recs, goodLen := scanWAL(tail); goodLen != int64(len(log)) || len(recs) != len(got) {
		t.Fatalf("trailing continuation: goodLen %d, %d records; want %d, %d", goodLen, len(recs), len(log), len(got))
	}
}

// TestWALFrameHeaders: the header-only scan rotation uses finds each
// frame's highest sequence, a group's members included, without
// decoding rows, keeps the same frames as the full decode at every
// truncation, and stops at a CRC-valid frame whose header is cut short.
func TestWALFrameHeaders(t *testing.T) {
	recs := sampleRecords()
	var log []byte
	for _, rec := range recs {
		log = appendFrame(log, encodeRecordPayload(nil, rec))
	}
	frames, goodLen := scanWALFrames(log)
	if len(frames) != len(recs) || goodLen != int64(len(log)) {
		t.Fatalf("%d frames, %d good bytes; want %d, %d", len(frames), goodLen, len(recs), len(log))
	}
	for i, f := range frames {
		if want := recs[i].maxSeq(); f.maxSeq != want {
			t.Errorf("frame %d (op %d): maxSeq %d, want %d", i, recs[i].Op, f.maxSeq, want)
		}
	}
	for cut := 0; cut <= len(log); cut++ {
		_, headers := scanWALFrames(log[:cut])
		if _, full := scanWAL(log[:cut]); headers != full {
			t.Fatalf("cut %d: header scan keeps %d bytes, full decode %d", cut, headers, full)
		}
	}
	// A group whose member count promises more than the payload holds.
	bad := appendFrame(append([]byte(nil), log...), []byte{byte(opGroup), 99, 3})
	if _, n := scanWALFrames(bad); n != int64(len(log)) {
		t.Fatalf("unparsable header: header scan keeps %d bytes, want %d", n, len(log))
	}
}

func TestWALReplayRebuildsState(t *testing.T) {
	src := New()
	src.MustExec(`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`)
	src.MustExec(`INSERT INTO kv VALUES (1, 'one'), (2, 'two'), (3, 'three')`)
	src.MustExec(`CREATE INDEX kv_v ON kv (v)`)
	src.MustExec(`UPDATE kv SET v = 'TWO' WHERE k = 2`)
	src.MustExec(`DELETE FROM kv WHERE k = 1`)

	var log []byte
	logged := New()
	logged.setCommitLogger(func(rec *walRecord) error {
		log = appendFrame(log, encodeRecordPayload(nil, rec))
		return nil
	})
	for _, sql := range []string{
		`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`,
		`INSERT INTO kv VALUES (1, 'one'), (2, 'two'), (3, 'three')`,
		`CREATE INDEX kv_v ON kv (v)`,
		`UPDATE kv SET v = 'TWO' WHERE k = 2`,
		`DELETE FROM kv WHERE k = 1`,
	} {
		logged.MustExec(sql)
	}

	replayed := New()
	records, goodLen := scanWAL(log)
	if goodLen != int64(len(log)) {
		t.Fatalf("goodLen %d != %d", goodLen, len(log))
	}
	if err := replayed.replay(records); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if diff := dbStateDiff(src, replayed); diff != "" {
		t.Fatalf("replayed state differs: %s", diff)
	}
	checkIndexes(t, replayed)
}

// ---------------------------------------------------------------------------
// DurableDB round trips

func mustOpenDurable(t *testing.T, fs VFS, opts DurableOptions) *DurableDB {
	t.Helper()
	d, err := OpenDurable(fs, opts)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	return d
}

func TestDurableCommitReopen(t *testing.T) {
	fs := NewMemVFS()
	d := mustOpenDurable(t, fs, DurableOptions{})
	db := d.DB()
	db.MustExec(`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`)
	db.MustExec(`INSERT INTO kv VALUES (1, 'one'), (2, 'two')`)
	db.MustExec(`CREATE INDEX kv_v ON kv (v)`)
	db.MustExec(`UPDATE kv SET v = 'TWO' WHERE k = 2`)
	if d.WALSize() == 0 {
		t.Fatal("WAL is empty after commits")
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	d2 := mustOpenDurable(t, fs, DurableOptions{})
	if diff := dbStateDiff(db, d2.DB()); diff != "" {
		t.Fatalf("recovered state differs: %s", diff)
	}
	checkIndexes(t, d2.DB())

	// The recovered handle keeps logging: new commits survive another cycle.
	d2.DB().MustExec(`INSERT INTO kv VALUES (3, 'three')`)
	d2.Close()
	d3 := mustOpenDurable(t, fs, DurableOptions{})
	if n := d3.DB().TotalRows(); n != 3 {
		t.Fatalf("after second cycle: %d rows, want 3", n)
	}
	d3.Close()
}

func TestDurableCheckpointRotation(t *testing.T) {
	fs := NewMemVFS()
	d := mustOpenDurable(t, fs, DurableOptions{})
	db := d.DB()
	db.MustExec(`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`)
	for i := 0; i < 20; i++ {
		db.MustExec(`INSERT INTO kv VALUES (?, ?)`, NewInt(int64(i)), NewText(strings.Repeat("x", 20)))
	}
	before := d.WALSize()
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if d.WALSize() != 0 {
		t.Fatalf("WAL not rotated: %d bytes (was %d)", d.WALSize(), before)
	}
	if d.Checkpoints() != 1 {
		t.Fatalf("checkpoint count %d, want 1", d.Checkpoints())
	}
	// Post-checkpoint commits land in the fresh log; recovery layers
	// them over the snapshot.
	db.MustExec(`INSERT INTO kv VALUES (100, 'after')`)
	d.Close()

	d2 := mustOpenDurable(t, fs, DurableOptions{})
	if diff := dbStateDiff(db, d2.DB()); diff != "" {
		t.Fatalf("recovered state differs: %s", diff)
	}
	// Records at or below the snapshot's sequence must not replay twice:
	// row count would explode if they did (21 rows is correct).
	if n := d2.DB().TotalRows(); n != 21 {
		t.Fatalf("%d rows after recovery, want 21", n)
	}
	d2.Close()
}

func TestDurableAutoCheckpoint(t *testing.T) {
	fs := NewMemVFS()
	d := mustOpenDurable(t, fs, DurableOptions{AutoCheckpointBytes: 256})
	db := d.DB()
	db.MustExec(`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`)
	for i := 0; i < 50; i++ {
		db.MustExec(`INSERT INTO kv VALUES (?, 'payload')`, NewInt(int64(i)))
		if _, err := d.MaybeCheckpoint(); err != nil {
			t.Fatalf("auto checkpoint: %v", err)
		}
	}
	if d.Checkpoints() == 0 {
		t.Fatal("auto-checkpoint never fired")
	}
	d.Close()
	d2 := mustOpenDurable(t, fs, DurableOptions{})
	if n := d2.DB().TotalRows(); n != 50 {
		t.Fatalf("%d rows after recovery, want 50", n)
	}
	d2.Close()
}

func TestDurableTornTailTruncated(t *testing.T) {
	fs := NewMemVFS()
	d := mustOpenDurable(t, fs, DurableOptions{})
	db := d.DB()
	db.MustExec(`CREATE TABLE kv (k INTEGER PRIMARY KEY)`)
	db.MustExec(`INSERT INTO kv VALUES (1), (2)`)
	d.Close()

	// Tear the log: append half a frame's worth of garbage.
	w, err := fs.OpenRW(walFile)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Seek(0, 2); err != nil {
		t.Fatal(err)
	}
	w.Write([]byte{9, 0, 0, 0, 0xde, 0xad})
	w.Close()
	torn, _ := fs.Size(walFile)

	d2 := mustOpenDurable(t, fs, DurableOptions{})
	if n := d2.DB().TotalRows(); n != 2 {
		t.Fatalf("%d rows after torn-tail recovery, want 2", n)
	}
	// The tail was truncated, and the next commit lands where it was.
	if got, _ := fs.Size(walFile); got >= torn {
		t.Fatalf("torn tail not truncated: %d >= %d", got, torn)
	}
	d2.DB().MustExec(`INSERT INTO kv VALUES (3)`)
	d2.Close()
	d3 := mustOpenDurable(t, fs, DurableOptions{})
	if n := d3.DB().TotalRows(); n != 3 {
		t.Fatalf("%d rows after re-append, want 3", n)
	}
	d3.Close()
}

func TestDurableGroupAtomic(t *testing.T) {
	fs := NewMemVFS()
	d := mustOpenDurable(t, fs, DurableOptions{})
	db := d.DB()
	db.MustExec(`CREATE TABLE kv (k INTEGER PRIMARY KEY)`)
	pre := d.WALSize()
	err := db.Update(func(tx *Tx) error {
		for _, k := range []int64{1, 2} {
			if _, err := tx.Exec(`INSERT INTO kv VALUES (?)`, NewInt(k)); err != nil {
				return err
			}
		}
		if d.WALSize() != pre {
			t.Errorf("transaction statements hit the log before the commit")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("transaction: %v", err)
	}
	if d.WALSize() <= pre {
		t.Fatal("transaction frame never flushed")
	}

	// A transaction whose fn errors after a statement flushes nothing
	// and publishes nothing.
	pre = d.WALSize()
	wantErr := errors.New("downstream failure")
	if err := db.Update(func(tx *Tx) error {
		if _, err := tx.Exec(`INSERT INTO kv VALUES (3)`); err != nil {
			return err
		}
		return wantErr
	}); !errors.Is(err, wantErr) {
		t.Fatalf("transaction error = %v, want %v", err, wantErr)
	}
	if d.WALSize() != pre || db.TotalRows() != 2 {
		t.Fatalf("failed transaction left %d WAL bytes, %d rows; want 0, 2", d.WALSize()-pre, db.TotalRows())
	}
	if err := db.Update(func(*Tx) error { return nil }); err != nil {
		t.Fatalf("empty transaction: %v", err)
	}
	d.Close()

	d2 := mustOpenDurable(t, fs, DurableOptions{})
	if n := d2.DB().TotalRows(); n != 2 {
		t.Fatalf("%d rows after transaction recovery, want 2", n)
	}
	d2.Close()
}

func TestDurableFailStop(t *testing.T) {
	inner := NewMemVFS()
	fvfs := NewFaultVFS(inner, -1)
	d, err := OpenDurable(fvfs, DurableOptions{})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	db := d.DB()
	db.MustExec(`CREATE TABLE kv (k INTEGER PRIMARY KEY)`)
	db.MustExec(`INSERT INTO kv VALUES (1)`)

	// Exhaust the budget: the next commit's append fails.
	fvfs.mu.Lock()
	fvfs.failAfter = fvfs.written
	fvfs.mu.Unlock()
	if _, err := db.Exec(`INSERT INTO kv VALUES (2)`); err == nil {
		t.Fatal("commit after injected fault succeeded")
	}
	if !d.Failed() {
		t.Fatal("engine not fail-stop after WAL error")
	}
	// Everything downstream refuses with ErrWALFailed.
	if _, err := db.Exec(`INSERT INTO kv VALUES (3)`); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("post-failure insert: %v, want ErrWALFailed", err)
	}
	if err := d.Checkpoint(); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("post-failure checkpoint: %v, want ErrWALFailed", err)
	}
	if err := db.Update(func(tx *Tx) error {
		_, err := tx.Exec(`INSERT INTO kv VALUES (4)`)
		return err
	}); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("post-failure transaction: %v, want ErrWALFailed", err)
	}
	d.Close()

	// Reads still work on the wounded handle's database, and recovery
	// from the surviving prefix is clean.
	d2, err := OpenDurable(inner, DurableOptions{})
	if err != nil {
		t.Fatalf("recovery after fail-stop: %v", err)
	}
	if n := d2.DB().TotalRows(); n != 1 {
		t.Fatalf("%d rows recovered, want 1 (only the acked insert)", n)
	}
	d2.Close()
}

func TestDurableShortReads(t *testing.T) {
	inner := NewMemVFS()
	d := mustOpenDurable(t, inner, DurableOptions{})
	db := d.DB()
	db.MustExec(`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`)
	db.MustExec(`INSERT INTO kv VALUES (1, 'one'), (2, 'two')`)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`INSERT INTO kv VALUES (3, 'three')`)
	d.Close()

	// Recovery must not assume full reads: every Read returns one byte.
	fvfs := NewFaultVFS(inner, -1)
	fvfs.SetShortReads(true)
	d2, err := OpenDurable(fvfs, DurableOptions{})
	if err != nil {
		t.Fatalf("recovery under short reads: %v", err)
	}
	if n := d2.DB().TotalRows(); n != 3 {
		t.Fatalf("%d rows under short reads, want 3", n)
	}
	d2.Close()
}

func TestDurableNoSync(t *testing.T) {
	fs := NewMemVFS()
	d := mustOpenDurable(t, fs, DurableOptions{NoSync: true})
	db := d.DB()
	db.MustExec(`CREATE TABLE kv (k INTEGER PRIMARY KEY)`)
	db.MustExec(`INSERT INTO kv VALUES (1), (2), (3)`)
	d.Close()
	// A clean close keeps everything even without per-commit fsync.
	d2 := mustOpenDurable(t, fs, DurableOptions{})
	if n := d2.DB().TotalRows(); n != 3 {
		t.Fatalf("%d rows, want 3", n)
	}
	d2.Close()
}

func TestWriteFileAtomic(t *testing.T) {
	fs := NewMemVFS()
	if err := WriteFileAtomic(fs, "blob", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(fs, "blob", []byte("v2 longer")); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("blob")
	if err != nil {
		t.Fatal(err)
	}
	data := new(bytes.Buffer)
	data.ReadFrom(f)
	f.Close()
	if data.String() != "v2 longer" {
		t.Fatalf("content %q", data.String())
	}
	if _, err := fs.Size("blob" + tmpSuffix); err == nil {
		t.Fatal("temp file left behind")
	}
	// The replacement survives a power-loss crash (it was synced through).
	fs.Crash(CrashLoseUnsynced)
	f, err = fs.Open("blob")
	if err != nil {
		t.Fatalf("after crash: %v", err)
	}
	data.Reset()
	data.ReadFrom(f)
	f.Close()
	if data.String() != "v2 longer" {
		t.Fatalf("content after crash %q", data.String())
	}
}
