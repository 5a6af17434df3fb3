package sqldb

import (
	"bytes"
	"fmt"
	"testing"
)

// fuzzSnapshotSeed builds a small database and returns its snapshot
// bytes: one inline tail page.
func fuzzSnapshotSeed() []byte {
	db := New()
	db.MustExec(`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`)
	db.MustExec(`INSERT INTO kv VALUES (1, 'one'), (2, NULL)`)
	db.MustExec(`CREATE INDEX kv_v ON kv (v)`)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// pagedFixture fills table t(id, grp, val) with rows rows on db.
func pagedFixture(db *Database, rows int) {
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, val TEXT)`)
	batch := make([][]Value, rows)
	for i := range batch {
		batch[i] = []Value{NewInt(int64(i)), NewInt(int64(i % 97)), NewText(fmt.Sprintf("val-%06d", i))}
	}
	if _, err := db.BulkInsert("t", batch); err != nil {
		panic(err)
	}
}

// fuzzInlinePagesSeed is a dump whose table spans two full inline pages
// and a tail.
func fuzzInlinePagesSeed() []byte {
	db := New()
	pagedFixture(db, 2*heapPageSize+3)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// fuzzPageRefSeed is a durable checkpoint's snapshot: it references its
// full pages in a pages file a standalone load does not have.
func fuzzPageRefSeed() []byte {
	fs := NewMemVFS()
	d, err := OpenDurable(fs, DurableOptions{})
	if err != nil {
		panic(err)
	}
	pagedFixture(d.DB(), heapPageSize+3)
	if err := d.Checkpoint(); err != nil {
		panic(err)
	}
	d.Close()
	data, err := readSnapshotFile(fs)
	if err != nil {
		panic(err)
	}
	return data
}

// FuzzLoadFrom feeds arbitrary bytes to the snapshot loader: it must
// return a database or an error — never panic, and never hand back a
// silently partial database on corrupt input (the envelope's length
// and CRC checks see to that).
func FuzzLoadFrom(f *testing.F) {
	valid := fuzzSnapshotSeed()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(snapshotMagic))          // magic alone, no envelope
	f.Add([]byte("xmlrdb-snapshot-v3\n")) // an older format's magic
	f.Add(valid[:len(valid)/2])           // truncated
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped)
	trailing := append(append([]byte(nil), valid...), 'x')
	f.Add(trailing)
	f.Add([]byte("xrdb-but-not-a-snapshot"))
	f.Add(fuzzInlinePagesSeed())
	f.Add(fuzzPageRefSeed()) // must be refused: no pages file

	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := LoadFrom(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever loads must be a coherent, usable database.
		checkIndexes(t, db)
		if _, err := db.Exec(`CREATE TABLE fuzz_probe (x INTEGER)`); err != nil {
			t.Fatalf("loaded database rejects DDL: %v", err)
		}
	})
}

// FuzzWALReplay feeds arbitrary bytes to the WAL scanner and replays
// whatever decodes onto a fresh database: scanning must never read out
// of bounds or panic, and replay errors (unknown tables, arity
// mismatches) must surface as errors, not crashes.
func FuzzWALReplay(f *testing.F) {
	var valid []byte
	for _, rec := range sampleRecords() {
		valid = append(valid, appendFrame(nil, encodeRecordPayload(nil, rec))...)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)-3]) // torn tail
	flipped := append([]byte(nil), valid...)
	flipped[9] ^= 0x80
	f.Add(flipped)
	f.Add(make([]byte, 64)) // zeroed region
	// A frame with a huge claimed length.
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4, 5, 6, 7, 8})

	f.Fuzz(func(t *testing.T, data []byte) {
		records, goodLen := scanWAL(data)
		if goodLen < 0 || goodLen > int64(len(data)) {
			t.Fatalf("goodLen %d out of range [0,%d]", goodLen, len(data))
		}
		db := New()
		for _, rec := range records {
			if rec == nil {
				t.Fatal("scanWAL returned a nil record")
			}
			// Errors are fine (the log may reference tables that were
			// never created); panics are not.
			_ = db.applyRecord(rec)
		}
		checkIndexes(t, db)
	})
}
