package sqldb

import (
	"context"
	"errors"
	"io"
	"sync"
	"testing"
	"time"
)

// The Update contract battery: a transaction reads its own writes,
// commits as one WAL record published once durable, and on an error, a
// panic or a canceled context publishes and logs nothing.

// walImage reads the data directory's WAL.
func walImage(t *testing.T, fs VFS) []byte {
	t.Helper()
	f, err := fs.Open(walFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func rowCount(t *testing.T, q Queryer, table string) int64 {
	t.Helper()
	v, err := q.QueryScalar(`SELECT COUNT(*) FROM ` + table)
	if err != nil {
		t.Fatal(err)
	}
	return v.Int()
}

// TestTxReadsOwnWrites: statements and reads inside a transaction
// see its earlier writes — a read served from the plan cache included —
// while readers outside see none of them until the commit, which is
// one WAL frame whose members carry consecutive sequence numbers.
func TestTxReadsOwnWrites(t *testing.T) {
	mem := NewMemVFS()
	d := mustOpenDurable(t, mem, DurableOptions{})
	defer d.Close()
	db := d.DB()
	db.MustExec(`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`)
	db.MustExec(`INSERT INTO kv VALUES (1, 'a')`)
	const q = `SELECT COUNT(*) FROM kv WHERE k > ?`
	if _, err := db.QueryScalar(q, NewInt(0)); err != nil { // caches the plan
		t.Fatal(err)
	}
	frames, _ := scanWALFrames(walImage(t, mem))
	commits := d.Stats().Commits

	err := db.Update(func(tx *Tx) error {
		if _, err := tx.Exec(`INSERT INTO kv VALUES (2, 'b')`); err != nil {
			return err
		}
		if _, err := tx.BulkInsert("kv", [][]Value{{NewInt(3), NewText("c")}}); err != nil {
			return err
		}
		if _, err := tx.Exec(`UPDATE kv SET v = 'z' WHERE k = 1`); err != nil {
			return err
		}
		hits := db.PlanCacheStats().Hits
		if v, err := tx.QueryScalar(q, NewInt(0)); err != nil || v.Int() != 3 {
			t.Errorf("transaction's cached-plan read: (%v, %v), want 3 rows", v, err)
		}
		if db.PlanCacheStats().Hits != hits+1 {
			t.Error("transaction's read did not use the cached plan")
		}
		if v, err := tx.QueryScalar(`SELECT v FROM kv WHERE k = 1`); err != nil || v.Text() != "z" {
			t.Errorf("transaction reads (%v, %v) for its own update, want z", v, err)
		}
		if n := rowCount(t, db, "kv"); n != 1 {
			t.Errorf("a reader outside saw %d rows of an open transaction, want 1", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := rowCount(t, db, "kv"); n != 3 {
		t.Fatalf("%d rows after commit, want 3", n)
	}
	if got := d.Stats().Commits - commits; got != 1 {
		t.Fatalf("transaction staged %d commits, want 1", got)
	}
	after, _ := scanWALFrames(walImage(t, mem))
	if len(after) != len(frames)+1 {
		t.Fatalf("transaction wrote %d WAL frames, want 1", len(after)-len(frames))
	}
	recs, _ := scanWAL(after[len(after)-1].raw)
	if len(recs) != 3 {
		t.Fatalf("transaction frame holds %d records, want 3", len(recs))
	}
	for i, r := range recs {
		if r.Seq != recs[0].Seq+uint64(i) {
			t.Fatalf("member %d has seq %d, want %d", i, r.Seq, recs[0].Seq+uint64(i))
		}
	}
	if st := db.Stats().CommitSeq; st != recs[2].Seq {
		t.Fatalf("published seq %d, want the last member's %d", st, recs[2].Seq)
	}
}

// TestTxAbortPublishesNothing: an fn error, an fn panic and a
// canceled context each leave the published state, the commit sequence
// and the WAL as they were, and free the writer slot.
func TestTxAbortPublishesNothing(t *testing.T) {
	errBoom := errors.New("boom")
	// A canceled context reaches Update as fn's error, as a load's
	// batcher reports it.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name  string
		after func(tx *Tx) error
		want  error
	}{
		{"error", func(*Tx) error { return errBoom }, errBoom},
		{"panic", func(*Tx) error { panic("injected") }, ErrInternal},
		{"canceled", func(*Tx) error { return canceled.Err() }, context.Canceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := mustOpenDurable(t, NewMemVFS(), DurableOptions{})
			defer d.Close()
			db := d.DB()
			db.MustExec(`CREATE TABLE kv (k INTEGER PRIMARY KEY)`)
			db.MustExec(`INSERT INTO kv VALUES (1)`)
			wal, seq := d.WALSize(), db.Stats().CommitSeq

			var leaked *Tx
			err := db.Update(func(tx *Tx) error {
				leaked = tx
				for k := int64(2); k <= 4; k++ {
					if _, err := tx.Exec(`INSERT INTO kv VALUES (?)`, NewInt(k)); err != nil {
						return err
					}
				}
				if _, err := tx.Exec(`CREATE INDEX kv_k ON kv (k)`); err != nil {
					return err
				}
				return tc.after(tx)
			})
			if !errors.Is(err, tc.want) {
				t.Fatalf("Update: %v, want %v", err, tc.want)
			}
			if n := rowCount(t, db, "kv"); n != 1 {
				t.Errorf("aborted transaction published %d rows, want 1", n)
			}
			if got := d.WALSize(); got != wal {
				t.Errorf("aborted transaction wrote %d WAL bytes", got-wal)
			}
			if got := db.Stats().CommitSeq; got != seq {
				t.Errorf("commit seq moved %d -> %d", seq, got)
			}
			if _, err := leaked.Exec(`INSERT INTO kv VALUES (9)`); !errors.Is(err, errTxDone) {
				t.Errorf("statement on an ended transaction: %v, want errTxDone", err)
			}
			// The writer slot is free, and the index never existed.
			if _, err := db.Exec(`CREATE INDEX kv_k ON kv (k)`); err != nil {
				t.Fatalf("write after the abort: %v", err)
			}
		})
	}
}

// TestTxReaderSeesAllOrNothing polls from another goroutine while a
// transaction inserts row by row: every read sees none of it or all of
// it.
func TestTxReaderSeesAllOrNothing(t *testing.T) {
	const rows = 50
	db := New()
	db.MustExec(`CREATE TABLE kv (k INTEGER PRIMARY KEY)`)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var seen sync.Map
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			v, err := db.QueryScalar(`SELECT COUNT(*) FROM kv`)
			if err != nil {
				t.Error(err)
				return
			}
			seen.Store(v.Int(), true)
		}
	}()
	err := db.Update(func(tx *Tx) error {
		for k := 0; k < rows; k++ {
			if _, err := tx.Exec(`INSERT INTO kv VALUES (?)`, NewInt(int64(k))); err != nil {
				return err
			}
			time.Sleep(100 * time.Microsecond)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	seen.Store(rowCount(t, db, "kv"), true)
	close(stop)
	wg.Wait()
	seen.Range(func(k, _ any) bool {
		if n := k.(int64); n != 0 && n != rows {
			t.Errorf("a reader saw %d rows of a %d-row transaction", n, rows)
		}
		return true
	})
}

// TestTxConcurrentExecWaitsThenDurable: an Exec from another
// goroutine waits for the open transaction, then is acknowledged only
// once durable under both crash modes.
func TestTxConcurrentExecWaitsThenDurable(t *testing.T) {
	for _, mode := range []CrashMode{CrashLoseUnsynced, CrashKeepAll} {
		mem := NewMemVFS()
		d := mustOpenDurable(t, mem, DurableOptions{})
		db := d.DB()
		db.MustExec(`CREATE TABLE kv (k INTEGER PRIMARY KEY)`)
		execDone := make(chan error, 1)
		err := db.Update(func(tx *Tx) error {
			if _, err := tx.Exec(`INSERT INTO kv VALUES (1)`); err != nil {
				return err
			}
			go func() {
				_, err := db.Exec(`INSERT INTO kv VALUES (2)`)
				execDone <- err
			}()
			select {
			case err := <-execDone:
				t.Errorf("Exec returned (%v) while a transaction was open", err)
			case <-time.After(20 * time.Millisecond):
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := <-execDone; err != nil {
			t.Fatalf("concurrent Exec: %v", err)
		}
		crashed := mem.Clone()
		crashed.Crash(mode)
		rd := mustOpenDurable(t, crashed, DurableOptions{})
		if diff := dbStateDiff(db, rd.DB()); diff != "" {
			t.Fatalf("mode %v: recovery differs: %s", mode, diff)
		}
		rd.Close()
		d.Close()
	}
}

// TestTxDDLPlanNeverCached: a plan compiled inside a transaction
// that ran DDL must not enter the plan cache. The aborted transaction's
// schema epoch number is reused by the next DDL, so a cached plan would
// be served for a different schema.
func TestTxDDLPlanNeverCached(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE base (a INTEGER)`)
	var txEpoch uint64
	errAbort := errors.New("abort")
	err := db.Update(func(tx *Tx) error {
		if _, err := tx.Exec(`CREATE TABLE x (a INTEGER, b INTEGER)`); err != nil {
			return err
		}
		if rows, err := tx.Query(`SELECT * FROM x`); err != nil || len(rows.Columns) != 2 {
			t.Fatalf("the transaction's own table: %v", err)
		}
		txEpoch = tx.st.epoch
		return errAbort
	})
	if !errors.Is(err, errAbort) {
		t.Fatal(err)
	}
	db.MustExec(`CREATE TABLE x (c TEXT)`)
	if got := db.SchemaEpoch(); got != txEpoch {
		t.Fatalf("epoch %d after the DDL, want the aborted transaction's %d reused", got, txEpoch)
	}
	rows, err := db.Query(`SELECT * FROM x`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Columns) != 1 || rows.Columns[0] != "c" {
		t.Fatalf("SELECT * FROM x returned columns %v, want [c]: a stale plan was served", rows.Columns)
	}
}
