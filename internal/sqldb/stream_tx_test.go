package sqldb

import (
	"io"
	"testing"
)

// walOps returns the op of every valid frame in the data directory's
// WAL, in file order.
func walOps(t *testing.T, fs VFS) []walOp {
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
	frames, _ := scanWALFrames(data)
	ops := make([]walOp, len(frames))
	for i, fr := range frames {
		ops[i] = walOp(fr.raw[walFrameOverhead])
	}
	return ops
}

// TestStreamedTransactionFrames follows streamCrashWorkload's
// transactions through the WAL, with every statement but a
// transaction's last streamed: the first commits after four
// continuation frames; the rolled-back one leaves the WAL and the
// commit numbering as it found them; a checkpoint taken while the
// third is open rotates the log around its first continuation frame.
// Under a two-page pool, pages the open transaction sealed are written
// back and evicted before it commits, and the pool stays at its cap.
func TestStreamedTransactionFrames(t *testing.T) {
	prev := SetTxStreamBytes(0)
	t.Cleanup(func() { SetTxStreamBytes(prev) })
	fs := NewMemVFS()
	d, err := OpenDurable(fs, DurableOptions{BufferPoolPages: 2})
	if err != nil {
		t.Fatal(err)
	}
	w := streamCrashWorkload
	for _, op := range w[:2] {
		if err := runCrashOp(d, op); err != nil {
			t.Fatal(err)
		}
	}
	stmts, _, _ := txOp(w[2])
	err = d.DB().Update(func(tx *Tx) error {
		for _, s := range stmts {
			if _, err := tx.Exec(s); err != nil {
				return err
			}
			if bp := d.DB().Stats().BufferPool; bp.Resident > 2 {
				t.Errorf("open transaction holds %d resident pages in a 2-page pool", bp.Resident)
			}
		}
		if bp := d.DB().Stats().BufferPool; bp.Evictions == 0 || bp.Writebacks == 0 {
			t.Errorf("no page of the open transaction was written back and evicted: %+v", bp)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []walOp{opCreateTable, opInsert, opCont, opCont, opCont, opCont, opGroup}
	if got := walOps(t, fs); !equalOps(got, want) {
		t.Fatalf("WAL after a streamed commit: %v, want %v", got, want)
	}

	size, seq := d.WALSize(), d.seq.Load()
	if err := runCrashOp(d, w[3]); err != errRollback {
		t.Fatalf("rollback op: %v", err)
	}
	if d.WALSize() != size || d.seq.Load() != seq {
		t.Fatalf("rollback left WAL %d bytes at seq %d, want %d at %d", d.WALSize(), d.seq.Load(), size, seq)
	}
	for _, op := range w[4:] {
		if err := runCrashOp(d, op); err != nil {
			t.Fatal(err)
		}
	}
	want = []walOp{opCont, opCont, opCont, opGroup, opInsert}
	if got := walOps(t, fs); !equalOps(got, want) {
		t.Fatalf("WAL after a checkpoint inside a streamed transaction: %v, want %v", got, want)
	}

	crashed := fs.Clone()
	crashed.Crash(CrashLoseUnsynced)
	re, err := OpenDurable(crashed, DurableOptions{BufferPoolPages: 2})
	if err != nil {
		t.Fatal(err)
	}
	base := crashBaselines(t, w)
	if diff := dbStateDiff(base[len(base)-1], re.DB()); diff != "" {
		t.Fatalf("recovered state: %s", diff)
	}
	checkIndexes(t, re.DB())
}

func equalOps(a, b []walOp) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMemoryTransactionKeepsNoRecords: without a commit log a
// transaction counts its records and keeps none, and commits them under
// as many sequence numbers.
func TestMemoryTransactionKeepsNoRecords(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE kv (k INTEGER)`)
	seq := db.Seq()
	err := db.Update(func(tx *Tx) error {
		for i := 0; i < 3; i++ {
			if _, err := tx.BulkInsert("kv", [][]Value{{NewInt(int64(i))}}); err != nil {
				return err
			}
		}
		if tx.n != 3 || len(tx.recs) != 0 || tx.pending != 0 {
			t.Errorf("in-memory transaction: n=%d, %d records kept, pending %d", tx.n, len(tx.recs), tx.pending)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Seq(); got != seq+3 {
		t.Fatalf("seq %d after three records, want %d", got, seq+3)
	}
}
