package sqldb

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestClosePostCloseWritesErrClosed pins the headline lifecycle
// contract: after Close, every commit attempt fails with the typed
// ErrClosed — never an ack while memory-only — reads keep serving the
// published snapshot, double-Close is a no-op, and Health reports the
// closed state.
func TestClosePostCloseWritesErrClosed(t *testing.T) {
	fs := NewMemVFS()
	d := mustOpenDurable(t, fs, DurableOptions{})
	db := d.DB()
	db.MustExec(`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`)
	db.MustExec(`INSERT INTO kv VALUES (1, 'acked')`)

	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if !d.Closed() {
		t.Fatal("Closed() = false after Close")
	}
	if err := d.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}

	// Every write path is refused typed.
	if _, err := db.Exec(`INSERT INTO kv VALUES (2, 'lost')`); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close INSERT err = %v, want ErrClosed", err)
	}
	if _, err := db.Exec(`CREATE TABLE late (a INTEGER)`); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close DDL err = %v, want ErrClosed", err)
	}
	if _, err := db.BulkInsert("kv", [][]Value{{NewInt(3), NewText("x")}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close BulkInsert err = %v, want ErrClosed", err)
	}
	if err := d.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Checkpoint err = %v, want ErrClosed", err)
	}
	if err := db.Update(func(tx *Tx) error {
		_, err := tx.Exec(`INSERT INTO kv VALUES (4, 'lost')`)
		return err
	}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close transaction err = %v, want ErrClosed", err)
	}
	if err := d.Recover(); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Recover err = %v, want ErrClosed", err)
	}

	// Reads still serve the published snapshot, and stats stay safe.
	rows, err := db.Query(`SELECT v FROM kv WHERE k = 1`)
	if err != nil || rows.Len() != 1 || rows.Data[0][0].Text() != "acked" {
		t.Fatalf("post-close read = %v rows=%v", err, rows)
	}
	snap := db.AcquireSnapshot()
	if _, err := snap.Query(`SELECT count(*) FROM kv`); err != nil {
		t.Fatalf("post-close snapshot read: %v", err)
	}
	snap.Release()
	if h := d.Health(); h.State != "closed" {
		t.Fatalf("post-close Health.State = %q, want closed", h.State)
	}
	if st := d.Stats(); st.Health.State != "closed" {
		t.Fatalf("post-close Stats().Health.State = %q", st.Health.State)
	}
	_ = d.WALSize()
	_ = db.Stats()

	// The memory the failed writes never touched equals what recovery
	// replays: exactly the acked history.
	rd := mustOpenDurable(t, fs, DurableOptions{})
	defer rd.Close()
	if diff := dbStateDiff(db, rd.DB()); diff != "" {
		t.Fatalf("reopened state differs from acked state: %s", diff)
	}
}

// TestCloseRacingCheckpoint is the regression for the WAL-reopen hole:
// Checkpoint rotates the WAL (close + reopen the handle); racing it
// with Close must never leave the store with a live handle after Close
// returns. Run under -race.
func TestCloseRacingCheckpoint(t *testing.T) {
	for iter := 0; iter < 25; iter++ {
		fs := NewMemVFS()
		// A tiny auto-checkpoint threshold keeps needCkpt hot so
		// MaybeCheckpoint really rotates.
		d := mustOpenDurable(t, fs, DurableOptions{AutoCheckpointBytes: 64})
		db := d.DB()
		db.MustExec(`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`)
		for i := 0; i < 8; i++ {
			db.MustExec(`INSERT INTO kv VALUES (?, 'row')`, NewInt(int64(i)))
		}

		var wg sync.WaitGroup
		start := make(chan struct{})
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < 4; j++ {
				if err := d.Checkpoint(); err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("checkpoint during close race: %v", err)
					return
				}
				if _, err := d.MaybeCheckpoint(); err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("maybe-checkpoint during close race: %v", err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			if err := d.Close(); err != nil {
				t.Errorf("close during checkpoint race: %v", err)
			}
		}()
		close(start)
		wg.Wait()

		// Close has returned (and any checkpoint that won ckptMu before
		// it has finished): the handle must be gone for good.
		d.walMu.Lock()
		walNil := d.wal == nil
		d.walMu.Unlock()
		if !walNil {
			t.Fatalf("iter %d: wal handle re-opened after Close", iter)
		}
		if err := d.Checkpoint(); !errors.Is(err, ErrClosed) {
			t.Fatalf("iter %d: checkpoint after close = %v, want ErrClosed", iter, err)
		}
		// Whatever interleaving happened, the directory must recover.
		rd := mustOpenDurable(t, fs, DurableOptions{})
		if diff := dbStateDiff(db, rd.DB()); diff != "" {
			t.Fatalf("iter %d: recovery differs: %s", iter, diff)
		}
		rd.Close()
	}
}

// TestCloseRacingWriters races N committers against Close: every Exec
// must either be acknowledged durably (it survives reopen) or fail with
// the typed ErrClosed — no third outcome where an ack is memory-only.
func TestCloseRacingWriters(t *testing.T) {
	const writers, rowsPer = 8, 24
	fs := NewMemVFS()
	d := mustOpenDurable(t, fs, DurableOptions{})
	db := d.DB()
	db.MustExec(`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`)

	var acked sync.Map
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < rowsPer; i++ {
				k := int64(w*rowsPer + i)
				_, err := db.Exec(`INSERT INTO kv VALUES (?, 'v')`, NewInt(k))
				switch {
				case err == nil:
					acked.Store(k, true)
				case errors.Is(err, ErrClosed):
					// refused cleanly — nothing durable, nothing published
				default:
					t.Errorf("writer %d: unexpected error %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		time.Sleep(500 * time.Microsecond)
		if err := d.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	close(start)
	wg.Wait()

	rd := mustOpenDurable(t, fs, DurableOptions{})
	defer rd.Close()
	var missing []int64
	acked.Range(func(k, _ any) bool {
		rows, err := rd.DB().Query(`SELECT k FROM kv WHERE k = ?`, NewInt(k.(int64)))
		if err != nil {
			t.Fatalf("reopen query: %v", err)
		}
		if rows.Len() != 1 {
			missing = append(missing, k.(int64))
		}
		return true
	})
	if len(missing) > 0 {
		t.Fatalf("acked commits lost across Close+reopen: %v", missing)
	}
}

// TestCloseDuringOpenTransaction closes the store while a transaction
// is open on another goroutine: Close does not wait for it, and the
// transaction's commit is refused with ErrClosed — it was never
// acknowledged, so neither memory nor the reopened directory holds it.
func TestCloseDuringOpenTransaction(t *testing.T) {
	fs := NewMemVFS()
	d := mustOpenDurable(t, fs, DurableOptions{})
	db := d.DB()
	db.MustExec(`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`)
	db.MustExec(`INSERT INTO kv VALUES (1, 'acked')`)

	entered := make(chan struct{})
	release := make(chan struct{})
	txDone := make(chan error, 1)
	go func() {
		txDone <- db.Update(func(tx *Tx) error {
			_, err := tx.Exec(`INSERT INTO kv VALUES (2, 'open')`)
			close(entered)
			<-release
			return err
		})
	}()
	<-entered
	if err := d.Close(); err != nil {
		t.Fatalf("close beside an open transaction: %v", err)
	}
	close(release)
	if err := <-txDone; !errors.Is(err, ErrClosed) {
		t.Fatalf("transaction committing after Close: %v, want ErrClosed", err)
	}
	if n := db.TotalRows(); n != 1 {
		t.Fatalf("%d live rows, want 1", n)
	}

	rd := mustOpenDurable(t, fs, DurableOptions{})
	defer rd.Close()
	n, err := rd.DB().QueryScalar(`SELECT count(*) FROM kv`)
	if err != nil || n.Int() != 1 {
		t.Fatalf("reopen count = %v (%v), want 1", n, err)
	}
}

// TestCloseConcurrentStatsReads audits the read-only surfaces /stats
// and /health lean on — Database.Stats, DurableDB.Stats, Health,
// WALSize, Checkpoints, snapshot reads — for use-after-Close: all must
// stay race-free and panic-free while Close lands. Run under -race.
func TestCloseConcurrentStatsReads(t *testing.T) {
	fs := NewMemVFS()
	d := mustOpenDurable(t, fs, DurableOptions{})
	db := d.DB()
	db.MustExec(`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`)
	db.MustExec(`INSERT INTO kv VALUES (1, 'x')`)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var panics atomic.Uint64
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics.Add(1)
				}
			}()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = db.Stats()
				_ = d.Stats()
				_ = d.Health()
				_ = d.WALSize()
				_ = d.Checkpoints()
				s := db.AcquireSnapshot()
				_, _ = s.Query(`SELECT count(*) FROM kv`)
				s.Release()
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	time.Sleep(2 * time.Millisecond)
	close(stop)
	wg.Wait()
	if n := panics.Load(); n != 0 {
		t.Fatalf("%d stats/read goroutines panicked across Close", n)
	}
	if st := db.Stats(); st.Snapshots.Pinned != 0 {
		t.Fatalf("pinned snapshots leaked: %d", st.Snapshots.Pinned)
	}
}

// TestSnapshotReleaseIdempotent pins the session layer's pin hygiene:
// double-release must not corrupt the pin count or unpin another
// session's snapshot, and a storm of acquire/release pairs must return
// the pin count to exactly zero.
func TestSnapshotReleaseIdempotent(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE t (a INTEGER)`)

	s1 := db.AcquireSnapshot()
	s2 := db.AcquireSnapshot()
	if p := db.Stats().Snapshots.Pinned; p != 2 {
		t.Fatalf("pinned = %d, want 2", p)
	}
	s1.Release()
	s1.Release() // double-release: must not touch s2's pin
	s1.Release()
	if p := db.Stats().Snapshots.Pinned; p != 1 {
		t.Fatalf("pinned after double-release = %d, want 1", p)
	}
	if _, err := s2.Query(`SELECT count(*) FROM t`); err != nil {
		t.Fatalf("query through still-pinned snapshot: %v", err)
	}
	s2.Release()
	if p := db.Stats().Snapshots.Pinned; p != 0 {
		t.Fatalf("pinned after final release = %d, want 0", p)
	}

	// Session storm: concurrent acquire/double-release cycles.
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s := db.AcquireSnapshot()
				if _, err := s.Query(`SELECT count(*) FROM t`); err != nil {
					t.Errorf("storm query: %v", err)
					return
				}
				s.Release()
				s.Release()
			}
		}()
	}
	wg.Wait()
	if p := db.Stats().Snapshots.Pinned; p != 0 {
		t.Fatalf("pinned after storm = %d, want 0", p)
	}
}
