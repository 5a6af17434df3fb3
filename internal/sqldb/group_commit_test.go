package sqldb

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// ---------------------------------------------------------------------------
// Gated-fsync harness
//
// The group-commit pipeline batches whatever queues while an fsync is in
// flight, so to test batching deterministically the tests park the batch
// leader inside Sync, stage more commits, then choose the fsync verdict.

// syncGate intercepts the WAL file's Sync calls: while armed, each Sync
// parks until the test sends a verdict (nil lets the real fsync proceed,
// an error fails it without syncing).
type syncGate struct {
	mu    sync.Mutex
	armed bool
	calls chan chan error
}

func newSyncGate() *syncGate { return &syncGate{calls: make(chan chan error)} }

func (g *syncGate) arm(on bool) {
	g.mu.Lock()
	g.armed = on
	g.mu.Unlock()
}

// next waits for a gated Sync to arrive and returns its verdict channel.
func (g *syncGate) next(t *testing.T) chan error {
	t.Helper()
	select {
	case c := <-g.calls:
		return c
	case <-time.After(10 * time.Second):
		t.Fatal("no Sync reached the gate")
		return nil
	}
}

type gateVFS struct {
	VFS
	gate *syncGate
}

func (v *gateVFS) OpenRW(name string) (File, error) {
	f, err := v.VFS.OpenRW(name)
	if err != nil || name != walFile {
		return f, err
	}
	return &gateFile{File: f, gate: v.gate}, nil
}

type gateFile struct {
	File
	gate *syncGate
}

func (f *gateFile) Sync() error {
	f.gate.mu.Lock()
	armed := f.gate.armed
	f.gate.mu.Unlock()
	if armed {
		verdict := make(chan error)
		f.gate.calls <- verdict
		if err := <-verdict; err != nil {
			return err
		}
	}
	return f.File.Sync()
}

// waitQueueLen polls until at least want commits are staged in the
// pipeline queue behind the in-flight batch.
func waitQueueLen(t *testing.T, d *DurableDB, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		d.walMu.Lock()
		n := len(d.queue)
		d.walMu.Unlock()
		if n >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue length %d, want >= %d", n, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// ---------------------------------------------------------------------------
// Headline regression: commits concurrent with an open transaction

// TestGroupConcurrentCommitsDurableBeforeGroupCloses pins what an
// independent commit owes a transaction open beside it. It once sat in
// the open group's buffer, acknowledged, so a crash before the group
// closed silently lost it. Now it waits for the transaction to commit
// and is acknowledged only once its own frame is fsynced: a crash taken
// mid-transaction recovers every acknowledged independent write and
// nothing of the open transaction.
func TestGroupConcurrentCommitsDurableBeforeGroupCloses(t *testing.T) {
	for _, mode := range []CrashMode{CrashLoseUnsynced, CrashKeepAll} {
		mem := NewMemVFS()
		d := mustOpenDurable(t, mem, DurableOptions{})
		db := d.DB()
		db.MustExec(`CREATE TABLE grp (k INTEGER PRIMARY KEY)`)
		db.MustExec(`CREATE TABLE ind (k INTEGER PRIMARY KEY)`)

		var midTx *MemVFS
		var acked atomic.Int64
		var ackedAtCrash int64
		done := make(chan error, 1)
		txErr := db.Update(func(tx *Tx) error {
			if _, err := tx.Exec(`INSERT INTO grp VALUES (1)`); err != nil {
				return err
			}
			// Independent commits from another goroutine: they wait for
			// the writer slot this transaction holds.
			go func() {
				for i := 0; i < 5; i++ {
					if _, err := db.Exec(`INSERT INTO ind VALUES (?)`, NewInt(int64(i))); err != nil {
						done <- err
						return
					}
					acked.Add(1)
				}
				done <- nil
			}()
			// Give the writer time to reach the writer slot; nothing
			// below depends on whether it has.
			time.Sleep(5 * time.Millisecond)
			if _, err := tx.Exec(`INSERT INTO grp VALUES (2)`); err != nil {
				return err
			}
			// Crash while the transaction is still open.
			ackedAtCrash = acked.Load()
			midTx = mem.Clone()
			midTx.Crash(mode)
			return nil
		})
		if txErr != nil {
			t.Fatalf("mode %v: transaction: %v", mode, txErr)
		}
		if err := <-done; err != nil {
			t.Fatalf("mode %v: independent commit: %v", mode, err)
		}

		rd := mustOpenDurable(t, midTx, DurableOptions{})
		count := func(db *Database, table string) int64 {
			v, err := db.QueryScalar(`SELECT COUNT(*) FROM ` + table)
			if err != nil {
				t.Fatalf("count %s: %v", table, err)
			}
			return v.Int()
		}
		// The independent writer waited for the transaction: nothing of
		// it was acknowledged, or recovered, mid-transaction...
		if n := count(rd.DB(), "ind"); ackedAtCrash != 0 || n != 0 {
			t.Fatalf("mode %v: %d independent rows acked, %d recovered mid-transaction, want 0", mode, ackedAtCrash, n)
		}
		// ...and the open transaction contributed nothing (atomicity).
		if n := count(rd.DB(), "grp"); n != 0 {
			t.Fatalf("mode %v: %d transaction rows recovered mid-transaction, want 0", mode, n)
		}
		rd.Close()

		// After Update returns, its frame is durable, and so is every
		// acknowledged independent commit: a crash now recovers both.
		afterGroup := mem.Clone()
		afterGroup.Crash(mode)
		rd2 := mustOpenDurable(t, afterGroup, DurableOptions{})
		if n := count(rd2.DB(), "grp"); n != 2 {
			t.Fatalf("mode %v: %d transaction rows recovered post-commit, want 2", mode, n)
		}
		if n := count(rd2.DB(), "ind"); n != 5 {
			t.Fatalf("mode %v: %d independent rows recovered post-commit, want 5", mode, n)
		}
		if diff := dbStateDiff(db, rd2.DB()); diff != "" {
			t.Fatalf("mode %v: post-commit recovery differs: %s", mode, diff)
		}
		checkIndexes(t, rd2.DB())
		rd2.Close()
		d.Close()
	}
}

// ---------------------------------------------------------------------------
// Batching

// TestGroupCommitBatchesConcurrentWriters pins the batch leader inside
// its fsync, stages three more commits, and verifies they all ride one
// Sync: the pipeline's fsyncs/commit drops below one.
func TestGroupCommitBatchesConcurrentWriters(t *testing.T) {
	mem := NewMemVFS()
	gate := newSyncGate()
	d := mustOpenDurable(t, &gateVFS{VFS: mem, gate: gate}, DurableOptions{})
	db := d.DB()
	db.MustExec(`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`)

	gate.arm(true)
	errs := make([]error, 4)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, errs[0] = db.Exec(`INSERT INTO kv VALUES (0, 'w')`)
	}()
	leader := gate.next(t) // writer 0 is parked inside its fsync
	for i := 1; i <= 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = db.Exec(fmt.Sprintf(`INSERT INTO kv VALUES (%d, 'w')`, i))
		}(i)
	}
	waitQueueLen(t, d, 3) // all three staged behind the in-flight batch
	leader <- nil
	batch2 := gate.next(t) // one Sync covers all three queued commits
	batch2 <- nil
	wg.Wait()
	gate.arm(false)

	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	st := d.Stats()
	if st.MaxBatch < 3 {
		t.Fatalf("max batch %d, want >= 3", st.MaxBatch)
	}
	if st.Fsyncs >= st.Commits {
		t.Fatalf("fsyncs %d not < commits %d: batching broken", st.Fsyncs, st.Commits)
	}
	d.Close()

	// Everything acked is on disk.
	rd := mustOpenDurable(t, mem, DurableOptions{})
	if diff := dbStateDiff(db, rd.DB()); diff != "" {
		t.Fatalf("recovery differs: %s", diff)
	}
	rd.Close()
}

// TestBatchFsyncFaultFailsWholeBatch extends the commit-fault battery to
// the pipeline: when a batch's fsync fails, every commit in the batch
// must error, the engine goes fail-stop, published memory keeps only the
// acked prefix, and recovery equals it.
func TestBatchFsyncFaultFailsWholeBatch(t *testing.T) {
	mem := NewMemVFS()
	gate := newSyncGate()
	d := mustOpenDurable(t, &gateVFS{VFS: mem, gate: gate}, DurableOptions{})
	db := d.DB()
	db.MustExec(`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`)

	gate.arm(true)
	errs := make([]error, 4)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, errs[0] = db.Exec(`INSERT INTO kv VALUES (0, 'w')`)
	}()
	leader := gate.next(t)
	for i := 1; i <= 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = db.Exec(fmt.Sprintf(`INSERT INTO kv VALUES (%d, 'w')`, i))
		}(i)
	}
	waitQueueLen(t, d, 3)
	leader <- nil // writer 0's batch fsyncs fine: it is the acked prefix
	batch2 := gate.next(t)
	batch2 <- errors.New("injected fsync failure") // the 3-commit batch dies
	wg.Wait()
	gate.arm(false)

	if errs[0] != nil {
		t.Fatalf("acked writer failed: %v", errs[0])
	}
	for i := 1; i <= 3; i++ {
		if errs[i] == nil || !strings.Contains(errs[i].Error(), "wal sync") {
			t.Fatalf("writer %d: error %v, want wal sync failure", i, errs[i])
		}
	}
	if !d.Failed() {
		t.Fatal("engine not fail-stop after batch fsync fault")
	}
	if _, err := db.Exec(`INSERT INTO kv VALUES (9, 'late')`); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("commit after fault: %v, want ErrWALFailed", err)
	}
	// Published memory is exactly the acked prefix: none of the failed
	// batch's rows ever became visible.
	if n := db.TotalRows(); n != 1 {
		t.Fatalf("live rows %d, want 1 (acked prefix only)", n)
	}

	// Power-loss recovery equals the acked prefix bit for bit.
	lost := mem.Clone()
	lost.Crash(CrashLoseUnsynced)
	rd := mustOpenDurable(t, lost, DurableOptions{})
	if diff := dbStateDiff(db, rd.DB()); diff != "" {
		t.Fatalf("recovery differs from acked prefix: %s", diff)
	}
	rd.Close()

	// Keep-all recovery (frames written but never synced survive a mere
	// process kill) must still contain every acked commit.
	kept := mem.Clone()
	kept.Crash(CrashKeepAll)
	rd2 := mustOpenDurable(t, kept, DurableOptions{})
	v, err := rd2.DB().QueryScalar(`SELECT COUNT(*) FROM kv WHERE k = 0`)
	if err != nil || v.Int() != 1 {
		t.Fatalf("acked row missing under keep-all recovery: %v %v", v, err)
	}
	rd2.Close()
}

// tearVFS parks the WAL's next Write while armed, then writes only its
// first five bytes and fails: a torn append. Later writes pass.
type tearVFS struct {
	VFS
	armed   atomic.Bool
	arrived chan struct{}
	release chan struct{}
}

func (v *tearVFS) OpenRW(name string) (File, error) {
	f, err := v.VFS.OpenRW(name)
	if err != nil || name != walFile {
		return f, err
	}
	return &tearFile{File: f, v: v}, nil
}

type tearFile struct {
	File
	v *tearVFS
}

func (f *tearFile) Write(p []byte) (int, error) {
	if !f.v.armed.CompareAndSwap(true, false) {
		return f.File.Write(p)
	}
	f.v.arrived <- struct{}{}
	<-f.v.release
	n, _ := f.File.Write(p[:5])
	return n, errors.New("injected torn write")
}

// TestCommitQueuedBehindTornBatchFails is the regression test for a
// commit acknowledged behind a failed batch: writer 1 stages while
// writer 0's append tears, and its state already holds writer 0's row.
// Flushing it after the tear would land its frame past bytes recovery
// never reads past — acknowledged, then lost. It must fail instead, and
// neither row may become visible.
func TestCommitQueuedBehindTornBatchFails(t *testing.T) {
	mem := NewMemVFS()
	v := &tearVFS{VFS: mem, arrived: make(chan struct{}), release: make(chan struct{})}
	d := mustOpenDurable(t, v, DurableOptions{})
	db := d.DB()
	db.MustExec(`CREATE TABLE kv (k INTEGER PRIMARY KEY)`)

	v.armed.Store(true)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, errs[0] = db.Exec(`INSERT INTO kv VALUES (0)`)
	}()
	<-v.arrived // writer 0 is inside its WAL append
	go func() {
		defer wg.Done()
		_, errs[1] = db.Exec(`INSERT INTO kv VALUES (1)`)
	}()
	waitQueueLen(t, d, 1)
	close(v.release)
	wg.Wait()

	if errs[0] == nil {
		t.Fatal("writer 0 acknowledged a torn append")
	}
	if !errors.Is(errs[1], ErrReadOnlyDegraded) {
		t.Fatalf("writer 1 queued behind the torn batch: %v, want ErrReadOnlyDegraded", errs[1])
	}
	if !d.Failed() {
		t.Fatal("engine not degraded after a torn append")
	}
	if n := db.TotalRows(); n != 0 {
		t.Fatalf("live rows %d, want 0", n)
	}
	lost := mem.Clone()
	lost.Crash(CrashLoseUnsynced)
	rd := mustOpenDurable(t, lost, DurableOptions{})
	if diff := dbStateDiff(db, rd.DB()); diff != "" {
		t.Fatalf("recovery differs from live state: %s", diff)
	}
	rd.Close()
	d.Close()
}

// ---------------------------------------------------------------------------
// Rotation failure hygiene

// TestRotateFailureNilsWAL sweeps a fault budget across Checkpoint and
// verifies the failure hygiene of rotation: whenever rotation fails
// after the old WAL handle was closed, d.wal must be nil (not a stale
// closed handle), Close must succeed, and recovery from the surviving
// files must equal the acked state.
func TestRotateFailureNilsWAL(t *testing.T) {
	sawPostCloseFailure := false
	for budget := int64(0); ; budget++ {
		mem := NewMemVFS()
		fvfs := NewFaultVFS(mem, -1)
		d := mustOpenDurable(t, fvfs, DurableOptions{})
		db := d.DB()
		db.MustExec(`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`)
		for i := 0; i < 8; i++ {
			db.MustExec(`INSERT INTO kv VALUES (?, 'row')`, NewInt(int64(i)))
		}

		// Arm the budget for the checkpoint only.
		fvfs.mu.Lock()
		fvfs.failAfter = fvfs.written + budget
		fvfs.mu.Unlock()
		ckErr := d.Checkpoint()
		fvfs.mu.Lock()
		fvfs.failAfter = -1
		fvfs.failed = false
		fvfs.mu.Unlock()

		d.walMu.Lock()
		walNil := d.wal == nil
		d.walMu.Unlock()
		if ckErr == nil {
			if walNil {
				t.Fatalf("budget %d: checkpoint succeeded but wal handle is nil", budget)
			}
			if !sawPostCloseFailure {
				t.Fatal("budget sweep finished without exercising a post-close rotation failure")
			}
			d.Close()
			return
		}
		if strings.Contains(ckErr.Error(), "wal rotation") && walNil {
			sawPostCloseFailure = true
		}
		if !d.Failed() {
			t.Fatalf("budget %d: checkpoint error (%v) without fail-stop", budget, ckErr)
		}
		if err := d.Close(); err != nil {
			t.Fatalf("budget %d: close after failed checkpoint: %v", budget, err)
		}
		// Whatever the crash point, the directory still recovers to the
		// acked state.
		rd := mustOpenDurable(t, mem, DurableOptions{})
		if diff := dbStateDiff(db, rd.DB()); diff != "" {
			t.Fatalf("budget %d: recovery differs: %s", budget, diff)
		}
		checkIndexes(t, rd.DB())
		rd.Close()
	}
}

// ---------------------------------------------------------------------------
// Concurrent-writers batteries

// TestConcurrentWritersDDLCheckpoint is the race battery: N writer
// goroutines, concurrent DDL, checkpoints and a multi-statement
// transaction all run against one DurableDB; afterwards recovery must
// equal live memory exactly.
func TestConcurrentWritersDDLCheckpoint(t *testing.T) {
	const writers = 8
	const perWriter = 30

	mem := NewMemVFS()
	d := mustOpenDurable(t, mem, DurableOptions{})
	db := d.DB()
	db.MustExec(`CREATE TABLE shared (k INTEGER PRIMARY KEY, w INTEGER, v TEXT)`)
	for w := 0; w < writers; w++ {
		db.MustExec(fmt.Sprintf(`CREATE TABLE own%d (k INTEGER PRIMARY KEY, v TEXT)`, w))
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				db.MustExec(fmt.Sprintf(`INSERT INTO shared VALUES (%d, %d, 'x')`, w*perWriter+i, w))
				db.MustExec(fmt.Sprintf(`INSERT INTO own%d VALUES (%d, 'y')`, w, i))
			}
		}(w)
	}
	// DDL churn: indexes come and go while writers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			db.MustExec(`CREATE INDEX shared_w ON shared (w)`)
			db.MustExec(`DROP INDEX shared_w`)
		}
		db.MustExec(`CREATE INDEX shared_w ON shared (w)`)
	}()
	// Checkpoints interleave with everything.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := d.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()
	// A multi-statement transaction runs concurrently with independent
	// writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := db.Update(func(tx *Tx) error {
			for i := 0; i < 10; i++ {
				if _, err := tx.Exec(`INSERT INTO shared VALUES (?, -1, 'g')`, NewInt(int64(1_000_000+i))); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Errorf("transaction: %v", err)
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	want := writers*perWriter + writers*perWriter + 10
	if n := db.TotalRows(); n != want {
		t.Fatalf("live rows %d, want %d", n, want)
	}
	st := d.Stats()
	if st.Commits == 0 || st.Batches == 0 {
		t.Fatalf("pipeline counters empty: %+v", st)
	}
	d.Close()

	rd := mustOpenDurable(t, mem, DurableOptions{})
	if diff := dbStateDiff(db, rd.DB()); diff != "" {
		t.Fatalf("recovery differs from live memory: %s", diff)
	}
	checkIndexes(t, rd.DB())
	rd.Close()
}

// TestConcurrentCommitFaultAckedSurvive runs concurrent writers into a
// fault budget: whenever the WAL dies mid-flight, every commit that was
// acknowledged must survive recovery under both crash modes, and the
// engine must be fail-stop for the rest.
func TestConcurrentCommitFaultAckedSurvive(t *testing.T) {
	const writers = 4
	for _, budget := range []int64{80, 400, 1200, 3000} {
		mem := NewMemVFS()
		fvfs := NewFaultVFS(mem, -1)
		d := mustOpenDurable(t, fvfs, DurableOptions{})
		db := d.DB()
		db.MustExec(`CREATE TABLE kv (k INTEGER PRIMARY KEY, w INTEGER)`)

		fvfs.mu.Lock()
		fvfs.failAfter = fvfs.written + budget
		fvfs.mu.Unlock()

		var mu sync.Mutex
		acked := map[int64]bool{}
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 40; i++ {
					k := int64(w*1000 + i)
					if _, err := db.Exec(`INSERT INTO kv VALUES (?, ?)`, NewInt(k), NewInt(int64(w))); err != nil {
						return // fault reached; acks stop here
					}
					mu.Lock()
					acked[k] = true
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()

		if !d.Failed() {
			t.Fatalf("budget %d: fault never fired (raise the write volume?)", budget)
		}
		if _, err := db.Exec(`INSERT INTO kv VALUES (99999, 0)`); !errors.Is(err, ErrWALFailed) {
			t.Fatalf("budget %d: post-fault commit: %v, want ErrWALFailed", budget, err)
		}
		d.Close()

		for _, mode := range []CrashMode{CrashLoseUnsynced, CrashKeepAll} {
			crashed := mem.Clone()
			crashed.Crash(mode)
			rd, err := OpenDurable(crashed, DurableOptions{})
			if err != nil {
				t.Fatalf("budget %d mode %v: recovery: %v", budget, mode, err)
			}
			for k := range acked {
				v, err := rd.DB().QueryScalar(`SELECT COUNT(*) FROM kv WHERE k = ?`, NewInt(k))
				if err != nil || v.Int() != 1 {
					t.Fatalf("budget %d mode %v: acked row %d missing after recovery (%v, %v)", budget, mode, k, v, err)
				}
			}
			checkIndexes(t, rd.DB())
			rd.Close()
		}
	}
}

// TestGroupFaultDegradedRecover fills the disk mid-way through a stream
// of multi-statement transactions: the interrupted one must vanish
// atomically — never visible, not even to degraded reads — the engine
// must degrade to read-only (serving every acked transaction) instead
// of fail-stopping, and once space returns Recover must restore
// read-write service on exactly the acked prefix.
func TestGroupFaultDegradedRecover(t *testing.T) {
	const rowsPerGroup = 5
	for _, budget := range []int64{40, 200, 800, 2000} {
		fvfs := NewFaultVFS(NewMemVFS(), -1)
		fvfs.SetFailError(syscall.ENOSPC)
		d := mustOpenDurable(t, fvfs, DurableOptions{})
		db := d.DB()
		db.MustExec(`CREATE TABLE kv (k INTEGER PRIMARY KEY, g INTEGER)`)

		fvfs.mu.Lock()
		fvfs.failAfter = fvfs.written + budget
		fvfs.mu.Unlock()

		ackedGroups := 0
		for g := 0; g < 60; g++ {
			err := db.Update(func(tx *Tx) error {
				for i := 0; i < rowsPerGroup; i++ {
					k := int64(g*rowsPerGroup + i)
					if _, err := tx.Exec(`INSERT INTO kv VALUES (?, ?)`, NewInt(k), NewInt(int64(g))); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				// The commit that hits the fault carries the raw storage
				// error; anything after it gets the degraded sentinel.
				if !errors.Is(err, syscall.ENOSPC) && !errors.Is(err, ErrReadOnlyDegraded) {
					t.Fatalf("budget %d group %d: %v, want ENOSPC or degraded", budget, g, err)
				}
				break
			}
			ackedGroups++
		}

		// Degraded, not fail-stop: health reports the ENOSPC cause...
		if !d.Failed() {
			t.Fatalf("budget %d: fault never fired (raise the group count?)", budget)
		}
		h := d.Health()
		if h.State != "degraded" || !strings.Contains(h.Cause, "no space") {
			t.Fatalf("budget %d: health %+v, want degraded on ENOSPC", budget, h)
		}
		// ...writes (transactions or plain) are refused with the sentinel...
		if err := db.Update(func(tx *Tx) error {
			_, err := tx.Exec(`INSERT INTO kv VALUES (99998, 0)`)
			return err
		}); !errors.Is(err, ErrReadOnlyDegraded) {
			t.Fatalf("budget %d: degraded transaction: %v", budget, err)
		}
		if _, err := db.Exec(`INSERT INTO kv VALUES (99999, 0)`); !errors.Is(err, ErrReadOnlyDegraded) {
			t.Fatalf("budget %d: degraded insert: %v", budget, err)
		}
		// ...and reads still work, on the acked prefix: the doomed
		// transaction published nothing, since it publishes only after
		// its frame is durable.
		assertGroups := func(when string, groups int) {
			t.Helper()
			n, err := db.QueryScalar(`SELECT COUNT(*) FROM kv`)
			if err != nil || n.Int() != int64(groups*rowsPerGroup) {
				t.Fatalf("budget %d %s: count (%v, %v), want %d rows",
					budget, when, n, err, groups*rowsPerGroup)
			}
			g, err := db.QueryScalar(`SELECT COUNT(DISTINCT g) FROM kv`)
			if err != nil || g.Int() != int64(groups) {
				t.Fatalf("budget %d %s: groups (%v, %v), want %d", budget, when, g, err, groups)
			}
		}
		assertGroups("degraded", ackedGroups)

		// Space returns: Recover must land on the acked prefix.
		fvfs.Heal()
		if err := d.Recover(); err != nil {
			t.Fatalf("budget %d: recover: %v", budget, err)
		}
		assertGroups("post-recover", ackedGroups)
		if err := db.Update(func(tx *Tx) error {
			_, err := tx.Exec(`INSERT INTO kv VALUES (?, -1)`, NewInt(int64(100000)))
			return err
		}); err != nil {
			t.Fatalf("budget %d: transaction after recover: %v", budget, err)
		}
		if err := d.Close(); err != nil {
			t.Fatalf("budget %d: close: %v", budget, err)
		}

		// The reopened directory holds the acked prefix plus the
		// post-recovery transaction.
		rd := mustOpenDurable(t, fvfs, DurableOptions{})
		if diff := dbStateDiff(db, rd.DB()); diff != "" {
			t.Fatalf("budget %d: reopened state != live state: %s", budget, diff)
		}
		checkIndexes(t, rd.DB())
		rd.Close()
	}
}
