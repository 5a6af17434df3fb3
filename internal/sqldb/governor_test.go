package sqldb

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// Resource-governor batteries: memory budgets abort cleanly and release
// their reservations, admission control sheds load with typed errors,
// and panics anywhere in query or writer execution fail only the one
// statement without wedging shared state.

// governorFixture builds a database with enough rows that sorts and
// joins have a working set worth metering.
func governorFixture(t *testing.T, rows int) *Database {
	t.Helper()
	db := New()
	db.MustExec(`CREATE TABLE big (k INTEGER PRIMARY KEY, v TEXT, grp INTEGER)`)
	batch := make([][]Value, 0, 1024)
	for i := 0; i < rows; i++ {
		batch = append(batch, []Value{
			NewInt(int64(i)),
			NewText(fmt.Sprintf("value-%06d-padding-padding", i)),
			NewInt(int64(i % 17)),
		})
		if len(batch) == cap(batch) {
			if _, err := db.BulkInsert("big", batch); err != nil {
				t.Fatalf("seeding: %v", err)
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		if _, err := db.BulkInsert("big", batch); err != nil {
			t.Fatalf("seeding: %v", err)
		}
	}
	return db
}

func TestQueryMemoryLimitAborts(t *testing.T) {
	db := governorFixture(t, 4000)
	db.SetQueryMemoryLimit(16 << 10)

	_, err := db.Query(`SELECT k, v FROM big ORDER BY v`)
	if !errors.Is(err, ErrMemoryBudgetExceeded) {
		t.Fatalf("big sort under a 16KiB limit: %v, want ErrMemoryBudgetExceeded", err)
	}

	// A small query stays under the limit.
	if _, err := db.Query(`SELECT k FROM big WHERE k = 7`); err != nil {
		t.Fatalf("small query under limit: %v", err)
	}

	// Lifting the limit restores the big query.
	db.SetQueryMemoryLimit(0)
	rows, err := db.Query(`SELECT k, v FROM big ORDER BY v`)
	if err != nil {
		t.Fatalf("big sort after lifting the limit: %v", err)
	}
	if rows.Len() != 4000 {
		t.Fatalf("got %d rows, want 4000", rows.Len())
	}
}

func TestEngineMemoryBudgetReleasedOnAbort(t *testing.T) {
	db := governorFixture(t, 4000)
	db.SetMemoryBudget(32 << 10)

	for i := 0; i < 5; i++ {
		if _, err := db.Query(`SELECT k, v FROM big ORDER BY v`); !errors.Is(err, ErrMemoryBudgetExceeded) {
			t.Fatalf("round %d: %v, want ErrMemoryBudgetExceeded", i, err)
		}
		if used := db.Stats().Governor.MemoryUsed; used != 0 {
			t.Fatalf("round %d: %d bytes still reserved after abort, want 0", i, used)
		}
	}

	// The pool is drained, so small queries run and their reservations
	// return too.
	if _, err := db.Query(`SELECT COUNT(*) FROM big`); err != nil {
		t.Fatalf("small aggregate after aborts: %v", err)
	}
	if used := db.Stats().Governor.MemoryUsed; used != 0 {
		t.Fatalf("%d bytes reserved after successful query, want 0", used)
	}
}

// TestBudgetAbortLeavesConcurrentTrafficUnaffected runs over-budget
// queries alongside in-budget queries and writers: only the former may
// fail, and only with the typed budget error.
func TestBudgetAbortLeavesConcurrentTrafficUnaffected(t *testing.T) {
	db := governorFixture(t, 4000)
	db.SetQueryMemoryLimit(16 << 10)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 64)

	wg.Add(1)
	go func() { // over-budget queries
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.Query(`SELECT k, v FROM big ORDER BY v`); !errors.Is(err, ErrMemoryBudgetExceeded) {
				errs <- fmt.Errorf("heavy query: %v, want budget error", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // in-budget queries
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.Query(`SELECT v FROM big WHERE k = ?`, NewInt(int64(i%4000))); err != nil {
				errs <- fmt.Errorf("light query: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // writers
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.Exec(`INSERT INTO big VALUES (?, 'w', 0)`, NewInt(int64(100000+i))); err != nil {
				errs <- fmt.Errorf("writer: %v", err)
				return
			}
		}
	}()

	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if used := db.Stats().Governor.MemoryUsed; used != 0 {
		t.Fatalf("%d bytes reserved after traffic drained, want 0", used)
	}
}

func TestAdmissionGate(t *testing.T) {
	g := newAdmissionGate(1, 1)

	release1, err := g.admit(context.Background())
	if err != nil {
		t.Fatalf("first admit: %v", err)
	}

	// Second arrival queues.
	queuedErr := make(chan error, 1)
	go func() {
		rel, err := g.admit(context.Background())
		if err == nil {
			rel()
		}
		queuedErr <- err
	}()
	waitFor(t, func() bool { return g.waiting.Load() == 1 })

	// Third arrival finds the queue full.
	if _, err := g.admit(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queue-full admit: %v, want ErrOverloaded", err)
	}

	// Releasing the slot admits the queued waiter.
	release1()
	if err := <-queuedErr; err != nil {
		t.Fatalf("queued admit after release: %v", err)
	}

	// A canceled context unblocks a queued waiter with its error.
	release2, err := g.admit(context.Background())
	if err != nil {
		t.Fatalf("refill slot: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	canceledErr := make(chan error, 1)
	go func() {
		_, err := g.admit(ctx)
		canceledErr <- err
	}()
	waitFor(t, func() bool { return g.waiting.Load() == 1 })
	cancel()
	if err := <-canceledErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled queued admit: %v, want context.Canceled", err)
	}
	release2()

	maxc, maxq, admitted, queued, rejected := g.stats()
	if maxc != 1 || maxq != 1 {
		t.Fatalf("stats shape: %d slots %d queue", maxc, maxq)
	}
	if admitted != 3 || queued != 2 || rejected != 2 {
		t.Fatalf("counters admitted=%d queued=%d rejected=%d, want 3/2/2", admitted, queued, rejected)
	}
}

func TestAdmissionControlEndToEnd(t *testing.T) {
	db := governorFixture(t, 500)
	db.SetAdmissionControl(2, 8)

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := db.Query(`SELECT COUNT(*) FROM big`)
			if err != nil && !errors.Is(err, ErrOverloaded) {
				t.Errorf("query: %v", err)
			}
		}()
	}
	wg.Wait()

	g := db.Stats().Governor
	if g.MaxConcurrent != 2 || g.MaxQueue != 8 {
		t.Fatalf("governor stats shape: %+v", g)
	}
	if g.Admitted+g.Rejected < 16 {
		t.Fatalf("admitted %d + rejected %d does not cover 16 queries", g.Admitted, g.Rejected)
	}
	// The gate must be fully released: 2 more queries run without queuing.
	for i := 0; i < 2; i++ {
		if _, err := db.Query(`SELECT 1 FROM big WHERE k = 0`); err != nil {
			t.Fatalf("post-storm query: %v", err)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never reached")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestExecutorPanicFailsOnlyThatQuery injects a panic into a running
// scan: the query fails with a typed ErrInternal carrying the panic
// value and stack, no snapshot pin leaks, and both the same query and a
// write keep working afterwards.
func TestExecutorPanicFailsOnlyThatQuery(t *testing.T) {
	db := governorFixture(t, 4000)

	const q = `SELECT k FROM big WHERE v <> ''`
	want, err := db.Query(q)
	if err != nil {
		t.Fatalf("control run: %v", err)
	}

	hook := func() { panic("injected executor panic") }
	testExecPanic.Store(&hook)
	_, err = db.Query(q)
	testExecPanic.Store(nil)
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("panicking scan: %v, want ErrInternal", err)
	}
	var ie *InternalError
	if !errors.As(err, &ie) || ie.PanicValue != "injected executor panic" || len(ie.Stack) == 0 {
		t.Fatalf("InternalError payload: %#v", ie)
	}

	// No leaked snapshot pins, no wedged locks: the same query and a
	// write both succeed.
	if p := db.Stats().Snapshots.Pinned; p != 0 {
		t.Fatalf("%d snapshot pins leaked by the failed query", p)
	}
	got, err := db.Query(q)
	if err != nil {
		t.Fatalf("query after panic: %v", err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("row count drifted after panic: %d vs %d", got.Len(), want.Len())
	}
	if _, err := db.Exec(`INSERT INTO big VALUES (999999, 'after', 0)`); err != nil {
		t.Fatalf("write after panic: %v", err)
	}
}

// TestWriterPanicReleasesLocks panics inside the commit path (via the
// commit logger) for several statements in a row: each fails with
// ErrInternal, the write lock and publish tickets are not wedged, and
// the next clean write commits and is visible.
func TestWriterPanicReleasesLocks(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE kv (k INTEGER PRIMARY KEY)`)
	db.MustExec(`INSERT INTO kv VALUES (1)`)

	db.setCommitLogger(func(*walRecord) error { panic("injected commit panic") })
	for i := 0; i < 3; i++ {
		if _, err := db.Exec(`INSERT INTO kv VALUES (?)`, NewInt(int64(10+i))); !errors.Is(err, ErrInternal) {
			t.Fatalf("panicking commit %d: %v, want ErrInternal", i, err)
		}
		// The panicked statement must be rolled back.
		if v, err := db.QueryScalar(`SELECT COUNT(*) FROM kv`); err != nil || v.Int() != 1 {
			t.Fatalf("state after panicking commit %d: count=(%v,%v), want 1", i, v, err)
		}
	}
	db.setCommitLogger(nil)

	if _, err := db.Exec(`INSERT INTO kv VALUES (2)`); err != nil {
		t.Fatalf("write after panics: %v", err)
	}
	if v, err := db.QueryScalar(`SELECT COUNT(*) FROM kv`); err != nil || v.Int() != 2 {
		t.Fatalf("final count: (%v, %v), want 2", v, err)
	}
}

// TestErrorSentinels locks in the error taxonomy: each load-bearing
// failure mode matches its exported sentinel via errors.Is while the
// message text stays byte-compatible with the historical strings.
func TestErrorSentinels(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE kv (k INTEGER PRIMARY KEY)`)

	p, err := db.Prepare(`SELECT k FROM kv`)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	db.MustExec(`CREATE TABLE other (a INTEGER)`) // bump the schema epoch
	_, err = p.Query()
	if !errors.Is(err, ErrPreparedStale) {
		t.Fatalf("stale prepared: %v, want ErrPreparedStale", err)
	}
	if !strings.Contains(err.Error(), "prepared statement is stale") {
		t.Fatalf("stale message drifted: %q", err)
	}

	// Degraded mode wraps the historical WAL sentinel.
	if !errors.Is(ErrReadOnlyDegraded, ErrWALFailed) {
		t.Fatal("ErrReadOnlyDegraded must wrap ErrWALFailed")
	}
}
