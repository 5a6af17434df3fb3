package sqldb

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// Chaos battery: concurrent writers and governed queries (memory
// budgets, admission control, injected executor panics, canceled
// contexts) run into a mid-flight ENOSPC fault. The engine must
// degrade to read-only — reads keep answering — then Recover back to
// read-write, and after a final close + reopen every acknowledged
// write must be present. Run under -race (see the Makefile chaos
// target) this doubles as the lock-hygiene proof: no panic or abort
// path may wedge writeMu, pubMu, the WAL pipeline, or leak memory
// reservations or snapshot pins.
func TestChaosGovernedConcurrency(t *testing.T) {
	mem := NewMemVFS()
	fvfs := NewFaultVFS(mem, -1)
	fvfs.SetFailError(syscall.ENOSPC)
	d := mustOpenDurable(t, fvfs, DurableOptions{})
	db := d.DB()

	db.MustExec(`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`)
	seed := make([][]Value, 0, 3000)
	for i := 0; i < 3000; i++ {
		seed = append(seed, []Value{
			NewInt(int64(i)),
			NewText(fmt.Sprintf("seed-%06d-%s", i, "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")),
		})
	}
	if _, err := db.BulkInsert("kv", seed); err != nil {
		t.Fatalf("seeding: %v", err)
	}

	db.SetMemoryBudget(1 << 20)
	db.SetQueryMemoryLimit(256 << 10)
	db.SetAdmissionControl(2, 4)

	// About one in 13 of the executor's 256-row strides panics, drawn
	// at random: a fixed every-13th tick would fail every query that
	// runs 13 strides without interleaving, as any scan of kv does on
	// one OS thread, so the probe below could never get through.
	var injected atomic.Int64
	hook := func() {
		if rand.Intn(13) == 0 {
			injected.Add(1)
			panic("chaos executor panic")
		}
	}
	testExecPanic.Store(&hook)
	defer testExecPanic.Store(nil)

	// tolerable reports whether an error is one of the governed or
	// injected failure modes this battery provokes on purpose. Anything
	// else is a real bug.
	tolerable := func(err error) bool {
		return err == nil ||
			errors.Is(err, ErrMemoryBudgetExceeded) ||
			errors.Is(err, ErrOverloaded) ||
			errors.Is(err, ErrInternal) ||
			errors.Is(err, ErrWALFailed) ||
			errors.Is(err, ErrInjected) ||
			errors.Is(err, syscall.ENOSPC) ||
			errors.Is(err, context.Canceled) ||
			errors.Is(err, context.DeadlineExceeded)
	}

	const writers, readers = 4, 4
	var acked sync.Map // key -> true, recorded only on a nil Exec error
	stop := make(chan struct{})
	var bad atomic.Pointer[error]
	fail := func(err error) {
		e := err
		bad.CompareAndSwap(nil, &e)
	}
	var wg sync.WaitGroup

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := int64(10000 + w*100000 + i)
				_, err := db.Exec(`INSERT INTO kv VALUES (?, 'chaos')`, NewInt(k))
				if err == nil {
					acked.Store(k, true)
				} else if !tolerable(err) {
					fail(fmt.Errorf("writer %d: %w", w, err))
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Yield between queries: on one OS thread a reader that
				// loops straight back into the admission gate keeps it
				// full, and the degraded-read probe below never gets in.
				runtime.Gosched()
				var err error
				switch i % 3 {
				case 0: // heavy: big sort, may blow the query budget
					_, err = db.Query(`SELECT k, v FROM kv ORDER BY v`)
				case 1: // canceled mid-flight
					ctx, cancel := context.WithTimeout(context.Background(), 500*time.Microsecond)
					_, err = db.QueryContext(ctx, `SELECT COUNT(*), MAX(k) FROM kv WHERE v <> ''`)
					cancel()
				case 2: // light: must essentially always work
					_, err = db.Query(`SELECT v FROM kv WHERE k = ?`, NewInt(int64(i%3000)))
				}
				if !tolerable(err) {
					fail(fmt.Errorf("reader %d: %w", r, err))
					return
				}
			}
		}(r)
	}

	// Let healthy traffic build, then yank the disk.
	time.Sleep(50 * time.Millisecond)
	fvfs.mu.Lock()
	fvfs.failAfter = fvfs.written
	fvfs.mu.Unlock()

	deadline := time.Now().Add(5 * time.Second)
	for !d.Failed() {
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			t.Fatal("fault armed but the engine never degraded")
		}
		time.Sleep(time.Millisecond)
	}

	// A degraded stretch with traffic still flowing: writes bounce,
	// reads answer. The probe shares the admission gate and panic hook
	// with the storm, so retry past those governed rejections — what
	// must NOT happen is a degraded-mode read error.
	time.Sleep(30 * time.Millisecond)
	probeDeadline := time.Now().Add(5 * time.Second)
	for {
		n, err := db.QueryScalar(`SELECT COUNT(*) FROM kv`)
		if err == nil {
			if n.Int() < 3000 {
				t.Fatalf("degraded read lost rows: %d", n.Int())
			}
			break
		}
		if !errors.Is(err, ErrOverloaded) && !errors.Is(err, ErrMemoryBudgetExceeded) && !errors.Is(err, ErrInternal) {
			t.Fatalf("degraded read: %v", err)
		}
		if time.Now().After(probeDeadline) {
			t.Fatalf("degraded read never got through the storm: %v", err)
		}
		time.Sleep(time.Millisecond)
	}

	// Space returns; recovery must restore read-write service while the
	// storm keeps blowing.
	fvfs.Heal()
	if err := d.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	time.Sleep(30 * time.Millisecond)

	close(stop)
	wg.Wait()
	if e := bad.Load(); e != nil {
		t.Fatalf("goroutine hit a non-tolerated error: %v", *e)
	}
	if injected.Load() == 0 {
		t.Fatal("the storm never reached an injected executor panic")
	}

	// The governor and snapshot trackers must be fully drained, and the
	// engine genuinely read-write again.
	testExecPanic.Store(nil)
	if d.Failed() {
		t.Fatal("still degraded after Recover")
	}
	if _, err := db.Exec(`INSERT INTO kv VALUES (999999, 'final')`); err != nil {
		t.Fatalf("write after storm: %v", err)
	}
	acked.Store(int64(999999), true)
	if used := db.Stats().Governor.MemoryUsed; used != 0 {
		t.Fatalf("%d bytes still reserved after the storm", used)
	}
	if p := db.Stats().Snapshots.Pinned; p != 0 {
		t.Fatalf("%d snapshot pins leaked", p)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Ack-implies-durable across the whole storm: every key whose
	// INSERT returned nil is present after reopening the directory.
	rd := mustOpenDurable(t, mem, DurableOptions{})
	defer rd.Close()
	count := 0
	var missing []int64
	acked.Range(func(key, _ any) bool {
		count++
		k := key.(int64)
		n, err := rd.DB().QueryScalar(`SELECT COUNT(*) FROM kv WHERE k = ?`, NewInt(k))
		if err != nil || n.Int() != 1 {
			missing = append(missing, k)
		}
		return len(missing) < 10
	})
	if len(missing) > 0 {
		t.Fatalf("%d acked keys missing after reopen (first: %v) of %d acked", len(missing), missing, count)
	}
	if count == 0 {
		t.Fatal("no writes were ever acked; the battery exercised nothing")
	}
	checkIndexes(t, rd.DB())
}
