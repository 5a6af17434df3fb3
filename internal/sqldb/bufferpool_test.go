package sqldb

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"syscall"
	"testing"
)

// fillWide inserts n rows of (id, grp, val) into table t on db.
func fillWide(t *testing.T, db *Database, n int) {
	t.Helper()
	batch := make([][]Value, 0, 1024)
	for i := 0; i < n; i++ {
		batch = append(batch, []Value{
			NewInt(int64(i)),
			NewInt(int64(i % 97)),
			NewText(fmt.Sprintf("val-%06d", i)),
		})
		if len(batch) == cap(batch) {
			if _, err := db.BulkInsert("t", batch); err != nil {
				t.Fatalf("bulk insert: %v", err)
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		if _, err := db.BulkInsert("t", batch); err != nil {
			t.Fatalf("bulk insert: %v", err)
		}
	}
}

func dumpRows(t *testing.T, db *Database, q string) string {
	t.Helper()
	rows, err := db.Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	var sb strings.Builder
	for _, r := range rows.Data {
		for i, v := range r {
			if i > 0 {
				sb.WriteByte('|')
			}
			if v.IsNull() {
				sb.WriteString("<null>")
			} else {
				sb.WriteString(v.Text())
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestTinyPoolDifferential runs the same workload — bulk load well past
// the page cap, point and range queries, COW updates and deletes —
// against an unbounded pool and a 4-page pool, asserting identical
// results throughout and that the small pool actually cycled (misses,
// evictions, spills all nonzero) while the unbounded one never did.
func TestTinyPoolDifferential(t *testing.T) {
	const rows = 20 * heapPageSize // 20 full pages plus change
	ddl := []string{
		`CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, val TEXT)`,
		`CREATE INDEX t_grp ON t (grp)`,
	}
	unbounded, pooled := New(), New()
	pooled.SetBufferPool(4)
	for _, db := range []*Database{unbounded, pooled} {
		for _, s := range ddl {
			db.MustExec(s)
		}
		fillWide(t, db, rows+7)
	}
	mutate := []string{
		`UPDATE t SET val = 'touched' WHERE grp = 13`,
		`DELETE FROM t WHERE grp = 55`,
		`UPDATE t SET grp = 200 WHERE id < 600`,
		`INSERT INTO t VALUES (999999, 201, 'tail')`,
	}
	queries := []string{
		`SELECT COUNT(*), SUM(grp) FROM t`,
		`SELECT id, val FROM t WHERE grp = 13 ORDER BY id`,
		`SELECT id FROM t WHERE grp = 55`,
		`SELECT grp, COUNT(*) FROM t GROUP BY grp ORDER BY grp`,
		`SELECT id, grp, val FROM t WHERE id >= 5000 AND id < 5100 ORDER BY id`,
	}
	check := func(stage string) {
		for _, q := range queries {
			want := dumpRows(t, unbounded, q)
			got := dumpRows(t, pooled, q)
			if got != want {
				t.Fatalf("%s: %s diverges\n-- unbounded --\n%.2000s\n-- pooled --\n%.2000s", stage, q, want, got)
			}
		}
	}
	check("after load")
	for _, m := range mutate {
		unbounded.MustExec(m)
		pooled.MustExec(m)
	}
	check("after mutations")

	bp := pooled.Stats().BufferPool
	if bp.Cap != 4 {
		t.Fatalf("cap = %d, want 4", bp.Cap)
	}
	if bp.Misses == 0 || bp.Evictions == 0 || bp.Spilled == 0 {
		t.Fatalf("pool did not cycle: %+v", bp)
	}
	// Whether the scans above hit depends on how they interleave; a
	// point lookup repeated back to back finds its page resident.
	const lookup = `SELECT val FROM t WHERE id = 5000`
	dumpRows(t, pooled, lookup)
	before := pooled.Stats().BufferPool.Hits
	dumpRows(t, pooled, lookup)
	if after := pooled.Stats().BufferPool.Hits; after <= before {
		t.Fatalf("repeated point lookup recorded no pool hit: %d -> %d", before, after)
	}
	if bp.ReadErrors != 0 || bp.SpillErrors != 0 {
		t.Fatalf("unexpected IO errors: %+v", bp)
	}
	if up := unbounded.Stats().BufferPool; up.Spilled != 0 || up.Evictions != 0 || up.Misses != 0 {
		t.Fatalf("unbounded pool spilled or faulted: %+v", up)
	}
}

// TestBoundingAnUnboundedPool caps a pool after its pages were sealed
// unbounded: the resident pages are enrolled and evicted down to the
// cap, and lifting the cap again keeps every answer.
func TestBoundingAnUnboundedPool(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, val TEXT)`)
	fillWide(t, db, 10*heapPageSize)
	const q = `SELECT grp, COUNT(*), MAX(val) FROM t GROUP BY grp ORDER BY grp`
	want := dumpRows(t, db, q)
	for _, pool := range []int{2, 0, 3} {
		db.SetBufferPool(pool)
		if got := dumpRows(t, db, q); got != want {
			t.Fatalf("pool %d: answer changed", pool)
		}
		bp := db.Stats().BufferPool
		if pool > 0 && (bp.Resident > pool || bp.Evictions == 0) {
			t.Fatalf("pool %d not enforced: %+v", pool, bp)
		}
		if pool == 0 && bp.Resident != 0 {
			t.Fatalf("unbounded pool still tracks %d resident pages", bp.Resident)
		}
	}
}

// TestPageInFaultSweep drives read faults into the pages file of a
// durable database with a tiny pool: each injected fault must fail only
// the query that needed the page — with ErrPageIO in its chain — and
// leave the pool and snapshot intact, so after Heal the same query
// succeeds with correct results.
func TestPageInFaultSweep(t *testing.T) {
	const rows = 12 * heapPageSize
	fv := NewFaultVFS(NewMemVFS(), -1)
	dopts := DurableOptions{BufferPoolPages: 2}

	d, err := OpenDurable(fv, dopts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	db := d.DB()
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, val TEXT)`)
	db.MustExec(`CREATE INDEX t_grp ON t (grp)`)
	fillWide(t, db, rows)
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// Rewrite every page: the next checkpoint finds the pages file all
	// dead and moves to the other one, which the sweep then reads.
	db.MustExec(`UPDATE t SET grp = grp + 1000 WHERE id % 512 = 0`)
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if _, err := fv.Size(pagesFiles[1]); err != nil {
		t.Fatalf("the checkpoint did not switch pages files: %v", err)
	}
	if _, err := fv.Size(pagesFiles[0]); err == nil {
		t.Fatalf("the superseded pages file outlived the checkpoint")
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Reopen: the checkpoint adopts pages lazily, so queries page in
	// from the pages file through the fault seam.
	d, err = OpenDurable(fv, dopts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d.Close()
	db = d.DB()

	const q = `SELECT COUNT(*), SUM(id) FROM t`
	want := dumpRows(t, db, q)

	faults := 0
	for step := int64(0); ; step += 12 << 10 {
		fv.SetReadFailAfter(step)
		_, qerr := db.Query(q)
		tripped := fv.ReadFailed()
		fv.Heal()
		if qerr != nil {
			if !errors.Is(qerr, ErrPageIO) {
				t.Fatalf("step %d: error lacks ErrPageIO: %v", step, qerr)
			}
			if !tripped {
				t.Fatalf("step %d: query failed without an injected fault: %v", step, qerr)
			}
			faults++
			// The failed page-in must poison nothing: the same query runs
			// clean immediately after the fault clears.
			got := dumpRows(t, db, q)
			if got != want {
				t.Fatalf("step %d: post-heal result diverges:\n%s\nvs\n%s", step, got, want)
			}
			continue
		}
		if !tripped {
			break // budget larger than the whole run: sweep complete
		}
		// Fault fired but the query survived (page was still resident) —
		// acceptable; results must still be right.
	}
	if faults == 0 {
		t.Fatalf("sweep injected no page-in faults (pool never paged?)")
	}
	bp := db.Stats().BufferPool
	if bp.ReadErrors == 0 {
		t.Fatalf("no read errors counted despite %d faults: %+v", faults, bp)
	}

	// Writes still work after healed read faults.
	db.MustExec(`INSERT INTO t VALUES (888888, 12, 'post-fault')`)
	after, err := db.Query(`SELECT val FROM t WHERE id = 888888`)
	if err != nil || after.Len() != 1 {
		t.Fatalf("post-fault insert unreadable: %v %d", err, after.Len())
	}
}

// pagesSyncVFS fails the next n Syncs of a pages file with ENOSPC.
type pagesSyncVFS struct {
	VFS
	mu   sync.Mutex
	fail int
}

func (v *pagesSyncVFS) failSyncs(n int) {
	v.mu.Lock()
	v.fail = n
	v.mu.Unlock()
}

func (v *pagesSyncVFS) wrap(name string, f File, err error) (File, error) {
	if err != nil || (name != pagesFiles[0] && name != pagesFiles[1]) {
		return f, err
	}
	return &pagesSyncFile{File: f, v: v}, nil
}

func (v *pagesSyncVFS) Create(name string) (File, error) {
	f, err := v.VFS.Create(name)
	return v.wrap(name, f, err)
}

func (v *pagesSyncVFS) OpenRW(name string) (File, error) {
	f, err := v.VFS.OpenRW(name)
	return v.wrap(name, f, err)
}

type pagesSyncFile struct {
	File
	v *pagesSyncVFS
}

func (f *pagesSyncFile) Sync() error {
	f.v.mu.Lock()
	defer f.v.mu.Unlock()
	if f.v.fail > 0 {
		f.v.fail--
		return syscall.ENOSPC
	}
	return f.File.Sync()
}

// TestRecoverAfterFailedPagesSwitch fails the pages-file sync of a
// checkpoint that moves to the other pages file, so the installed
// snapshot still names the old one, then recovers: cleanly, after one
// failed attempt, and with every attempt failing. Recovery must never
// recreate the file the installed snapshot names, so the live state and
// a reopen after either crash mode equal the acked baseline.
func TestRecoverAfterFailedPagesSwitch(t *testing.T) {
	cases := []struct {
		name          string
		pool, recFail int
	}{
		{"clean", 0, 0},
		{"retry", 0, 1},
		{"retry,pool=2", 2, 1},
		{"fails", 0, recoverAttempts},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mem := NewMemVFS()
			fs := &pagesSyncVFS{VFS: mem}
			opts := DurableOptions{BufferPoolPages: c.pool}
			d := mustOpenDurable(t, fs, opts)
			defer d.Close()
			base := New()
			exec := func(sql string) {
				t.Helper()
				d.DB().MustExec(sql)
				base.MustExec(sql)
			}
			exec(`CREATE TABLE pg (k INTEGER)`)
			exec(`INSERT INTO pg VALUES ` + valuesList(40))
			exec(`INSERT INTO pg SELECT a.k + 40 * b.k FROM pg a, pg b WHERE b.k < 38`)
			if err := d.Checkpoint(); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			// Not idempotent: replaying it over pages that already hold
			// its effect would show.
			exec(`UPDATE pg SET k = k + 400 WHERE k % 400 = 7`)
			fs.failSyncs(1)
			if err := d.Checkpoint(); err == nil {
				t.Fatal("checkpoint survived a failed pages-file sync")
			}
			if _, err := mem.Size(pagesFiles[1]); err != nil {
				t.Fatalf("the failed checkpoint did not switch pages files: %v", err)
			}

			fs.failSyncs(c.recFail)
			err := d.Recover()
			fs.failSyncs(0)
			if c.recFail >= recoverAttempts {
				if err == nil {
					t.Fatal("recover succeeded with every pages-file sync failing")
				}
			} else {
				if err != nil {
					t.Fatalf("recover: %v", err)
				}
				exec(`INSERT INTO pg VALUES (-1)`)
				if err := d.Checkpoint(); err != nil {
					t.Fatalf("checkpoint after recover: %v", err)
				}
			}
			if diff := dbStateDiff(base, d.DB()); diff != "" {
				t.Fatalf("live state is not the acked baseline: %s", diff)
			}
			for _, mode := range []CrashMode{CrashLoseUnsynced, CrashKeepAll} {
				crashed := mem.Clone()
				crashed.Crash(mode)
				rd, err := OpenDurable(crashed, opts)
				if err != nil {
					t.Fatalf("crash mode %d: reopen: %v", mode, err)
				}
				if diff := dbStateDiff(base, rd.DB()); diff != "" {
					t.Fatalf("crash mode %d: recovered state is not the acked baseline: %s", mode, diff)
				}
				checkIndexes(t, rd.DB())
				rd.Close()
			}
		})
	}
}

// TestBufferPoolStatsSurface asserts Database.Stats carries the pool
// block with a meaningful pinned high-water mark.
func TestBufferPoolStatsSurface(t *testing.T) {
	db := New()
	db.SetBufferPool(3)
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, val TEXT)`)
	fillWide(t, db, 8*heapPageSize)
	if _, err := db.Query(`SELECT COUNT(*) FROM t`); err != nil {
		t.Fatalf("scan: %v", err)
	}
	bp := db.Stats().BufferPool
	if bp.Cap != 3 {
		t.Fatalf("cap = %d", bp.Cap)
	}
	if bp.PinnedHighWater == 0 {
		t.Fatalf("pinned high water never moved: %+v", bp)
	}
	if bp.Pinned != 0 {
		t.Fatalf("pins leaked: %+v", bp)
	}
	if bp.Resident > bp.Cap+int(bp.Pinned)+1 {
		t.Fatalf("resident %d far above cap %d: %+v", bp.Resident, bp.Cap, bp)
	}
}
