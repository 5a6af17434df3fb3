package sqldb

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// The fault-injection battery: run a fixed workload against a DurableDB
// on a fault-injecting in-memory VFS, kill the engine at every byte (and
// metadata-operation) boundary, reopen, and check the recovered state
// against a differential baseline built on a plain in-memory Database.
//
// Two crash modes bracket reality:
//
//   - CrashLoseUnsynced (power loss): the recovered state must equal the
//     baseline after exactly the acknowledged operations — an acked
//     commit may never be lost, an unacked one may never appear.
//   - CrashKeepAll (process kill, OS survives): the recovered state must
//     be the acked baseline or the acked baseline plus the single
//     in-flight operation (its frame may have reached the page cache
//     whole before the error surfaced).

// crashWorkload is the op sequence the sweep drives. An empty SQL
// string means "checkpoint here", exercising snapshot replacement and
// WAL rotation at every interior byte too.
var crashWorkload = []string{
	`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`,
	`INSERT INTO kv VALUES (1, 'one'), (2, 'two')`,
	`CREATE INDEX kv_v ON kv (v)`,
	`INSERT INTO kv VALUES (3, 'three')`,
	``, // checkpoint
	`UPDATE kv SET v = 'TWO' WHERE k = 2`,
	`DELETE FROM kv WHERE k = 1`,
	`CREATE TABLE tags (t TEXT, n INTEGER)`,
	`INSERT INTO tags VALUES ('a', 1), ('b', 2)`,
	``, // checkpoint
	`INSERT INTO kv VALUES (4, 'four')`,
	`DROP TABLE tags`,
	`UPDATE kv SET v = 'FOUR' WHERE k = 4`,
	``, // checkpoint: the dropped table leaves the snapshot
	`INSERT INTO kv VALUES (5, 'five')`,
}

// pagedCrashWorkload fills three full heap pages, so checkpoints write
// the pages file and a two-page pool evicts, then rewrites rows across
// them, so the second checkpoint finds more dead than live slots and
// moves the live pages to the other pages file (crashSweep checks that
// it did); commits continue after it.
var pagedCrashWorkload = []string{
	`CREATE TABLE pg (k INTEGER)`,
	`INSERT INTO pg VALUES ` + valuesList(40),
	// 1520 more rows: 1560 in all, three full pages and a tail.
	`INSERT INTO pg SELECT a.k + 40 * b.k FROM pg a, pg b WHERE b.k < 38`,
	``, // checkpoint: the full pages go to the pages file
	// Copy-on-write the pages holding the rows this touches.
	`UPDATE pg SET k = -k WHERE k % 400 = 7`,
	``, // checkpoint: switches pages files
	`INSERT INTO pg VALUES (-1)`,
}

// crashCases are the sweeps TestCrashAtEveryOffset runs: a workload
// under a buffer pool cap (0 = unbounded). The paged workload's long
// writes — kilobytes of WAL frame or page image — are sampled (see
// crashBudgets); everything else is crashed at every offset.
var crashCases = []struct {
	name     string // subtest; "" puts the budgets directly under the test
	workload []string
	pool     int
}{
	{"", crashWorkload, 0},
	{"paged", pagedCrashWorkload, 0},
	{"paged,pool=2", pagedCrashWorkload, 2},
}

// valuesList renders (0), (1), ..., (n-1).
func valuesList(n int) string {
	rows := make([]string, n)
	for i := range rows {
		rows[i] = fmt.Sprintf("(%d)", i)
	}
	return strings.Join(rows, ", ")
}

// crashBaselines returns baseline databases: baselines[k] is the state
// after the first k non-checkpoint operations of workload succeeded.
func crashBaselines(t *testing.T, workload []string) []*Database {
	t.Helper()
	var sqls []string
	for _, op := range workload {
		if op != "" {
			sqls = append(sqls, op)
		}
	}
	baselines := make([]*Database, len(sqls)+1)
	for k := 0; k <= len(sqls); k++ {
		db := New()
		for _, sql := range sqls[:k] {
			db.MustExec(sql)
		}
		baselines[k] = db
	}
	return baselines
}

// runCrashWorkload drives workload against a DurableDB opened on fs
// with the given pool cap, returning how many DML/DDL ops were
// acknowledged (err == nil). Fail-stop guarantees the acked ops are a
// prefix of the workload.
func runCrashWorkload(fs VFS, workload []string, pool int) (acked int, openErr error) {
	d, err := OpenDurable(fs, DurableOptions{BufferPoolPages: pool})
	if err != nil {
		return 0, err
	}
	sawErr := false
	for _, op := range workload {
		if op == "" {
			if err := d.Checkpoint(); err != nil {
				sawErr = true
			}
			continue
		}
		if _, err := d.DB().Exec(op); err != nil {
			sawErr = true
		} else if !sawErr {
			acked++
		}
	}
	// No Close: the process "dies" holding its handles.
	return acked, nil
}

// matchBaseline returns the index of the baseline the recovered
// database equals, or -1.
func matchBaseline(db *Database, baselines []*Database) int {
	for k, base := range baselines {
		if dbStateDiff(base, db) == "" {
			return k
		}
	}
	return -1
}

// spanVFS records the budget span of every file write made through it,
// so a sweep can tell long writes from short ones.
type spanVFS struct {
	*FaultVFS
	spans [][2]int64
}

type spanFile struct {
	File
	v *spanVFS
}

func (v *spanVFS) wrap(f File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return spanFile{f, v}, nil
}

func (v *spanVFS) Create(name string) (File, error) { return v.wrap(v.FaultVFS.Create(name)) }
func (v *spanVFS) OpenRW(name string) (File, error) { return v.wrap(v.FaultVFS.OpenRW(name)) }

func (f spanFile) record(start int64) { f.v.spans = append(f.v.spans, [2]int64{start, f.v.Written()}) }

func (f spanFile) Write(p []byte) (int, error) {
	defer f.record(f.v.Written())
	return f.File.Write(p)
}

func (f spanFile) WriteAt(p []byte, off int64) (int, error) {
	defer f.record(f.v.Written())
	return f.File.WriteAt(p, off)
}

// crashBudgets lists the budgets to crash at: every one in [0, total],
// except inside a write longer than 64 units, of which only the first
// 8 (a WAL frame's length and CRC), the last 2 and every 512th are
// kept. Cut anywhere past that, a torn write looks the same to
// recovery: a WAL frame fails its CRC, and a page image or snapshot
// temp file is referenced by nothing.
func crashBudgets(total int64, spans [][2]int64) []int64 {
	skip := make([]bool, total+1)
	for _, s := range spans {
		if s[1]-s[0] <= 64 {
			continue
		}
		for b := s[0] + 8; b < s[1]-2; b++ {
			skip[b] = (b-s[0])%512 != 0
		}
	}
	var budgets []int64
	for b, sk := range skip {
		if !sk {
			budgets = append(budgets, int64(b))
		}
	}
	return budgets
}

func TestCrashAtEveryOffset(t *testing.T) {
	for _, c := range crashCases {
		if c.name == "" {
			crashSweep(t, c.workload, c.pool, false)
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			crashSweep(t, c.workload, c.pool, true)
		})
	}
}

// stateKey renders a database's tables, rows and index definitions
// canonically: two databases are in the same state when their keys
// match (dbStateDiff explains a mismatch).
func stateKey(db *Database) string {
	var b strings.Builder
	for _, name := range db.TableNames() {
		t := db.readState().table(name)
		fmt.Fprintf(&b, "%s %+v %+v\n%s\n", name, *t.def, indexDefs(t), strings.Join(rowImages(t), "\x00"))
	}
	return b.String()
}

// crashSweep crashes workload at every budget offset and checks
// recovery under both crash modes. A paged sweep samples long writes
// and requires the workload to have switched pages files.
func crashSweep(t *testing.T, workload []string, pool int, paged bool) {
	baselines := crashBaselines(t, workload)
	keys := make([]string, len(baselines))
	for k, b := range baselines {
		keys[k] = stateKey(b)
	}
	// First pass, no faults: measure the total operation budget and
	// where the writes fall in it.
	probe := &spanVFS{FaultVFS: NewFaultVFS(NewMemVFS(), -1)}
	acked, err := runCrashWorkload(probe, workload, pool)
	if err != nil {
		t.Fatalf("fault-free open: %v", err)
	}
	if want := len(baselines) - 1; acked != want {
		t.Fatalf("fault-free run acked %d ops, want %d", acked, want)
	}
	total := probe.Written()
	if total == 0 {
		t.Fatal("workload wrote nothing")
	}
	var spans [][2]int64
	if paged {
		if _, err := probe.Size(pagesFiles[1]); err != nil {
			t.Fatalf("no checkpoint switched to %s: %v", pagesFiles[1], err)
		}
		spans = probe.spans
	}
	budgets := crashBudgets(total, spans)
	if testing.Short() {
		var some []int64
		for i := 0; i < len(budgets); i += len(budgets)/97 + 1 {
			some = append(some, budgets[i])
		}
		budgets = some
	}

	opts := DurableOptions{BufferPoolPages: pool}
	for _, budget := range budgets {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			inner := NewMemVFS()
			fvfs := NewFaultVFS(inner, budget)
			acked, openErr := runCrashWorkload(fvfs, workload, pool)
			if openErr != nil && !errors.Is(openErr, ErrInjected) {
				t.Fatalf("open failed with a non-injected error: %v", openErr)
			}

			// Power loss: exactly the acked ops survive.
			lost := inner.Clone()
			lost.Crash(CrashLoseUnsynced)
			d, err := OpenDurable(lost, opts)
			if err != nil {
				t.Fatalf("recovery (lose-unsynced): %v", err)
			}
			if stateKey(d.DB()) != keys[acked] {
				t.Fatalf("lose-unsynced: recovered state is not the acked baseline (%d acked): %s", acked, dbStateDiff(baselines[acked], d.DB()))
			}
			checkIndexes(t, d.DB())
			// The recovered store must accept new writes.
			if _, err := d.DB().Exec(`CREATE TABLE post (x INTEGER)`); err != nil {
				t.Fatalf("recovered store rejects writes: %v", err)
			}
			d.Close()

			// Process kill: acked ops survive, plus at most the one
			// in-flight op whose frame reached the cache whole.
			kept := inner.Clone()
			kept.Crash(CrashKeepAll)
			d2, err := OpenDurable(kept, opts)
			if err != nil {
				t.Fatalf("recovery (keep-all): %v", err)
			}
			if got := stateKey(d2.DB()); got != keys[acked] && (acked+1 == len(keys) || got != keys[acked+1]) {
				t.Fatalf("keep-all: recovered state is neither baseline %d nor %d", acked, acked+1)
			}
			checkIndexes(t, d2.DB())
			d2.Close()
		})
	}
}

// TestCrashSweepNoSync checks the weaker NoSync contract: acked commits
// may be lost on power loss, but recovery always lands on some op
// prefix — never a torn or corrupt state.
func TestCrashSweepNoSync(t *testing.T) {
	baselines := crashBaselines(t, crashWorkload)
	probe := NewFaultVFS(NewMemVFS(), -1)
	runNoSync := func(fs VFS) {
		d, err := OpenDurable(fs, DurableOptions{NoSync: true})
		if err != nil {
			return
		}
		for _, op := range crashWorkload {
			if op == "" {
				d.Checkpoint()
				continue
			}
			d.DB().Exec(op)
		}
	}
	runNoSync(probe)
	total := probe.Written()

	step := total/53 + 1
	for budget := int64(0); budget <= total; budget += step {
		inner := NewMemVFS()
		runNoSync(NewFaultVFS(inner, budget))
		for _, mode := range []CrashMode{CrashLoseUnsynced, CrashKeepAll} {
			fs := inner.Clone()
			fs.Crash(mode)
			d, err := OpenDurable(fs, DurableOptions{})
			if err != nil {
				t.Fatalf("budget %d mode %d: recovery: %v", budget, mode, err)
			}
			if k := matchBaseline(d.DB(), baselines); k < 0 {
				t.Fatalf("budget %d mode %d: recovered state is not any op prefix", budget, mode)
			}
			checkIndexes(t, d.DB())
			d.Close()
		}
	}
}

// TestConcurrentCommitsWithCheckpoint is the -race durability test:
// several committers write disjoint keys while checkpoints run
// concurrently; after a simulated crash every acknowledged write is
// present, every unacknowledged one absent, and the B-tree indexes
// re-derive to match the heap. The commits fill three heap pages, so a
// two-page pool evicts while commits are in flight, each page only once
// the WAL fsync covering its seal has landed.
func TestConcurrentCommitsWithCheckpoint(t *testing.T) {
	const writers, perWriter, perCommit = 4, 40, 16
	const total = writers * perWriter * perCommit
	insert := `INSERT INTO kv VALUES ` + strings.TrimSuffix(strings.Repeat("(?, ?), ", perCommit), ", ")

	for _, pool := range []int{0, 2} {
		for _, inject := range []bool{false, true} {
			name := "clean"
			if inject {
				name = "fault-midstream"
			}
			if pool > 0 {
				name += fmt.Sprintf(",pool=%d", pool)
			}
			t.Run(name, func(t *testing.T) {
				inner := NewMemVFS()
				fvfs := NewFaultVFS(inner, -1)
				opts := DurableOptions{BufferPoolPages: pool}
				d, err := OpenDurable(fvfs, opts)
				if err != nil {
					t.Fatal(err)
				}
				db := d.DB()
				db.MustExec(`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`)
				db.MustExec(`CREATE INDEX kv_v ON kv (v)`)
				if inject {
					// Let the schema through, then pull the plug late in
					// the concurrent phase: past the third page's seal, so
					// a bounded pool has evicted.
					budget := int64(30000)
					if pool > 0 {
						budget = 45000
					}
					fvfs.mu.Lock()
					fvfs.failAfter = fvfs.written + budget
					fvfs.mu.Unlock()
				}

				var mu sync.Mutex
				ackedKeys := map[int64]bool{}
				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < perWriter; i++ {
							first := int64((w*perWriter + i) * perCommit)
							var args []Value
							for k := first; k < first+perCommit; k++ {
								args = append(args, NewInt(k), NewText(fmt.Sprintf("val-%d", k)))
							}
							if _, err := db.Exec(insert, args...); err == nil {
								mu.Lock()
								for k := first; k < first+perCommit; k++ {
									ackedKeys[k] = true
								}
								mu.Unlock()
							}
						}
					}()
				}
				// Checkpoint concurrently with the committers.
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 3; i++ {
						d.Checkpoint()
					}
				}()
				wg.Wait()

				if !inject && len(ackedKeys) != total {
					t.Fatalf("clean run acked %d/%d writes", len(ackedKeys), total)
				}
				if inject && d.Failed() && len(ackedKeys) == total {
					t.Fatal("engine failed but every write was acknowledged")
				}
				if bp := db.Stats().BufferPool; pool > 0 && !inject && bp.Evictions == 0 {
					t.Fatalf("the %d-page pool never evicted during the commits: %+v", pool, bp)
				}

				// Power-loss crash, then recover on the bare inner VFS.
				crashed := inner.Clone()
				crashed.Crash(CrashLoseUnsynced)
				d2, err := OpenDurable(crashed, opts)
				if err != nil {
					t.Fatalf("recovery: %v", err)
				}
				rdb := d2.DB()
				tbl := rdb.readState().table("kv")
				if tbl == nil {
					t.Fatal("kv table missing after recovery")
				}
				got := map[int64]bool{}
				for rid := int64(0); rid < tbl.slotCount(); rid++ {
					if row := tbl.row(rid); row != nil {
						got[row[0].I] = true
					}
				}
				for k := range ackedKeys {
					if !got[k] {
						t.Errorf("acknowledged key %d lost", k)
					}
				}
				for k := range got {
					if !ackedKeys[k] {
						t.Errorf("unacknowledged key %d resurrected", k)
					}
				}
				checkIndexes(t, rdb)
				// The secondary index answers queries consistently with the heap.
				rows, err := rdb.Query(`SELECT k FROM kv WHERE v = ?`, NewText("val-0"))
				if err != nil {
					t.Fatal(err)
				}
				if ackedKeys[0] != (rows.Len() == 1) {
					t.Fatalf("index lookup for key 0: acked=%v rows=%d", ackedKeys[0], rows.Len())
				}
				d2.Close()
			})
		}
	}
}
