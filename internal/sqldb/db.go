package sqldb

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// dbState is one immutable published version of the entire database:
// the catalog plus every table version, stamped with the schema epoch
// and the commit sequence that produced it. Readers load the current
// state with one atomic pointer read and run against it with no lock
// held; writers clone it, mutate the clone privately, and publish at
// commit. A state, once published, is never mutated.
type dbState struct {
	// seq is the commit sequence of the publish. It is unified with the
	// WAL: under a DurableDB every committed record's WAL sequence is
	// the state's seq, so "snapshot at seq S" names both an in-memory
	// version and a WAL position.
	seq uint64
	// epoch is the schema version, advanced by every DDL statement (and
	// by SetParallelism). Compiled plans — cached or prepared — are
	// valid only for the epoch they were planned at (see plancache.go).
	epoch       uint64
	tables      map[string]*table
	indexes     map[string]*IndexDef // index name -> def (table lookup)
	parallelism int
}

func (st *dbState) table(name string) *table {
	return st.tables[lowerName(name)]
}

func (st *dbState) shallowClone() *dbState {
	c := &dbState{
		seq:         st.seq,
		epoch:       st.epoch,
		parallelism: st.parallelism,
		tables:      make(map[string]*table, len(st.tables)),
		indexes:     make(map[string]*IndexDef, len(st.indexes)),
	}
	for k, v := range st.tables {
		c.tables[k] = v
	}
	for k, v := range st.indexes {
		c.indexes[k] = v
	}
	return c
}

func lowerName(name string) string { return strings.ToLower(name) }

// Database is an in-memory relational database with snapshot-isolated
// reads: queries, EXPLAIN ANALYZE and reconstruction pin the latest
// published dbState and never block (or are blocked by) writers.
// Writers serialize among themselves on writeMu, mutate a private
// copy-on-write clone of the state, and publish it atomically at
// commit.
type Database struct {
	state   atomic.Pointer[dbState]
	writeMu sync.Mutex
	// head is the newest staged state — committed in memory, possibly
	// still awaiting its WAL fsync. Guarded by writeMu. Writers clone
	// head (not the published state) so the commit chain stays linear
	// while earlier commits are still in flight in the WAL pipeline;
	// readers keep seeing only the published (ack-complete) state.
	head *dbState
	// stageTicket numbers commits in stage order (guarded by writeMu);
	// publication happens strictly in ticket order so the published
	// state chain is byte-identical to serial execution.
	stageTicket uint64
	// pubMu/pubCond/pubTicket gate publication: a commit whose WAL fsync
	// finished out of order waits here for its predecessors.
	pubMu     sync.Mutex
	pubCond   *sync.Cond
	pubTicket uint64
	// gen numbers writer transactions; copy-on-write storage uses it to
	// distinguish nodes/pages a transaction owns (mutate in place) from
	// shared ones (copy first).
	gen atomic.Uint64
	// seq issues commit sequence numbers when no durability layer is
	// attached; with a commit hook, the WAL assigns them (see
	// stageCommit in durable.go).
	seq   atomic.Uint64
	plans *planCache
	// metrics is the runtime observability registry: query-latency
	// histograms by SQL template, per-operator totals, slow-query log.
	// It has its own mutex and is safe from any goroutine.
	metrics *metricsRegistry
	// snaps tracks snapshot activity: acquisitions, pinned snapshots and
	// their ages, writer publish waits, superseded-version counts.
	snaps *snapTracker
	// commitHook, when set (by DurableDB), stages one logical record per
	// committed mutation while writeMu is held, so log order equals
	// commit order. It returns a wait function the writer invokes after
	// releasing writeMu; wait blocks until the record's WAL frame is
	// fsynced (batched with concurrently arriving commits). A non-nil
	// error from either phase means the commit is not durable: the
	// writer then discards its pending state without publishing, so the
	// published state never diverges from the WAL. A nil wait means the
	// record needs no post-stage durability step (group-buffered
	// records, stub loggers).
	commitHook func(*walRecord) (wait func() error, err error)
	// memBudget is the engine-wide memory pool queries reserve their
	// working set from (total <= 0 = unlimited); queryMemLimit caps one
	// query's reservation. See governor.go.
	memBudget     memPool
	queryMemLimit atomic.Int64
	// gate, when non-nil, bounds concurrent query execution with a
	// finite wait queue (admission control).
	gate atomic.Pointer[admissionGate]
	// pool is the buffer pool holding every sealed heap page: with a
	// non-zero cap it bounds how many stay resident, spilling evicted
	// ones to disk (bufferpool.go). Always non-nil; cap 0 keeps every
	// page in memory.
	pool *pageStore
}

// setCommitLogger attaches (or detaches, with nil) a synchronous commit
// logger: the record is durable (or rejected) by the time the logger
// returns. Kept for stub loggers in tests; DurableDB attaches the
// two-phase pipeline via setCommitHook.
func (db *Database) setCommitLogger(fn func(*walRecord) error) {
	if fn == nil {
		db.setCommitHook(nil)
		return
	}
	db.setCommitHook(func(rec *walRecord) (func() error, error) {
		return nil, fn(rec)
	})
}

// setCommitHook attaches (or detaches, with nil) the durability layer's
// two-phase commit pipeline.
func (db *Database) setCommitHook(fn func(*walRecord) (func() error, error)) {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	db.commitHook = fn
}

// New creates an empty database.
func New() *Database {
	db := &Database{
		plans:   newPlanCache(defaultPlanCacheCap),
		metrics: newMetricsRegistry(),
		snaps:   newSnapTracker(),
	}
	db.pubCond = sync.NewCond(&db.pubMu)
	st := &dbState{
		tables:  map[string]*table{},
		indexes: map[string]*IndexDef{},
	}
	db.pool = newPageStore()
	db.state.Store(st)
	db.head = st
	return db
}

// SetBufferPool caps how many sealed heap pages stay resident; beyond
// the cap, pages spill to disk and fault back in on demand. 0 means
// unbounded (the default): every page stays in memory.
func (db *Database) SetBufferPool(pages int) {
	db.pool.setCap(pages, func() (full []*heapPage) {
		for _, t := range db.state.Load().tables {
			full = append(full, t.pages[:t.fullPages()]...)
		}
		return full
	})
}

// BufferPool reports the pool's cap (0 = unbounded).
func (db *Database) BufferPool() int { return int(db.pool.cap.Load()) }

// readState pins the current published state for one read operation.
func (db *Database) readState() *dbState {
	db.snaps.recordAcquire()
	return db.state.Load()
}

// SetMemoryBudget caps the total working-set bytes of all concurrently
// executing queries (hash-join builds, sorts, aggregation tables,
// materialized results). n <= 0 disables the budget. A query whose
// charge overruns the pool aborts with ErrMemoryBudgetExceeded;
// concurrent queries and writers are unaffected.
func (db *Database) SetMemoryBudget(n int64) {
	if n < 0 {
		n = 0
	}
	db.memBudget.total.Store(n)
}

// SetQueryMemoryLimit caps one query's working-set bytes independently
// of the shared engine budget. n <= 0 disables the per-query limit.
func (db *Database) SetQueryMemoryLimit(n int64) {
	if n < 0 {
		n = 0
	}
	db.queryMemLimit.Store(n)
}

// SetAdmissionControl bounds concurrent query execution: up to
// maxConcurrent queries run at once, up to maxQueue more wait for a
// slot (honoring their context deadline), and beyond that new queries
// are rejected immediately with ErrOverloaded. maxConcurrent <= 0
// disables admission control.
func (db *Database) SetAdmissionControl(maxConcurrent, maxQueue int) {
	db.gate.Store(newAdmissionGate(maxConcurrent, maxQueue))
}

// newMemAccountant builds the accountant for one query, or nil when no
// budget is configured (the common case: zero overhead).
func (db *Database) newMemAccountant() *memAccountant {
	limit := db.queryMemLimit.Load()
	total := db.memBudget.total.Load()
	if limit <= 0 && total <= 0 {
		return nil
	}
	m := &memAccountant{limit: limit}
	if total > 0 {
		m.pool = &db.memBudget
	}
	return m
}

// runGuarded executes a compiled plan to completion behind the
// executor panic barrier: a panic anywhere below (operator code,
// expression evaluation) becomes a typed ErrInternal result
// for this query alone. Gather workers install their own barriers
// (parallel.go) so a worker panic drains the segment and surfaces
// here as an ordinary error.
func runGuarded(ctx *evalCtx, root planNode) (data [][]Value, err error) {
	defer recoverToError(&err)
	return materialize(ctx, root)
}

// setSeq forces the commit sequence (and the published state's seq) to
// n. The durability layer calls it after recovery so the in-memory
// sequence exactly matches the WAL high-water mark.
func (db *Database) setSeq(n uint64) {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	db.seq.Store(n)
	base := db.state.Load()
	if base.seq != n {
		st := base.shallowClone()
		st.seq = n
		db.state.Store(st)
		db.head = st
	}
}

// writeTx is one writer transaction: a private clone of the published
// state at begin time. Tables are cloned copy-on-write on first touch
// (wtable); commit logs the statement's record and publishes the clone,
// while abort simply drops it — nothing the transaction did is ever
// visible.
type writeTx struct {
	db   *Database
	base *dbState
	st   *dbState
	gen  uint64
	// done flips when the transaction released writeMu (commit or
	// abort); guard uses it to unwind a panicking writer safely.
	done bool
	// ticket/finished track the publish turn commit staged: if a panic
	// fires after staging but before the turn is consumed, guard
	// consumes it so successors don't block forever.
	ticket   uint64
	finished bool
}

// guard is the writer-side panic barrier: install as
//
//	defer tx.guard(&err)
//
// right after beginWrite. A panic anywhere in the statement body
// becomes a typed ErrInternal, the pending state is discarded
// unpublished, writeMu is released, and any staged publish ticket is
// consumed — a panicking writer never wedges writeMu or the publish
// pipeline.
func (tx *writeTx) guard(errp *error) {
	r := recover()
	if r == nil {
		return
	}
	if !tx.done {
		tx.abort()
	} else if tx.ticket != 0 && !tx.finished {
		tx.db.finishTicket(tx.ticket, nil, 0)
	}
	*errp = internalError(r)
}

// beginWrite acquires the writer slot and clones the newest staged
// state. Cloning head (not the published state) keeps the commit chain
// linear while earlier commits are still waiting on their batched WAL
// fsync: this writer's statement observes every commit serialized
// before it, published or not. If any of those predecessors fails its
// fsync the engine goes fail-stop and this commit fails too, so a
// state built on a doomed predecessor is never published.
func (db *Database) beginWrite() *writeTx {
	waitStart := time.Now()
	db.writeMu.Lock()
	db.snaps.recordPublishWait(time.Since(waitStart))
	base := db.head
	return &writeTx{db: db, base: base, st: base.shallowClone(), gen: db.gen.Add(1)}
}

// wtable returns a writable version of the named table in the pending
// state, cloning the published version on first touch. Nil when the
// table does not exist.
func (tx *writeTx) wtable(name string) *table {
	key := lowerName(name)
	t := tx.st.tables[key]
	if t == nil {
		return nil
	}
	if t.gen != tx.gen {
		t = t.beginWrite(tx.gen)
		tx.st.tables[key] = t
	}
	return t
}

// commit stages rec (nil for a metadata-only change that has no WAL
// effect) and publishes the pending state. The ack-implies-durable
// contract is structural: with a durability hook attached, the record
// is staged into the WAL pipeline under writeMu (so log order equals
// commit order), writeMu is released so later writers can stage and
// share the next fsync batch, and only after the batch fsync covers
// this record is the state published — in stage order — and the call
// returns. If staging or the fsync fails the pending state is discarded
// — "rollback" is simply never publishing — and the error is returned.
func (tx *writeTx) commit(rec *walRecord) error {
	db := tx.db
	var wait func() error
	if rec != nil {
		if db.commitHook != nil {
			w, err := db.commitHook(rec)
			if err != nil {
				tx.done = true
				db.writeMu.Unlock()
				return err
			}
			wait = w
			tx.st.seq = rec.Seq
			db.seq.Store(rec.Seq)
		} else {
			tx.st.seq = db.seq.Add(1)
		}
	}
	reclaimed := 0
	for k, t := range tx.base.tables {
		if tx.st.tables[k] != t {
			reclaimed++
		}
	}
	// Collect pages this writer filled (or copy-on-wrote full) while
	// writeMu still guards the table versions; they are sealed into the
	// buffer pool only after the version publishes. A failed commit
	// skips registration: its pages refill under the re-anchored count.
	var sealed []*heapPage
	for _, t := range tx.st.tables {
		if t.gen == tx.gen && len(t.sealq) > 0 {
			sealed = append(sealed, t.sealq...)
			t.sealq = nil
		}
	}
	db.head = tx.st
	db.stageTicket++
	ticket := db.stageTicket
	tx.ticket = ticket
	tx.done = true
	db.writeMu.Unlock()

	if wait != nil {
		if err := wait(); err != nil {
			// Not durable: take the publish turn without publishing, so
			// successors (which are failing too) don't block forever.
			db.finishTicket(ticket, nil, 0)
			tx.finished = true
			return err
		}
	}
	db.finishTicket(ticket, tx.st, reclaimed)
	tx.finished = true
	for _, p := range sealed {
		db.pool.add(p, tx.st.seq)
	}
	return nil
}

// finishTicket publishes st (or, with nil, merely consumes the turn of
// a failed commit) strictly in stage-ticket order, so the published
// state sequence is exactly the serial commit chain.
func (db *Database) finishTicket(ticket uint64, st *dbState, reclaimed int) {
	db.pubMu.Lock()
	if db.pubTicket+1 != ticket {
		db.snaps.recordPublishOrderWait()
		for db.pubTicket+1 != ticket {
			db.pubCond.Wait()
		}
	}
	if st != nil {
		db.state.Store(st)
		db.snaps.recordPublish(reclaimed)
	}
	db.pubTicket = ticket
	db.pubCond.Broadcast()
	db.pubMu.Unlock()
}

// abort discards the pending state.
func (tx *writeTx) abort() {
	if tx.done {
		return
	}
	tx.done = true
	tx.db.writeMu.Unlock()
}

// resetStaged discards any staged-but-unpublished chain: it waits until
// every issued publish ticket has been consumed (failed commits consume
// theirs without publishing), then re-anchors head and the sequence
// counter at the published state. The durability layer calls it during
// Recover, after a storage fault doomed the tail of the staged chain.
func (db *Database) resetStaged() {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	db.pubMu.Lock()
	for db.pubTicket != db.stageTicket {
		db.pubCond.Wait()
	}
	db.pubMu.Unlock()
	st := db.state.Load()
	db.head = st
	db.seq.Store(st.seq)
}

// resetToRecovered replaces both the published and staged state with a
// state the durability layer rebuilt from the acknowledged WAL prefix.
// The live engine's parallelism carries over, and the schema epoch
// advances past everything this engine has handed out, so every cached
// plan and prepared statement
// goes stale — the schema may have rolled back to a shape an old epoch
// number described. Caller must have quiesced writers (resetStaged).
func (db *Database) resetToRecovered(st *dbState) {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	cur := db.state.Load()
	ns := st.shallowClone()
	ns.parallelism = cur.parallelism
	if ns.epoch <= cur.epoch {
		ns.epoch = cur.epoch + 1
	}
	db.state.Store(ns)
	db.head = ns
	db.seq.Store(ns.seq)
}

// Rows is a fully materialized query result.
type Rows struct {
	Columns []string
	Data    [][]Value
}

// Len returns the number of result rows.
func (r *Rows) Len() int { return len(r.Data) }

// Queryer is the read surface shared by Database and Snapshot: direct
// SQL queries against either the live database or one pinned version.
type Queryer interface {
	Query(sql string, args ...Value) (*Rows, error)
	QueryScalar(sql string, args ...Value) (Value, error)
}

// Exec runs a DDL or DML statement. It returns the number of affected
// rows (0 for DDL). Args bind ? placeholders in order.
func (db *Database) Exec(sql string, args ...Value) (int, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return 0, err
	}
	return db.ExecStmt(stmt, args...)
}

// ExecStmt runs a pre-parsed statement.
func (db *Database) ExecStmt(stmt Stmt, args ...Value) (int, error) {
	switch s := stmt.(type) {
	case *SelectStmt:
		return 0, errorf("use Query for SELECT statements")
	case *CreateTableStmt:
		return 0, db.createTableDef(s.Def)
	case *CreateIndexStmt:
		return 0, db.createIndex(s)
	case *DropTableStmt:
		return 0, db.dropTable(s.Name)
	case *DropIndexStmt:
		return 0, db.dropIndex(s.Name)
	case *InsertStmt:
		return db.execInsert(s, args)
	case *DeleteStmt:
		return db.execDelete(s, args)
	case *UpdateStmt:
		return db.execUpdate(s, args)
	}
	return 0, errorf("unsupported statement %T", stmt)
}

// MustExec is Exec that panics on error; intended for tests and setup.
func (db *Database) MustExec(sql string, args ...Value) {
	if _, err := db.Exec(sql, args...); err != nil {
		panic(err)
	}
}

// Query runs a SELECT and returns the materialized result. The query
// pins the latest published snapshot and runs lock-free against it.
// Plans are served from the epoch-validated plan cache: repeated
// statements skip parsing and planning entirely. Every execution is
// instrumented: row counters per operator plus end-to-end latency feed
// the metrics registry (see Metrics). A statement may be prefixed with
// EXPLAIN or EXPLAIN ANALYZE, in which case the result is the plan text
// (one line per row in a single "plan" column), the latter after really
// executing the query.
func (db *Database) Query(sql string, args ...Value) (*Rows, error) {
	return db.QueryContext(context.Background(), sql, args...)
}

// QueryContext is Query honoring a context: cancellation or deadline
// expiry aborts execution at the next operator chokepoint and returns
// the context's error.
func (db *Database) QueryContext(qctx context.Context, sql string, args ...Value) (*Rows, error) {
	if mode, rest := stripExplainPrefix(sql); mode != explainNone {
		var text string
		var err error
		if mode == explainAnalyze {
			text, err = db.ExplainAnalyze(rest, args...)
		} else {
			text, err = db.Explain(rest, args...)
		}
		if err != nil {
			return nil, err
		}
		lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
		rows := &Rows{Columns: []string{"plan"}}
		for _, l := range lines {
			rows.Data = append(rows.Data, []Value{NewText(l)})
		}
		return rows, nil
	}
	return db.queryAt(qctx, db.readState(), sql, args)
}

// queryAt executes a SELECT against one pinned state.
func (db *Database) queryAt(qctx context.Context, st *dbState, sql string, args []Value) (*Rows, error) {
	e, _, err := db.cachedPlanFor(st, sql, "Query")
	if err != nil {
		return nil, err
	}
	release, err := db.gate.Load().admit(qctx)
	if err != nil {
		db.metrics.recordQueryError()
		return nil, err
	}
	defer release()
	mem := db.newMemAccountant()
	defer mem.close()
	rs := newRunStats(e.p, false)
	ctx := &evalCtx{snap: st, qctx: qctx, params: args, stats: rs, mem: mem}
	start := time.Now()
	data, err := runGuarded(ctx, e.p.root)
	if err != nil {
		db.metrics.recordQueryError()
		return nil, err
	}
	db.metrics.recordQuery(sql, e.p.template, time.Since(start), len(data), rs)
	return &Rows{Columns: e.cols, Data: data}, nil
}

// QueryScalar runs a SELECT expected to return a single value; it
// returns NULL for an empty result.
func (db *Database) QueryScalar(sql string, args ...Value) (Value, error) {
	return scalarOf(db.Query(sql, args...))
}

func scalarOf(rows *Rows, err error) (Value, error) {
	if err != nil {
		return Null, err
	}
	if len(rows.Data) == 0 || len(rows.Data[0]) == 0 {
		return Null, nil
	}
	return rows.Data[0][0], nil
}

// Prepared is a compiled SELECT that can be executed repeatedly. The
// plan is pinned to the schema epoch it was compiled at: any DDL —
// dropping or recreating a referenced table, creating or dropping an
// index — makes the statement stale, and Query then returns an error
// instead of executing against orphaned storage. Re-Prepare after DDL.
type Prepared struct {
	db    *Database
	sql   string
	plan  *plan
	cols  []string
	epoch uint64
}

// Prepare compiles a SELECT statement once for repeated execution.
func (db *Database) Prepare(sql string) (*Prepared, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, errorf("Prepare requires a SELECT statement")
	}
	st := db.readState()
	start := time.Now()
	p, sch, err := planSelect(st, sel, nil)
	if err != nil {
		return nil, err
	}
	p.template = NormalizeSQL(sql)
	db.metrics.recordPlanCompile(time.Since(start))
	cols := make([]string, len(sch))
	for i, c := range sch {
		cols[i] = c.name
	}
	return &Prepared{db: db, sql: sql, plan: p, cols: cols, epoch: st.epoch}, nil
}

// Query executes the prepared statement against the latest published
// snapshot. It fails with a "prepared statement is stale" error if any
// DDL ran since Prepare: the compiled plan references the exact tables
// and indexes that existed at prepare time, and executing it after a
// schema change would silently read orphaned storage.
func (p *Prepared) Query(args ...Value) (*Rows, error) {
	return p.QueryContext(context.Background(), args...)
}

// QueryContext is Query honoring a context deadline/cancellation.
func (p *Prepared) QueryContext(qctx context.Context, args ...Value) (*Rows, error) {
	st := p.db.readState()
	if p.epoch != st.epoch {
		return nil, fmt.Errorf("sqldb: %w: schema changed since Prepare (%s)", ErrPreparedStale, p.sql)
	}
	release, err := p.db.gate.Load().admit(qctx)
	if err != nil {
		p.db.metrics.recordQueryError()
		return nil, err
	}
	defer release()
	mem := p.db.newMemAccountant()
	defer mem.close()
	rs := newRunStats(p.plan, false)
	ctx := &evalCtx{snap: st, qctx: qctx, params: args, stats: rs, mem: mem}
	start := time.Now()
	data, err := runGuarded(ctx, p.plan.root)
	if err != nil {
		p.db.metrics.recordQueryError()
		return nil, err
	}
	p.db.metrics.recordQuery(p.sql, p.plan.template, time.Since(start), len(data), rs)
	return &Rows{Columns: p.cols, Data: data}, nil
}

// CreateTableDef registers a table programmatically (used by the
// shredding schemes for bulk setup without SQL round trips, by SQL
// CREATE TABLE, and by snapshot restore/WAL replay).
func (db *Database) CreateTableDef(def TableDef) error {
	return db.createTableDef(def)
}

func (db *Database) createTableDef(def TableDef) (err error) {
	tx := db.beginWrite()
	defer tx.guard(&err)
	key := lowerName(def.Name)
	if _, ok := tx.st.tables[key]; ok {
		tx.abort()
		return errorf("table %s already exists", def.Name)
	}
	tx.purgeStaleIndexDefs(def.Name)
	d := def
	tx.st.tables[key] = newTable(&d, tx.gen)
	tx.st.epoch++
	return tx.commit(&walRecord{Op: opCreateTable, Def: &d})
}

// purgeStaleIndexDefs drops catalog index definitions claiming a table
// that is about to be (re)created. The table does not exist at this
// point, so any such definition is a leftover from a dropped
// incarnation; keeping it would let a recreated table resurrect or
// collide with indexes it never defined.
func (tx *writeTx) purgeStaleIndexDefs(tableName string) {
	for k, def := range tx.st.indexes {
		if strings.EqualFold(def.Table, tableName) {
			delete(tx.st.indexes, k)
		}
	}
}

func (db *Database) createIndex(s *CreateIndexStmt) (err error) {
	tx := db.beginWrite()
	defer tx.guard(&err)
	key := lowerName(s.Name)
	if _, ok := tx.st.indexes[key]; ok {
		tx.abort()
		return errorf("index %s already exists", s.Name)
	}
	tbl := tx.wtable(s.Table)
	if tbl == nil {
		tx.abort()
		return errorf("no such table: %s", s.Table)
	}
	def := IndexDef{Name: s.Name, Table: tbl.def.Name, Unique: s.Unique}
	for _, c := range s.Columns {
		ci := tbl.def.ColumnIndex(c)
		if ci < 0 {
			tx.abort()
			return errorf("no such column %s in table %s", c, s.Table)
		}
		def.Columns = append(def.Columns, ci)
	}
	if _, err := tbl.addIndex(def); err != nil {
		tx.abort()
		return err
	}
	tx.st.indexes[key] = &def
	tx.st.epoch++
	return tx.commit(&walRecord{Op: opCreateIndex, Index: &def})
}

// createIndexDef registers an index from a definition (snapshot
// restore and WAL replay; column ordinals are already resolved).
func (db *Database) createIndexDef(def IndexDef) (err error) {
	tx := db.beginWrite()
	defer tx.guard(&err)
	key := lowerName(def.Name)
	if _, ok := tx.st.indexes[key]; ok {
		tx.abort()
		return errorf("index %s already exists", def.Name)
	}
	tbl := tx.wtable(def.Table)
	if tbl == nil {
		tx.abort()
		return errorf("no such table: %s", def.Table)
	}
	for _, c := range def.Columns {
		if c < 0 || c >= len(tbl.def.Columns) {
			tx.abort()
			return errorf("index %s: column ordinal %d out of range", def.Name, c)
		}
	}
	d := def
	d.Columns = append([]int{}, def.Columns...)
	if _, err := tbl.addIndex(d); err != nil {
		tx.abort()
		return err
	}
	tx.st.indexes[key] = &d
	tx.st.epoch++
	return tx.commit(&walRecord{Op: opCreateIndex, Index: &d})
}

func (db *Database) dropTable(name string) (err error) {
	tx := db.beginWrite()
	defer tx.guard(&err)
	key := lowerName(name)
	tbl, ok := tx.st.tables[key]
	if !ok {
		tx.abort()
		return errorf("no such table: %s", name)
	}
	for _, idx := range tbl.indexes {
		delete(tx.st.indexes, lowerName(idx.def.Name))
	}
	delete(tx.st.tables, key)
	tx.st.epoch++
	return tx.commit(&walRecord{Op: opDropTable, Table: tbl.def.Name})
}

func (db *Database) dropIndex(name string) (err error) {
	tx := db.beginWrite()
	defer tx.guard(&err)
	key := lowerName(name)
	def, ok := tx.st.indexes[key]
	if !ok {
		tx.abort()
		return errorf("no such index: %s", name)
	}
	if tbl := tx.wtable(def.Table); tbl != nil {
		for i, idx := range tbl.indexes {
			if strings.EqualFold(idx.def.Name, name) {
				tbl.indexes = append(tbl.indexes[:i], tbl.indexes[i+1:]...)
				break
			}
		}
	}
	delete(tx.st.indexes, key)
	tx.st.epoch++
	return tx.commit(&walRecord{Op: opDropIndex, Name: def.Name})
}

func (db *Database) execInsert(s *InsertStmt, args []Value) (n int, err error) {
	tx := db.beginWrite()
	defer tx.guard(&err)
	tbl := tx.wtable(s.Table)
	if tbl == nil {
		tx.abort()
		return 0, errorf("no such table: %s", s.Table)
	}
	// Column mapping: target ordinal for each provided value position.
	var mapping []int
	if len(s.Columns) > 0 {
		for _, c := range s.Columns {
			ci := tbl.def.ColumnIndex(c)
			if ci < 0 {
				tx.abort()
				return 0, errorf("no such column %s in table %s", c, s.Table)
			}
			mapping = append(mapping, ci)
		}
	} else {
		for i := range tbl.def.Columns {
			mapping = append(mapping, i)
		}
	}

	buildRow := func(vals []Value) ([]Value, error) {
		if len(vals) != len(mapping) {
			return nil, errorf("table %s: expected %d values, got %d", s.Table, len(mapping), len(vals))
		}
		row := make([]Value, len(tbl.def.Columns))
		for i := range row {
			row[i] = Null
		}
		for i, v := range vals {
			col := tbl.def.Columns[mapping[i]]
			row[mapping[i]] = coerceTo(v, col.Type)
		}
		for i, col := range tbl.def.Columns {
			if col.NotNull && row[i].IsNull() {
				return nil, errorf("table %s: column %s is NOT NULL", s.Table, col.Name)
			}
		}
		return row, nil
	}

	// applied collects the rows that actually landed; they are logged
	// and published as the statement's effect (including a partial
	// prefix when the statement errors mid-way, so durable state tracks
	// memory). If the commit itself cannot be logged, the pending state
	// is discarded unpublished: memory never holds state the WAL does
	// not.
	var applied [][]Value
	finish := func(execErr error) (int, error) {
		if len(applied) == 0 {
			tx.abort()
			return 0, execErr
		}
		if logErr := tx.commit(&walRecord{Op: opInsert, Table: tbl.def.Name, Rows: applied}); logErr != nil {
			return 0, logErr
		}
		return len(applied), execErr
	}

	ctx := &evalCtx{snap: tx.st, qctx: context.Background(), params: args}
	if s.Select != nil {
		p, _, err := planSelect(tx.st, s.Select, nil)
		if err != nil {
			tx.abort()
			return 0, err
		}
		data, err := materialize(ctx, p.root)
		if err != nil {
			tx.abort()
			return 0, err
		}
		for _, vals := range data {
			row, err := buildRow(vals)
			if err != nil {
				return finish(err)
			}
			if _, err := tbl.insert(row); err != nil {
				return finish(err)
			}
			applied = append(applied, row)
		}
		return finish(nil)
	}

	comp := &compiler{st: tx.st, sch: schema{}}
	for _, exprs := range s.Rows {
		vals := make([]Value, len(exprs))
		for i, e := range exprs {
			ce, err := comp.compile(e)
			if err != nil {
				return finish(err)
			}
			vals[i], err = ce(ctx, nil)
			if err != nil {
				return finish(err)
			}
		}
		row, err := buildRow(vals)
		if err != nil {
			return finish(err)
		}
		if _, err := tbl.insert(row); err != nil {
			return finish(err)
		}
		applied = append(applied, row)
	}
	return finish(nil)
}

// BulkInsert appends rows to a table without SQL parsing, for loaders.
// Values are coerced to the declared column types. The batch is atomic:
// every row is validated before any is stored, and a constraint failure
// mid-batch (duplicate key, unique index) discards the pending version,
// leaving the published table and its indexes unchanged.
func (db *Database) BulkInsert(tableName string, rows [][]Value) (n int, err error) {
	tx := db.beginWrite()
	defer tx.guard(&err)
	tbl := tx.wtable(tableName)
	if tbl == nil {
		tx.abort()
		return 0, errorf("no such table: %s", tableName)
	}
	// Phase 1: coerce and validate every row before touching storage.
	coerced := make([][]Value, len(rows))
	for ri, vals := range rows {
		if len(vals) != len(tbl.def.Columns) {
			tx.abort()
			return 0, errorf("table %s: expected %d values, got %d", tableName, len(tbl.def.Columns), len(vals))
		}
		row := make([]Value, len(vals))
		for i, v := range vals {
			row[i] = coerceTo(v, tbl.def.Columns[i].Type)
			if tbl.def.Columns[i].NotNull && row[i].IsNull() {
				tx.abort()
				return 0, errorf("table %s: column %s is NOT NULL", tableName, tbl.def.Columns[i].Name)
			}
		}
		coerced[ri] = row
	}
	// Phase 2: insert into the pending version; a constraint violation
	// discards it whole, so the batch is all-or-nothing.
	if err := tbl.insertBatch(coerced); err != nil {
		tx.abort()
		return 0, err
	}
	if len(coerced) == 0 {
		tx.abort()
		return 0, nil
	}
	// Phase 3: log the commit and publish. A logging failure means the
	// batch is not durable; the pending version is dropped so memory
	// equals what recovery will replay.
	if err := tx.commit(&walRecord{Op: opInsert, Table: tbl.def.Name, Rows: coerced}); err != nil {
		return 0, err
	}
	return len(coerced), nil
}

func (db *Database) execDelete(s *DeleteStmt, args []Value) (n int, err error) {
	tx := db.beginWrite()
	defer tx.guard(&err)
	tbl := tx.wtable(s.Table)
	if tbl == nil {
		tx.abort()
		return 0, errorf("no such table: %s", s.Table)
	}
	rids, err := matchRows(tx.st, tbl, s.Where, args)
	if err != nil {
		tx.abort()
		return 0, err
	}
	images := make([][]Value, 0, len(rids))
	for _, rid := range rids {
		if row := tbl.row(rid); row != nil {
			images = append(images, row)
		}
		tbl.delete(rid)
	}
	if len(images) == 0 {
		tx.abort()
		return len(rids), nil
	}
	if err := tx.commit(&walRecord{Op: opDelete, Table: tbl.def.Name, Rows: images}); err != nil {
		return 0, err
	}
	return len(rids), nil
}

func (db *Database) execUpdate(s *UpdateStmt, args []Value) (n int, err error) {
	tx := db.beginWrite()
	defer tx.guard(&err)
	tbl := tx.wtable(s.Table)
	if tbl == nil {
		tx.abort()
		return 0, errorf("no such table: %s", s.Table)
	}
	sch := make(schema, len(tbl.def.Columns))
	for i, c := range tbl.def.Columns {
		sch[i] = colInfo{alias: tbl.def.Name, name: c.Name}
	}
	comp := &compiler{st: tx.st, sch: sch}
	type setOp struct {
		col int
		fn  compiledExpr
	}
	var sets []setOp
	for _, sc := range s.Sets {
		ci := tbl.def.ColumnIndex(sc.Column)
		if ci < 0 {
			tx.abort()
			return 0, errorf("no such column %s in table %s", sc.Column, s.Table)
		}
		fn, err := comp.compile(sc.Value)
		if err != nil {
			tx.abort()
			return 0, err
		}
		sets = append(sets, setOp{col: ci, fn: fn})
	}
	rids, err := matchRows(tx.st, tbl, s.Where, args)
	if err != nil {
		tx.abort()
		return 0, err
	}
	ctx := &evalCtx{snap: tx.st, qctx: context.Background(), params: args}
	// oldImages/newImages collect the (before, after) row pairs that
	// actually applied; they are logged as the statement's effect (a
	// partial prefix when the statement errors mid-way). If logging the
	// commit fails the pending version is discarded unpublished, so
	// memory matches what recovery will replay.
	var oldImages, newImages [][]Value
	finish := func(execErr error) (int, error) {
		if len(newImages) == 0 {
			tx.abort()
			return 0, execErr
		}
		logErr := tx.commit(&walRecord{
			Op: opUpdate, Table: tbl.def.Name,
			OldRows: oldImages, Rows: newImages,
		})
		if logErr != nil {
			return 0, logErr
		}
		return len(newImages), execErr
	}
	for _, rid := range rids {
		old := tbl.row(rid)
		if old == nil {
			continue
		}
		row := append([]Value{}, old...)
		for _, so := range sets {
			v, err := so.fn(ctx, old)
			if err != nil {
				return finish(err)
			}
			row[so.col] = coerceTo(v, tbl.def.Columns[so.col].Type)
			if tbl.def.Columns[so.col].NotNull && row[so.col].IsNull() {
				return finish(errorf("table %s: column %s is NOT NULL", s.Table, tbl.def.Columns[so.col].Name))
			}
		}
		if err := tbl.update(rid, row); err != nil {
			return finish(err)
		}
		oldImages = append(oldImages, old)
		newImages = append(newImages, row)
	}
	return finish(nil)
}

// matchRows returns rowids matching a WHERE predicate (all live rows
// when where is nil), evaluated against st.
func matchRows(st *dbState, tbl *table, where Expr, args []Value) ([]int64, error) {
	var pred compiledExpr
	if where != nil {
		sch := make(schema, len(tbl.def.Columns))
		for i, c := range tbl.def.Columns {
			sch[i] = colInfo{alias: tbl.def.Name, name: c.Name}
		}
		comp := &compiler{st: st, sch: sch}
		var err error
		pred, err = comp.compile(where)
		if err != nil {
			return nil, err
		}
	}
	ctx := &evalCtx{snap: st, qctx: context.Background(), params: args}
	var rids []int64
	var ref pageRef
	defer ref.release()
	for rid := int64(0); rid < tbl.slotCount(); rid++ {
		row := tbl.rowRef(rid, &ref)
		if row == nil {
			continue
		}
		if pred != nil {
			v, err := pred(ctx, row)
			if err != nil {
				return nil, err
			}
			if v.IsNull() || !v.Bool() {
				continue
			}
		}
		rids = append(rids, rid)
	}
	return rids, nil
}

// TableStats summarizes one table's storage.
type TableStats struct {
	Name    string
	Rows    int
	Bytes   int64
	Indexes int
}

// DatabaseStats bundles per-table storage statistics with the engine's
// cache activity, the runtime metrics registry, snapshot/concurrency
// counters, and the current schema epoch and commit sequence.
type DatabaseStats struct {
	Tables      []TableStats
	PlanCache   CacheStats
	Metrics     MetricsSnapshot
	Snapshots   SnapshotStats
	Governor    GovernorStats
	BufferPool  BufferPoolStats
	SchemaEpoch uint64
	CommitSeq   uint64
}

// Stats returns storage, cache and snapshot statistics; tables are
// sorted by name.
func (db *Database) Stats() DatabaseStats {
	st := db.state.Load()
	tables := make([]TableStats, 0, len(st.tables))
	for _, t := range st.tables {
		tables = append(tables, TableStats{
			Name:    t.def.Name,
			Rows:    t.live,
			Bytes:   t.bytes,
			Indexes: len(t.indexes),
		})
	}
	sort.Slice(tables, func(i, j int) bool { return tables[i].Name < tables[j].Name })
	maxc, maxq, admitted, queued, rejected := db.gate.Load().stats()
	return DatabaseStats{
		Tables:    tables,
		PlanCache: db.plans.stats(),
		Metrics:   db.metrics.snapshot(),
		Snapshots: db.snaps.stats(),
		Governor: GovernorStats{
			MemoryBudget:  db.memBudget.total.Load(),
			MemoryUsed:    db.memBudget.used.Load(),
			QueryMemLimit: db.queryMemLimit.Load(),
			MaxConcurrent: maxc,
			MaxQueue:      maxq,
			Admitted:      admitted,
			Queued:        queued,
			Rejected:      rejected,
		},
		BufferPool:  db.pool.stats(),
		SchemaEpoch: st.epoch,
		CommitSeq:   st.seq,
	}
}

// TableNames lists the tables, sorted.
func (db *Database) TableNames() []string {
	st := db.state.Load()
	out := make([]string, 0, len(st.tables))
	for _, t := range st.tables {
		out = append(out, t.def.Name)
	}
	sort.Strings(out)
	return out
}

// TableDef returns the schema of a table, or nil if absent.
func (db *Database) TableDef(name string) *TableDef {
	t := db.state.Load().table(name)
	if t == nil {
		return nil
	}
	def := *t.def
	return &def
}

// TotalBytes sums the payload bytes across all tables.
func (db *Database) TotalBytes() int64 {
	var n int64
	for _, t := range db.state.Load().tables {
		n += t.bytes
	}
	return n
}

// TotalRows sums live rows across all tables.
func (db *Database) TotalRows() int {
	n := 0
	for _, t := range db.state.Load().tables {
		n += t.live
	}
	return n
}
