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
	// epoch is the schema version, advanced by every DDL statement.
	// Compiled plans — cached or prepared — are valid only for the
	// epoch they were planned at (see plancache.go).
	epoch   uint64
	tables  map[string]*table
	indexes map[string]*IndexDef // index name -> def (table lookup)
}

func (st *dbState) table(name string) *table {
	return st.tables[lowerName(name)]
}

func (st *dbState) shallowClone() *dbState {
	c := &dbState{
		seq:     st.seq,
		epoch:   st.epoch,
		tables:  make(map[string]*table, len(st.tables)),
		indexes: make(map[string]*IndexDef, len(st.indexes)),
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
	// DurableDB.stage).
	seq   atomic.Uint64
	plans *planCache
	// metrics is the runtime observability registry: query-latency
	// histograms by SQL template, per-operator totals, slow-query log.
	// It has its own mutex and is safe from any goroutine.
	metrics *metricsRegistry
	// snaps tracks snapshot activity: acquisitions, pinned snapshots and
	// their ages, writer publish waits, superseded-version counts.
	snaps *snapTracker
	// log, when set (by DurableDB), is where transactions log their
	// records, while writeMu is held, so log order equals commit order
	// (see commitLog). Without one, a transaction keeps no records.
	log commitLog
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

// commitLog is the durability layer's side of a transaction. Every
// method is called with writeMu held, so no other transaction's frame
// can come between an open transaction's continuation frames and its
// commit frame.
type commitLog interface {
	// stage logs rec as the transaction's commit frame and numbers it.
	// The writer calls the returned wait after releasing writeMu; it
	// blocks until the frame is fsynced (batched with concurrently
	// arriving commits). A non-nil error from either phase means the
	// commit is not durable: the writer then discards its pending state
	// without publishing, so the published state never diverges from
	// the log. A nil wait means the record needs no post-stage step.
	stage(rec *walRecord) (wait func() error, err error)
	// stream logs recs, numbered, as one continuation frame of the open
	// transaction and returns the bytes it appended.
	stream(recs []*walRecord) (int64, error)
	// unstream drops an aborted transaction's continuation frames: the
	// last n bytes of the log, holding k numbered records.
	unstream(n int64, k int)
}

// syncLog is a synchronous commit logger: the record is durable (or
// rejected) by the time it returns, and a continuation frame is logged
// as one record of its own. Tests attach stub loggers with it.
type syncLog func(*walRecord) error

func (f syncLog) stage(rec *walRecord) (func() error, error) { return nil, f(rec) }

func (f syncLog) stream(recs []*walRecord) (int64, error) {
	return 0, f(&walRecord{Op: opCont, Group: recs})
}

func (f syncLog) unstream(int64, int) {}

// setCommitLogger attaches (or detaches, with nil) a synchronous stub
// logger; DurableDB attaches its pipeline with setCommitLog.
func (db *Database) setCommitLogger(fn func(*walRecord) error) {
	if fn == nil {
		db.setCommitLog(nil)
		return
	}
	db.setCommitLog(syncLog(fn))
}

// setCommitLog attaches (or detaches, with nil) the commit log.
func (db *Database) setCommitLog(l commitLog) {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	db.log = l
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
// for this query alone.
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

// Tx is one writer transaction: the callback of Update, or one
// statement run through a Database write method. It holds the writer
// slot (writeMu) from begin to end, so no other writer interleaves,
// and its statements run against a private copy-on-write clone of the
// newest staged state — cloning head, not the published state, keeps
// the commit chain linear while earlier commits still wait on their
// WAL fsync. Statements and reads inside the transaction see its
// earlier statements; readers of the Database see nothing until
// commit logs them and publishes them together once the log is
// durable. Abort is never publishing, and dropping any continuation
// frames. A Tx is used by one goroutine at a time.
//
// Its memory stays bounded whatever it writes. A full page a statement
// of Update seals enters the buffer pool at once, where a bounded pool
// may write it back to a fresh slot and evict it: no checkpoint
// references that slot before the state publishes, and an abort leaves
// it dead. Once
// the pending records pass txStreamBytes, the log takes them as a
// continuation frame (see stream).
type Tx struct {
	db   *Database
	base *dbState // the staged head the transaction began from
	st   *dbState // base plus every statement committed so far
	// gen0 is the newest generation before the transaction's first
	// statement. A page of gen0 or older that a statement sealed is a
	// tail page base shares, which stays base's resident tail if the
	// transaction aborts: it waits in sealed for the publish. So does
	// every page of a one-statement transaction (a Database write
	// method), which publishes right after its fsync: writing its pages
	// back before that would bound nothing and only risk dead slots.
	gen0   uint64
	sealed []*heapPage
	// n counts the statements' records; recs holds those not logged
	// yet, pending estimates their encoded bytes. Without a commit log
	// the count is all a transaction keeps.
	n       int
	recs    []*walRecord
	pending int64
	// streamed is the bytes of continuation frames logged so far, and
	// streamedRecs the records they hold.
	streamed     int64
	streamedRecs int
	// group logs the statements as one opGroup frame even when there
	// is only one (Update); a Database write method logs its statement
	// as a plain record.
	group bool
	// deferred says an insert statement armed a deferred index build
	// (see table.deferIndexes) that settle has not built yet.
	deferred bool
	// done flips when the transaction released writeMu (commit or
	// abort); ticket/finished track the publish turn commit staged, so
	// guard can unwind a panic at any point.
	done     bool
	ticket   uint64
	finished bool
}

// errTxDone refuses a statement on a transaction whose Update
// callback already returned.
var errTxDone = errorf("transaction has ended")

// Update runs fn as one writer transaction. Its statements (tx.Exec,
// tx.BulkInsert) and reads (tx.Query, tx.QueryScalar) see its earlier
// writes; readers see none of them until fn returns nil, when they are
// logged as one WAL record and published together once it is durable
// (the returned error reports a failed commit). If fn returns an error
// or panics — a canceled context included, which fn reports as its
// error — nothing is logged or published: the error is returned, a
// panic as a typed ErrInternal, and the writer slot is freed. Other
// writers wait for the transaction to end.
//
// fn writes only through tx: the Database's own write methods and
// DurableDB.Recover take the writer slot tx holds, so calling them
// inside fn deadlocks, and nothing checks which goroutine calls them.
func (db *Database) Update(fn func(*Tx) error) (err error) {
	tx := db.begin(true)
	defer tx.guard(&err)
	if err := fn(tx); err != nil {
		tx.abort()
		return err
	}
	return tx.commit()
}

// autocommit runs one statement as a transaction of its own. A
// statement that failed part-way (a multi-row INSERT or UPDATE) still
// commits the prefix it applied and reports both.
func (db *Database) autocommit(stmt func(*Tx) (int, error)) (n int, err error) {
	tx := db.begin(false)
	defer tx.guard(&err)
	n, err = stmt(tx)
	if cerr := tx.commit(); cerr != nil {
		return 0, cerr
	}
	return n, err
}

// begin acquires the writer slot and starts a transaction on the
// newest staged state. If a predecessor still waiting on its fsync
// fails, the engine degrades and this commit fails too, so a state
// built on a doomed predecessor is never published.
func (db *Database) begin(group bool) *Tx {
	waitStart := time.Now()
	db.writeMu.Lock()
	db.snaps.recordPublishWait(time.Since(waitStart))
	return &Tx{db: db, base: db.head, st: db.head, gen0: db.gen.Load(), group: group}
}

// guard is the transaction's panic barrier: a panic anywhere in it
// becomes a typed ErrInternal, the pending state is discarded
// unpublished, writeMu is released, and a staged publish turn is
// consumed — a panicking writer never wedges writeMu or the publish
// pipeline.
func (tx *Tx) guard(errp *error) {
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

// abort discards the transaction, drops its continuation frames and
// frees the writer slot.
func (tx *Tx) abort() {
	if tx.done {
		return
	}
	tx.done = true
	if tx.streamedRecs > 0 {
		tx.db.log.unstream(tx.streamed, tx.streamedRecs)
	}
	tx.db.writeMu.Unlock()
}

// txStreamBytes is the estimated size of an open transaction's pending
// records past which its commit log takes them as a continuation
// frame. A variable so tests can lower it (SetTxStreamBytes).
var txStreamBytes int64 = 1 << 20

// SetTxStreamBytes sets the pending-record size past which an open
// transaction logs a continuation frame and returns the previous size.
// It exists for tests, which lower it so a small load spans several
// frames; it must not race with a transaction.
func SetTxStreamBytes(n int64) int64 {
	prev := txStreamBytes
	txStreamBytes = n
	return prev
}

// stream logs every pending record but the last as one continuation
// frame once they pass txStreamBytes, so the transaction holds at most
// about that much of its log. The last record stays for the commit
// frame, which therefore always carries one.
func (tx *Tx) stream() error {
	if tx.db.log == nil || tx.pending <= txStreamBytes || len(tx.recs) < 2 {
		return nil
	}
	last := len(tx.recs) - 1
	n, err := tx.db.log.stream(tx.recs[:last])
	if err != nil {
		return err
	}
	tx.streamed += n
	tx.streamedRecs += last
	keep := tx.recs[last]
	clear(tx.recs)
	tx.recs = append(tx.recs[:0], keep)
	tx.pending = keep.size()
	return nil
}

// commit logs the transaction's remaining records as its commit frame
// and publishes its state. The ack-implies-durable contract is
// structural: with a commit log attached, the record is staged into the
// WAL pipeline
// under writeMu (so log order equals commit order), writeMu is released
// so later writers can stage and share the next fsync batch, and only
// after the batch fsync covers the record is the state published — in
// stage order — and the call returned. If staging or the fsync fails
// the state is discarded unpublished and the error returned.
func (tx *Tx) commit() error {
	db := tx.db
	tx.settle()
	if tx.n == 0 {
		tx.abort()
		return nil
	}
	var wait func() error
	if db.log != nil {
		rec := tx.recs[0]
		if tx.group || len(tx.recs) > 1 {
			rec = &walRecord{Op: opGroup, Group: tx.recs}
		}
		w, err := db.log.stage(rec)
		if err != nil {
			tx.abort()
			return err
		}
		wait = w
		tx.st.seq = rec.maxSeq()
		db.seq.Store(tx.st.seq)
	} else {
		tx.st.seq = db.seq.Add(uint64(tx.n))
	}
	reclaimed := 0
	for k, t := range tx.base.tables {
		if tx.st.tables[k] != t {
			reclaimed++
		}
	}
	db.head = tx.st
	db.stageTicket++
	tx.ticket = db.stageTicket
	tx.done = true
	db.writeMu.Unlock()

	if wait != nil {
		if err := wait(); err != nil {
			// Not durable: take the publish turn without publishing, so
			// successors (which are failing too) don't block forever.
			db.finishTicket(tx.ticket, nil, 0)
			tx.finished = true
			return err
		}
	}
	db.finishTicket(tx.ticket, tx.st, reclaimed)
	tx.finished = true
	for _, p := range tx.sealed {
		db.pool.add(p)
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

// txStmt is one statement of a transaction: a private clone of the
// transaction's state at a fresh generation, whose tables are cloned
// copy-on-write on first touch (wtable). commit merges it into the
// transaction; a statement that fails is dropped, leaving the
// transaction as it was.
type txStmt struct {
	tx  *Tx
	st  *dbState
	gen uint64
}

// stmt opens a statement that may read or rewrite any index, so the
// transaction's deferred index builds are settled first.
func (tx *Tx) stmt() *txStmt {
	tx.settle()
	return tx.insertStmt()
}

// insertStmt opens an insert-only statement (bulkInsert, applyInsert):
// it leaves deferred index builds pending and may arm more.
func (tx *Tx) insertStmt() *txStmt {
	return &txStmt{tx: tx, st: tx.st.shallowClone(), gen: tx.db.gen.Add(1)}
}

// wtableDeferring is wtable for an insert-only statement: an empty
// non-unique index of the table collects the statement's entries for a
// bottom-up build rather than taking them one by one.
func (w *txStmt) wtableDeferring(name string) *table {
	t := w.wtable(name)
	if t != nil && t.deferIndexes() {
		w.tx.deferred = true
	}
	return t
}

// settle builds the indexes the transaction's inserts deferred, in
// place in its state, which no reader shares: a load into an empty
// table pays one bottom-up build per index (buildBtree) instead of one
// tree insert per row, and leaves the tree a reopen would build from
// the same rows.
func (tx *Tx) settle() {
	if !tx.deferred {
		return
	}
	tx.deferred = false
	for _, t := range tx.st.tables {
		t.settle()
	}
}

// wtable returns a writable version of the named table in the
// statement's state, cloning it on first touch. Nil when the table
// does not exist.
func (w *txStmt) wtable(name string) *table {
	key := lowerName(name)
	t := w.st.tables[key]
	if t == nil {
		return nil
	}
	if t.gen != w.gen {
		t = t.beginWrite(w.gen)
		w.st.tables[key] = t
	}
	return t
}

// commit merges the statement, with rec as its WAL effect, into its
// transaction, and hands the pages it filled to the buffer pool as
// shadow pages (see Tx).
func (w *txStmt) commit(rec *walRecord) {
	tx := w.tx
	for _, t := range w.st.tables {
		if t.gen == w.gen && len(t.sealq) > 0 {
			for _, p := range t.sealq {
				if !tx.group || p.gen <= tx.gen0 {
					tx.sealed = append(tx.sealed, p)
				} else {
					tx.db.pool.add(p)
				}
			}
			t.sealq = nil
		}
	}
	tx.st = w.st
	tx.n++
	if tx.db.log != nil {
		tx.recs = append(tx.recs, rec)
		tx.pending += rec.size()
	}
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

// Writer is the read-write surface shared by Database and Tx: on a
// Database every write is a transaction of its own, on a Tx it joins
// the open transaction, whose reads see it.
type Writer interface {
	Queryer
	Exec(sql string, args ...Value) (int, error)
	BulkInsert(table string, rows [][]Value) (int, error)
}

// Exec runs a DDL or DML statement as its own transaction. It returns
// the number of affected rows (0 for DDL). Args bind ? placeholders in
// order.
func (db *Database) Exec(sql string, args ...Value) (int, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return 0, err
	}
	return db.autocommit(func(tx *Tx) (int, error) { return tx.execStmt(stmt, args) })
}

// Exec runs a DDL or DML statement inside the transaction.
func (tx *Tx) Exec(sql string, args ...Value) (int, error) {
	if tx.done {
		return 0, errTxDone
	}
	stmt, err := Parse(sql)
	if err != nil {
		return 0, err
	}
	return tx.streamAfter(tx.execStmt(stmt, args))
}

// streamAfter returns a statement's result once the transaction has
// streamed its pending records, if they grew past txStreamBytes.
func (tx *Tx) streamAfter(n int, err error) (int, error) {
	if serr := tx.stream(); serr != nil {
		return 0, serr
	}
	return n, err
}

func (tx *Tx) execStmt(stmt Stmt, args []Value) (int, error) {
	switch s := stmt.(type) {
	case *SelectStmt:
		return 0, errorf("use Query for SELECT statements")
	case *CreateTableStmt:
		return 0, tx.createTableDef(s.Def)
	case *CreateIndexStmt:
		return 0, tx.createIndex(s)
	case *DropTableStmt:
		return 0, tx.dropTable(s.Name)
	case *DropIndexStmt:
		return 0, tx.dropIndex(s.Name)
	case *InsertStmt:
		return tx.execInsert(s, args)
	case *DeleteStmt:
		return tx.execDelete(s, args)
	case *UpdateStmt:
		return tx.execUpdate(s, args)
	}
	return 0, errorf("unsupported statement %T", stmt)
}

// Query runs a SELECT against the transaction's state: its own earlier
// writes included.
func (tx *Tx) Query(sql string, args ...Value) (*Rows, error) {
	if tx.done {
		return nil, errTxDone
	}
	tx.settle()
	return tx.db.queryAt(context.Background(), tx.st, sql, args)
}

// QueryScalar is QueryScalar against the transaction's state.
func (tx *Tx) QueryScalar(sql string, args ...Value) (Value, error) {
	return scalarOf(tx.Query(sql, args...))
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
	data, _, _, err := db.execPlan(qctx, st, e.p, false, sql, args)
	if err != nil {
		return nil, err
	}
	return &Rows{Columns: e.cols, Data: data}, nil
}

// execPlan is the one execution path of a compiled plan, against the
// pinned state st: admission through the governor's gate, a memory
// accountant, per-operator run statistics (with wall time per operator
// when timed) and the metrics registry, which records the query under
// sql and the plan's template. It returns the rows, the run statistics
// and the execution's wall time.
func (db *Database) execPlan(qctx context.Context, st *dbState, p *plan, timed bool, sql string, args []Value) ([][]Value, *runStats, time.Duration, error) {
	release, err := db.gate.Load().admit(qctx)
	if err != nil {
		db.metrics.recordQueryError()
		return nil, nil, 0, err
	}
	defer release()
	mem := db.newMemAccountant()
	defer mem.close()
	rs := newRunStats(p, timed)
	ctx := &evalCtx{snap: st, qctx: qctx, params: args, stats: rs, mem: mem}
	start := time.Now()
	data, err := runGuarded(ctx, p.root)
	d := time.Since(start)
	if err != nil {
		db.metrics.recordQueryError()
		return nil, nil, 0, err
	}
	db.metrics.recordQuery(sql, p.template, d, len(data), rs)
	return data, rs, d, nil
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
	e, err := db.compile(db.readState(), sql, "Prepare")
	if err != nil {
		return nil, err
	}
	return &Prepared{db: db, sql: sql, plan: e.p, cols: e.cols, epoch: e.epoch}, nil
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
	data, _, _, err := p.db.execPlan(qctx, st, p.plan, false, p.sql, args)
	if err != nil {
		return nil, err
	}
	return &Rows{Columns: p.cols, Data: data}, nil
}

func (tx *Tx) createTableDef(def TableDef) error {
	w := tx.stmt()
	key := lowerName(def.Name)
	if _, ok := w.st.tables[key]; ok {
		return errorf("table %s already exists", def.Name)
	}
	w.purgeStaleIndexDefs(def.Name)
	d := def
	w.st.tables[key] = newTable(&d, w.gen)
	w.st.epoch++
	w.commit(&walRecord{Op: opCreateTable, Def: &d})
	return nil
}

// purgeStaleIndexDefs drops catalog index definitions claiming a table
// that is about to be (re)created. The table does not exist at this
// point, so any such definition is a leftover from a dropped
// incarnation; keeping it would let a recreated table resurrect or
// collide with indexes it never defined.
func (w *txStmt) purgeStaleIndexDefs(tableName string) {
	for k, def := range w.st.indexes {
		if strings.EqualFold(def.Table, tableName) {
			delete(w.st.indexes, k)
		}
	}
}

func (tx *Tx) createIndex(s *CreateIndexStmt) error {
	w := tx.stmt()
	key := lowerName(s.Name)
	if _, ok := w.st.indexes[key]; ok {
		return errorf("index %s already exists", s.Name)
	}
	tbl := w.wtable(s.Table)
	if tbl == nil {
		return errorf("no such table: %s", s.Table)
	}
	def := IndexDef{Name: s.Name, Table: tbl.def.Name, Unique: s.Unique}
	for _, c := range s.Columns {
		ci := tbl.def.ColumnIndex(c)
		if ci < 0 {
			return errorf("no such column %s in table %s", c, s.Table)
		}
		def.Columns = append(def.Columns, ci)
	}
	if _, err := tbl.addIndex(def); err != nil {
		return err
	}
	w.st.indexes[key] = &def
	w.st.epoch++
	w.commit(&walRecord{Op: opCreateIndex, Index: &def})
	return nil
}

// createIndexDef registers an index from a definition (WAL replay;
// column ordinals are already resolved).
func (tx *Tx) createIndexDef(def IndexDef) error {
	w := tx.stmt()
	key := lowerName(def.Name)
	if _, ok := w.st.indexes[key]; ok {
		return errorf("index %s already exists", def.Name)
	}
	tbl := w.wtable(def.Table)
	if tbl == nil {
		return errorf("no such table: %s", def.Table)
	}
	for _, c := range def.Columns {
		if c < 0 || c >= len(tbl.def.Columns) {
			return errorf("index %s: column ordinal %d out of range", def.Name, c)
		}
	}
	d := def
	d.Columns = append([]int{}, def.Columns...)
	if _, err := tbl.addIndex(d); err != nil {
		return err
	}
	w.st.indexes[key] = &d
	w.st.epoch++
	w.commit(&walRecord{Op: opCreateIndex, Index: &d})
	return nil
}

func (tx *Tx) dropTable(name string) error {
	w := tx.stmt()
	key := lowerName(name)
	tbl, ok := w.st.tables[key]
	if !ok {
		return errorf("no such table: %s", name)
	}
	for _, idx := range tbl.indexes {
		delete(w.st.indexes, lowerName(idx.def.Name))
	}
	delete(w.st.tables, key)
	w.st.epoch++
	w.commit(&walRecord{Op: opDropTable, Table: tbl.def.Name})
	return nil
}

func (tx *Tx) dropIndex(name string) error {
	w := tx.stmt()
	key := lowerName(name)
	def, ok := w.st.indexes[key]
	if !ok {
		return errorf("no such index: %s", name)
	}
	if tbl := w.wtable(def.Table); tbl != nil {
		for i, idx := range tbl.indexes {
			if strings.EqualFold(idx.def.Name, name) {
				tbl.indexes = append(tbl.indexes[:i], tbl.indexes[i+1:]...)
				break
			}
		}
	}
	delete(w.st.indexes, key)
	w.st.epoch++
	w.commit(&walRecord{Op: opDropIndex, Name: def.Name})
	return nil
}

func (tx *Tx) execInsert(s *InsertStmt, args []Value) (int, error) {
	w := tx.stmt()
	tbl := w.wtable(s.Table)
	if tbl == nil {
		return 0, errorf("no such table: %s", s.Table)
	}
	// Column mapping: target ordinal for each provided value position.
	var mapping []int
	if len(s.Columns) > 0 {
		for _, c := range s.Columns {
			ci := tbl.def.ColumnIndex(c)
			if ci < 0 {
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

	// applied collects the rows that actually landed; they are the
	// statement's effect, including a partial prefix when the statement
	// errors mid-way, so the log tracks memory.
	var applied [][]Value
	finish := func(execErr error) (int, error) {
		if len(applied) == 0 {
			return 0, execErr
		}
		w.commit(&walRecord{Op: opInsert, Table: tbl.def.Name, Rows: applied})
		return len(applied), execErr
	}

	ctx := &evalCtx{snap: w.st, qctx: context.Background(), params: args}
	if s.Select != nil {
		p, _, err := planSelect(w.st, s.Select, nil)
		if err != nil {
			return 0, err
		}
		data, err := materialize(ctx, p.root)
		if err != nil {
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

	comp := &compiler{st: w.st, sch: schema{}}
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

// BulkInsert appends rows to a table without SQL parsing, for loaders,
// as its own transaction. Values are coerced to the declared column
// types. The batch is atomic: every row is validated before any is
// stored, and a constraint failure mid-batch (duplicate key, unique
// index) leaves the table and its indexes unchanged.
func (db *Database) BulkInsert(tableName string, rows [][]Value) (int, error) {
	return db.autocommit(func(tx *Tx) (int, error) { return tx.bulkInsert(tableName, rows) })
}

// BulkInsert is BulkInsert inside the transaction.
func (tx *Tx) BulkInsert(tableName string, rows [][]Value) (int, error) {
	return tx.streamAfter(tx.bulkInsert(tableName, rows))
}

func (tx *Tx) bulkInsert(tableName string, rows [][]Value) (int, error) {
	if tx.done {
		return 0, errTxDone
	}
	w := tx.insertStmt()
	tbl := w.wtableDeferring(tableName)
	if tbl == nil {
		return 0, errorf("no such table: %s", tableName)
	}
	// Phase 1: coerce and validate every row before touching storage.
	// The rows land at rowids count, count+1, …, so each run of them
	// that lands in one heap page is cut from one block: a load allocates
	// per page, not per row, and a page the pool evicts frees its own
	// rows and no other page's. A row's capacity ends with it.
	ncol := len(tbl.def.Columns)
	coerced := make([][]Value, len(rows))
	var block []Value
	for ri, vals := range rows {
		if len(vals) != ncol {
			return 0, errorf("table %s: expected %d values, got %d", tableName, ncol, len(vals))
		}
		if len(block) == 0 {
			slot := int((tbl.count + int64(ri)) & heapPageMask)
			block = make([]Value, min(len(rows)-ri, heapPageSize-slot)*ncol)
		}
		row := block[:ncol:ncol]
		block = block[ncol:]
		for i, v := range vals {
			row[i] = coerceTo(v, tbl.def.Columns[i].Type)
			if tbl.def.Columns[i].NotNull && row[i].IsNull() {
				return 0, errorf("table %s: column %s is NOT NULL", tableName, tbl.def.Columns[i].Name)
			}
		}
		coerced[ri] = row
	}
	// Phase 2: insert into the statement's version; a constraint
	// violation drops it whole, so the batch is all-or-nothing.
	if err := tbl.insertBatch(coerced); err != nil {
		return 0, err
	}
	if len(coerced) == 0 {
		return 0, nil
	}
	w.commit(&walRecord{Op: opInsert, Table: tbl.def.Name, Rows: coerced})
	return len(coerced), nil
}

func (tx *Tx) execDelete(s *DeleteStmt, args []Value) (int, error) {
	w := tx.stmt()
	tbl := w.wtable(s.Table)
	if tbl == nil {
		return 0, errorf("no such table: %s", s.Table)
	}
	rids, err := matchRows(w.st, tbl, s.Where, args)
	if err != nil {
		return 0, err
	}
	images := make([][]Value, 0, len(rids))
	for _, rid := range rids {
		if row := tbl.row(rid, nil); row != nil {
			images = append(images, row)
			tbl.delete(rid, row)
		}
	}
	if len(images) > 0 {
		w.commit(&walRecord{Op: opDelete, Table: tbl.def.Name, Rows: images})
	}
	return len(rids), nil
}

func (tx *Tx) execUpdate(s *UpdateStmt, args []Value) (int, error) {
	w := tx.stmt()
	tbl := w.wtable(s.Table)
	if tbl == nil {
		return 0, errorf("no such table: %s", s.Table)
	}
	sch := make(schema, len(tbl.def.Columns))
	for i, c := range tbl.def.Columns {
		sch[i] = colInfo{alias: tbl.def.Name, name: c.Name}
	}
	comp := &compiler{st: w.st, sch: sch}
	type setOp struct {
		col int
		fn  compiledExpr
	}
	var sets []setOp
	for _, sc := range s.Sets {
		ci := tbl.def.ColumnIndex(sc.Column)
		if ci < 0 {
			return 0, errorf("no such column %s in table %s", sc.Column, s.Table)
		}
		fn, err := comp.compile(sc.Value)
		if err != nil {
			return 0, err
		}
		sets = append(sets, setOp{col: ci, fn: fn})
	}
	rids, err := matchRows(w.st, tbl, s.Where, args)
	if err != nil {
		return 0, err
	}
	ctx := &evalCtx{snap: w.st, qctx: context.Background(), params: args}
	// oldImages/newImages collect the (before, after) row pairs that
	// actually applied; they are the statement's effect (a partial
	// prefix when the statement errors mid-way).
	var oldImages, newImages [][]Value
	finish := func(execErr error) (int, error) {
		if len(newImages) == 0 {
			return 0, execErr
		}
		w.commit(&walRecord{
			Op: opUpdate, Table: tbl.def.Name,
			OldRows: oldImages, Rows: newImages,
		})
		return len(newImages), execErr
	}
	for _, rid := range rids {
		old := tbl.row(rid, nil)
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
		if err := tbl.update(rid, old, row); err != nil {
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
	var scratch []Value
	for rid := int64(0); rid < tbl.slotCount(); rid++ {
		row := tbl.rowRef(rid, &ref, &scratch)
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
