package sqldb

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// DurableDB binds a Database to a data directory (through a VFS) with
// write-ahead logging and atomic checkpointing:
//
//   - Every committed mutation is staged into the WAL group-commit
//     pipeline and fsynced before the commit call returns (see db.go's
//     commit-hook chokepoint): committers that arrive while an fsync is
//     in flight queue up, and the first waiter flushes the whole queue
//     with one Write + one Sync — many commits, one fsync.
//   - Checkpoint writes a CRC-sealed snapshot to a temp file, fsyncs
//     it, renames it over the previous snapshot, fsyncs the directory,
//     then rotates the WAL — so there is never a moment without a
//     loadable on-disk state.
//   - OpenDurable recovers by loading the last good snapshot and
//     replaying the WAL's valid prefix, truncating the torn tail.
//
// Failure model is degraded read-only: once a WAL append, sync or
// checkpoint write fails, the DurableDB refuses further commits
// (ErrReadOnlyDegraded, which wraps ErrWALFailed) — the in-memory
// state may be ahead of the durable state, and continuing to
// acknowledge writes would silently widen that gap. Reads keep
// serving the last published snapshot, Health reports the cause, and
// Recover re-establishes durability by checkpointing the published
// (acked) state and starting a fresh WAL.
type DurableDB struct {
	fs   VFS
	db   *Database
	opts DurableOptions

	// seq is the last assigned commit sequence number; records above
	// the snapshot's sequence are replayed, the rest skipped.
	seq atomic.Uint64

	// walMu guards the WAL handle, the commit queue, group buffering
	// and log rotation. The flusher releases it for the duration of the
	// Write+Sync (flushing=true marks the handle as borrowed) so new
	// committers can stage into the next batch while this one syncs.
	walMu   sync.Mutex
	wal     File
	walSize int64
	// ackedSize is the length of the WAL prefix covered by a successful
	// flush (append + fsync): every byte below it belongs to an
	// acknowledged commit, every byte above it to a failed or torn one.
	// Recover rebuilds the engine's state from exactly this prefix.
	ackedSize int64
	// ackedSeq is the highest commit sequence covered by a successful
	// fsync. The buffer pool's spill barrier reads it to keep a sealed
	// page resident until the WAL covering its commits is durable
	// (written under walMu, read lock-free).
	ackedSeq  atomic.Uint64
	queue     []*commitWaiter
	flushing  bool
	flushCond *sync.Cond
	grouping  bool
	groupBuf  []*walRecord

	// Pipeline counters (guarded by walMu); Stats derives fsyncs/commit.
	commits  uint64
	fsyncs   uint64
	batches  uint64
	maxBatch int

	// groupOwner is the id of the goroutine inside Group (0 when none):
	// only its commits buffer into the group's atomicity unit, and it is
	// refused re-entrant Group/Checkpoint calls that would self-deadlock.
	groupOwner atomic.Int64

	// ckptMu serializes checkpoints (and Recover, which is one).
	ckptMu      sync.Mutex
	checkpoints atomic.Uint64
	needCkpt    atomic.Bool

	// closed is the sticky lifecycle flag: set once by Close (under
	// ckptMu + walMu), it turns every later commit, checkpoint, group
	// and recovery away with ErrClosed. Without it a post-Close commit
	// would be acknowledged while memory-only — ack-implies-durable
	// silently broken on a supposedly closed store.
	closed atomic.Bool

	// failed is the degraded-mode flag: set on any storage fault, it
	// turns every write path away with ErrReadOnlyDegraded while reads
	// keep serving the published snapshot. healthMu guards the cause
	// bookkeeping behind it; lock order is walMu → healthMu.
	failed       atomic.Bool
	healthMu     sync.Mutex
	degradeCause error
	degradeSince time.Time
	degradations uint64
	recoveries   uint64
}

// commitWaiter is one staged commit waiting for the batch fsync that
// covers it. All fields are guarded by walMu.
type commitWaiter struct {
	payload []byte
	// seq is the record's highest commit sequence (a group frame covers
	// its members' range); a successful flush advances ackedSeq to the
	// batch maximum.
	seq     uint64
	flushed bool
	err     error
}

// DurableOptions tune a DurableDB.
type DurableOptions struct {
	// AutoCheckpointBytes triggers MaybeCheckpoint once the WAL grows
	// past this size; 0 means the 4 MiB default, negative disables
	// auto-checkpointing.
	AutoCheckpointBytes int64
	// NoSync skips the per-commit fsync (bulk loads, benchmarks). A
	// crash may then lose acknowledged commits; recovery is still
	// never corrupt thanks to the CRC framing.
	NoSync bool
	// GroupCommitWindow makes the batch leader linger this long before
	// collecting the queue, trading commit latency for larger batches
	// (fewer fsyncs per commit) under concurrent writers. 0 — the
	// default — flushes as soon as the leader reaches the WAL, which
	// already batches whatever queued during the previous fsync.
	GroupCommitWindow time.Duration
	// BufferPoolPages caps how many sealed heap pages stay resident,
	// from recovery on; evicted pages fault back in from the pages file
	// on demand. 0 keeps everything in memory.
	BufferPoolPages int
}

const defaultAutoCheckpointBytes = 4 << 20

// On-disk layout inside the data directory, besides the pages file
// (pagesFiles in bufferpool.go) the snapshot names.
const (
	snapshotFile = "snapshot.db"
	walFile      = "wal.log"
	tmpSuffix    = ".tmp"
)

// ErrWALFailed is the root sentinel for every commit refused after a
// WAL write or sync error. Callers receive ErrReadOnlyDegraded, which
// wraps it: the engine is degraded read-only, not dead — reads still
// serve the published snapshot and Recover can restore durability.
var ErrWALFailed = errors.New("sqldb: write-ahead log failed; database is read-only")

// degrade enters degraded read-only mode (idempotent; the first cause
// sticks until Recover). Safe to call with walMu held: lock order is
// walMu → healthMu.
func (d *DurableDB) degrade(cause error) {
	d.healthMu.Lock()
	defer d.healthMu.Unlock()
	if d.failed.Load() {
		return
	}
	d.degradeCause = cause
	d.degradeSince = time.Now()
	d.degradations++
	d.failed.Store(true)
}

// OpenDurable opens or recovers a durable database from the VFS's
// directory: the last good snapshot is loaded (an empty database if
// none) and the WAL's valid prefix replayed over it; a torn or corrupt
// WAL tail is truncated.
func OpenDurable(fs VFS, opts DurableOptions) (*DurableDB, error) {
	if opts.AutoCheckpointBytes == 0 {
		opts.AutoCheckpointBytes = defaultAutoCheckpointBytes
	}
	d := &DurableDB{fs: fs, opts: opts}

	// Leftover temp files from an interrupted checkpoint are garbage:
	// the rename never happened, so the real files are authoritative.
	_ = fs.Remove(snapshotFile + tmpSuffix)
	_ = fs.Remove(walFile + tmpSuffix)

	// Load the snapshot, if any, under the pool cap: full pages stay in
	// the pages file the snapshot names and fault in through the pool.
	// Any other pages file is referenced by nothing, so it is deleted
	// rather than appended after forever.
	pool := newPageStore()
	pool.fs = fs
	pool.cap.Store(int64(max(opts.BufferPoolPages, 0)))
	data, err := readSnapshotFile(fs)
	if err != nil {
		return nil, err
	}
	db, snapSeq, err := restoreSnapshot(data, pool)
	if err != nil {
		return nil, fmt.Errorf("sqldb: recovering snapshot: %w", err)
	}
	d.db = db
	for _, name := range pagesFiles {
		if pool.installed == nil || pool.installed.name != name {
			_ = fs.Remove(name)
		}
	}

	// Replay the WAL's valid prefix and truncate the tail.
	wal, err := fs.OpenRW(walFile)
	if err != nil {
		return nil, fmt.Errorf("sqldb: opening wal: %w", err)
	}
	data, err = io.ReadAll(wal)
	if err != nil {
		wal.Close()
		return nil, fmt.Errorf("sqldb: reading wal: %w", err)
	}
	records, goodLen := scanWAL(data)
	maxSeq := snapSeq
	for _, rec := range records {
		if rec.Seq <= snapSeq {
			continue // already captured by the snapshot
		}
		if err := d.db.applyRecord(rec); err != nil {
			wal.Close()
			return nil, fmt.Errorf("sqldb: wal replay (seq %d): %w", rec.Seq, err)
		}
		if rec.Seq > maxSeq {
			maxSeq = rec.Seq
		}
	}
	if goodLen < int64(len(data)) {
		if err := wal.Truncate(goodLen); err != nil {
			wal.Close()
			return nil, fmt.Errorf("sqldb: truncating torn wal tail: %w", err)
		}
	}
	if _, err := wal.Seek(goodLen, io.SeekStart); err != nil {
		wal.Close()
		return nil, fmt.Errorf("sqldb: seeking wal: %w", err)
	}
	d.wal = wal
	d.walSize = goodLen
	d.ackedSize = goodLen
	d.seq.Store(maxSeq)
	// Align the in-memory commit sequence (and the published state's
	// seq) with the WAL high-water mark, so the next commit's WAL
	// sequence and snapshot sequence continue as one numbering.
	d.db.setSeq(maxSeq)
	// The wal file may have just been created: persist its directory
	// entry now, or the first acked commits could vanish with an
	// unsynced name on power loss.
	if err := fs.SyncDir(); err != nil {
		wal.Close()
		return nil, fmt.Errorf("sqldb: syncing data directory: %w", err)
	}
	d.flushCond = sync.NewCond(&d.walMu)
	// Everything replayed so far is durable by definition; from here on
	// the spill barrier keeps a sealed page resident until the WAL fsync
	// covering its commits lands.
	d.ackedSeq.Store(maxSeq)
	d.db.pool.setSpillBarrier(func(seq uint64) bool { return seq <= d.ackedSeq.Load() })
	d.db.setCommitHook(d.stageCommit)
	return d, nil
}

// readSnapshotFile returns the data directory's snapshot bytes, or nil
// when there is none.
func readSnapshotFile(fs VFS) ([]byte, error) {
	if _, err := fs.Size(snapshotFile); errors.Is(err, os.ErrNotExist) {
		return nil, nil
	} else if err != nil {
		return nil, fmt.Errorf("sqldb: probing snapshot: %w", err)
	}
	f, err := fs.Open(snapshotFile)
	if err != nil {
		return nil, fmt.Errorf("sqldb: opening snapshot: %w", err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("sqldb: reading snapshot: %w", err)
	}
	return data, nil
}

// DB returns the underlying database. All reads and writes go through
// it; writes are logged and acknowledged durably.
func (d *DurableDB) DB() *Database { return d.db }

// stageCommit is the commit hook: it is invoked by the Database for
// every committed mutation, while the database write lock is still
// held, so WAL order equals commit order. It encodes and enqueues the
// record, then returns a wait function the committer calls *after*
// releasing the write lock; the wait blocks until a batch fsync covers
// the record, so the commit is acknowledged only once durable while
// later writers are already free to stage into the same batch.
//
// Commits made by the goroutine that owns an open Group don't enter
// the queue: they buffer into the group's single atomic frame, staged
// when the group closes. Commits from any other goroutine — even while
// a group is open — ride the normal pipeline and are durable before
// they are acknowledged.
func (d *DurableDB) stageCommit(rec *walRecord) (func() error, error) {
	rec.Seq = d.seq.Add(1)
	d.walMu.Lock()
	// The closed check lives under walMu so it is ordered against
	// Close's queue drain: a commit either stages in time to ride the
	// final flush, or observes the flag and is refused — never acked
	// memory-only against a closed WAL.
	if d.closed.Load() {
		d.walMu.Unlock()
		return nil, ErrClosed
	}
	// The degraded check lives under walMu so it is ordered against
	// Recover's queue drain: a commit either stages in time to receive
	// its verdict from the drain, or observes the flag and is refused.
	if d.failed.Load() {
		d.walMu.Unlock()
		return nil, ErrReadOnlyDegraded
	}
	if d.grouping && d.groupOwner.Load() == goid() {
		// Inside a group: buffer; the whole group lands as one frame
		// (one CRC unit) when it closes.
		d.groupBuf = append(d.groupBuf, rec)
		d.walMu.Unlock()
		return nil, nil
	}
	w := &commitWaiter{payload: encodeRecordPayload(nil, rec), seq: rec.Seq}
	d.queue = append(d.queue, w)
	d.commits++
	d.walMu.Unlock()
	return func() error { return d.awaitFlush(w) }, nil
}

// awaitFlush blocks until w's batch fsync completes and returns its
// outcome. The first waiter to find the WAL idle becomes the leader and
// flushes the whole queue; everyone else sleeps until woken.
func (d *DurableDB) awaitFlush(w *commitWaiter) error {
	d.walMu.Lock()
	defer d.walMu.Unlock()
	for {
		if w.flushed {
			return w.err
		}
		if !d.flushing {
			d.flushLocked()
			continue
		}
		d.flushCond.Wait()
	}
}

// flushLocked drains the commit queue as one batch: every queued
// payload is framed into a single buffer, written with one Write and
// made durable with one Sync. Caller holds walMu with flushing false;
// the lock is released during the IO (flushing=true keeps the handle
// exclusive) so committers arriving mid-fsync stage into the next
// batch. Returns with walMu held. On error the engine enters degraded
// read-only mode and every commit in the batch fails — none were
// acknowledged.
func (d *DurableDB) flushLocked() {
	d.flushing = true
	if win := d.opts.GroupCommitWindow; win > 0 {
		// Linger with the lock released so more committers can queue up
		// behind this batch.
		d.walMu.Unlock()
		time.Sleep(win)
		d.walMu.Lock()
	}
	batch := d.queue
	d.queue = nil
	if len(batch) == 0 {
		d.flushing = false
		d.flushCond.Broadcast()
		return
	}
	var frame []byte
	for _, w := range batch {
		frame = appendFrame(frame, w.payload)
	}
	d.batches++
	if len(batch) > d.maxBatch {
		d.maxBatch = len(batch)
	}
	wal := d.wal
	d.walMu.Unlock()

	var n int
	var err error
	if wal == nil {
		err = ErrReadOnlyDegraded
	} else {
		n, err = wal.Write(frame)
		if err != nil {
			err = fmt.Errorf("sqldb: wal append: %w", err)
		} else if !d.opts.NoSync {
			if serr := wal.Sync(); serr != nil {
				err = fmt.Errorf("sqldb: wal sync: %w", serr)
			}
		}
	}

	d.walMu.Lock()
	d.walSize += int64(n)
	if !d.opts.NoSync && err == nil {
		d.fsyncs++
	}
	if err != nil {
		d.degrade(err)
	} else {
		d.ackedSize = d.walSize
		top := d.ackedSeq.Load()
		for _, w := range batch {
			if w.seq > top {
				top = w.seq
			}
		}
		d.ackedSeq.Store(top)
		if d.opts.AutoCheckpointBytes > 0 && d.walSize >= d.opts.AutoCheckpointBytes {
			d.needCkpt.Store(true)
		}
	}
	for _, w := range batch {
		w.flushed = true
		w.err = err
	}
	d.flushing = false
	d.flushCond.Broadcast()
}

// goid returns the current goroutine's id, parsed from the
// runtime.Stack header ("goroutine N [...]"). Used only to attribute
// commits to an open Group and to catch re-entrant Group/Checkpoint
// calls; never for synchronization.
func goid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	// Skip "goroutine " (10 bytes), parse digits up to the next space.
	var id int64
	for _, c := range buf[10:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// DurableStats reports group-commit pipeline counters.
type DurableStats struct {
	// Commits counts staged WAL commits (a Group's atomic frame counts
	// as one).
	Commits uint64
	// Fsyncs counts WAL fsyncs; Fsyncs/Commits < 1 means batching is
	// amortizing the sync cost across concurrent writers.
	Fsyncs uint64
	// Batches counts flushes, and MaxBatch is the largest number of
	// commits covered by a single flush.
	Batches  uint64
	MaxBatch int
	// Health reports the durability layer's current state.
	Health Health
}

// Health describes whether the durability layer is serving writes, has
// dropped to degraded read-only mode after a storage fault, or has been
// closed.
type Health struct {
	// State is "ok", "degraded" or "closed".
	State string
	// Cause is the first storage fault that degraded the engine (empty
	// when ok); Since is when it happened.
	Cause string
	Since time.Time
	// Degradations and Recoveries count mode transitions over the
	// engine's lifetime.
	Degradations uint64
	Recoveries   uint64
}

// Health reports the current durability state.
func (d *DurableDB) Health() Health {
	d.healthMu.Lock()
	defer d.healthMu.Unlock()
	h := Health{State: "ok", Degradations: d.degradations, Recoveries: d.recoveries}
	if d.failed.Load() {
		h.State = "degraded"
		h.Since = d.degradeSince
		if d.degradeCause != nil {
			h.Cause = d.degradeCause.Error()
		}
	}
	if d.closed.Load() {
		// Closed is the terminal lifecycle state; a degraded cause, if
		// any, stays visible for post-mortem inspection.
		h.State = "closed"
	}
	return h
}

// Stats returns a snapshot of the pipeline counters.
func (d *DurableDB) Stats() DurableStats {
	d.walMu.Lock()
	defer d.walMu.Unlock()
	return DurableStats{
		Commits:  d.commits,
		Fsyncs:   d.fsyncs,
		Batches:  d.batches,
		MaxBatch: d.maxBatch,
		Health:   d.Health(),
	}
}

// Group runs fn with commit buffering: every record fn commits (from
// fn's own goroutine) is written as a single WAL frame when fn
// returns, so the whole batch is crash-atomic — recovery sees all of
// it or none of it. If fn errors after committing some statements, the
// partial batch is still flushed (the in-memory state has those
// effects, and durable state must match). Groups serialize with each
// other. Commits from *other* goroutines during a group never join its
// atomicity unit: they ride the normal group-commit pipeline and are
// durable before they are acknowledged, exactly as without a group.
// Checkpoint/MaybeCheckpoint must not be called inside fn (they return
// an error rather than self-deadlock).
func (d *DurableDB) Group(fn func() error) error {
	if d.closed.Load() {
		return ErrClosed
	}
	if d.failed.Load() {
		return ErrReadOnlyDegraded
	}
	gid := goid()
	if d.groupOwner.Load() == gid {
		return ErrNestedGroup
	}
	d.ckptMu.Lock() // keep snapshot/rotation out of the buffer-to-flush window
	if d.closed.Load() {
		// Close won ckptMu first: the WAL is gone, so the group's frame
		// could never become durable. Refuse before buffering anything.
		d.ckptMu.Unlock()
		return ErrClosed
	}
	d.walMu.Lock()
	d.grouping = true
	d.groupOwner.Store(gid)
	d.walMu.Unlock()

	fnErr := fn()

	d.walMu.Lock()
	d.grouping = false
	d.groupOwner.Store(0)
	buf := d.groupBuf
	d.groupBuf = nil
	var w *commitWaiter
	if len(buf) > 0 {
		// Stage the whole group as one frame in the pipeline; it shares
		// its batch fsync with any concurrently queued commits.
		group := &walRecord{Op: opGroup, Seq: buf[0].Seq, Group: buf}
		w = &commitWaiter{payload: encodeRecordPayload(nil, group), seq: group.maxSeq()}
		d.queue = append(d.queue, w)
		d.commits++
	}
	d.walMu.Unlock()
	d.ckptMu.Unlock()
	var flushErr error
	if w != nil {
		flushErr = d.awaitFlush(w)
	}
	if fnErr != nil {
		return fnErr
	}
	return flushErr
}

// Checkpoint writes an atomic snapshot of the current state and
// rotates the WAL. The protocol never leaves the directory without a
// loadable state:
//
//  1. Capture the snapshot (readers see a consistent cut; the commit
//     sequence captured with it marks what the snapshot contains).
//  2. Write the full pages the pages file lacks and fsync it; write the
//     snapshot to snapshot.db.tmp, fsync, rename over snapshot.db,
//     fsync the directory; delete the pages file it does not name.
//  3. Rewrite the WAL keeping only frames newer than the snapshot
//     (usually none), via the same write-fsync-rename-fsync dance.
//
// A crash at any byte of this sequence recovers to a consistent state:
// before the rename the old snapshot + full WAL win; after it, the new
// snapshot's sequence number makes the old WAL frames no-ops.
func (d *DurableDB) Checkpoint() error {
	if d.closed.Load() {
		return ErrClosed
	}
	if d.failed.Load() {
		return ErrReadOnlyDegraded
	}
	if d.groupOwner.Load() == goid() {
		// Group holds ckptMu across the user callback; taking it again
		// here would self-deadlock, so refuse loudly instead.
		return ErrCheckpointInsideGroup
	}
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	// Close serializes on ckptMu and sets the flag while holding it, so
	// this check is definitive: past here the store cannot close under
	// us, and a checkpoint can never rotate — and re-open — the WAL
	// after Close has returned.
	if d.closed.Load() {
		return ErrClosed
	}

	// 1+2. Capture and install. The latest published state is pinned with one atomic
	// read — writers are not quiesced; the state's own commit sequence
	// names exactly which WAL records it contains. Full pages are
	// written to the pages file (most already were, by an earlier
	// checkpoint or an eviction) and referenced by slot, not
	// re-serialized.
	snapSeq, err := d.installCheckpoint(d.db)
	if err != nil {
		d.degrade(err)
		return fmt.Errorf("sqldb: checkpoint: %w", err)
	}

	// 3. WAL rotation. Appends are blocked while the log is rewritten;
	// an in-flight batch fsync holds the handle with walMu released, so
	// wait for it to land before swapping files underneath it. Commits
	// still queued (staged but not yet flushing) are safe: their frames
	// move to the new WAL when their batch flushes, and their sequence
	// numbers are above the snapshot's, so recovery replays them.
	d.walMu.Lock()
	defer d.walMu.Unlock()
	for d.flushing {
		d.flushCond.Wait()
	}
	if d.failed.Load() {
		return ErrReadOnlyDegraded
	}
	if err := d.rotateLocked(snapSeq); err != nil {
		d.degrade(err)
		return fmt.Errorf("sqldb: wal rotation: %w", err)
	}
	d.checkpoints.Add(1)
	d.needCkpt.Store(false)
	return nil
}

// installCheckpoint snapshots db's published state and atomically
// replaces snapshot.db with it, returning the sequence it contains.
// Every page the snapshot references is made durable in the pages file
// (write + fsync) before the rename, so the snapshot never publishes a
// reference to an unwritten page; once it is installed, the other
// pages file is garbage and is deleted. Until then the pool keeps the
// previous snapshot's pages file intact, so a failure anywhere here
// leaves snapshot.db valid. The pages file is always d.db's pool's: it
// is the file's single appender, even when db is a recovery rebuild.
func (d *DurableDB) installCheckpoint(db *Database) (uint64, error) {
	ps := d.db.pool
	state := db.state.Load()
	var buf bytes.Buffer
	name, err := writeSnapshot(&buf, state, ps)
	if err != nil {
		return 0, err
	}
	if err := ps.sync(); err != nil {
		return 0, fmt.Errorf("sqldb: syncing pages file: %w", err)
	}
	if err := WriteFileAtomic(d.fs, snapshotFile, buf.Bytes()); err != nil {
		return 0, err
	}
	ps.install(name)
	return state.seq, nil
}

// rotateLocked rewrites the WAL keeping only frames whose records are
// newer than snapSeq, reading frame headers only. Caller holds walMu.
func (d *DurableDB) rotateLocked(snapSeq uint64) error {
	rf, err := d.fs.Open(walFile)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(rf)
	rf.Close()
	if err != nil {
		return err
	}
	frames, _ := scanWALFrames(data)
	var keep []byte
	for _, f := range frames {
		if f.maxSeq > snapSeq {
			keep = append(keep, f.raw...)
		}
	}
	if err := WriteFileAtomic(d.fs, walFile, keep); err != nil {
		return err
	}
	// The file now holds exactly the kept (all acknowledged) frames,
	// whatever happens to the handle below.
	d.ackedSize = int64(len(keep))
	// The old handle points at the replaced file; reopen the new one.
	// Nil the field across the gap: if reopening fails we must not
	// leave d.wal aimed at a closed file, or later Close/flush would
	// operate on a dead handle instead of failing cleanly. (The handle
	// may already be nil when Recover retries after a failed rotation.)
	if d.wal != nil {
		d.wal.Close()
		d.wal = nil
	}
	w, err := d.fs.OpenRW(walFile)
	if err != nil {
		return err
	}
	if _, err := w.Seek(int64(len(keep)), io.SeekStart); err != nil {
		w.Close()
		return err
	}
	d.wal = w
	d.walSize = int64(len(keep))
	return nil
}

// MaybeCheckpoint checkpoints if the WAL has outgrown the
// auto-checkpoint threshold. It reports whether a checkpoint ran.
func (d *DurableDB) MaybeCheckpoint() (bool, error) {
	if !d.needCkpt.Load() {
		return false, nil
	}
	if err := d.Checkpoint(); err != nil {
		return false, err
	}
	return true, nil
}

// WALSize reports the WAL's current length in bytes.
func (d *DurableDB) WALSize() int64 {
	d.walMu.Lock()
	defer d.walMu.Unlock()
	return d.walSize
}

// Checkpoints reports how many checkpoints have completed.
func (d *DurableDB) Checkpoints() uint64 { return d.checkpoints.Load() }

// Failed reports whether the engine is in degraded read-only mode
// after a storage fault. Reads keep serving the published snapshot;
// Recover attempts to restore read-write service.
func (d *DurableDB) Failed() bool { return d.failed.Load() }

// recoverAttempts bounds Recover's retry loop; attempts after the
// first back off starting at recoverBackoff, doubling each time.
const (
	recoverAttempts = 3
	recoverBackoff  = 2 * time.Millisecond
)

// Recover attempts to leave degraded read-only mode by rebuilding the
// engine on exactly the acknowledged history:
//
//  1. Quiesce the pipeline: wait out any in-flight flush and drain
//     queued commits (their waiters get their verdicts), then discard
//     the staged-but-unpublished chain so the write path restarts from
//     the published state.
//  2. Reconstruct the acked state from disk — the last good snapshot
//     plus the WAL prefix covered by a successful fsync. The live
//     published state is NOT a safe source: a failed group commit has
//     already published its member statements in memory while their
//     atomic frame never reached the WAL, and conversely a failed
//     batch can leave whole frames appended on disk that no caller was
//     ever acked for. The fsync-covered prefix is, by definition, the
//     acked history and nothing else.
//  3. Checkpoint that state atomically to snapshot.db, replace the WAL
//     with a fresh empty log, and install the rebuilt state as the
//     live one (published and staged), so reads and recovery agree
//     again.
//
// Each attempt that fails against still-faulty storage backs off and
// retries, up to recoverAttempts; the engine re-enters read-write mode
// only after the checkpoint sequence fully succeeds. Calling Recover
// when healthy is a no-op.
func (d *DurableDB) Recover() error {
	if d.closed.Load() {
		return ErrClosed
	}
	if !d.failed.Load() {
		return nil
	}
	if d.groupOwner.Load() == goid() {
		return errorf("recover inside durability group")
	}
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	if d.closed.Load() {
		return ErrClosed
	}
	if !d.failed.Load() {
		return nil
	}

	// 1. Quiesce. Draining the queue delivers each waiter's error (the
	// storage is still marked degraded, so none can be newly acked
	// unless their write genuinely lands); resetStaged then waits for
	// those commits to consume their publish tickets and rewinds the
	// staged chain to the published state. New commits can't race in:
	// stageCommit refuses while degraded.
	d.walMu.Lock()
	for d.flushing {
		d.flushCond.Wait()
	}
	for len(d.queue) > 0 {
		d.flushLocked()
	}
	d.walMu.Unlock()
	d.db.resetStaged()

	var lastErr error
	backoff := recoverBackoff
	for attempt := 0; attempt < recoverAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		if lastErr = d.recoverOnce(); lastErr == nil {
			d.healthMu.Lock()
			d.degradeCause = nil
			d.degradeSince = time.Time{}
			d.recoveries++
			d.failed.Store(false)
			d.healthMu.Unlock()
			d.checkpoints.Add(1)
			d.needCkpt.Store(false)
			return nil
		}
	}
	return fmt.Errorf("sqldb: recover: %w", lastErr)
}

// recoverOnce runs one rebuild-checkpoint-restart attempt. Caller
// holds ckptMu with the pipeline quiesced.
func (d *DurableDB) recoverOnce() error {
	d.walMu.Lock()
	acked := d.ackedSize
	d.walMu.Unlock()
	rdb, maxSeq, err := d.loadAckedState(acked)
	if err != nil {
		return err
	}
	if _, err := d.installCheckpoint(rdb); err != nil {
		return err
	}
	d.walMu.Lock()
	if err := WriteFileAtomic(d.fs, walFile, nil); err != nil {
		d.walMu.Unlock()
		return err
	}
	if d.wal != nil {
		d.wal.Close()
		d.wal = nil
	}
	w, err := d.fs.OpenRW(walFile)
	if err != nil {
		d.walMu.Unlock()
		return err
	}
	d.wal = w
	d.walSize = 0
	d.ackedSize = 0
	d.walMu.Unlock()
	// Install the rebuilt state as the live one — published and staged
	// — dropping any published-but-unacked group mutations, and restart
	// the commit numbering at the acked high-water mark. This must not
	// run under walMu: a writer holding the database write lock blocks
	// on walMu in stageCommit, and resetToRecovered needs that write
	// lock — taking it with walMu held deadlocks against such a writer.
	// Running outside walMu is safe: the degraded flag is still set, so
	// every commit that wins walMu is refused before touching state.
	d.db.resetToRecovered(rdb.state.Load())
	d.seq.Store(maxSeq)
	// Commit numbering restarts at maxSeq: rewind the spill barrier's
	// horizon with it, or pages sealed by post-recovery commits (seq
	// maxSeq+1…) could evict before their WAL fsync lands.
	d.ackedSeq.Store(maxSeq)
	return nil
}

// loadAckedState loads the last good snapshot and replays the first
// ackedLen bytes of the WAL — the prefix covered by a successful fsync
// — into a fresh database: the acknowledged history, nothing more.
func (d *DurableDB) loadAckedState(ackedLen int64) (*Database, uint64, error) {
	data, err := readSnapshotFile(d.fs)
	if err != nil {
		return nil, 0, err
	}
	// Rebuild on the live engine's pool: it stays the pages file's
	// single appender, and the rebuilt state keeps paging lazily after
	// resetToRecovered installs it. Restoring makes the snapshot's pages
	// file current again if a failed checkpoint had moved off it.
	rdb, snapSeq, err := restoreSnapshot(data, d.db.pool)
	if err != nil {
		return nil, 0, fmt.Errorf("sqldb: recovering snapshot: %w", err)
	}
	f, err := d.fs.Open(walFile)
	if err != nil {
		return nil, 0, fmt.Errorf("sqldb: opening wal: %w", err)
	}
	data, err = io.ReadAll(f)
	f.Close()
	if err != nil {
		return nil, 0, fmt.Errorf("sqldb: reading wal: %w", err)
	}
	if int64(len(data)) > ackedLen {
		data = data[:ackedLen]
	}
	records, _ := scanWAL(data)
	maxSeq := snapSeq
	for _, rec := range records {
		if rec.Seq <= snapSeq {
			continue
		}
		if err := rdb.applyRecord(rec); err != nil {
			return nil, 0, fmt.Errorf("sqldb: wal replay (seq %d): %w", rec.Seq, err)
		}
		if s := rec.maxSeq(); s > maxSeq {
			maxSeq = s
		}
	}
	rdb.setSeq(maxSeq)
	return rdb, maxSeq, nil
}

// Closed reports whether Close has completed (or is in progress): the
// store refuses commits, checkpoints, groups and recovery with
// ErrClosed. Reads keep serving the last published snapshot.
func (d *DurableDB) Closed() bool { return d.closed.Load() }

// Close is the store's lifecycle edge: it drains any in-flight or
// queued batches (commits staged before Close are still acknowledged
// durably), closes the WAL, and permanently refuses every later write
// path with ErrClosed. The commit hook stays attached so a post-Close
// commit fails typed instead of being acknowledged while memory-only.
// Close serializes with Checkpoint/MaybeCheckpoint/Recover on ckptMu,
// so a racing checkpoint can never rotate — and re-open — the WAL
// after Close returns. Double-Close is idempotent; Close from inside
// an open durability Group is refused with ErrCloseInsideGroup (the
// group holds ckptMu; a Close from another goroutine simply waits for
// the group to finish). It does not checkpoint; the WAL replays on the
// next open.
func (d *DurableDB) Close() error {
	if d.groupOwner.Load() == goid() {
		return ErrCloseInsideGroup
	}
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	d.walMu.Lock()
	defer d.walMu.Unlock()
	if d.closed.Load() {
		return nil
	}
	// Sticky from here: commits that already staged drain below and are
	// acked after their fsync; anything arriving later sees the flag
	// under walMu and is refused with ErrClosed.
	d.closed.Store(true)
	for d.flushing {
		d.flushCond.Wait()
	}
	for len(d.queue) > 0 {
		d.flushLocked()
	}
	// Flush and fsync the pages file, but keep its handle: reads still
	// serve the published snapshot after Close, and an evicted page can
	// only come back from disk. Further spills are refused (the pool
	// grows past its cap instead).
	err := d.db.pool.close()
	if d.wal == nil {
		return err
	}
	if cerr := d.wal.Close(); err == nil {
		err = cerr
	}
	d.wal = nil
	return err
}

// WriteFileAtomic writes data to name so that a crash at any point
// leaves either the old file or the new one, never a torn mix: temp
// file in the same directory, fsync, rename, fsync the directory.
func WriteFileAtomic(fs VFS, name string, data []byte) error {
	tmp := name + tmpSuffix
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fs.Rename(tmp, name); err != nil {
		return err
	}
	return fs.SyncDir()
}
