package sqldb

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// DurableDB binds a Database to a data directory (through a VFS) with
// write-ahead logging and atomic checkpointing:
//
//   - Every committed transaction (Database.Update, or one statement
//     through a Database write method) is one WAL record, staged into
//     the group-commit pipeline and fsynced before the commit call
//     returns (see db.go's Tx.commit): committers that arrive while an
//     fsync is in flight queue up, and the first waiter flushes the
//     whole queue with one Write + one Sync — many commits, one fsync.
//     A transaction's state publishes only after that fsync, so the
//     published state is always exactly the acknowledged history.
//   - Checkpoint writes a CRC-sealed snapshot to a temp file, fsyncs
//     it, renames it over the previous snapshot, fsyncs the directory,
//     then rotates the WAL — so there is never a moment without a
//     loadable on-disk state.
//   - OpenDurable recovers by loading the last good snapshot and
//     replaying the WAL's valid prefix, truncating the torn tail.
//
// Failure model is degraded read-only: once a WAL append, sync or
// checkpoint write fails, the DurableDB refuses further commits
// (ErrReadOnlyDegraded, which wraps ErrWALFailed) — the WAL's tail
// may hold torn or unacknowledged frames, and a frame appended after
// them would be acknowledged yet unreadable to recovery. Reads keep
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

	// walMu guards the WAL handle, the commit queue and log rotation.
	// The flusher releases it for the duration of the Write+Sync
	// (flushing=true marks the handle as borrowed) so new committers can
	// stage into the next batch while this one syncs.
	walMu     sync.Mutex
	wal       File
	walSize   int64
	queue     []*commitWaiter
	flushing  bool
	flushCond *sync.Cond

	// Pipeline counters (guarded by walMu); Stats derives fsyncs/commit.
	commits       uint64
	continuations uint64
	fsyncs        uint64
	batches       uint64
	maxBatch      int

	// ckptMu serializes checkpoints (and Recover, which is one).
	ckptMu      sync.Mutex
	checkpoints atomic.Uint64
	needCkpt    atomic.Bool

	// closed is the sticky lifecycle flag: set once by Close (under
	// ckptMu + walMu), it turns every later commit, checkpoint and
	// recovery away with ErrClosed. Without it a post-Close commit
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
	var replay []*walRecord
	for _, rec := range records {
		if rec.Seq <= snapSeq {
			continue // already captured by the snapshot
		}
		replay = append(replay, rec)
		maxSeq = max(maxSeq, rec.Seq)
	}
	if err := d.db.replay(replay); err != nil {
		wal.Close()
		return nil, err
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
	d.db.setCommitLog(d)
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

// stage is the commit log's commit frame: it is invoked by the Database
// for every committed transaction, while the database write lock is
// still held, so WAL order equals commit order. It numbers the record (each
// member of a group frame in turn), encodes and enqueues it, then
// returns a wait function the committer calls *after* releasing the
// write lock; the wait blocks until a batch fsync covers the record, so
// the commit is acknowledged — and published — only once durable while
// later writers are already free to stage into the same batch.
func (d *DurableDB) stage(rec *walRecord) (func() error, error) {
	d.walMu.Lock()
	defer d.walMu.Unlock()
	// The closed check lives under walMu so it is ordered against
	// Close's queue drain: a commit either stages in time to ride the
	// final flush, or observes the flag and is refused — never acked
	// memory-only against a closed WAL.
	if d.closed.Load() {
		return nil, ErrClosed
	}
	// The degraded check lives under walMu so it is ordered against
	// Recover's queue drain: a commit either stages in time to receive
	// its verdict from the drain, or observes the flag and is refused.
	if d.failed.Load() {
		return nil, ErrReadOnlyDegraded
	}
	if rec.Op == opGroup {
		for _, m := range rec.Group {
			m.Seq = d.seq.Add(1)
		}
		rec.Seq = rec.Group[0].Seq
	} else {
		rec.Seq = d.seq.Add(1)
	}
	w := &commitWaiter{payload: encodeRecordPayload(nil, rec)}
	d.queue = append(d.queue, w)
	d.commits++
	return func() error { return d.awaitFlush(w) }, nil
}

// stream writes recs as one continuation frame of the transaction that
// holds the writer slot, numbering them as stage numbers a group's
// members. Commits staged before the transaction began are flushed
// first, so the frame lands at the log's tail, after them. It is
// written but not synced: the commit frame's fsync covers it, and a
// crash before that leaves a run recovery discards as torn tail.
func (d *DurableDB) stream(recs []*walRecord) (int64, error) {
	d.walMu.Lock()
	defer d.walMu.Unlock()
	for d.flushing || len(d.queue) > 0 {
		if d.flushing {
			d.flushCond.Wait()
		} else {
			d.flushLocked()
		}
	}
	switch {
	case d.closed.Load():
		return 0, ErrClosed
	case d.failed.Load():
		return 0, ErrReadOnlyDegraded
	}
	for _, m := range recs {
		m.Seq = d.seq.Add(1)
	}
	rec := &walRecord{Op: opCont, Seq: recs[0].Seq, Group: recs}
	n, err := d.wal.Write(appendRecordFrame(nil, rec))
	d.walSize += int64(n)
	if err != nil {
		err = fmt.Errorf("sqldb: wal append: %w", err)
		d.degrade(err)
		return 0, err
	}
	d.continuations++
	return int64(n), nil
}

// unstream truncates an aborted transaction's continuation frames, the
// last n bytes of the log, and gives back their k sequence numbers. A
// checkpoint that rotated the log meanwhile kept them, still at its
// tail. When the log is closed or degraded, the run is left for
// recovery to discard (or Recover to replace).
func (d *DurableDB) unstream(n int64, k int) {
	d.walMu.Lock()
	defer d.walMu.Unlock()
	for d.flushing {
		d.flushCond.Wait()
	}
	d.seq.Add(-uint64(k))
	if d.wal == nil || d.closed.Load() || d.failed.Load() {
		return
	}
	size := d.walSize - n
	if err := d.wal.Truncate(size); err != nil {
		d.degrade(fmt.Errorf("sqldb: wal truncate: %w", err))
		return
	}
	if _, err := d.wal.Seek(size, io.SeekStart); err != nil {
		d.degrade(fmt.Errorf("sqldb: wal seek: %w", err))
		return
	}
	d.walSize = size
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
	// A batch behind a failed one must not land: its states build on
	// the failed commits, and its frame would follow bytes recovery never
	// reads past — acknowledged, then lost.
	if wal == nil || d.failed.Load() {
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
	} else if d.opts.AutoCheckpointBytes > 0 && d.walSize >= d.opts.AutoCheckpointBytes {
		d.needCkpt.Store(true)
	}
	for _, w := range batch {
		w.flushed = true
		w.err = err
	}
	d.flushing = false
	d.flushCond.Broadcast()
}

// DurableStats reports group-commit pipeline counters.
type DurableStats struct {
	// Commits counts staged WAL commits (a transaction's frame counts
	// as one).
	Commits uint64
	// Continuations counts continuation frames: records of an open
	// transaction logged ahead of its commit frame.
	Continuations uint64
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
		Commits:       d.commits,
		Continuations: d.continuations,
		Fsyncs:        d.fsyncs,
		Batches:       d.batches,
		MaxBatch:      d.maxBatch,
		Health:        d.Health(),
	}
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
	snapSeq, err := d.installCheckpoint()
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

// installCheckpoint snapshots the published state and atomically
// replaces snapshot.db with it, returning the sequence it contains.
// Every page the snapshot references is made durable in the pages file
// (write + fsync) before the rename, so the snapshot never publishes a
// reference to an unwritten page; once it is installed, the other
// pages file is garbage and is deleted. Until then the pool keeps the
// previous snapshot's pages file intact, so a failure anywhere here
// leaves snapshot.db valid.
func (d *DurableDB) installCheckpoint() (uint64, error) {
	ps := d.db.pool
	state := d.db.state.Load()
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
// newer than snapSeq, reading frame headers only: an open transaction's
// continuation frames are newer than any published state, so they stay
// at the tail. Caller holds walMu.
func (d *DurableDB) rotateLocked(snapSeq uint64) error {
	rf, err := d.fs.Open(walFile)
	if err != nil {
		return err
	}
	// One buffer sized to the tracked length takes the whole log; kept
	// frames are compacted into it in place, each moving only toward
	// the front.
	buf := bytes.NewBuffer(make([]byte, 0, d.walSize+bytes.MinRead))
	_, err = buf.ReadFrom(rf)
	rf.Close()
	if err != nil {
		return err
	}
	data := buf.Bytes()
	frames, _ := scanWALFrames(data)
	keep := data[:0]
	for _, f := range frames {
		if f.maxSeq > snapSeq {
			keep = append(keep, f.raw...)
		}
	}
	if err := WriteFileAtomic(d.fs, walFile, keep); err != nil {
		return err
	}
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

// Recover attempts to leave degraded read-only mode by checkpointing
// the published state, which is exactly the acknowledged history — a
// transaction publishes only after its WAL record is durable:
//
//  1. Quiesce the pipeline: wait out any in-flight flush and fail the
//     queued commits (their waiters get their verdicts), wait for an
//     open transaction to end, then discard the staged-but-unpublished
//     chain so the write path restarts from the published state.
//  2. Make the pages file the installed snapshot names current again
//     (a failed checkpoint may have moved to the other name), write
//     the published state as a checkpoint, and replace the WAL with a
//     fresh empty log: its tail may hold frames of failed commits.
//
// Each attempt that fails against still-faulty storage backs off and
// retries, up to recoverAttempts; the engine re-enters read-write mode
// only after the checkpoint sequence fully succeeds. Calling Recover
// when healthy is a no-op. Recover takes the writer slot, so it must
// not be called inside a Database.Update callback.
func (d *DurableDB) Recover() error {
	if d.closed.Load() {
		return ErrClosed
	}
	if !d.failed.Load() {
		return nil
	}
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	if d.closed.Load() {
		return ErrClosed
	}
	if !d.failed.Load() {
		return nil
	}

	// 1. Quiesce. Draining the queue fails each waiter (the engine is
	// degraded, so no batch is written); resetStaged then waits for
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

// recoverOnce runs one checkpoint-restart attempt. Caller holds ckptMu
// with the pipeline quiesced; the degraded flag keeps every commit out.
func (d *DurableDB) recoverOnce() error {
	d.db.pool.reinstall()
	seq, err := d.installCheckpoint()
	if err != nil {
		return err
	}
	d.walMu.Lock()
	defer d.walMu.Unlock()
	if err := WriteFileAtomic(d.fs, walFile, nil); err != nil {
		return err
	}
	if d.wal != nil {
		d.wal.Close()
		d.wal = nil
	}
	w, err := d.fs.OpenRW(walFile)
	if err != nil {
		return err
	}
	d.wal = w
	d.walSize = 0
	// Commit numbering continues from the published state: the failed
	// commits' sequence numbers were never acknowledged.
	d.seq.Store(seq)
	return nil
}

// Closed reports whether Close has completed (or is in progress): the
// store refuses commits, checkpoints and recovery with ErrClosed. Reads keep serving the last published snapshot.
func (d *DurableDB) Closed() bool { return d.closed.Load() }

// Close is the store's lifecycle edge: it drains any in-flight or
// queued batches (commits staged before Close are still acknowledged
// durably), closes the WAL, and permanently refuses every later write
// path with ErrClosed. The commit hook stays attached so a post-Close
// commit fails typed instead of being acknowledged while memory-only.
// Close serializes with Checkpoint/MaybeCheckpoint/Recover on ckptMu,
// so a racing checkpoint can never rotate — and re-open — the WAL
// after Close returns. Double-Close is idempotent. A transaction still
// open when Close runs fails its commit with ErrClosed. Close does not
// checkpoint; the WAL replays on the next open.
func (d *DurableDB) Close() error {
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
