package sqldb

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Snapshot is an explicitly pinned, immutable view of the database: a
// published dbState plus bookkeeping so its age shows up in the
// snapshot metrics. All reads through a Snapshot — across any number of
// statements — observe exactly the commits with seq <= Seq(), never
// blocking writers and never seeing later ones. Release it when done so
// the tracker stops counting it against oldest-live-snapshot age (the
// underlying versions are reclaimed by Go's GC once unreferenced; there
// is no other cleanup).
type Snapshot struct {
	db       *Database
	st       *dbState
	acquired time.Time
	released atomic.Bool
}

// AcquireSnapshot pins the latest published version set for consistent
// multi-statement reads.
func (db *Database) AcquireSnapshot() *Snapshot {
	db.snaps.recordAcquire()
	s := &Snapshot{db: db, st: db.state.Load(), acquired: time.Now()}
	db.snaps.pin(s)
	return s
}

// Seq returns the commit sequence of the latest published state: the
// one a read started now observes.
func (db *Database) Seq() uint64 { return db.state.Load().seq }

// Seq returns the commit sequence the snapshot observes: every commit
// with seq <= Seq() is visible, nothing later is.
func (s *Snapshot) Seq() uint64 { return s.st.seq }

// Epoch returns the schema epoch of the pinned version set.
func (s *Snapshot) Epoch() uint64 { return s.st.epoch }

// Release unpins the snapshot. Reads through a released snapshot still
// work (the versions are immutable); releasing only ends the metrics
// tracking. Safe to call more than once.
func (s *Snapshot) Release() {
	if s.released.CompareAndSwap(false, true) {
		s.db.snaps.unpin(s)
	}
}

// Query runs a SELECT against the pinned version set.
func (s *Snapshot) Query(sql string, args ...Value) (*Rows, error) {
	return s.db.queryAt(context.Background(), s.st, sql, args)
}

// QueryContext is Query honoring a context deadline/cancellation.
func (s *Snapshot) QueryContext(qctx context.Context, sql string, args ...Value) (*Rows, error) {
	return s.db.queryAt(qctx, s.st, sql, args)
}

// QueryScalar runs a SELECT expected to return a single value; it
// returns NULL for an empty result.
func (s *Snapshot) QueryScalar(sql string, args ...Value) (Value, error) {
	return scalarOf(s.Query(sql, args...))
}

// SnapshotStats summarizes snapshot-isolation activity since the
// database was created.
type SnapshotStats struct {
	// Acquired counts snapshot acquisitions: one per read operation
	// (Query, EXPLAIN ANALYZE, Prepare/Prepared.Query) plus one per
	// explicit AcquireSnapshot.
	Acquired uint64
	// Pinned is the number of explicitly pinned snapshots not yet
	// released.
	Pinned int
	// OldestAge is the age of the oldest live pinned snapshot (zero when
	// none are pinned).
	OldestAge time.Duration
	// Publishes counts writer commits that published a new state.
	Publishes uint64
	// PublishWaits counts writer transactions, and PublishWaitTime is
	// the total time writers spent waiting to acquire the writer slot —
	// the writer-side contention figure (readers never wait).
	PublishWaits    uint64
	PublishWaitTime time.Duration
	// PublishOrderWaits counts commits that had finished their WAL fsync
	// but had to wait for an earlier-staged commit to publish first, so
	// the published state chain stays in commit order.
	PublishOrderWaits uint64
	// VersionsReclaimed counts table versions superseded by a publish
	// and thereby handed to the garbage collector (reclaimed once the
	// last snapshot referencing them is dropped).
	VersionsReclaimed uint64
}

// snapTracker collects snapshot metrics. It has its own mutex for the
// pinned-snapshot set; counters are atomics so the hot read path only
// pays one atomic add.
type snapTracker struct {
	acquired   atomic.Uint64
	publishes  atomic.Uint64
	reclaimed  atomic.Uint64
	waits      atomic.Uint64
	waitNs     atomic.Int64
	orderWaits atomic.Uint64

	mu     sync.Mutex
	pinned map[*Snapshot]time.Time
}

func newSnapTracker() *snapTracker {
	return &snapTracker{pinned: map[*Snapshot]time.Time{}}
}

func (t *snapTracker) recordAcquire() { t.acquired.Add(1) }

func (t *snapTracker) recordPublishWait(d time.Duration) {
	t.waits.Add(1)
	t.waitNs.Add(int64(d))
}

func (t *snapTracker) recordPublishOrderWait() { t.orderWaits.Add(1) }

func (t *snapTracker) recordPublish(reclaimed int) {
	t.publishes.Add(1)
	if reclaimed > 0 {
		t.reclaimed.Add(uint64(reclaimed))
	}
}

func (t *snapTracker) pin(s *Snapshot) {
	t.mu.Lock()
	t.pinned[s] = s.acquired
	t.mu.Unlock()
}

func (t *snapTracker) unpin(s *Snapshot) {
	t.mu.Lock()
	delete(t.pinned, s)
	t.mu.Unlock()
}

func (t *snapTracker) stats() SnapshotStats {
	st := SnapshotStats{
		Acquired:          t.acquired.Load(),
		Publishes:         t.publishes.Load(),
		PublishWaits:      t.waits.Load(),
		PublishWaitTime:   time.Duration(t.waitNs.Load()),
		PublishOrderWaits: t.orderWaits.Load(),
		VersionsReclaimed: t.reclaimed.Load(),
	}
	t.mu.Lock()
	st.Pinned = len(t.pinned)
	var oldest time.Time
	for _, at := range t.pinned {
		if oldest.IsZero() || at.Before(oldest) {
			oldest = at
		}
	}
	t.mu.Unlock()
	if !oldest.IsZero() {
		st.OldestAge = time.Since(oldest)
	}
	return st
}
