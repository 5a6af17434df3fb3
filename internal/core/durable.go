package core

import (
	"fmt"

	"repro/internal/sqldb"
)

// DurableStore is a Store bound to a data directory with write-ahead
// logging and crash recovery: every load, subtree insertion and direct
// SQL write is durable once acknowledged, document-level operations
// are crash-atomic (one transaction, one WAL frame), and reopening the
// directory after a crash replays the log over the last checkpoint.
// Every scheme can be durable: each keeps its state in its own
// database (shred/state.go), so snapshot + log replay rebuilds it. The
// Store's loads and inserts apply the auto-checkpoint policy after
// they commit.
type DurableStore struct {
	*Store
	ddb *sqldb.DurableDB
}

// DurableOptions re-exports the engine's durability tuning knobs.
type DurableOptions = sqldb.DurableOptions

// OpenDurable opens or crash-recovers a durable store in dir.
func OpenDurable(kind SchemeKind, dir string, opts Options) (*DurableStore, error) {
	return OpenDurableWith(kind, dir, opts, DurableOptions{})
}

// OpenDurableWith is OpenDurable with explicit durability options.
func OpenDurableWith(kind SchemeKind, dir string, opts Options, dopts DurableOptions) (*DurableStore, error) {
	fs, err := sqldb.NewOSVFS(dir)
	if err != nil {
		return nil, fmt.Errorf("core: opening data directory %s: %w", dir, err)
	}
	return OpenDurableVFS(kind, fs, opts, dopts)
}

// OpenDurableVFS opens or crash-recovers a durable store on an
// explicit VFS — the seam the fault-injection harness drives.
func OpenDurableVFS(kind SchemeKind, fs sqldb.VFS, opts Options, dopts DurableOptions) (*DurableStore, error) {
	// The pool cap must hold during recovery, not only after it: the
	// explicit option wins over dopts.BufferPoolPages.
	if opts.BufferPoolPages > 0 {
		dopts.BufferPoolPages = opts.BufferPoolPages
	}
	ddb, err := sqldb.OpenDurable(fs, dopts)
	if err != nil {
		return nil, err
	}
	// A fresh directory's Setup DDL goes through the commit logger, so
	// it is recoverable from its WAL alone.
	st, err := newStore(kind, opts, ddb.DB())
	if err != nil {
		ddb.Close()
		return nil, err
	}
	st.afterWrite = func() error {
		_, err := ddb.MaybeCheckpoint()
		return err
	}
	return &DurableStore{Store: st, ddb: ddb}, nil
}

// Durable exposes the underlying durability engine (WAL size,
// checkpoint counters, degraded-mode state).
func (ds *DurableStore) Durable() *sqldb.DurableDB { return ds.ddb }

// Health reports the durability layer's state: "ok", or "degraded"
// with the storage fault that caused it. Reads keep working while
// degraded; Recover restores read-write service.
func (ds *DurableStore) Health() sqldb.Health { return ds.ddb.Health() }

// Recover attempts to leave degraded read-only mode by checkpointing
// the published (acknowledged) state and starting a fresh WAL.
func (ds *DurableStore) Recover() error { return ds.ddb.Recover() }

// Exec runs a DML/DDL statement against the store's database with
// per-statement durability, then applies the auto-checkpoint policy.
func (ds *DurableStore) Exec(sql string, args ...sqldb.Value) (int, error) {
	n, err := ds.db.Exec(sql, args...)
	if err != nil {
		return n, err
	}
	_, cerr := ds.ddb.MaybeCheckpoint()
	return n, cerr
}

// Checkpoint forces a snapshot + WAL rotation now.
func (ds *DurableStore) Checkpoint() error { return ds.ddb.Checkpoint() }

// Close closes the WAL. The directory reopens (and replays) with
// OpenDurable.
func (ds *DurableStore) Close() error { return ds.ddb.Close() }
