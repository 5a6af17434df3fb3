package core

import (
	"context"
	"fmt"
	"io"

	"repro/internal/lru"
	"repro/internal/shred"
	"repro/internal/sqldb"
	"repro/internal/xmldom"
)

// DurableStore is a Store bound to a data directory with write-ahead
// logging and crash recovery: every load, subtree insertion and direct
// SQL write is durable once acknowledged, document-level operations
// are crash-atomic (one transaction, one WAL frame), and reopening the
// directory after a crash replays the log over the last checkpoint.
//
// Only the stateless schemes — Interval and Dewey — can be durable:
// they keep all their state in the database, so snapshot + log replay
// reconstructs them exactly. (Edge, Binary, Universal and Inline carry
// in-memory catalogs a log does not capture; reload those from XML.)
type DurableStore struct {
	*Store
	ddb *sqldb.DurableDB
}

// DurableOptions re-exports the engine's durability tuning knobs.
type DurableOptions = sqldb.DurableOptions

// schemeTables names one table each scheme always creates, used to
// detect that a recovered directory holds the scheme the caller asked
// for.
var schemeTables = map[SchemeKind]string{
	Interval: "accel",
	Dewey:    "dewey",
}

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
	var s shred.Scheme
	switch kind {
	case Interval:
		s = shred.NewInterval(opts.WithValueIndex)
	case Dewey:
		s = shred.NewDewey(opts.WithValueIndex)
	default:
		return nil, fmt.Errorf("core: scheme %q cannot be durable (in-memory mapping state); use interval or dewey", kind)
	}
	// The pool cap must hold during recovery, not only after it: the
	// explicit option wins over dopts.BufferPoolPages.
	if opts.BufferPoolPages > 0 {
		dopts.BufferPoolPages = opts.BufferPoolPages
	}
	ddb, err := sqldb.OpenDurable(fs, dopts)
	if err != nil {
		return nil, err
	}
	db := ddb.DB()
	if opts.MemoryBudget > 0 {
		db.SetMemoryBudget(opts.MemoryBudget)
	}
	if opts.QueryMemoryLimit > 0 {
		db.SetQueryMemoryLimit(opts.QueryMemoryLimit)
	}
	if opts.MaxConcurrentQueries > 0 {
		db.SetAdmissionControl(opts.MaxConcurrentQueries, opts.MaxQueuedQueries)
	}
	fresh := len(db.TableNames()) == 0
	if fresh {
		// Setup's DDL goes through the commit logger, so even a fresh
		// directory is recoverable from its WAL alone.
		if err := s.Setup(db); err != nil {
			ddb.Close()
			return nil, err
		}
	} else if db.TableDef(schemeTables[kind]) == nil {
		ddb.Close()
		return nil, fmt.Errorf("core: data directory holds a different scheme (no %s table for %q)", schemeTables[kind], kind)
	}
	st := &Store{
		kind:   kind,
		scheme: s,
		db:     db,
		loaded: db.TotalRows() > 0,
		trans:  lru.New[string](defaultTransCacheCap),
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

// LoadDocument shreds a document as one crash-atomic transaction:
// recovery sees the whole document or none of it.
func (ds *DurableStore) LoadDocument(doc *xmldom.Document) error {
	return ds.LoadDocumentContext(context.Background(), doc)
}

// LoadDocumentContext is LoadDocument honoring a context, checked at
// shred-batch granularity inside the transaction.
func (ds *DurableStore) LoadDocumentContext(ctx context.Context, doc *xmldom.Document) error {
	if err := ds.Store.LoadDocumentContext(ctx, doc); err != nil {
		return err
	}
	_, err := ds.ddb.MaybeCheckpoint()
	return err
}

// LoadXML parses and shreds an XML document (crash-atomic). Parsing
// finishes before the transaction opens: a malformed document writes
// nothing, and nothing partial can become durable.
func (ds *DurableStore) LoadXML(src []byte) error {
	return ds.LoadXMLContext(context.Background(), src)
}

// LoadXMLContext is LoadXML honoring a context: cancellation bounds
// the shred at its next bulk-insert batch.
func (ds *DurableStore) LoadXMLContext(ctx context.Context, src []byte) error {
	doc, err := xmldom.Parse(src)
	if err != nil {
		return err
	}
	return ds.LoadDocumentContext(ctx, doc)
}

// LoadXMLStream shreds a document from a stream with bounded memory.
// Unlike LoadXML, the load is NOT one crash-atomic transaction: each
// insert batch commits (and is WAL-acknowledged) on its own, so a crash
// mid-load can leave a partial document — rerun the load into a fresh
// directory in that case. The trade is deliberate: a transaction holds
// every row it wrote until its one fsync, which would defeat the
// bounded-memory purpose of streaming.
func (ds *DurableStore) LoadXMLStream(ctx context.Context, r io.Reader) error {
	if err := ds.Store.LoadXMLStream(ctx, r); err != nil {
		return err
	}
	_, err := ds.ddb.MaybeCheckpoint()
	return err
}

// InsertXML inserts a fragment as one crash-atomic transaction.
func (ds *DurableStore) InsertXML(parentID int64, position int, fragment []byte) error {
	if err := ds.Store.InsertXML(parentID, position, fragment); err != nil {
		return err
	}
	_, err := ds.ddb.MaybeCheckpoint()
	return err
}

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
