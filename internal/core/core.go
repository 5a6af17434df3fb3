// Package core is the public face of xmlrdb: storage and retrieval of
// XML data using a relational database, per the ICDE 2003 tutorial this
// repository reproduces.
//
// A Store binds one mapping scheme (Edge, Binary, Universal, Interval,
// Dewey, or DTD-Inline) to an embedded relational database. Documents
// go in as XML text; XPath queries come back as (node id, value) rows
// compiled to SQL over the chosen layout; the stored document can be
// published back out as XML.
//
//	st, _ := core.Open(core.Interval)
//	_ = st.LoadXML([]byte(`<bib><book year="1967"><title>...</title></book></bib>`))
//	res, _ := st.Query(`/bib/book[@year='1967']/title`)
//	for _, m := range res.Matches {
//		fmt.Println(m.ID, m.Value)
//	}
package core

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync/atomic"
	"time"

	"repro/internal/shred"
	"repro/internal/sqldb"
	"repro/internal/xmldom"
	"repro/internal/xpath"
)

// SchemeKind selects a mapping scheme.
type SchemeKind string

// Available schemes.
const (
	// Edge stores one relation of parent-child edges (Florescu &
	// Kossmann); descendant steps expand to unions of join chains.
	Edge SchemeKind = "edge"
	// Binary partitions the edge relation by label.
	Binary SchemeKind = "binary"
	// Universal denormalizes every root-to-leaf path into one wide
	// relation (the strawman).
	Universal SchemeKind = "universal"
	// Interval stores pre/size/level region numbers (the XPath
	// accelerator); every axis is a range predicate.
	Interval SchemeKind = "interval"
	// Dewey stores dotted order-preserving path labels; ancestry is a
	// prefix test and ordered inserts are local.
	Dewey SchemeKind = "dewey"
	// Inline derives a real relational schema from a DTD via shared
	// inlining (requires Options.DTD).
	Inline SchemeKind = "inline"
)

// Options configure a Store.
type Options struct {
	// WithValueIndex adds content-value indexes (the F5 ablation).
	WithValueIndex bool
	// DTD supplies the document type for the Inline scheme (ignored by
	// the others). Root optionally names the document element. A data
	// directory reopens under the DTD it stored; a different one is
	// refused.
	DTD  string
	Root string
	// MemoryBudget caps the engine's total tracked query memory in
	// bytes; queries that would push the shared pool past it abort with
	// sqldb.ErrMemoryBudgetExceeded. 0 disables the budget.
	MemoryBudget int64
	// QueryMemoryLimit caps each individual query's tracked memory in
	// bytes. 0 disables the per-query limit.
	QueryMemoryLimit int64
	// MaxConcurrentQueries bounds how many queries execute at once;
	// excess queries wait in a queue of at most MaxQueuedQueries and
	// are rejected with sqldb.ErrOverloaded when it is full. 0 disables
	// admission control.
	MaxConcurrentQueries int
	MaxQueuedQueries     int
	// BufferPoolPages caps how many 512-row heap pages the engine keeps
	// resident, from recovery on for a durable store; full pages beyond
	// the cap spill to disk and page back in on demand. 0 keeps every
	// page in memory (the default).
	BufferPoolPages int
}

// Store is one XML document stored relationally under a mapping scheme.
type Store struct {
	kind   SchemeKind
	scheme shred.Scheme
	db     *sqldb.Database
	// afterWrite runs after each committed load or insert: a durable
	// store's auto-checkpoint policy; nil in memory.
	afterWrite func() error

	// loaded is Loaded's last answer and the commit it holds for: the
	// probe runs on a snapshot pinned at that commit, so the answer is
	// served until the next commit and never for another.
	loaded atomic.Pointer[loadedAt]

	// Phase timers decompose end-to-end latency: shred (document load
	// and subtree insertion), translate (XPath→SQL), exec (relational
	// execution), publish (reconstruction/serialization). Plan-compile
	// time, the fourth component, is tracked one layer down by the
	// sqldb metrics registry.
	shredPhase, translatePhase, execPhase, publishPhase phaseTimer
}

// loadedAt is Loaded's answer at commit seq.
type loadedAt struct {
	seq    uint64
	loaded bool
}

// phaseTimer accumulates a span count and total duration; atomic so
// concurrent readers can record without coordination.
type phaseTimer struct {
	count atomic.Uint64
	ns    atomic.Int64
}

func (p *phaseTimer) add(d time.Duration) {
	p.count.Add(1)
	p.ns.Add(int64(d))
}

func (p *phaseTimer) stat() PhaseStat {
	return PhaseStat{Count: p.count.Load(), Total: time.Duration(p.ns.Load())}
}

// PhaseStat is one phase's cumulative activity.
type PhaseStat struct {
	Count uint64
	Total time.Duration
}

// PhaseStats decomposes the store's cumulative end-to-end latency.
type PhaseStats struct {
	// Shred covers document loading and subtree insertion.
	Shred PhaseStat
	// Translate covers XPath parsing and SQL generation.
	Translate PhaseStat
	// Exec covers relational execution (plan-compile time within it is
	// reported by sqldb's metrics registry).
	Exec PhaseStat
	// Publish covers reconstruction and XML serialization.
	Publish PhaseStat
}

// PhaseStats returns the cumulative per-phase timing spans.
func (st *Store) PhaseStats() PhaseStats {
	return PhaseStats{
		Shred:     st.shredPhase.stat(),
		Translate: st.translatePhase.stat(),
		Exec:      st.execPhase.stat(),
		Publish:   st.publishPhase.stat(),
	}
}

// Open creates an empty Store with default options.
func Open(kind SchemeKind) (*Store, error) {
	return OpenWith(kind, Options{})
}

// OpenWith creates an empty Store.
func OpenWith(kind SchemeKind, opts Options) (*Store, error) {
	db := sqldb.New()
	if opts.BufferPoolPages > 0 {
		db.SetBufferPool(opts.BufferPoolPages)
	}
	return newStore(kind, opts, db)
}

// newStore binds kind to db — both open paths come through here: it
// applies the governor options and builds the scheme, then sets up an
// empty database or refuses one that holds another scheme's layout.
func newStore(kind SchemeKind, opts Options, db *sqldb.Database) (*Store, error) {
	if opts.MemoryBudget > 0 {
		db.SetMemoryBudget(opts.MemoryBudget)
	}
	if opts.QueryMemoryLimit > 0 {
		db.SetQueryMemoryLimit(opts.QueryMemoryLimit)
	}
	if opts.MaxConcurrentQueries > 0 {
		db.SetAdmissionControl(opts.MaxConcurrentQueries, opts.MaxQueuedQueries)
	}
	s, err := newScheme(kind, opts, db)
	if err != nil {
		return nil, err
	}
	if len(db.TableNames()) == 0 {
		err = s.Setup(db)
	} else {
		err = checkLayout(kind, s, db)
	}
	if err != nil {
		return nil, err
	}
	return &Store{kind: kind, scheme: s, db: db}, nil
}

// newScheme builds kind's scheme. Inline takes the DTD db stored, when
// it holds one, and refuses a different one in opts.
func newScheme(kind SchemeKind, opts Options, db *sqldb.Database) (shred.Scheme, error) {
	switch kind {
	case Edge:
		return shred.NewEdge(opts.WithValueIndex), nil
	case Binary:
		return shred.NewBinary(opts.WithValueIndex), nil
	case Universal:
		return shred.NewUniversal(), nil
	case Interval:
		return shred.NewInterval(opts.WithValueIndex), nil
	case Dewey:
		return shred.NewDewey(opts.WithValueIndex), nil
	case Inline:
		text, root := opts.DTD, opts.Root
		if stored, storedRoot, ok := shred.StoredDTD(db); ok {
			if text != "" && text != stored {
				return nil, fmt.Errorf("core: the data directory holds a different DTD than Options.DTD")
			}
			text, root = stored, storedRoot
		}
		if text == "" {
			return nil, fmt.Errorf("core: the inline scheme requires Options.DTD")
		}
		return shred.NewInline(text, root)
	}
	return nil, fmt.Errorf("core: unknown scheme %q", kind)
}

// checkLayout refuses a database that does not hold s's layout: every
// table s's Setup creates must be there with the same definition.
func checkLayout(kind SchemeKind, s shred.Scheme, db *sqldb.Database) error {
	fresh := sqldb.New()
	if err := s.Setup(fresh); err != nil {
		return err
	}
	for _, name := range fresh.TableNames() {
		if !reflect.DeepEqual(db.TableDef(name), fresh.TableDef(name)) {
			return fmt.Errorf("core: data directory holds a different scheme (no %s table for %q)", name, kind)
		}
	}
	return nil
}

// Kind returns the store's scheme.
func (st *Store) Kind() SchemeKind { return st.kind }

// DB exposes the underlying relational database for direct SQL (the
// escape hatch the tutorial's SQL/X discussion motivates).
func (st *Store) DB() *sqldb.Database { return st.db }

// LoadXML loads an XML document through LoadXMLStream. A Store holds
// exactly one document. A malformed one fails the load's transaction
// at the parse error and leaves the store empty.
func (st *Store) LoadXML(src []byte) error {
	return st.LoadXMLContext(context.Background(), src)
}

// LoadXMLContext is LoadXML honoring a context: cancellation or
// deadline expiry aborts the load at its next bulk-insert batch.
func (st *Store) LoadXMLContext(ctx context.Context, src []byte) error {
	return st.LoadXMLStream(ctx, bytes.NewReader(src))
}

// LoadXMLStream loads a document from a stream: it is tokenized and
// shredded in one pass, as one transaction — the check that the store
// is still empty included. A malformed, failed or canceled load leaves
// nothing behind, in memory or in a data directory, and of two
// concurrent loads one is refused. Every scheme but Universal shreds
// the tokens as they arrive, so the document is never held whole: the
// transaction's full pages stay under the buffer pool cap and its log
// records stream to the WAL (see sqldb.Tx).
func (st *Store) LoadXMLStream(ctx context.Context, r io.Reader) error {
	return st.insert(ctx, 0, 0, xmldom.NewTokenizer(r))
}

// LoadDocument loads an already-parsed document.
func (st *Store) LoadDocument(doc *xmldom.Document) error {
	return st.LoadDocumentContext(context.Background(), doc)
}

// LoadDocumentContext is LoadDocument honoring a context: the load
// replays the document's tokens through LoadXMLStream's transaction.
func (st *Store) LoadDocumentContext(ctx context.Context, doc *xmldom.Document) error {
	return st.insert(ctx, 0, 0, doc.Tokens())
}

// insert shreds src as the position-th child of parentID as one
// transaction. Under the document node (id 0) that is a load, refused
// when the store already holds a document. A negative position is
// refused before the transaction opens.
func (st *Store) insert(ctx context.Context, parentID int64, position int, src xmldom.TokenSource) error {
	if position < 0 {
		return fmt.Errorf("core: insert position %d is negative", position)
	}
	start := time.Now()
	insert := func(tx *sqldb.Tx) error {
		if parentID == 0 {
			if loaded, err := st.holdsDocument(tx); err != nil || loaded {
				return cmp.Or(err, errSecondDocument)
			}
		}
		return st.scheme.Insert(ctx, tx, parentID, position, src)
	}
	if err := st.db.Update(insert); err != nil {
		return err
	}
	return st.wrote(start)
}

// rootElement is the query every scheme answers with the stored
// document's element, and with nothing when no document is stored.
var rootElement = xpath.MustParse("/*")

// holdsDocument reports whether the state db reads holds a document.
func (st *Store) holdsDocument(db sqldb.Queryer) (bool, error) {
	sql, err := st.scheme.Translate(db, rootElement)
	if err != nil {
		return false, err
	}
	rows, err := db.Query(sql)
	if err != nil {
		return false, err
	}
	return rows.Len() > 0, nil
}

// errSecondDocument refuses a load into a store that holds a document:
// a Store holds exactly one.
var errSecondDocument = errors.New("core: store already holds a document")

// wrote finishes a load or insert that began at start and committed:
// it records the shred phase and runs afterWrite.
func (st *Store) wrote(start time.Time) error {
	st.shredPhase.add(time.Since(start))
	if st.afterWrite == nil {
		return nil
	}
	return st.afterWrite()
}

// Match is one query result: the matched node's id (pre-order rank in
// the loaded document; host-row id under Inline) and its string value
// when the scheme stores it inline.
type Match struct {
	ID    int64
	Value string
	// HasValue distinguishes an empty value from an absent one.
	HasValue bool
}

// Result is a query result set in document order.
type Result struct {
	Query   string
	SQL     string
	Matches []Match
}

// Translate compiles an XPath query to this store's SQL without running
// it, against the latest committed scheme state. Nothing is cached at
// this layer: translation is a string rewrite that costs tens of
// microseconds, and the plan the SQL compiles to is cached one layer
// down, keyed by the SQL text (sqldb's plan cache).
func (st *Store) Translate(query string) (string, error) {
	return st.translate(st.db, query)
}

// translate compiles query against the scheme state db reads.
func (st *Store) translate(db sqldb.Queryer, query string) (string, error) {
	start := time.Now()
	defer func() { st.translatePhase.add(time.Since(start)) }()
	p, err := xpath.Parse(query)
	if err != nil {
		return "", err
	}
	return st.scheme.Translate(db, p)
}

// Query compiles and executes an XPath query.
func (st *Store) Query(query string) (*Result, error) {
	return st.QueryContext(context.Background(), query)
}

// QueryContext is Query honoring a context: cancellation or deadline
// expiry aborts the SQL execution at its next operator chokepoint and
// returns the context's error. Like every read of the Store, it
// translates and executes on one published state (StoreSnapshot).
func (st *Store) QueryContext(ctx context.Context, query string) (*Result, error) {
	s := st.Snapshot()
	defer s.Release()
	return s.QueryContext(ctx, query)
}

// resultFrom extracts Matches from a translated query's row set.
func resultFrom(query, sql string, rows *sqldb.Rows) *Result {
	res := &Result{Query: query, SQL: sql, Matches: make([]Match, 0, rows.Len())}
	for _, r := range rows.Data {
		m := Match{ID: r[0].Int()}
		if len(r) > 1 && !r[1].IsNull() {
			m.Value = r[1].Text()
			m.HasValue = true
		}
		res.Matches = append(res.Matches, m)
	}
	return res
}

// ExplainAnalyze translates an XPath query and executes it under full
// per-operator instrumentation, returning the annotated physical plan
// (see sqldb.Database.ExplainAnalyze).
func (st *Store) ExplainAnalyze(query string) (string, error) {
	s := st.Snapshot()
	defer s.Release()
	return s.ExplainAnalyze(query)
}

// Count runs a query and returns only the cardinality.
func (st *Store) Count(query string) (int, error) {
	s := st.Snapshot()
	defer s.Release()
	return s.Count(query)
}

// Reconstruct rebuilds the stored document from its tuples, all read
// at one commit.
func (st *Store) Reconstruct() (*xmldom.Document, error) {
	s := st.Snapshot()
	defer s.Release()
	return s.Reconstruct()
}

// WriteXML publishes the stored document as XML text.
func (st *Store) WriteXML(w io.Writer) error {
	s := st.Snapshot()
	defer s.Release()
	return s.WriteXML(w)
}

// InsertXML inserts an XML fragment as the position-th child of the
// element with the given node id, as one transaction: the fragment is
// tokenized and shredded in one pass, and a malformed, refused or
// failed insert leaves nothing behind. Comments and PIs around the
// fragment's element are dropped.
func (st *Store) InsertXML(parentID int64, position int, fragment []byte) error {
	return st.insert(context.Background(), parentID, position, xmldom.NewTokenizer(bytes.NewReader(fragment)))
}

// Loaded reports whether the store holds a document. The answer is
// probed once per commit (the /* query, which on Dewey walks every
// element entry of an index) and kept until the next one, so a health
// check that asks again and again costs no query.
func (st *Store) Loaded() bool {
	if c := st.loaded.Load(); c != nil && c.seq == st.db.Seq() {
		return c.loaded
	}
	snap := st.db.AcquireSnapshot()
	defer snap.Release()
	loaded, err := st.holdsDocument(snap)
	if err != nil {
		return false
	}
	st.loaded.Store(&loadedAt{seq: snap.Seq(), loaded: loaded})
	return loaded
}

// StorageStats summarizes the relational footprint of the store.
type StorageStats struct {
	Scheme SchemeKind
	Tables int
	Rows   int
	Bytes  int64
}

// Stats reports the store's storage footprint (experiment T1).
func (st *Store) Stats() StorageStats {
	return StorageStats{
		Scheme: st.kind,
		Tables: len(st.db.TableNames()),
		Rows:   st.db.TotalRows(),
		Bytes:  st.db.TotalBytes(),
	}
}

// Scheme exposes the underlying shred.Scheme for advanced use (the
// experiment harness).
func (st *Store) Scheme() shred.Scheme { return st.scheme }
