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
	"context"
	"fmt"
	"io"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/lru"
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
	// the others). Root optionally names the document element.
	DTD  string
	Root string
	// Parallelism sets the engine's intra-query degree of parallelism:
	// 0 = automatic (GOMAXPROCS), 1 = serial, n>1 = at most n workers.
	Parallelism int
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
	// resident; full pages beyond the cap spill to disk and page back in
	// on demand. 0 keeps every page in memory (the default).
	BufferPoolPages int
}

// defaultTransCacheCap bounds the per-Store XPath→SQL translation
// cache. Entries are just strings, so the cap is generous relative to
// realistic query-template counts.
const defaultTransCacheCap = 512

// Store is one XML document stored relationally under a mapping scheme.
type Store struct {
	kind   SchemeKind
	scheme shred.Scheme
	db     *sqldb.Database
	loaded bool

	// trans caches XPath query text → generated SQL. Translation is a
	// pure function of the scheme and its catalogs, so the cache is
	// invalidated (purged) whenever scheme state may change: document
	// load and subtree insertion. Relational DDL is covered one layer
	// down by the sqldb plan cache's schema epoch.
	trans                  *lru.Cache[string]
	transHits, transMisses atomic.Uint64
	transInvalidations     atomic.Uint64

	// Phase timers decompose end-to-end latency: shred (document load
	// and subtree insertion), translate (XPath→SQL), exec (relational
	// execution), publish (reconstruction/serialization). Plan-compile
	// time, the fourth component, is tracked one layer down by the
	// sqldb metrics registry.
	shredPhase, translatePhase, execPhase, publishPhase phaseTimer
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
	// Translate covers XPath parsing and SQL generation (cache hits
	// included: the span wraps the whole call).
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
	var s shred.Scheme
	switch kind {
	case Edge:
		s = shred.NewEdge(opts.WithValueIndex)
	case Binary:
		s = shred.NewBinary(opts.WithValueIndex)
	case Universal:
		s = shred.NewUniversal()
	case Interval:
		s = shred.NewInterval(opts.WithValueIndex)
	case Dewey:
		s = shred.NewDewey(opts.WithValueIndex)
	case Inline:
		if opts.DTD == "" {
			return nil, fmt.Errorf("core: the inline scheme requires Options.DTD")
		}
		var err error
		s, err = shred.NewInline(opts.DTD, opts.Root)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("core: unknown scheme %q", kind)
	}
	db := sqldb.New()
	if opts.Parallelism > 0 {
		db.SetParallelism(opts.Parallelism)
	}
	if opts.MemoryBudget > 0 {
		db.SetMemoryBudget(opts.MemoryBudget)
	}
	if opts.QueryMemoryLimit > 0 {
		db.SetQueryMemoryLimit(opts.QueryMemoryLimit)
	}
	if opts.MaxConcurrentQueries > 0 {
		db.SetAdmissionControl(opts.MaxConcurrentQueries, opts.MaxQueuedQueries)
	}
	if opts.BufferPoolPages > 0 {
		db.SetBufferPool(opts.BufferPoolPages)
	}
	if err := s.Setup(db); err != nil {
		return nil, err
	}
	return &Store{kind: kind, scheme: s, db: db, trans: lru.New[string](defaultTransCacheCap)}, nil
}

// Kind returns the store's scheme.
func (st *Store) Kind() SchemeKind { return st.kind }

// DB exposes the underlying relational database for direct SQL (the
// escape hatch the tutorial's SQL/X discussion motivates).
func (st *Store) DB() *sqldb.Database { return st.db }

// LoadXML parses and shreds an XML document. A Store holds exactly one
// document.
func (st *Store) LoadXML(src []byte) error {
	return st.LoadXMLContext(context.Background(), src)
}

// LoadXMLContext is LoadXML honoring a context: cancellation or
// deadline expiry aborts the shred at its next bulk-insert batch.
func (st *Store) LoadXMLContext(ctx context.Context, src []byte) error {
	doc, err := xmldom.Parse(src)
	if err != nil {
		return err
	}
	return st.LoadDocumentContext(ctx, doc)
}

// LoadXMLStream shreds a document directly from a stream. When the
// scheme supports streaming shredding (Edge and Interval), the
// document is parsed and shredded in one pass with memory proportional
// to its depth plus one insert batch — the full DOM is never built.
// Other schemes fall back to reading the stream and parsing in memory.
// On error the store may hold a partial shred; discard it.
func (st *Store) LoadXMLStream(ctx context.Context, r io.Reader) error {
	if st.loaded {
		return fmt.Errorf("core: store already holds a document")
	}
	sl, ok := st.scheme.(shred.StreamLoader)
	if !ok {
		src, err := io.ReadAll(r)
		if err != nil {
			return err
		}
		return st.LoadXMLContext(ctx, src)
	}
	start := time.Now()
	if err := sl.LoadStream(ctx, st.db, xmldom.NewTokenizer(r)); err != nil {
		return err
	}
	st.shredPhase.add(time.Since(start))
	st.loaded = true
	st.invalidateTranslations()
	return nil
}

// LoadDocument shreds an already-parsed document.
func (st *Store) LoadDocument(doc *xmldom.Document) error {
	return st.LoadDocumentContext(context.Background(), doc)
}

// LoadDocumentContext is LoadDocument honoring a context, checked at
// shred-batch granularity.
func (st *Store) LoadDocumentContext(ctx context.Context, doc *xmldom.Document) error {
	if st.loaded {
		return fmt.Errorf("core: store already holds a document")
	}
	start := time.Now()
	var err error
	if cl, ok := st.scheme.(shred.ContextLoader); ok {
		err = cl.LoadContext(ctx, st.db, doc)
	} else {
		err = st.scheme.Load(st.db, doc)
	}
	if err != nil {
		return err
	}
	st.shredPhase.add(time.Since(start))
	st.loaded = true
	st.invalidateTranslations()
	return nil
}

// invalidateTranslations purges the translation cache after an
// operation that may change scheme state (path catalogs, element
// numbering) and with it the SQL a given XPath translates to.
func (st *Store) invalidateTranslations() {
	if n := st.trans.Len(); n > 0 {
		st.transInvalidations.Add(uint64(n))
	}
	st.trans.Purge()
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
// it. Translations are served from a bounded per-Store cache: the
// XPath→SQL mapping is pure for a fixed scheme state, so repeated query
// templates skip XPath parsing and SQL generation entirely. The cache
// is purged when scheme state changes (document load, subtree insert).
func (st *Store) Translate(query string) (string, error) {
	start := time.Now()
	defer func() { st.translatePhase.add(time.Since(start)) }()
	if sql, ok := st.trans.Get(query); ok {
		st.transHits.Add(1)
		return sql, nil
	}
	st.transMisses.Add(1)
	p, err := xpath.Parse(query)
	if err != nil {
		return "", err
	}
	sql, err := st.scheme.Translate(p)
	if err != nil {
		return "", err
	}
	st.trans.Put(query, sql)
	return sql, nil
}

// Query compiles and executes an XPath query.
func (st *Store) Query(query string) (*Result, error) {
	return st.QueryContext(context.Background(), query)
}

// QueryContext is Query honoring a context: cancellation or deadline
// expiry aborts the SQL execution at its next operator chokepoint and
// returns the context's error.
func (st *Store) QueryContext(ctx context.Context, query string) (*Result, error) {
	sql, err := st.Translate(query)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	rows, err := st.db.QueryContext(ctx, sql)
	if err != nil {
		return nil, fmt.Errorf("core: executing translation of %q: %w", query, err)
	}
	st.execPhase.add(time.Since(start))
	return resultFrom(query, sql, rows), nil
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
	sql, err := st.Translate(query)
	if err != nil {
		return "", err
	}
	start := time.Now()
	text, err := st.db.ExplainAnalyze(sql)
	if err != nil {
		return "", fmt.Errorf("core: analyzing translation of %q: %w", query, err)
	}
	st.execPhase.add(time.Since(start))
	return text, nil
}

// Count runs a query and returns only the cardinality.
func (st *Store) Count(query string) (int, error) {
	res, err := st.Query(query)
	if err != nil {
		return 0, err
	}
	return len(res.Matches), nil
}

// Reconstruct rebuilds the stored document from its tuples.
func (st *Store) Reconstruct() (*xmldom.Document, error) {
	start := time.Now()
	doc, err := st.scheme.Reconstruct(st.db)
	if err != nil {
		return nil, err
	}
	st.publishPhase.add(time.Since(start))
	return doc, nil
}

// WriteXML publishes the stored document as XML text.
func (st *Store) WriteXML(w io.Writer) error {
	doc, err := st.Reconstruct()
	if err != nil {
		return err
	}
	return xmldom.Serialize(w, doc.Root)
}

// InsertXML inserts an XML fragment as the position-th child of the
// element with the given node id.
func (st *Store) InsertXML(parentID int64, position int, fragment []byte) error {
	// Wrap so the fragment parses as a document.
	doc, err := xmldom.Parse(fragment)
	if err != nil {
		return err
	}
	root := doc.RootElement()
	if root == nil {
		return fmt.Errorf("core: fragment has no element")
	}
	start := time.Now()
	if err := st.scheme.InsertSubtree(st.db, parentID, position, root.Copy()); err != nil {
		return err
	}
	st.shredPhase.add(time.Since(start))
	st.invalidateTranslations()
	return nil
}

// SaveDB writes a snapshot of the store's relational database to a
// stream. Reopen it with OpenSaved. For writing to a file, prefer
// SaveDBFile, which replaces the destination atomically.
func (st *Store) SaveDB(w io.Writer) error {
	return st.db.Save(w)
}

// SaveDBFile writes a snapshot to path atomically: the snapshot goes
// to a temp file in the same directory, is fsynced, renamed over the
// destination, and the directory is fsynced — a crash mid-save never
// leaves a torn snapshot at the final path.
func (st *Store) SaveDBFile(path string) error {
	var buf bytes.Buffer
	if err := st.db.Save(&buf); err != nil {
		return err
	}
	dir := filepath.Dir(path)
	fs, err := sqldb.NewOSVFS(dir)
	if err != nil {
		return err
	}
	return sqldb.WriteFileAtomic(fs, filepath.Base(path), buf.Bytes())
}

// Loaded reports whether the store holds a document.
func (st *Store) Loaded() bool { return st.loaded }

// OpenSaved reopens a store from a snapshot written by SaveDB. Only the
// stateless schemes can be reopened this way: Interval and Dewey keep
// all their state in the database. (Edge, Binary, Universal and Inline
// carry in-memory catalogs/mappings that a snapshot does not capture —
// reload those from the XML source.)
func OpenSaved(kind SchemeKind, r io.Reader) (*Store, error) {
	var s shred.Scheme
	switch kind {
	case Interval:
		s = shred.NewInterval(false)
	case Dewey:
		s = shred.NewDewey(false)
	default:
		return nil, fmt.Errorf("core: scheme %q cannot be reopened from a snapshot (in-memory mapping state); reload from XML", kind)
	}
	db, err := sqldb.LoadFrom(r)
	if err != nil {
		return nil, err
	}
	return &Store{kind: kind, scheme: s, db: db, loaded: true, trans: lru.New[string](defaultTransCacheCap)}, nil
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

// CacheStats reports the store's two query-acceleration caches: the
// XPath→SQL translation cache (this layer) and the SQL plan cache
// (inside sqldb, epoch-invalidated on DDL).
func (st *Store) CacheStats() (translation, plan sqldb.CacheStats) {
	translation = sqldb.CacheStats{
		Capacity:      st.trans.Cap(),
		Entries:       st.trans.Len(),
		Hits:          st.transHits.Load(),
		Misses:        st.transMisses.Load(),
		Evictions:     st.trans.Evictions(),
		Invalidations: st.transInvalidations.Load(),
	}
	return translation, st.db.PlanCacheStats()
}

// SetTranslationCacheCapacity resizes the XPath→SQL cache; zero
// disables it (every query re-translates).
func (st *Store) SetTranslationCacheCapacity(n int) {
	st.trans.Resize(n)
}

// Scheme exposes the underlying shred.Scheme for advanced use (the
// experiment harness).
func (st *Store) Scheme() shred.Scheme { return st.scheme }
