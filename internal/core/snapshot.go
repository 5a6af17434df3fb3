package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/sqldb"
	"repro/internal/xmldom"
)

// StoreSnapshot is a pinned, consistent view of a Store: every query,
// count and reconstruction through it observes exactly the commits with
// seq <= Seq(), no matter how many subtree insertions publish
// concurrently — and translates against the scheme state it pinned.
// It is the multi-statement read surface the engine's snapshot
// isolation exposes at the XML level — e.g. reconstructing a document
// while a writer keeps inserting, with the guarantee that the produced
// XML equals the document as of one single commit boundary — and each
// of the Store's own reads runs through one. Release it when done so
// the snapshot-age metrics stop tracking it.
type StoreSnapshot struct {
	st   *Store
	snap *sqldb.Snapshot
}

// Snapshot pins the store's latest published database version for
// consistent multi-statement reads.
func (st *Store) Snapshot() *StoreSnapshot {
	return &StoreSnapshot{st: st, snap: st.db.AcquireSnapshot()}
}

// Seq returns the commit sequence the snapshot observes.
func (s *StoreSnapshot) Seq() uint64 { return s.snap.Seq() }

// DB returns the raw relational snapshot backing this store snapshot,
// so direct SQL reads can observe the same commit boundary as the
// XPath surface (the server's session layer leans on this).
func (s *StoreSnapshot) DB() *sqldb.Snapshot { return s.snap }

// Release unpins the snapshot (reads through it keep working; only the
// metrics tracking ends). Safe to call more than once.
func (s *StoreSnapshot) Release() { s.snap.Release() }

// Query compiles an XPath query and executes it against the pinned
// version set.
func (s *StoreSnapshot) Query(query string) (*Result, error) {
	return s.QueryContext(context.Background(), query)
}

// QueryContext is Query honoring a context deadline/cancellation.
func (s *StoreSnapshot) QueryContext(ctx context.Context, query string) (*Result, error) {
	sql, err := s.st.translate(s.snap, query)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	rows, err := s.snap.QueryContext(ctx, sql)
	if err != nil {
		return nil, fmt.Errorf("core: executing translation of %q: %w", query, err)
	}
	s.st.execPhase.add(time.Since(start))
	return resultFrom(query, sql, rows), nil
}

// ExplainAnalyze translates an XPath query and executes it against the
// snapshot under full per-operator instrumentation (see
// sqldb.Database.ExplainAnalyze).
func (s *StoreSnapshot) ExplainAnalyze(query string) (string, error) {
	sql, err := s.st.translate(s.snap, query)
	if err != nil {
		return "", err
	}
	start := time.Now()
	text, err := s.snap.ExplainAnalyze(sql)
	if err != nil {
		return "", fmt.Errorf("core: analyzing translation of %q: %w", query, err)
	}
	s.st.execPhase.add(time.Since(start))
	return text, nil
}

// Count runs a query against the snapshot and returns the cardinality.
func (s *StoreSnapshot) Count(query string) (int, error) {
	res, err := s.Query(query)
	if err != nil {
		return 0, err
	}
	return len(res.Matches), nil
}

// Reconstruct rebuilds the document exactly as of the snapshot's commit
// sequence, while writers keep publishing newer versions.
func (s *StoreSnapshot) Reconstruct() (*xmldom.Document, error) {
	start := time.Now()
	doc, err := s.st.scheme.Reconstruct(s.snap)
	if err != nil {
		return nil, err
	}
	s.st.publishPhase.add(time.Since(start))
	return doc, nil
}

// WriteXML serializes the snapshot's document as XML text.
func (s *StoreSnapshot) WriteXML(w io.Writer) error {
	doc, err := s.Reconstruct()
	if err != nil {
		return err
	}
	return xmldom.Serialize(w, doc.Root)
}
