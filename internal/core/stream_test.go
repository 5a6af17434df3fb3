package core

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/sqldb"
	"repro/internal/xmldom"
	"repro/internal/xmlgen"
	"repro/internal/xpath"
)

// TestLoadXMLStreamMatchesLoadXML pins a load from a reader to a load
// from bytes: same document, same queries, same answers.
func TestLoadXMLStreamMatchesLoadXML(t *testing.T) {
	src := xmlgen.AuctionXML(xmlgen.Config{Factor: 0.02, Seed: 5})
	queries := []string{
		"/site/people/person/name",
		"//item/name",
		"/site/people/person[@id='person3']",
	}
	for _, kind := range []SchemeKind{Interval, Edge, Binary, Dewey} {
		dom, err := Open(kind)
		if err != nil {
			t.Fatalf("%s open: %v", kind, err)
		}
		if err := dom.LoadXML([]byte(src)); err != nil {
			t.Fatalf("%s dom load: %v", kind, err)
		}
		stream, err := Open(kind)
		if err != nil {
			t.Fatalf("%s open: %v", kind, err)
		}
		if err := stream.LoadXMLStream(context.Background(), strings.NewReader(src)); err != nil {
			t.Fatalf("%s stream load: %v", kind, err)
		}
		if !stream.Loaded() {
			t.Fatalf("%s stream store not marked loaded", kind)
		}
		for _, q := range queries {
			want, err := dom.Query(q)
			if err != nil {
				t.Fatalf("%s dom %s: %v", kind, q, err)
			}
			got, err := stream.Query(q)
			if err != nil {
				t.Fatalf("%s stream %s: %v", kind, q, err)
			}
			if len(got.Matches) != len(want.Matches) {
				t.Fatalf("%s %s: %d matches, want %d", kind, q, len(got.Matches), len(want.Matches))
			}
			for i := range want.Matches {
				if got.Matches[i] != want.Matches[i] {
					t.Fatalf("%s %s: match %d = %+v, want %+v", kind, q, i, got.Matches[i], want.Matches[i])
				}
			}
		}
	}
}

// TestDurableLoadXMLStream verifies a streamed durable load survives
// reopen, under a capped buffer pool.
func TestDurableLoadXMLStream(t *testing.T) {
	dir := t.TempDir()
	src := xmlgen.AuctionXML(xmlgen.Config{Factor: 0.02, Seed: 9})
	opts := Options{BufferPoolPages: 8}

	ds, err := OpenDurable(Interval, dir, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := ds.LoadXMLStream(context.Background(), strings.NewReader(src)); err != nil {
		t.Fatalf("stream load: %v", err)
	}
	res, err := ds.Query("/site/people/person/name")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(res.Matches) == 0 {
		t.Fatalf("no matches after streamed load")
	}
	if err := ds.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	ds2, err := OpenDurable(Interval, dir, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer ds2.Close()
	res2, err := ds2.Query("/site/people/person/name")
	if err != nil {
		t.Fatalf("reopen query: %v", err)
	}
	if len(res2.Matches) != len(res.Matches) {
		t.Fatalf("reopen lost rows: %d vs %d", len(res2.Matches), len(res.Matches))
	}
	st := ds2.DB().Stats()
	if st.BufferPool.Cap != 8 {
		t.Fatalf("pool cap = %d, want 8", st.BufferPool.Cap)
	}
}

// sampledTokens runs sample every 256 tokens the load reads.
type sampledTokens struct {
	xmldom.TokenSource
	n      int
	sample func()
}

func (s *sampledTokens) Next() (xmldom.Token, error) {
	if s.n++; s.n%256 == 0 {
		s.sample()
	}
	return s.TokenSource.Next()
}

// TestStreamLoadBoundedMemory loads a factor-0.2 document the way
// LoadXMLStream does, one transaction over a Tokenizer, into a durable
// store under a 32-page pool, sampling as the tokens are read: the
// pool never holds more than 32 pages, and the WAL grows before the
// load returns, so the open transaction's log streams out as
// continuation frames. After a reopen the F1 answers are the DOM's.
func TestStreamLoadBoundedMemory(t *testing.T) {
	src := xmlgen.AuctionXML(xmlgen.Config{Factor: 0.2, Seed: 13})
	fs := sqldb.NewMemVFS()
	opts := Options{BufferPoolPages: 32}
	ds, err := OpenDurableVFS(Interval, fs, opts, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wal := ds.Durable().WALSize()
	samples, resident, grew := 0, 0, false
	tokens := &sampledTokens{TokenSource: xmldom.NewTokenizer(strings.NewReader(src)), sample: func() {
		samples++
		resident = max(resident, ds.DB().Stats().BufferPool.Resident)
		grew = grew || ds.Durable().WALSize() > wal
	}}
	if err := ds.insert(context.Background(), 0, 0, tokens); err != nil {
		t.Fatal(err)
	}
	if resident > 32 || samples == 0 {
		t.Fatalf("%d samples, up to %d resident pages in a 32-page pool", samples, resident)
	}
	if !grew {
		t.Fatal("the WAL did not grow before the load returned")
	}
	if ds.DB().Stats().BufferPool.Evictions == 0 {
		t.Fatal("the load never evicted a page")
	}
	ds.Close()

	re, err := OpenDurableVFS(Interval, fs, opts, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	doc, err := xmldom.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range f1Queries {
		res, err := re.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		var got, want []int64
		for _, m := range res.Matches {
			got = append(got, m.ID)
		}
		for _, n := range xpath.Eval(doc, xpath.MustParse(q)) {
			want = append(want, int64(n.Pre))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s after reopen: %d matches, the DOM's %d", q, len(got), len(want))
		}
	}
}

// TestOptionsBufferPool verifies the in-memory knob reaches the engine.
func TestOptionsBufferPool(t *testing.T) {
	st, err := OpenWith(Interval, Options{BufferPoolPages: 4})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if got := st.DB().BufferPool(); got != 4 {
		t.Fatalf("BufferPool() = %d, want 4", got)
	}
}
