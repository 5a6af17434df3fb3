package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/xmlgen"
)

// TestLoadXMLStreamMatchesLoadXML pins the streaming load to the DOM
// load: same document, same queries, same answers — for the schemes
// that shred the token stream (Interval, Edge, Binary) and one that
// parses it first (Dewey).
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
