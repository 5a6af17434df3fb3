package shred

import (
	"testing"

	"repro/internal/xmldom"
	"repro/internal/xmlgen"
)

// positionalDoc mixes elements of two names with text and a comment, so
// a step's node test decides which siblings a position counts.
const positionalDoc = `<r x="1"><a/>t1<b/><a/><!--c-->t2<b><c/></b></r>`

// positionalQueries rank nodes among the siblings a non-name node test
// admits, beside the named forms whose translation must not change.
// want is the DOM's answer size, pinned so the test also guards the
// oracle.
var positionalQueries = []struct {
	query string
	want  int
}{
	{"/r/*[2]", 1},              // the first b
	{"/r/*[position() = 3]", 1}, // the second a
	{"/r/node()[2]", 1},         // t1
	{"/r/text()[2]", 1},         // t2
	{"//*[1]", 3},               // r, the first a, c
	{"/r/node()[position() > 4]", 3},
	{"/r/*[4]/c", 1},
	{"/r/a[2]", 1},
	{"/r/b[position() = 2]/c", 1},
	{"//b[1]", 1},
	{"/r/@*[1]", 1},
}

// TestPositionalNodeTests is the six-scheme differential for positional
// predicates on *, node() and text() steps: every scheme answers
// exactly as the DOM does, or refuses with its unsupported error. The
// schemes with a sibling order over all node kinds (Edge, Interval,
// Dewey) answer every query; Inline is covered by TestPositionalRefusals.
func TestPositionalNodeTests(t *testing.T) {
	doc, err := xmldom.ParseString(positionalDoc)
	if err != nil {
		t.Fatal(err)
	}
	edgeCatalog := NewEdge(false)
	edgeCatalog.UseCatalog(true)
	for _, s := range append(All(false), edgeCatalog) {
		name := s.Name()
		if s == edgeCatalog {
			name += "+catalog"
		}
		db, err := LoadDocument(s, doc)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		for _, q := range positionalQueries {
			want := domIDs(doc, q.query)
			if len(want) != q.want {
				t.Fatalf("DOM answers %s with %d nodes, want %d", q.query, len(want), q.want)
			}
			got, err := QueryIDs(db, s, q.query)
			if isUnsupported(err) && s.Name() != "edge" && s.Name() != "interval" && s.Name() != "dewey" {
				continue
			}
			if err != nil {
				t.Errorf("%s %s: %v", name, q.query, err)
				continue
			}
			if !int64sEqual(want, got) {
				t.Errorf("%s %s: dom %v, got %v", name, q.query, want, got)
			}
		}
	}
}

// TestPositionalRefusals pins where a layout cannot count across names
// or axes: such queries are refused, never answered wrongly.
func TestPositionalRefusals(t *testing.T) {
	refused := []struct {
		scheme Scheme
		query  string
	}{
		{NewBinary(false), "/r/*[2]"},
		{NewBinary(false), "//*[1]"},
		{NewInterval(false), "/r/a/following-sibling::*[1]"},
		{NewDewey(false), "/r/b/parent::*[1]"},
		{NewEdge(false), "/r/a/self::a[1]"},
	}
	doc, err := xmldom.ParseString(positionalDoc)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refused {
		db, err := LoadDocument(r.scheme, doc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := QueryIDs(db, r.scheme, r.query); !isUnsupported(err) {
			t.Errorf("%s %s: want an unsupported error, got %v", r.scheme.Name(), r.query, err)
		}
	}

	// Inline maps named elements only: positional predicates on kind
	// and wildcard tests are refused.
	inline, err := NewInline(xmlgen.AuctionDTD, "site")
	if err != nil {
		t.Fatal(err)
	}
	adoc := xmlgen.Auction(xmlgen.Config{Factor: 0.01, Seed: 3})
	db, err := LoadDocument(inline, adoc)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"/site/regions/*[1]", "/site/people/person/name/text()[1]", "//*[1]", "/site/people/node()[2]"} {
		if _, err := Query(db, inline, q); !isUnsupported(err) {
			t.Errorf("inline %s: want an unsupported error, got %v", q, err)
		}
	}
	if _, err := Query(db, inline, "/site/people/person[2]/name"); err != nil {
		t.Errorf("inline named position: %v", err)
	}
}
