package shred

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"repro/internal/sqldb"
	"repro/internal/xmldom"
	"repro/internal/xmlgen"
	"repro/internal/xpath"
)

// conformanceQueries is the differential battery: every scheme's
// translated SQL must return exactly the node ids the native DOM
// evaluator returns.
var conformanceQueries = []struct {
	name  string
	query string
	// skip lists schemes whose mapping cannot express the query
	// (documented limitations, not bugs).
	skip map[string]bool
}{
	{name: "simple_path", query: "/site/regions/africa/item"},
	{name: "leaf_path", query: "/site/people/person/name"},
	{name: "attr_step", query: "/site/people/person/@id"},
	{name: "attr_filter", query: "/site/people/person[@id='person5']"},
	{name: "descendant_name", query: "//name"},
	{name: "descendant_mid", query: "//item/name"},
	{name: "descendant_deep", query: "/site//city"},
	{name: "value_filter", query: "/site/people/person[address/city='Berlin']/name"},
	{name: "numeric_filter", query: "/site/open_auctions/open_auction[initial > 250]"},
	{name: "attr_numeric", query: "//person[profile/@income > 80000]"},
	{name: "text_step", query: "/site/categories/category/name/text()"},
	{name: "wildcard_child", query: "/site/regions/*/item/@id"},
	{name: "position_first", query: "/site/open_auctions/open_auction/bidder[1]/increase",
		skip: map[string]bool{"universal": true}},
	{name: "position_fn", query: "/site/people/person[position() = 3]",
		skip: map[string]bool{"universal": true}},
	{name: "count_filter", query: "/site/open_auctions/open_auction[count(bidder) > 5]",
		skip: map[string]bool{"universal": true}},
	{name: "contains", query: "/site/regions/asia/item[contains(name, 'brass')]"},
	{name: "exists_pred", query: "/site/people/person[homepage]/name"},
	{name: "and_pred", query: "/site/people/person[address/city='Berlin' and homepage]"},
	{name: "or_pred", query: "/site/people/person[address/city='Berlin' or address/city='Paris']",
		skip: map[string]bool{"universal": true}},
	{name: "not_pred", query: "/site/people/person[not(homepage)]",
		skip: map[string]bool{"universal": true}},
	{name: "double_descendant", query: "//open_auction//increase"},
	// Sibling axes need a scheme-level order encoding (Dewey paths or
	// interval ordinals); edge, binary and universal do not carry one.
	{name: "following_sibling", query: "/site/open_auctions/open_auction/bidder[1]/following-sibling::bidder",
		skip: map[string]bool{"edge": true, "binary": true, "universal": true}},
	{name: "preceding_sibling", query: "/site/open_auctions/open_auction/bidder[2]/preceding-sibling::bidder",
		skip: map[string]bool{"edge": true, "binary": true, "universal": true}},
	{name: "sibling_then_value", query: "/site/people/person/name/following-sibling::emailaddress",
		skip: map[string]bool{"edge": true, "binary": true, "universal": true}},
	{name: "starts_with", query: "/site/people/person[starts-with(name, 'A')]/name"},
}

// All returns one instance of every scheme that needs no DTD, for the
// batteries. withValueIndex toggles the F5 ablation.
func All(withValueIndex bool) []Scheme {
	return []Scheme{
		NewEdge(withValueIndex),
		NewBinary(withValueIndex),
		NewUniversal(),
		NewInterval(withValueIndex),
		NewDewey(withValueIndex),
	}
}

// QueryIDs runs Query and returns just the id column.
func QueryIDs(db *sqldb.Database, s Scheme, query string) ([]int64, error) {
	rows, err := Query(db, s, query)
	if err != nil {
		return nil, err
	}
	out := make([]int64, 0, rows.Len())
	for _, r := range rows.Data {
		out = append(out, r[0].Int())
	}
	return out, nil
}

func domIDs(doc *xmldom.Document, query string) []int64 {
	nodes := xpath.Eval(doc, xpath.MustParse(query))
	out := make([]int64, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, int64(n.Pre))
	}
	return out
}

func int64sEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSchemeConformance(t *testing.T) {
	doc := xmlgen.Auction(xmlgen.Config{Factor: 0.02, Seed: 7})
	if doc.NodeCount() < 500 {
		t.Fatalf("generated document too small: %d nodes", doc.NodeCount())
	}
	for _, s := range All(false) {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			db, err := LoadDocument(s, doc)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			for _, cq := range conformanceQueries {
				if cq.skip[s.Name()] {
					continue
				}
				want := domIDs(doc, cq.query)
				got, err := QueryIDs(db, s, cq.query)
				if err != nil {
					t.Errorf("%s (%s): %v", cq.name, cq.query, err)
					continue
				}
				if !int64sEqual(want, got) {
					t.Errorf("%s (%s): dom returned %d ids, %s returned %d ids\nwant prefix: %v\ngot prefix:  %v",
						cq.name, cq.query, len(want), s.Name(), len(got), prefix(want, 10), prefix(got, 10))
				}
			}
		})
	}
}

// TestSchemeConformanceWithValueIndex re-runs the value-sensitive subset
// with the F5 value indexes enabled: results must be identical.
func TestSchemeConformanceWithValueIndex(t *testing.T) {
	doc := xmlgen.Auction(xmlgen.Config{Factor: 0.02, Seed: 7})
	queries := []string{
		"/site/people/person[address/city='Berlin']/name",
		"/site/open_auctions/open_auction[initial > 250]",
		"/site/people/person[@id='person5']",
	}
	for _, s := range All(true) {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			db, err := LoadDocument(s, doc)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			for _, q := range queries {
				want := domIDs(doc, q)
				got, err := QueryIDs(db, s, q)
				if err != nil {
					t.Errorf("%s: %v", q, err)
					continue
				}
				if !int64sEqual(want, got) {
					t.Errorf("%s: want %d ids, got %d", q, len(want), len(got))
				}
			}
		})
	}
}

// TestInlineConformance compares the Inline scheme by value multiset
// (its ids are host-row ids, not node ids).
func TestInlineConformance(t *testing.T) {
	doc := xmlgen.Auction(xmlgen.Config{Factor: 0.02, Seed: 7})
	inline, err := NewInline(xmlgen.AuctionDTD, "site")
	if err != nil {
		t.Fatalf("mapping: %v", err)
	}
	db, err := LoadDocument(inline, doc)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	queries := []string{
		"/site/people/person/name",
		"/site/people/person[@id='person5']/name",
		"/site/people/person[address/city='Berlin']/name",
		"//person[profile/@income > 80000]/name",
		"/site/open_auctions/open_auction[initial > 250]/initial",
		"//city",
		"/site/regions/africa/item/name",
	}
	for _, q := range queries {
		nodes := xpath.Eval(doc, xpath.MustParse(q))
		var want []string
		for _, n := range nodes {
			want = append(want, n.Text())
		}
		rows, err := Query(db, inline, q)
		if err != nil {
			t.Errorf("%s: %v", q, err)
			continue
		}
		var got []string
		for _, r := range rows.Data {
			got = append(got, r[1].Text())
		}
		sort.Strings(want)
		sort.Strings(got)
		if fmt.Sprint(want) != fmt.Sprint(got) {
			t.Errorf("%s: want %d values, got %d\nwant prefix: %v\ngot prefix:  %v",
				q, len(want), len(got), prefixStr(want, 5), prefixStr(got, 5))
		}
	}
}

func prefix(v []int64, n int) []int64 {
	if len(v) > n {
		return v[:n]
	}
	return v
}

func prefixStr(v []string, n int) []string {
	if len(v) > n {
		return v[:n]
	}
	return v
}

// TestReconstruct round-trips documents through every scheme that
// preserves full fidelity: the auction, and one holding every node kind
// — a processing instruction with its target, a comment, attributes and
// mixed content.
func TestReconstruct(t *testing.T) {
	kinds, err := xmldom.ParseString(`<r a="1" b="two"><?tgt some data?>lead<x k="v">in<!--note-->side<?bare?></x>tail<y/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	docs := []*xmldom.Document{xmlgen.Auction(xmlgen.Config{Factor: 0.01, Seed: 3}), kinds}
	for i, s := range All(false) {
		t.Run(s.Name(), func(t *testing.T) {
			for _, doc := range docs {
				s := All(false)[i] // a fresh instance per document
				db, err := LoadDocument(s, doc)
				if err != nil {
					t.Fatalf("load: %v", err)
				}
				got, err := s.Reconstruct(db)
				if err != nil {
					t.Fatalf("reconstruct: %v", err)
				}
				if got, want := xmldom.SerializeString(got.Root), xmldom.SerializeString(doc.Root); got != want {
					t.Errorf("%s: reconstruction differs from original\n got %s\nwant %s", s.Name(), clip(got), clip(want))
				}
			}
		})
	}
}

// TestInsertSubtree checks ordered insertion across the updatable
// schemes: after inserting, reconstruction must match a DOM-level
// insertion into the same document, and queries must find as many
// nodes as the DOM does — also below the loaded document's depth.
func TestInsertSubtree(t *testing.T) {
	cases := []struct {
		doc      func() *xmldom.Document
		parent   string // the element the fragment goes under
		position int
		fragment string
		queries  []string
	}{
		{
			doc:      func() *xmldom.Document { return xmlgen.Auction(xmlgen.Config{Factor: 0.01, Seed: 3}) },
			parent:   "/site/categories",
			position: 1, // the 2nd child of <categories>
			fragment: `<category id="categoryNEW"><name>Fresh Category</name><description>inserted</description></category>`,
			queries:  []string{"/site/categories/category[@id='categoryNEW']"},
		},
		{
			doc: func() *xmldom.Document {
				doc, err := xmldom.ParseString(`<a><b/></a>`)
				if err != nil {
					t.Fatal(err)
				}
				return doc
			},
			parent:   "/a/b",
			fragment: `<c><d><e><f>x</f></e></d></c>`,
			queries:  []string{"//f", "/a//e", "//d/e/f"},
		},
	}
	for _, mk := range []func() Scheme{
		func() Scheme { return NewEdge(false) },
		func() Scheme { return NewBinary(false) },
		func() Scheme { return NewInterval(false) },
		func() Scheme { return NewDewey(false) },
	} {
		t.Run(mk().Name(), func(t *testing.T) {
			for _, c := range cases {
				s := mk()
				doc := c.doc()
				db, err := LoadDocument(s, doc)
				if err != nil {
					t.Fatalf("load: %v", err)
				}
				parents := xpath.Eval(doc, xpath.MustParse(c.parent))
				if len(parents) != 1 {
					t.Fatalf("expected one %s element", c.parent)
				}
				sub, err := xmldom.ParseString(c.fragment)
				if err != nil {
					t.Fatalf("parse subtree: %v", err)
				}
				if err := s.Insert(context.Background(), db, int64(parents[0].Pre), c.position, sub.Tokens()); err != nil {
					t.Fatalf("insert under %s: %v", c.parent, err)
				}
				// Mirror the insertion on the DOM.
				parents[0].InsertChild(sub.RootElement().Copy(), c.position)
				doc.Number()
				want := xmldom.SerializeString(doc.Root)
				got, err := s.Reconstruct(db)
				if err != nil {
					t.Fatalf("reconstruct: %v", err)
				}
				if xmldom.SerializeString(got.Root) != want {
					t.Errorf("%s: post-insert reconstruction differs", s.Name())
				}
				// Queries still work and see the new nodes. Inserted
				// nodes take fresh ids while the DOM renumbers, so the
				// counts are compared.
				for _, q := range c.queries {
					ids, err := QueryIDs(db, s, q)
					if err != nil {
						t.Fatalf("%s after insert: %v", q, err)
					}
					if want := len(domIDs(doc, q)); len(ids) != want {
						t.Errorf("%s: %s found %d nodes after the insert, the DOM %d", s.Name(), q, len(ids), want)
					}
				}
			}
		})
	}
}

// TestAncestorAndParentAxes exercises the upward axes on the schemes
// that translate them (edge: parent only; interval and dewey: both).
func TestAncestorAndParentAxes(t *testing.T) {
	doc := xmlgen.Auction(xmlgen.Config{Factor: 0.02, Seed: 7})
	queries := []string{
		"/site/people/person/address/../name",
		"//city/ancestor::person/@id",
		"//increase/ancestor::open_auction",
	}
	for _, s := range All(false) {
		db, err := LoadDocument(s, doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			want := domIDs(doc, q)
			got, err := QueryIDs(db, s, q)
			if err != nil {
				if isUnsupported(err) {
					continue
				}
				t.Errorf("%s %s: %v", s.Name(), q, err)
				continue
			}
			if !int64sEqual(want, got) {
				t.Errorf("%s %s: want %d ids, got %d", s.Name(), q, len(want), len(got))
			}
		}
	}
}

// TestDescendantAttributeAxis checks the //@name expansion across
// schemes (schemes without a node()-test translation report n/a).
func TestDescendantAttributeAxis(t *testing.T) {
	doc := xmlgen.Auction(xmlgen.Config{Factor: 0.01, Seed: 7})
	for _, s := range All(false) {
		db, err := LoadDocument(s, doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []string{"//@id", "//@category"} {
			want := domIDs(doc, q)
			got, err := QueryIDs(db, s, q)
			if err != nil {
				if isUnsupported(err) {
					continue
				}
				t.Errorf("%s %s: %v", s.Name(), q, err)
				continue
			}
			if !int64sEqual(want, got) {
				t.Errorf("%s %s: want %d, got %d", s.Name(), q, len(want), len(got))
			}
		}
	}
}

// TestConformanceAcrossSeeds re-runs a core query subset on differently
// seeded documents, guarding against fixture-specific passes.
func TestConformanceAcrossSeeds(t *testing.T) {
	queries := []string{
		"/site/people/person/name",
		"//item/name",
		"/site/open_auctions/open_auction[initial > 100]/@id",
		"//bidder[1]/increase",
	}
	for _, seed := range []uint64{11, 23, 99} {
		doc := xmlgen.Auction(xmlgen.Config{Factor: 0.01, Seed: seed})
		for _, s := range All(false) {
			db, err := LoadDocument(s, doc)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, s.Name(), err)
			}
			for _, q := range queries {
				want := domIDs(doc, q)
				got, err := QueryIDs(db, s, q)
				if err != nil {
					if isUnsupported(err) {
						continue
					}
					t.Errorf("seed %d %s %s: %v", seed, s.Name(), q, err)
					continue
				}
				if !int64sEqual(want, got) {
					t.Errorf("seed %d %s %s: want %d, got %d", seed, s.Name(), q, len(want), len(got))
				}
			}
		}
	}
}
