package shred

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/xmldom"
	"repro/internal/xmlgen"
)

// genDoc builds a random document over a small element vocabulary so
// random queries actually hit. It draws from the shared deterministic
// generator so documents are reproducible across platforms.
func genDoc(seed uint64) *xmldom.Document {
	rng := xmlgen.NewRNG(seed)
	names := []string{"a", "b", "c", "d"}
	values := []string{"x", "y", "z", "10", "25"}
	var mk func(depth int) *xmldom.Node
	mk = func(depth int) *xmldom.Node {
		el := &xmldom.Node{Kind: xmldom.ElementNode, Name: rng.Pick(names)}
		if rng.Intn(3) == 0 {
			el.Attrs = append(el.Attrs, &xmldom.Node{
				Kind: xmldom.AttributeNode, Name: "k", Value: rng.Pick(values), Parent: el,
			})
		}
		kids := 0
		if depth < 4 {
			kids = rng.Intn(4)
		}
		if kids == 0 && rng.Intn(2) == 0 {
			el.Children = append(el.Children, &xmldom.Node{Kind: xmldom.TextNode, Value: rng.Pick(values), Parent: el})
		}
		for i := 0; i < kids; i++ {
			c := mk(depth + 1)
			c.Parent = el
			el.Children = append(el.Children, c)
		}
		return el
	}
	doc := &xmldom.Document{Root: &xmldom.Node{Kind: xmldom.DocumentNode}}
	root := &xmldom.Node{Kind: xmldom.ElementNode, Name: "r", Parent: doc.Root}
	for i := 0; i < 6; i++ {
		c := mk(0)
		c.Parent = root
		root.Children = append(root.Children, c)
	}
	doc.Root.Children = []*xmldom.Node{root}
	doc.Number()
	return doc
}

// The random query pool: every supported construct family.
// Value comparisons go through text() paths: the schemes store an
// element's own (simple) content as its value, whereas XPath's "." is
// the whole-subtree string value — a documented approximation of the
// shredding literature (see DESIGN.md). text() semantics agree exactly.
var fuzzQueries = []string{
	"/r/a", "/r/b/c", "//a", "//b//c", "//a/@k", "//c/text()",
	"/r/*/a", "//a[@k='x']", "//b[c]", "//a[text() = 'y']",
	"//b[c/text() = 10]", "//a[not(b)]", "//c[1]", "//a[count(b) > 1]",
	"//b[contains(text(), 'z')]", "//a[@k='x' or @k='y']",
	"/r/a/b", "//d", "//a[b and c]", "//*[@k]",
}

// TestRandomDocConformance cross-checks every scheme against the DOM
// evaluator over random documents — the repo's main property test.
func TestRandomDocConformance(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		doc := genDoc(seed)
		for _, s := range All(false) {
			db, err := LoadDocument(s, doc)
			if err != nil {
				// Universal rejects recursive documents by design.
				if s.Name() == "universal" {
					continue
				}
				t.Fatalf("seed %d %s: load: %v", seed, s.Name(), err)
			}
			for _, q := range fuzzQueries {
				want := domIDs(doc, q)
				got, err := QueryIDs(db, s, q)
				if err != nil {
					// Documented per-scheme limitations surface as
					// translation errors, never as wrong answers.
					if isUnsupported(err) {
						continue
					}
					t.Errorf("seed %d %s %s: %v", seed, s.Name(), q, err)
					continue
				}
				if !int64sEqual(want, got) {
					t.Errorf("seed %d scheme %s query %s:\n dom: %v\n got: %v\n doc: %s",
						seed, s.Name(), q, want, got, xmldom.SerializeString(doc.Root))
				}
			}
		}
	}
}

func isUnsupported(err error) bool {
	return err != nil && (stringsContains(err.Error(), "does not support") ||
		stringsContains(err.Error(), "unsupported"))
}

func stringsContains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestRandomDocRoundTrip: shred -> reconstruct -> serialize must be the
// identity for the faithful schemes on random documents.
func TestRandomDocRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		doc := genDoc(seed)
		want := xmldom.SerializeString(doc.Root)
		for _, s := range All(false) {
			db, err := LoadDocument(s, doc)
			if err != nil {
				if s.Name() == "universal" {
					continue
				}
				t.Fatalf("seed %d %s: %v", seed, s.Name(), err)
			}
			rec, err := s.Reconstruct(db)
			if err != nil {
				t.Fatalf("seed %d %s reconstruct: %v", seed, s.Name(), err)
			}
			if got := xmldom.SerializeString(rec.Root); got != want {
				t.Errorf("seed %d %s:\nwant %s\ngot  %s", seed, s.Name(), want, got)
			}
		}
	}
}

// TestRepeatedInsertsKeepOrder drives many ordered insertions through
// each updatable scheme and checks the final sibling order matches a
// DOM-maintained reference.
func TestRepeatedInsertsKeepOrder(t *testing.T) {
	for _, mk := range []func() Scheme{
		func() Scheme { return NewEdge(false) },
		func() Scheme { return NewBinary(false) },
		func() Scheme { return NewInterval(false) },
		func() Scheme { return NewDewey(false) },
	} {
		s := mk()
		doc, err := xmldom.ParseString(`<list><i>0</i><i>1</i><i>2</i></list>`)
		if err != nil {
			t.Fatal(err)
		}
		db, err := LoadDocument(s, doc)
		if err != nil {
			t.Fatal(err)
		}
		list := doc.RootElement()
		listID := int64(list.Pre)
		rng := xmlgen.NewRNG(99)
		for k := 0; k < 15; k++ {
			pos := rng.Intn(len(list.Children) + 1)
			frag, err := xmldom.ParseString(fmt.Sprintf("<i>new%d</i>", k))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Insert(context.Background(), db, listID, pos, frag.Tokens()); err != nil {
				t.Fatalf("%s insert %d at %d: %v", s.Name(), k, pos, err)
			}
			list.InsertChild(frag.RootElement().Copy(), pos)
		}
		doc.Number()
		want := xmldom.SerializeString(doc.Root)
		rec, err := s.Reconstruct(db)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if got := xmldom.SerializeString(rec.Root); got != want {
			t.Errorf("%s after 15 inserts:\nwant %s\ngot  %s", s.Name(), want, got)
		}
	}
}
