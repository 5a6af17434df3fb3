package xmldom

import (
	"strings"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, src string) *Document {
	t.Helper()
	doc, err := ParseString(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return doc
}

func TestParseBasicStructure(t *testing.T) {
	doc := mustParse(t, `<?xml version="1.0"?>
<book year="1967" lang='en'>
  <title>The politics of experience</title>
  <author><first>Ronald</first><last>Laing</last></author>
  <empty/>
</book>`)
	root := doc.RootElement()
	if root.Name != "book" {
		t.Fatalf("root = %s", root.Name)
	}
	if v, ok := root.Attr("year"); !ok || v != "1967" {
		t.Errorf("year = %q %v", v, ok)
	}
	if v, ok := root.Attr("lang"); !ok || v != "en" {
		t.Errorf("lang = %q", v)
	}
	if _, ok := root.Attr("missing"); ok {
		t.Error("missing attr found")
	}
	if len(root.ChildElements("")) != 3 {
		t.Fatalf("children = %d", len(root.ChildElements("")))
	}
	title := root.FirstChildElement("title")
	if title.Text() != "The politics of experience" {
		t.Errorf("title = %q", title.Text())
	}
	author := root.FirstChildElement("author")
	if author.Text() != "RonaldLaing" {
		t.Errorf("author text = %q", author.Text())
	}
	if root.FirstChildElement("empty") == nil {
		t.Error("empty element missing")
	}
}

func TestParseEntitiesAndCDATA(t *testing.T) {
	doc := mustParse(t, `<a x="&lt;&amp;&gt;&quot;&apos;&#65;&#x42;">1 &lt; 2 <![CDATA[<raw> & stuff]]> end</a>`)
	root := doc.RootElement()
	if v, _ := root.Attr("x"); v != `<&>"'AB` {
		t.Errorf("attr entities = %q", v)
	}
	want := "1 < 2 <raw> & stuff end"
	if root.Text() != want {
		t.Errorf("text = %q, want %q", root.Text(), want)
	}
}

func TestParseCommentsAndPIs(t *testing.T) {
	doc := mustParse(t, `<?xml version="1.0"?><!-- top --><?style sheet?><r><!-- inner --><?p data?>x</r>`)
	var kinds []NodeKind
	for _, c := range doc.Root.Children {
		kinds = append(kinds, c.Kind)
	}
	if len(kinds) != 3 || kinds[0] != CommentNode || kinds[1] != ProcInstNode || kinds[2] != ElementNode {
		t.Fatalf("top-level kinds = %v", kinds)
	}
	r := doc.RootElement()
	if len(r.Children) != 3 {
		t.Fatalf("inner children = %d", len(r.Children))
	}
	if r.Children[0].Kind != CommentNode || r.Children[0].Value != " inner " {
		t.Errorf("comment = %+v", r.Children[0])
	}
	if r.Children[1].Kind != ProcInstNode || r.Children[1].Name != "p" {
		t.Errorf("pi = %+v", r.Children[1])
	}
}

func TestParseDoctypeCapture(t *testing.T) {
	doc := mustParse(t, `<!DOCTYPE site SYSTEM "x.dtd" [
<!ELEMENT site (a*)>
<!ELEMENT a (#PCDATA)>
]><site><a>1</a></site>`)
	if doc.DoctypeName != "site" {
		t.Errorf("doctype name = %q", doc.DoctypeName)
	}
	if !strings.Contains(doc.InternalSubset, "<!ELEMENT site (a*)>") {
		t.Errorf("internal subset = %q", doc.InternalSubset)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`<a>`,
		`<a></b>`,
		`<a><b></a></b>`,
		`<a attr=unquoted/>`,
		`<a x="1" x="2"/>`,
		`<a>&unknown;</a>`,
		`<a/><b/>`,
		`text only`,
		`<a x="<"/>`,
		// Character references must name a character a document may
		// hold: no sign, not 0, no surrogate, nothing past U+10FFFF.
		`<a>&#-65;</a>`,
		`<a>&#+65;</a>`,
		`<a>&#0;</a>`,
		`<a>&#x0;</a>`,
		`<a>&#xD800;</a>`,
		`<a>&#xDFFF;</a>`,
		`<a>&#x110000;</a>`,
		`<a x="&#-1;"/>`,
	}
	for _, src := range cases {
		if _, err := ParseString(src); err == nil {
			t.Errorf("parse %q: expected error", src)
		}
	}
}

func TestNumberingInvariants(t *testing.T) {
	doc := mustParse(t, `<r a="1"><x b="2"><y/>text</x><z/><!--c--></r>`)
	nodes := doc.Nodes()
	// Pre values are 0..n-1 in slice order.
	for i, n := range nodes {
		if n.Pre != i {
			t.Fatalf("node %d has Pre %d", i, n.Pre)
		}
	}
	root := doc.Root
	if root.Size != len(nodes)-1 {
		t.Errorf("root size = %d, want %d", root.Size, len(nodes)-1)
	}
	for _, n := range nodes {
		// Region invariant: every descendant's pre lies in (pre, pre+size].
		if n.Parent != nil {
			if !(n.Pre > n.Parent.Pre && n.Pre <= n.Parent.Pre+n.Parent.Size) {
				t.Errorf("node %d outside parent region", n.Pre)
			}
			if n.Level != n.Parent.Level+1 {
				t.Errorf("node %d level %d, parent level %d", n.Pre, n.Level, n.Parent.Level)
			}
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	srcs := []string{
		`<a/>`,
		`<a x="1"><b>text</b><c/></a>`,
		`<a>one<b/>two</a>`,
		`<a><!--c--><?pi d?></a>`,
		`<a x="&lt;&amp;&quot;">&lt;&amp;&gt;</a>`,
	}
	for _, src := range srcs {
		doc := mustParse(t, src)
		out := SerializeString(doc.Root)
		doc2 := mustParse(t, out)
		out2 := SerializeString(doc2.Root)
		if out != out2 {
			t.Errorf("%q: serialize not stable: %q vs %q", src, out, out2)
		}
	}
}

// Property: random trees survive serialize -> parse -> serialize.
func TestRoundTripProperty(t *testing.T) {
	type g struct{ seed uint32 }
	build := func(seed uint32) *Document {
		state := uint64(seed) + 1
		next := func(n int) int {
			state = state*6364136223846793005 + 1442695040888963407
			return int((state >> 33) % uint64(n))
		}
		var mk func(depth int) *Node
		names := []string{"a", "b", "cd", "e-f", "g.h"}
		mk = func(depth int) *Node {
			el := &Node{Kind: ElementNode, Name: names[next(len(names))]}
			for i := 0; i < next(3); i++ {
				el.Attrs = append(el.Attrs, &Node{
					Kind: AttributeNode, Name: "at" + string(rune('a'+i)),
					Value: `v"<&`, Parent: el,
				})
			}
			kids := 0
			if depth < 3 {
				kids = next(4)
			}
			for i := 0; i < kids; i++ {
				switch next(3) {
				case 0:
					el.Children = append(el.Children, &Node{Kind: TextNode, Value: "t<&x" + string(rune('0'+i)), Parent: el})
				case 1:
					el.Children = append(el.Children, &Node{Kind: CommentNode, Value: "comment", Parent: el})
				default:
					c := mk(depth + 1)
					c.Parent = el
					el.Children = append(el.Children, c)
				}
			}
			return el
		}
		doc := &Document{Root: &Node{Kind: DocumentNode}}
		root := mk(0)
		root.Parent = doc.Root
		doc.Root.Children = []*Node{root}
		doc.Number()
		return doc
	}
	_ = g{}
	prop := func(seed uint32) bool {
		doc := build(seed)
		out := SerializeString(doc.Root)
		doc2, err := ParseString(out)
		if err != nil {
			return false
		}
		return SerializeString(doc2.Root) == out
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCopyAndInsertChild(t *testing.T) {
	doc := mustParse(t, `<r><a/><b/><c/></r>`)
	root := doc.RootElement()
	cp := root.Copy()
	if len(cp.Children) != 3 || cp.Children[0].Parent != cp {
		t.Fatal("copy structure broken")
	}
	// Mutating the copy leaves the original untouched.
	cp.Children[0].Name = "changed"
	if root.Children[0].Name != "a" {
		t.Error("copy aliases original")
	}
	n := &Node{Kind: ElementNode, Name: "new"}
	root.InsertChild(n, 1)
	doc.Number()
	if root.Children[1].Name != "new" || root.Children[1].Ordinal != 2 {
		t.Errorf("insert at 1: %v ord %d", root.Children[1].Name, root.Children[1].Ordinal)
	}
	removed := root.RemoveChild(0)
	if removed == nil || removed.Name != "a" || len(root.Children) != 3 {
		t.Errorf("remove: %v, %d children", removed, len(root.Children))
	}
	if root.RemoveChild(99) != nil {
		t.Error("remove out of range must return nil")
	}
}

func TestPathAndHelpers(t *testing.T) {
	doc := mustParse(t, `<site><people><person id="p0"><name>Ann</name></person></people></site>`)
	person := doc.RootElement().FirstChildElement("people").FirstChildElement("person")
	if person.Path() != "/site/people/person" {
		t.Errorf("path = %q", person.Path())
	}
	attr := person.Attrs[0]
	if attr.Path() != "/site/people/person/@id" {
		t.Errorf("attr path = %q", attr.Path())
	}
	// site=1 people=2 person=3 name=4 (attrs and text one deeper).
	if doc.MaxDepth() != 5 {
		t.Errorf("max depth = %d", doc.MaxDepth())
	}
	desc := doc.RootElement().Descendants()
	if len(desc) != 4 { // people, person, name, text
		t.Errorf("descendants = %d", len(desc))
	}
}

func TestWhitespaceHandling(t *testing.T) {
	doc := mustParse(t, "<r>\n  <a>keep me</a>\n  <b> x </b>\n</r>")
	r := doc.RootElement()
	// Whitespace-only runs between elements are dropped.
	if len(r.Children) != 2 {
		t.Fatalf("children = %d (whitespace not dropped)", len(r.Children))
	}
	if got := r.FirstChildElement("b").Text(); got != " x " {
		t.Errorf("significant whitespace lost: %q", got)
	}
}
