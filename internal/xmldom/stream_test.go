package xmldom

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

// dumpNode renders a node subtree in a canonical debug form so two DOMs
// can be compared structurally (parents checked separately).
func dumpNode(sb *strings.Builder, n *Node, depth int) {
	pad := strings.Repeat("  ", depth)
	switch n.Kind {
	case DocumentNode:
		fmt.Fprintf(sb, "%sdoc\n", pad)
	case ElementNode:
		fmt.Fprintf(sb, "%selem %s [", pad, n.Name)
		for _, a := range n.Attrs {
			fmt.Fprintf(sb, " %s=%q", a.Name, a.Value)
		}
		fmt.Fprintf(sb, " ]\n")
	case TextNode:
		fmt.Fprintf(sb, "%stext %q\n", pad, n.Value)
	case CommentNode:
		fmt.Fprintf(sb, "%scomment %q\n", pad, n.Value)
	case ProcInstNode:
		fmt.Fprintf(sb, "%spi %s %q\n", pad, n.Name, n.Value)
	case AttributeNode:
		fmt.Fprintf(sb, "%sattr %s=%q\n", pad, n.Name, n.Value)
	}
	for _, c := range n.Children {
		dumpNode(sb, c, depth+1)
	}
}

func dumpDoc(d *Document) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "doctype=%q subset=%q\n", d.DoctypeName, d.InternalSubset)
	dumpNode(&sb, d.Root, 0)
	return sb.String()
}

// dumpResult is a parse outcome as text: the DOM dump, or the error.
func dumpResult(d *Document, err error) string {
	if err != nil {
		return "error: " + err.Error() + "\n"
	}
	return dumpDoc(d)
}

// checkParents verifies Parent pointers are wired consistently.
func checkParents(t *testing.T, n *Node) {
	t.Helper()
	for _, a := range n.Attrs {
		if a.Parent != n {
			t.Fatalf("attr %s parent not set", a.Name)
		}
	}
	for _, c := range n.Children {
		if c.Parent != n {
			t.Fatalf("child of %s has wrong parent", n.Name)
		}
		checkParents(t, c)
	}
}

var streamDiffDocs = []struct {
	name string
	src  string
}{
	{"minimal", `<a/>`},
	{"decl", `<?xml version="1.0" encoding="UTF-8"?><root><x>1</x></root>`},
	{"nested", `<a><b><c>deep</c></b><b2 k="v"/></a>`},
	{"attrs", `<a x="1" y='two' z="a&amp;b"/>`},
	{"entities", `<a>&lt;&gt;&amp;&apos;&quot;&#65;&#x42;</a>`},
	{"ws-only-dropped", "<a>\n  <b>x</b>\n  <c>y</c>\n</a>"},
	{"ws-adjacent-kept", `<a>hello <b>w</b> bye </a>`},
	{"cdata", `<a><![CDATA[<raw> & ]]stuff]]></a>`},
	{"cdata-ws-merge", "<a>  <![CDATA[x]]>  </a>"},
	{"cdata-text-merge", `<a>pre<![CDATA[mid]]>post</a>`},
	{"comment-inside", `<a>x<!-- note -->y</a>`},
	{"pi-inside", `<a><?target  some data  ?></a>`},
	{"prolog-epilog", `<!-- lead --><?pi one?><root/><!-- tail --><?pi two?>`},
	{"doctype", `<!DOCTYPE root SYSTEM "r.dtd"><root/>`},
	{"doctype-subset", `<!DOCTYPE root [ <!ELEMENT root (#PCDATA)> <!ENTITY e "v"> ]><root/>`},
	{"doctype-bracket-literal", `<!DOCTYPE root [ <!ATTLIST a b CDATA "]"> ]><root/>`},
	{"unicode", `<règle état="café">héllo ☃</règle>`},
	{"deep-ws", "<a>\r\n\t<b>\r\n\t\t<c/>\r\n\t</b>\r\n</a>"},
	{"mixed-heavy", `<a> t1 <b/> t2 <![CDATA[c1]]> <b/>  <!--c--> t3 </a>`},
	{"empty-text-tags", `<a><b></b><c></c></a>`},
	{"charref-max", `<a>&#x10FFFF;&#1;</a>`},
}

var streamDiffBad = []struct {
	name string
	src  string
}{
	{"empty", ``},
	{"ws-only", "  \n "},
	{"no-root-after-prolog", `<!-- c --><?pi d?>`},
	{"two-roots", `<a/><b/>`},
	{"content-outside", `<a/>trailing`},
	{"content-before", `junk<a/>`},
	{"mismatched-end", `<a></b>`},
	{"unterminated", `<a><b>`},
	{"dup-attr", `<a x="1" x="2"/>`},
	{"unquoted-attr", `<a x=1/>`},
	{"lt-in-attr", `<a x="<"/>`},
	{"bad-entity", `<a>&nope;</a>`},
	{"bad-charref", `<a>&#zz;</a>`},
	{"unterminated-entity", `<a>&amp</a>`},
	{"unterminated-comment", `<a><!-- oops</a>`},
	{"unterminated-cdata", `<a><![CDATA[x</a>`},
	{"unterminated-doctype", `<!DOCTYPE root [`},
	{"bad-empty-tag", `<a/ >`},
	{"missing-eq", `<a x "1"/>`},
	{"charref-negative", `<a>&#-65;</a>`},
	{"charref-plus", `<a>&#+65;</a>`},
	{"charref-zero", `<a>&#0;</a>`},
	{"charref-surrogate", `<a x="&#xD800;"/>`},
	{"charref-too-big", `<a>&#x110000;</a>`},
	{"end-tag-at-eof", `<a></`},
}

// goldenParse reads testdata/parse.golden: one "=== name" header per
// corpus entry, followed by the expected dump (or "error: ..." line).
func goldenParse(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("testdata/parse.golden")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, sec := range strings.Split(string(raw), "=== ")[1:] {
		name, body, _ := strings.Cut(sec, "\n")
		out[name] = body
	}
	return out
}

// TestParseReaderDifferential pins the one lexer to checked-in expected
// output: each corpus entry's DOM dump (or error text) through
// ParseReader must match testdata/parse.golden, and Parse, which sizes
// its buffer to the input, must agree with it.
func TestParseReaderDifferential(t *testing.T) {
	golden := goldenParse(t)
	check := func(t *testing.T, key, src string) {
		want, ok := golden[key]
		if !ok {
			t.Fatalf("no golden entry %q", key)
		}
		doc, err := ParseReader(strings.NewReader(src))
		got := dumpResult(doc, err)
		if got != want {
			t.Fatalf("ParseReader\n-- got --\n%s-- want --\n%s", got, want)
		}
		if p := dumpResult(Parse([]byte(src))); p != got {
			t.Fatalf("Parse diverges from ParseReader\n-- Parse --\n%s-- ParseReader --\n%s", p, got)
		}
		if err == nil {
			checkParents(t, doc.Root)
		}
	}
	for _, tc := range streamDiffDocs {
		t.Run(tc.name, func(t *testing.T) { check(t, tc.name, tc.src) })
	}
	for _, tc := range streamDiffBad {
		t.Run("bad-"+tc.name, func(t *testing.T) {
			check(t, "bad-"+tc.name, tc.src)
			if _, err := ParseString(tc.src); err == nil {
				t.Fatalf("accepted %q", tc.src)
			} else if _, ok := err.(*ParseError); !ok {
				t.Fatalf("error %T, want *ParseError", err)
			}
		})
	}
}

// TestTokenizerSmallReads feeds the tokenizer one byte at a time to
// exercise window refills at every position.
func TestTokenizerSmallReads(t *testing.T) {
	src := `<?xml version="1.0"?><!DOCTYPE r [ <!ENTITY x "y"> ]><r a="1"> t <b/><![CDATA[c]]> </r><!--end-->`
	want, err := ParseString(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	got, err := ParseReader(&chunkReader{src: []byte(src), sizes: []byte{1}})
	if err != nil {
		t.Fatalf("ParseReader: %v", err)
	}
	if dumpDoc(got) != dumpDoc(want) {
		t.Fatalf("DOM mismatch under 1-byte reads\n%s\nvs\n%s", dumpDoc(want), dumpDoc(got))
	}
}

// chunkReader returns src in chunks whose sizes cycle through sizes
// (each taken as 1 + size%64).
type chunkReader struct {
	src   []byte
	sizes []byte
	i     int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.src) == 0 {
		return 0, io.EOF
	}
	n := 1
	if len(c.sizes) > 0 {
		n += int(c.sizes[c.i%len(c.sizes)] % 64)
		c.i++
	}
	n = min(n, len(p), len(c.src))
	copy(p, c.src[:n])
	c.src = c.src[n:]
	return n, nil
}

// FuzzParseChunked feeds the same bytes through Parse, through a 1-byte
// reader and through a reader returning fuzzed chunk sizes: all three
// must build the same DOM or fail with the same error text, so the
// lexer's window scans agree at every buffer boundary.
func FuzzParseChunked(f *testing.F) {
	for _, tc := range streamDiffDocs {
		f.Add([]byte(tc.src), []byte{3, 0, 17})
	}
	for _, tc := range streamDiffBad {
		f.Add([]byte(tc.src), []byte{5})
	}
	f.Fuzz(func(t *testing.T, src, sizes []byte) {
		want := dumpResult(Parse(src))
		if got := dumpResult(ParseReader(&chunkReader{src: bytes.Clone(src), sizes: []byte{0}})); got != want {
			t.Fatalf("1-byte reads diverge\n-- Parse --\n%s-- chunked --\n%s", want, got)
		}
		if got := dumpResult(ParseReader(&chunkReader{src: bytes.Clone(src), sizes: sizes})); got != want {
			t.Fatalf("chunks %v diverge\n-- Parse --\n%s-- chunked --\n%s", sizes, want, got)
		}
	})
}

// TestDocumentTokensReplay checks that a parsed document's replay yields
// the tokens its text does.
func TestDocumentTokensReplay(t *testing.T) {
	for _, tc := range streamDiffDocs {
		doc, err := ParseString(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		tz := NewTokenizer(strings.NewReader(tc.src))
		rp := doc.Tokens()
		for i := 0; ; i++ {
			want, err := tz.Next()
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			got, err := rp.Next()
			if err != nil {
				t.Fatalf("%s: replay: %v", tc.name, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: token %d = %v, want %v", tc.name, i, got, want)
			}
			if want.Kind == TokEOF {
				break
			}
		}
	}
}
