package shred

// The shredders' oracle: rows derived in the test from a numbered DOM's
// fields (Pre, Parent.Pre, Size, Level, global ordinal, kind, name and
// value), checked against what Edge, Interval and Binary store — fed
// once by a Tokenizer over the document's text and once by the parsed
// Document's replay.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/sqldb"
	"repro/internal/xmldom"
	"repro/internal/xmlgen"
	"repro/internal/xpath"
)

// dumpTable renders a query's rows in a canonical text form for byte
// comparison.
func dumpTable(t *testing.T, db *sqldb.Database, query string) string {
	t.Helper()
	rows, err := db.Query(query)
	if err != nil {
		t.Fatalf("dump query: %v", err)
	}
	var sb strings.Builder
	for _, r := range rows.Data {
		cols := make([]any, len(r))
		for i, v := range r {
			if !v.IsNull() {
				cols[i] = v.Text()
			}
		}
		renderRow(&sb, cols...)
	}
	return sb.String()
}

// renderRow writes one row the way dumpTable does: nil is NULL, every
// other column its quoted text.
func renderRow(sb *strings.Builder, cols ...any) {
	for i, c := range cols {
		if i > 0 {
			sb.WriteByte('|')
		}
		if c == nil {
			sb.WriteString("<null>")
		} else {
			fmt.Fprintf(sb, "%q", fmt.Sprint(c))
		}
	}
	sb.WriteByte('\n')
}

func clip(s string) string {
	if len(s) > 4000 {
		return s[:4000] + "...\n"
	}
	return s
}

// globalOrdinal numbers a node among its parent's attributes-then-
// children sequence (1-based), matching pre-order within the parent.
func globalOrdinal(n *xmldom.Node) int {
	if n.Parent == nil {
		return 1
	}
	if n.Kind == xmldom.AttributeNode {
		return n.Ordinal
	}
	return len(n.Parent.Attrs) + n.Ordinal
}

// oracleName is the name column: elements, attributes and PIs only.
func oracleName(n *xmldom.Node) any {
	switch n.Kind {
	case xmldom.ElementNode, xmldom.AttributeNode, xmldom.ProcInstNode:
		return n.Name
	}
	return nil
}

// oracleValue is the value column: a leaf's value, or an element's text
// children concatenated when it has no element child and the text is
// not empty.
func oracleValue(n *xmldom.Node) any {
	if n.Kind != xmldom.ElementNode {
		if n.Kind == xmldom.DocumentNode {
			return nil
		}
		return n.Value
	}
	text := ""
	for _, c := range n.Children {
		switch c.Kind {
		case xmldom.ElementNode:
			return nil
		case xmldom.TextNode:
			text += c.Value
		}
	}
	if text == "" {
		return nil
	}
	return text
}

// labelPath is a node's catalog label path ("site/people/person/@id").
func labelPath(n *xmldom.Node) string {
	var segs []string
	for m := n; m.Kind != xmldom.DocumentNode; m = m.Parent {
		seg := map[xmldom.NodeKind]string{xmldom.TextNode: "#text", xmldom.CommentNode: "#comment",
			xmldom.ProcInstNode: "#pi", xmldom.AttributeNode: "@" + m.Name}[m.Kind]
		if m.Kind == xmldom.ElementNode {
			seg = m.Name
		}
		segs = append([]string{seg}, segs...)
	}
	return strings.Join(segs, "/")
}

func oraclePaths(doc *xmldom.Document) []string {
	set := map[string]bool{}
	for _, n := range doc.Nodes()[1:] {
		set[labelPath(n)] = true
	}
	var out []string
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

var streamShredDocs = []struct {
	name string
	src  string
}{
	{"auction", xmlgen.AuctionXML(xmlgen.Config{Factor: 0.02, Seed: 11})},
	{"minimal", `<a/>`},
	{"mixed", `<a i="1"> t1 <b>x</b><!--c--> t2 <?pi d?><c y="2" z="3">only text</c></a>`},
	{"prolog", `<!-- lead --><?style x?><root><k>v</k></root><!-- tail -->`},
	{"cdata", `<a><b>pre<![CDATA[ <raw> ]]>post</b></a>`},
	{"simple-content", `<a><b>x<!--c-->y</b><c><d/>t</c><e></e></a>`},
	{"label-collision", `<a-b x-y="1"><a_b x_y="2"><A-B/></a_b></a-b>`},
}

// shredInputs feed one document's text to a scheme: through a Tokenizer,
// and through Load's replay of the parsed DOM.
var shredInputs = []struct {
	name string
	load func(s Scheme, db *sqldb.Database, src string) error
}{
	{"tokenizer", func(s Scheme, db *sqldb.Database, src string) error {
		return s.(StreamLoader).LoadStream(context.Background(), db, xmldom.NewTokenizer(strings.NewReader(src)))
	}},
	{"replay", func(s Scheme, db *sqldb.Database, src string) error {
		doc, err := xmldom.ParseString(src)
		if err != nil {
			return err
		}
		return s.Load(context.Background(), db, doc)
	}},
}

// forEachShred loads every corpus document through every input into a
// fresh instance of the scheme and hands it to check with the parsed
// reference DOM.
func forEachShred(t *testing.T, mk func() Scheme, check func(t *testing.T, s Scheme, db *sqldb.Database, doc *xmldom.Document)) {
	for _, tc := range streamShredDocs {
		t.Run(tc.name, func(t *testing.T) {
			doc, err := xmldom.ParseString(tc.src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			for _, in := range shredInputs {
				t.Run(in.name, func(t *testing.T) {
					s, db := mk(), sqldb.New()
					if err := s.Setup(db); err != nil {
						t.Fatalf("setup: %v", err)
					}
					if err := in.load(s, db, tc.src); err != nil {
						t.Fatalf("load: %v", err)
					}
					check(t, s, db, doc)
				})
			}
		})
	}
}

func expectDump(t *testing.T, what, got, want string) {
	t.Helper()
	if want == "" {
		t.Fatalf("%s: empty oracle", what)
	}
	if got != want {
		t.Fatalf("%s mismatch\n-- oracle --\n%s\n-- stored --\n%s", what, clip(want), clip(got))
	}
}

// TestEdgeStreamDifferential checks the edge rows against the oracle.
func TestEdgeStreamDifferential(t *testing.T) {
	const dump = `SELECT source, ordinal, name, kind, target, value FROM edge ORDER BY target`
	forEachShred(t, func() Scheme { return NewEdge(false) }, func(t *testing.T, s Scheme, db *sqldb.Database, doc *xmldom.Document) {
		var want strings.Builder
		for _, n := range doc.Nodes()[1:] {
			renderRow(&want, n.Parent.Pre, globalOrdinal(n), oracleName(n), n.Kind.String(), n.Pre, oracleValue(n))
		}
		expectDump(t, "edge", dumpTable(t, db, dump), want.String())
		e := s.(*Edge)
		if e.maxDepth != doc.MaxDepth() {
			t.Fatalf("maxDepth %d, want %d", e.maxDepth, doc.MaxDepth())
		}
		if got, want := e.catalog.Paths(), oraclePaths(doc); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("catalog %v, want %v", got, want)
		}
	})
}

// TestEdgeCatalogTranslation pins catalog-driven descendant expansion to
// the same SQL whichever input loaded the catalog.
func TestEdgeCatalogTranslation(t *testing.T) {
	for _, tc := range streamShredDocs {
		var sqls []string
		for _, in := range shredInputs {
			e, db := NewEdge(false), sqldb.New()
			if err := e.Setup(db); err != nil {
				t.Fatal(err)
			}
			if err := in.load(e, db, tc.src); err != nil {
				t.Fatalf("%s/%s: %v", tc.name, in.name, err)
			}
			e.UseCatalog(true)
			sql, err := e.Translate(xpath.MustParse("//name"))
			sqls = append(sqls, fmt.Sprint(sql, err))
		}
		if sqls[0] != sqls[1] {
			t.Fatalf("%s: catalog translate diverges:\n%s\nvs\n%s", tc.name, sqls[0], sqls[1])
		}
	}
}

// TestIntervalStreamDifferential checks the accel rows against the oracle.
func TestIntervalStreamDifferential(t *testing.T) {
	const dump = `SELECT pre, parent, size, level, ordinal, kind, name, value FROM accel ORDER BY pre`
	forEachShred(t, func() Scheme { return NewInterval(false) }, func(t *testing.T, s Scheme, db *sqldb.Database, doc *xmldom.Document) {
		var want strings.Builder
		for _, n := range doc.Nodes() {
			var parent any
			if n.Parent != nil {
				parent = n.Parent.Pre
			}
			renderRow(&want, n.Pre, parent, n.Size, n.Level, globalOrdinal(n), n.Kind.String(), oracleName(n), oracleValue(n))
		}
		expectDump(t, "accel", dumpTable(t, db, dump), want.String())
	})
}

// TestBinaryStreamDifferential checks every partition's rows against the
// oracle.
func TestBinaryStreamDifferential(t *testing.T) {
	forEachShred(t, func() Scheme { return NewBinary(false) }, func(t *testing.T, s Scheme, db *sqldb.Database, doc *xmldom.Document) {
		bn := s.(*Binary)
		want := map[string]*strings.Builder{}
		for _, n := range doc.Nodes()[1:] {
			var table string
			var ok bool
			switch n.Kind {
			case xmldom.ElementNode:
				table, ok = bn.elemTables[n.Name]
			case xmldom.AttributeNode:
				table, ok = bn.attrTables[n.Name]
			default:
				table, ok = "bt_"+n.Kind.String(), true
			}
			if !ok {
				t.Fatalf("no partition for %s %q", n.Kind, n.Name)
			}
			if want[table] == nil {
				want[table] = &strings.Builder{}
			}
			renderRow(want[table], n.Parent.Pre, globalOrdinal(n), n.Pre, oracleValue(n))
		}
		for _, table := range bn.allPartitions() {
			var w string
			if want[table] != nil {
				w = want[table].String()
			}
			if got := dumpTable(t, db, `SELECT source, ordinal, target, value FROM `+table+` ORDER BY target`); got != w {
				t.Fatalf("%s mismatch\n-- oracle --\n%s\n-- stored --\n%s", table, clip(w), clip(got))
			}
		}
		if got, want := bn.catalog.Paths(), oraclePaths(doc); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("catalog %v, want %v", got, want)
		}
	})
}

// TestBinaryPartitionsInDocumentOrder pins partition naming: labels that
// sanitize alike are numbered in pre-order of their first node (a-b,
// @x-y, a_b, @x_y, A-B), so an element's partition exists before its
// attributes' even though its row is written when it closes.
func TestBinaryPartitionsInDocumentOrder(t *testing.T) {
	for _, in := range shredInputs {
		bn, db := NewBinary(false), sqldb.New()
		if err := bn.Setup(db); err != nil {
			t.Fatal(err)
		}
		if err := in.load(bn, db, `<a-b x-y="1"><a_b x_y="2"><A-B/></a_b></a-b>`); err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprint(bn.elemTables, bn.attrTables)
		const want = "map[A-B:be_a_b_3 a-b:be_a_b a_b:be_a_b_1] map[x-y:ba_x_y x_y:ba_x_y_2]"
		if got != want {
			t.Fatalf("%s: partitions %s, want %s", in.name, got, want)
		}
	}
}

// TestShredReplayOfBuiltDocument shreds a DOM that was built, not
// parsed (xmlgen's auction), through the replay.
func TestShredReplayOfBuiltDocument(t *testing.T) {
	doc := xmlgen.Auction(xmlgen.Config{Factor: 0.01, Seed: 4})
	s, db := NewInterval(false), sqldb.New()
	if err := s.Setup(db); err != nil {
		t.Fatal(err)
	}
	if err := s.Load(context.Background(), db, doc); err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, n := range doc.Nodes() {
		var parent any
		if n.Parent != nil {
			parent = n.Parent.Pre
		}
		renderRow(&want, n.Pre, parent, n.Size, n.Level, globalOrdinal(n), n.Kind.String(), oracleName(n), oracleValue(n))
	}
	expectDump(t, "accel", dumpTable(t, db, `SELECT pre, parent, size, level, ordinal, kind, name, value FROM accel ORDER BY pre`), want.String())
}

// TestStreamLoadQueries runs the conformance query battery over
// tokenizer-loaded databases, pinning translated results to the DOM
// evaluator exactly as the DOM-load conformance test does.
func TestStreamLoadQueries(t *testing.T) {
	src := xmlgen.AuctionXML(xmlgen.Config{Factor: 0.02, Seed: 7})
	doc, err := xmldom.ParseString(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	schemes := []Scheme{NewEdge(false), NewInterval(false), NewBinary(false)}
	for _, s := range schemes {
		db := sqldb.New()
		if err := s.Setup(db); err != nil {
			t.Fatalf("%s setup: %v", s.Name(), err)
		}
		tz := xmldom.NewTokenizer(strings.NewReader(src))
		if err := s.(StreamLoader).LoadStream(context.Background(), db, tz); err != nil {
			t.Fatalf("%s stream load: %v", s.Name(), err)
		}
		for _, q := range conformanceQueries {
			if q.skip[s.Name()] {
				continue
			}
			got, err := QueryIDs(db, s, q.query)
			if err != nil {
				t.Fatalf("%s %s: %v", s.Name(), q.name, err)
			}
			want := domIDs(doc, q.query)
			if !int64sEqual(got, want) {
				t.Fatalf("%s %s: ids %v, want %v", s.Name(), q.name, got, want)
			}
		}
	}
}

// TestStreamLoadCancel verifies cancellation bounds a streaming load at
// batch granularity.
func TestStreamLoadCancel(t *testing.T) {
	src := xmlgen.AuctionXML(xmlgen.Config{Factor: 0.05, Seed: 3})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	db := sqldb.New()
	s := NewInterval(false)
	if err := s.Setup(db); err != nil {
		t.Fatalf("setup: %v", err)
	}
	tz := xmldom.NewTokenizer(strings.NewReader(src))
	if err := s.LoadStream(ctx, db, tz); err == nil {
		t.Fatalf("expected cancellation error")
	}
}
