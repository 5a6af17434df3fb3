package shred

import (
	"context"
	"strings"
	"testing"

	"repro/internal/sqldb"
	"repro/internal/xmldom"
	"repro/internal/xmlgen"
)

// LoadDocument sets up a fresh database and loads doc under scheme s:
// one insert under the document node.
func LoadDocument(s Scheme, doc *xmldom.Document) (*sqldb.Database, error) {
	db := sqldb.New()
	if err := s.Setup(db); err != nil {
		return nil, err
	}
	if err := s.Insert(context.Background(), db, 0, 0, doc.Tokens()); err != nil {
		return nil, err
	}
	return db, nil
}

const unitDoc = `<r a="1"><x><y>hello</y><y>world</y></x><z/>text<w b="2">mixed<v/>tail</w></r>`

func loadUnit(t *testing.T, s Scheme) *sqldb.Database {
	t.Helper()
	doc, err := xmldom.ParseString(unitDoc)
	if err != nil {
		t.Fatal(err)
	}
	db, err := LoadDocument(s, doc)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestEdgeTableLayout(t *testing.T) {
	db := loadUnit(t, NewEdge(false))
	// One edge per non-document node.
	doc, _ := xmldom.ParseString(unitDoc)
	n, _ := db.QueryScalar(`SELECT COUNT(*) FROM edge`)
	if int(n.Int()) != doc.NodeCount()-1 {
		t.Fatalf("edges = %d, nodes-1 = %d", n.Int(), doc.NodeCount()-1)
	}
	// Root element hangs off source 0.
	rows, err := db.Query(`SELECT name, kind FROM edge WHERE source = 0`)
	if err != nil || rows.Len() != 1 || rows.Data[0][0].Text() != "r" {
		t.Fatalf("root edge: %v %v", rows, err)
	}
	// Simple-content elements carry their text in the value column.
	v, _ := db.QueryScalar(`SELECT value FROM edge WHERE name = 'y' AND kind = 'elem' AND value = 'hello'`)
	if v.Text() != "hello" {
		t.Errorf("denormalized value missing: %v", v)
	}
	// Mixed-content elements do not (w has element children).
	rows, _ = db.Query(`SELECT value FROM edge WHERE name = 'w' AND kind = 'elem'`)
	if rows.Len() != 1 || !rows.Data[0][0].IsNull() {
		t.Errorf("mixed content should have NULL value: %v", rows.Data)
	}
	// Attribute edges keep kind = 'attr' and their value.
	v, _ = db.QueryScalar(`SELECT value FROM edge WHERE kind = 'attr' AND name = 'a'`)
	if v.Text() != "1" {
		t.Errorf("attr value: %v", v)
	}
	// Ordinals: attributes precede children.
	rows, _ = db.Query(`SELECT kind, ordinal FROM edge WHERE source = (SELECT target FROM edge WHERE name = 'r') ORDER BY ordinal`)
	if rows.Data[0][0].Text() != "attr" || rows.Data[0][1].Int() != 1 {
		t.Errorf("attr must be ordinal 1: %v", rows.Data)
	}
}

func TestIntervalRegionInvariants(t *testing.T) {
	db := loadUnit(t, NewInterval(false))
	// Every non-root node's pre lies inside its parent's region and one
	// level below — checked in SQL itself.
	bad, err := db.QueryScalar(`
		SELECT COUNT(*) FROM accel c, accel p
		WHERE c.parent = p.pre
		  AND (c.pre <= p.pre OR c.pre > p.pre + p.size OR c.level <> p.level + 1)`)
	if err != nil {
		t.Fatal(err)
	}
	if bad.Int() != 0 {
		t.Fatalf("%d region violations", bad.Int())
	}
	// Sizes are consistent: parent size = sum of (child size + 1).
	bad, err = db.QueryScalar(`
		SELECT COUNT(*) FROM accel p
		WHERE p.kind = 'elem'
		  AND p.size <> (SELECT COALESCE(SUM(c.size + 1), 0) FROM accel c WHERE c.parent = p.pre)`)
	if err != nil {
		t.Fatal(err)
	}
	if bad.Int() != 0 {
		t.Fatalf("%d size violations", bad.Int())
	}
}

func TestDeweyPathOrderIsDocumentOrder(t *testing.T) {
	db := loadUnit(t, NewDewey(false))
	// Lexicographic path order must equal pre order for the loaded doc.
	rows, err := db.Query(`SELECT pre FROM dewey ORDER BY path`)
	if err != nil {
		t.Fatal(err)
	}
	last := int64(0)
	for _, r := range rows.Data {
		if r[0].Int() <= last && last != 0 {
			t.Fatalf("path order diverges from document order at pre %d", r[0].Int())
		}
		last = r[0].Int()
	}
	// Parent paths are proper prefixes.
	bad, err := db.QueryScalar(`
		SELECT COUNT(*) FROM dewey c
		WHERE c.parent IS NOT NULL AND NOT (c.path LIKE c.parent || '.%')`)
	if err != nil {
		t.Fatal(err)
	}
	if bad.Int() != 0 {
		t.Fatalf("%d prefix violations", bad.Int())
	}
}

// TestDeweyLabelOverflow: eight-digit components spaced 1000 apart
// number at most 99 999 siblings; the 100 000th label would print nine
// digits and sort right after the 10 000th. Load and an appending
// insert refuse with the relabel-required error and write nothing; a
// Tokenizer load refuses when it reaches the 100 000th sibling.
func TestDeweyLabelOverflow(t *testing.T) {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 100002; i++ {
		b.WriteString("<c/>")
	}
	b.WriteString("<last/></r>")
	doc, err := xmldom.ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	s := NewDewey(false)
	// A refused load runs inside one transaction, which it rolls back.
	load := func(doc *xmldom.Document) (*sqldb.Database, error) {
		db := sqldb.New()
		if err := s.Setup(db); err != nil {
			t.Fatal(err)
		}
		return db, db.Update(func(tx *sqldb.Tx) error { return s.Insert(context.Background(), tx, 0, 0, doc.Tokens()) })
	}
	db, err := load(doc)
	if err == nil || !strings.Contains(err.Error(), "relabel required") {
		t.Fatalf("loading 100 003 siblings: got %v, want the relabel-required error", err)
	}
	if n := db.TotalRows(); n != 0 {
		t.Fatalf("refused load left %d rows", n)
	}
	siblings := func(n int) *xmldom.Document {
		doc, err := xmldom.ParseString("<r>" + strings.Repeat("<c/>", n) + "</r>")
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	if _, err := load(siblings(99999)); err != nil {
		t.Fatalf("loading 99 999 siblings: %v", err)
	}
	if db, err := load(siblings(100000)); err == nil || db.TotalRows() != 0 {
		t.Fatalf("loading 100 000 siblings: got %v and %d rows, want a refusal and none", err, db.TotalRows())
	}
	// A Tokenizer stream refuses partway, after its earlier batches.
	streamSiblings := func(src string) error {
		db := sqldb.New()
		if err := s.Setup(db); err != nil {
			t.Fatal(err)
		}
		return s.Insert(context.Background(), db, 0, 0, xmldom.NewTokenizer(strings.NewReader(src)))
	}
	if err := streamSiblings(b.String()); err == nil || !strings.Contains(err.Error(), "relabel required") {
		t.Fatalf("stream-loading 100 003 siblings: got %v, want the relabel-required error", err)
	}
	if err := streamSiblings("<r>" + strings.Repeat("<c/>", 100000) + "</r>"); err == nil {
		t.Fatal("stream-loading 100 000 siblings: accepted")
	}
	if err := streamSiblings("<r>" + strings.Repeat("<c/>", 99999) + "</r>"); err != nil {
		t.Fatalf("stream-loading 99 999 siblings: %v", err)
	}

	// An appending insert after a last label of 99999000.
	db = loadUnit(t, s)
	if _, err := db.Exec(`UPDATE dewey SET path = '00001000.99999000' WHERE name = 'z'`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`DELETE FROM dewey WHERE path >= '00001000.00004000' AND path < '00001000.99999000'`); err != nil {
		t.Fatal(err)
	}
	root, err := db.QueryScalar(`SELECT pre FROM dewey WHERE name = 'r'`)
	if err != nil {
		t.Fatal(err)
	}
	before := db.TotalRows()
	insert := func(position int, subtree *xmldom.Document) error {
		return db.Update(func(tx *sqldb.Tx) error {
			return s.Insert(context.Background(), tx, root.Int(), position, subtree.Tokens())
		})
	}
	frag, err := xmldom.ParseString(`<new/>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := insert(99, frag); err == nil || !strings.Contains(err.Error(), "relabel required") {
		t.Fatalf("appending past 99999000: got %v, want the relabel-required error", err)
	}
	wide := siblings(100000)
	if err := insert(0, wide); err == nil || !strings.Contains(err.Error(), "relabel required") {
		t.Fatalf("inserting 100 000 siblings: got %v, want the relabel-required error", err)
	}
	if n := db.TotalRows(); n != before {
		t.Fatalf("refused inserts changed the row count %d -> %d", before, n)
	}
	// A midpoint insert before the last child still fits.
	if err := s.Insert(context.Background(), db, root.Int(), 1, frag.Tokens()); err != nil {
		t.Fatal(err)
	}
	rec, err := s.Reconstruct(db)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := xmldom.SerializeString(rec.Root), `<r a="1"><x><y>hello</y><y>world</y></x><new/><z/></r>`; got != want {
		t.Fatalf("reconstructed %s, want %s", got, want)
	}
}

// TestNextIDIsIndexProbe: an Edge or Binary subtree insert takes its
// next node id from MAX(target) over each edge table, and target is the
// PRIMARY KEY, so every such MAX is one probe of the key's B-tree, not
// a scan.
func TestNextIDIsIndexProbe(t *testing.T) {
	edge := loadUnit(t, NewEdge(false))
	bn := NewBinary(false)
	binary := loadUnit(t, bn)
	check := func(db *sqldb.Database, table string) {
		t.Helper()
		plan, err := db.Explain("SELECT MAX(target) FROM " + table)
		if err != nil {
			t.Fatal(err)
		}
		if want := "IndexMinMax " + table + "_pk MAX "; !strings.Contains(plan, want) {
			t.Errorf("MAX(target) over %s plans as\n%swant %s", table, plan, want)
		}
	}
	check(edge, "edge")
	st, err := readState(binary, "binary")
	if err != nil {
		t.Fatal(err)
	}
	for _, table := range st.partitions() {
		check(binary, table)
	}
}

func TestBinaryPartitionNaming(t *testing.T) {
	// Labels that sanitize to the same identifier must get distinct
	// partitions, and element vs attribute namespaces must not collide.
	doc, err := xmldom.ParseString(`<r><a-b>1</a-b><a.b>2</a.b><c x="y"/><x>3</x></r>`)
	if err != nil {
		t.Fatal(err)
	}
	s := NewBinary(false)
	db, err := LoadDocument(s, doc)
	if err != nil {
		t.Fatal(err)
	}
	names := db.TableNames()
	set := map[string]bool{}
	for _, n := range names {
		if set[n] {
			t.Fatalf("duplicate table %s", n)
		}
		set[n] = true
	}
	// a-b and a.b both sanitize to a_b: one must have a suffix.
	ids, err := QueryIDs(db, s, `/r/a-b`)
	if err != nil || len(ids) != 1 {
		t.Fatalf("a-b: %v %v", ids, err)
	}
	// Element <x> and attribute @x live in different partitions.
	ids, err = QueryIDs(db, s, `/r/x`)
	if err != nil || len(ids) != 1 {
		t.Fatalf("element x: %v %v", ids, err)
	}
	ids, err = QueryIDs(db, s, `/r/c/@x`)
	if err != nil || len(ids) != 1 {
		t.Fatalf("attr x: %v %v", ids, err)
	}
	// Round trip through partitions.
	rec, err := s.Reconstruct(db)
	if err != nil {
		t.Fatal(err)
	}
	if xmldom.SerializeString(rec.Root) != xmldom.SerializeString(doc.Root) {
		t.Error("binary round trip with colliding labels failed")
	}
}

func TestUniversalRejectsRecursion(t *testing.T) {
	doc := xmlgen.Recursive(4, 2, 1)
	_, err := LoadDocument(NewUniversal(), doc)
	if err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Fatalf("expected recursion rejection, got %v", err)
	}
}

func TestUniversalColumnCollisions(t *testing.T) {
	doc, err := xmldom.ParseString(`<r><a-b>1</a-b><a_b>2</a_b></r>`)
	if err != nil {
		t.Fatal(err)
	}
	s := NewUniversal()
	db, err := LoadDocument(s, doc)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := QueryIDs(db, s, `/r/a-b`)
	if err != nil || len(ids) != 1 {
		t.Fatalf("a-b: %v %v", ids, err)
	}
	ids, err = QueryIDs(db, s, `/r/a_b`)
	if err != nil || len(ids) != 1 {
		t.Fatalf("a_b: %v %v", ids, err)
	}
}

func TestInlineRejectsNonConforming(t *testing.T) {
	inline, err := NewInline(`
<!ELEMENT root (item*)>
<!ELEMENT item (name)>
<!ELEMENT name (#PCDATA)>
`, "root")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		doc  string
		frag string
	}{
		{`<other/>`, "does not match DTD root"},
		{`<root><item><name>x</name><bogus/></item></root>`, "not declared"},
		{`<root><item><name>x</name><name>y</name></item></root>`, "more than once"},
		{`<root><item badattr="1"><name>x</name></item></root>`, "not declared"},
	}
	for _, c := range cases {
		fresh, _ := NewInline(`
<!ELEMENT root (item*)>
<!ELEMENT item (name)>
<!ELEMENT name (#PCDATA)>
`, "root")
		doc, err := xmldom.ParseString(c.doc)
		if err != nil {
			t.Fatal(err)
		}
		_, err = LoadDocument(fresh, doc)
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: expected error mentioning %q, got %v", c.doc, c.frag, err)
		}
	}
	_ = inline
}

func TestInlineRecursiveDocuments(t *testing.T) {
	// Recursive DTDs work: each part row self-references via parentid.
	s, err := NewInline(xmlgen.RecursiveDTD, "assembly")
	if err != nil {
		t.Fatal(err)
	}
	doc := xmlgen.Recursive(4, 2, 1)
	db, err := LoadDocument(s, doc)
	if err != nil {
		t.Fatal(err)
	}
	// Document-rooted descendant over the recursive element is exact.
	wantParts := 0
	for _, n := range doc.Nodes() {
		if n.Kind == xmldom.ElementNode && n.Name == "part" {
			wantParts++
		}
	}
	rows, err := Query(db, s, `//part`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != wantParts {
		t.Errorf("//part = %d, want %d", rows.Len(), wantParts)
	}
	rows, err = Query(db, s, `//partname`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != wantParts {
		t.Errorf("//partname = %d, want %d", rows.Len(), wantParts)
	}
}

func TestSchemeErrorOnBadParent(t *testing.T) {
	doc, _ := xmldom.ParseString(`<r><a/></r>`)
	frag, _ := xmldom.ParseString(`<new/>`)
	for _, s := range []Scheme{NewInterval(false), NewDewey(false)} {
		db, err := LoadDocument(s, doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Insert(context.Background(), db, 99999, 0, frag.Tokens()); err == nil {
			t.Errorf("%s: bogus parent id accepted", s.Name())
		}
	}
}
