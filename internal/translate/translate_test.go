package translate

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/dtd"
	"repro/internal/xmlgen"
	"repro/internal/xpath"
)

func TestQuoteHelpers(t *testing.T) {
	if QuoteString("o'clock") != "'o''clock'" {
		t.Errorf("QuoteString: %q", QuoteString("o'clock"))
	}
	if QuoteIdent("from") != `"from"` {
		t.Errorf("QuoteIdent must always quote: %q", QuoteIdent("from"))
	}
	if QuoteIdent(`we"ird`) != `"we""ird"` {
		t.Errorf("QuoteIdent escaping: %q", QuoteIdent(`we"ird`))
	}
	if SanitizeName("Mixed-Case.Name:x") != "mixed_case_name_x" {
		t.Errorf("SanitizeName: %q", SanitizeName("Mixed-Case.Name:x"))
	}
	if likeEscapeMeta(`50%_a\b`) != `50\%\_a\\b` {
		t.Errorf("likeEscapeMeta: %q", likeEscapeMeta(`50%_a\b`))
	}
	if numLiteral(3) != "3" || numLiteral(2.5) != "2.5" {
		t.Errorf("numLiteral: %s %s", numLiteral(3), numLiteral(2.5))
	}
}

func TestPathCatalogExpand(t *testing.T) {
	c := NewPathCatalog()
	for _, p := range []string{
		"site",
		"site/people",
		"site/people/person",
		"site/people/person/name",
		"site/people/person/name/#text",
		"site/people/person/@id",
		"site/regions",
		"site/regions/africa",
		"site/regions/africa/item",
		"site/regions/africa/item/name",
	} {
		c.Add(p)
	}
	c.Add("site/people") // duplicates are ignored
	if c.Len() != 10 {
		t.Fatalf("catalog len = %d", c.Len())
	}
	expand := func(q string) []string {
		chains, err := c.chains(xpath.MustParse(q).Steps, "test", nil)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		var out []string
		for _, hops := range chains {
			var labels []string
			for _, h := range hops {
				labels = append(labels, h.label)
			}
			out = append(out, strings.Join(labels, "/"))
		}
		return out
	}
	if got := expand("//name"); len(got) != 2 {
		t.Errorf("//name -> %v", got)
	}
	if got := expand("/site/people/person/name"); len(got) != 1 || got[0] != "site/people/person/name" {
		t.Errorf("exact path -> %v", got)
	}
	if got := expand("//person/@id"); len(got) != 1 {
		t.Errorf("//person/@id -> %v", got)
	}
	if got := expand("/site/*/person"); len(got) != 1 {
		t.Errorf("wildcard -> %v", got)
	}
	if got := expand("//bogus"); got != nil {
		t.Errorf("//bogus -> %v", got)
	}
	if got := expand("//person//name"); len(got) != 1 {
		t.Errorf("//person//name -> %v", got)
	}
	// Each step lands on the hop of the segment it matched.
	chains, _ := c.chains(xpath.MustParse("//item/name").Steps, "test", nil)
	if len(chains) != 1 || len(chains[0]) != 5 || chains[0][3].posTest.Name != "item" || chains[0][4].posTest.Name != "name" {
		t.Errorf("step-to-segment mapping: %+v", chains)
	}
}

func TestEdgeTranslationShape(t *testing.T) {
	sql, err := Edge(xpath.MustParse("/site/people/person[@id='p1']/name"), EdgeOptions{MaxDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		"e1.source = 0", "e1.name = 'site'",
		"e2.source = e1.target", "e3.source = e2.target",
		"EXISTS", "'p1'", "ORDER BY id",
	} {
		if !strings.Contains(sql, frag) {
			t.Errorf("edge SQL missing %q:\n%s", frag, sql)
		}
	}
	// A descendant step becomes a UNION whose size tracks MaxDepth.
	shallow, err := Edge(xpath.MustParse("//name"), EdgeOptions{MaxDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	deep, err := Edge(xpath.MustParse("//name"), EdgeOptions{MaxDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	cs, cd := strings.Count(shallow, "UNION ALL"), strings.Count(deep, "UNION ALL")
	if cs != 3 || cd != 9 {
		t.Errorf("union sizes: depth4 %d (want 3), depth10 %d (want 9)", cs, cd)
	}
	// Expansion explosion is bounded: 16³ chains exceed the cap of 256.
	if _, err := Edge(xpath.MustParse("//a//b//c"), EdgeOptions{MaxDepth: 16}); err == nil {
		t.Error("expected expansion cap error")
	}
}

func TestIntervalTranslationShape(t *testing.T) {
	sql, err := Interval(xpath.MustParse("//open_auction//increase"), IntervalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Descendants are single range predicates, not unions.
	if strings.Contains(sql, "UNION") {
		t.Error("interval descendant must not expand to unions")
	}
	for _, frag := range []string{"a2.pre > a1.pre", "a2.pre <= a1.pre + a1.size"} {
		if !strings.Contains(sql, frag) {
			t.Errorf("interval SQL missing %q:\n%s", frag, sql)
		}
	}
	// Ancestor axis.
	sql, err = Interval(xpath.MustParse("/a/b/ancestor::a"), IntervalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "a3.pre + a3.size >= a2.pre") {
		t.Errorf("ancestor region predicate missing:\n%s", sql)
	}
}

func TestDeweyTranslationShape(t *testing.T) {
	sql, err := Dewey(xpath.MustParse("/site//item"))
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		"d2.path > d1.path || '.'",
		"d2.path < d1.path || '/'",
		"ORDER BY dpath",
	} {
		if !strings.Contains(sql, frag) {
			t.Errorf("dewey SQL missing %q:\n%s", frag, sql)
		}
	}
	// Child steps probe the parent path, not a range.
	sql, err = Dewey(xpath.MustParse("/site/people"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "d2.parent = d1.path") {
		t.Errorf("dewey child join missing:\n%s", sql)
	}
}

func TestUnsupportedConstructs(t *testing.T) {
	var unsup *ErrUnsupported
	if _, err := Edge(xpath.MustParse("a/b"), EdgeOptions{}); !errors.As(err, &unsup) {
		t.Errorf("relative path: %v", err)
	}
	if _, err := Interval(xpath.MustParse("/"), IntervalOptions{}); !errors.As(err, &unsup) {
		t.Errorf("bare document: %v", err)
	}
	if _, err := Interval(xpath.MustParse("/a[b = c]"), IntervalOptions{}); !errors.As(err, &unsup) {
		t.Errorf("comparison without a literal: %v", err)
	}
	c := NewPathCatalog()
	c.Add("a")
	col := func(seg string) (string, bool) { return SanitizeName(seg), true }
	if _, err := Universal(xpath.MustParse("/a[1]"), UniversalOptions{Catalog: c, Column: col}); !errors.As(err, &unsup) {
		t.Errorf("universal positional: %v", err)
	}
}

func TestInlineMappingStructure(t *testing.T) {
	d, err := dtd.Parse(`
<!ELEMENT root (meta?, entry*)>
<!ELEMENT meta (created, owner)>
<!ELEMENT created (#PCDATA)>
<!ELEMENT owner (#PCDATA)>
<!ATTLIST owner role CDATA #IMPLIED>
<!ELEMENT entry (title, note?)>
<!ATTLIST entry id ID #REQUIRED>
<!ELEMENT title (#PCDATA)>
<!ELEMENT note (#PCDATA)>
`, "root")
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildInlineMapping(dtd.BuildGraph(d))
	if err != nil {
		t.Fatal(err)
	}
	// root and entry get relations; meta/created/owner/title/note inline.
	if len(m.Order) != 2 {
		t.Fatalf("relations = %v", m.Order)
	}
	root := m.Relations["root"]
	for _, key := range []string{"meta", "meta.created", "meta.owner", "meta.owner.@role"} {
		if _, ok := root.ByKey[key]; !ok {
			t.Errorf("root relation missing column %q (has %v)", key, keysOf(root))
		}
	}
	entry := m.Relations["entry"]
	for _, key := range []string{"@id", "title", "note"} {
		if _, ok := entry.ByKey[key]; !ok {
			t.Errorf("entry relation missing column %q (has %v)", key, keysOf(entry))
		}
	}
	// meta is presence-typed (no text), created is text-typed.
	if root.Columns[root.ByKey["meta"]].Kind != ColPresence {
		t.Error("meta should be a presence column")
	}
	if root.Columns[root.ByKey["meta.created"]].Kind != ColText {
		t.Error("meta.created should be a text column")
	}
	// Placements know every spot an element occupies.
	if len(m.Placements["title"]) != 1 || m.Placements["title"][0].Rel != entry {
		t.Errorf("title placements = %+v", m.Placements["title"])
	}
}

func keysOf(r *InlineRelation) []string {
	var out []string
	for _, c := range r.Columns {
		out = append(out, c.Key)
	}
	return out
}

// TestInlineByKeyMatchesColumns: every relation's ByKey names each of
// its columns, at that column's own place in Columns, over the auction
// DTD, whose relations grow their column lists well past a first
// allocation.
func TestInlineByKeyMatchesColumns(t *testing.T) {
	d, err := dtd.Parse(xmlgen.AuctionDTD, "site")
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildInlineMapping(dtd.BuildGraph(d))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, rel := range m.Relations {
		if len(rel.ByKey) != len(rel.Columns) {
			t.Errorf("%s: %d keys for %d columns", rel.Table, len(rel.ByKey), len(rel.Columns))
		}
		for i, c := range rel.Columns {
			if j, ok := rel.ByKey[c.Key]; !ok || j != i {
				t.Errorf("%s: ByKey[%q] = %d, %v; want column %d", rel.Table, c.Key, j, ok, i)
			}
			n++
		}
	}
	if n < 60 {
		t.Fatalf("auction DTD mapped to %d columns, want the full schema", n)
	}
}

func TestInlineTranslationShape(t *testing.T) {
	d, err := dtd.Parse(`
<!ELEMENT root (entry*)>
<!ELEMENT entry (title, note?, tag*)>
<!ATTLIST entry id ID #REQUIRED>
<!ELEMENT title (#PCDATA)>
<!ELEMENT note (#PCDATA)>
<!ELEMENT tag (#PCDATA)>
`, "root")
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildInlineMapping(dtd.BuildGraph(d))
	if err != nil {
		t.Fatal(err)
	}
	// Inlined column access: no join beyond the entry relation.
	sql, err := Inline(xpath.MustParse("/root/entry[title='x']/@id"), m)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(sql, "inl_entry") != 1 {
		t.Errorf("expected one entry reference:\n%s", sql)
	}
	if !strings.Contains(sql, `"title" = 'x'`) {
		t.Errorf("title predicate missing:\n%s", sql)
	}
	// A predicate path that stays in the context row is a column
	// condition, with no subquery.
	if strings.Count(sql, "SELECT") != 1 {
		t.Errorf("same-row comparison should have no subquery:\n%s", sql)
	}
	// Over a shared child, existence and count() correlate one
	// subquery over the child relation on parentid and parentcode.
	for q, want := range map[string]string{
		"/root/entry[tag]":            `EXISTS (SELECT 1 FROM inl_tag i2_x1 WHERE i2_x1.parentid = i2.id AND i2_x1.parentcode = '')`,
		"/root/entry[count(tag) > 1]": `(SELECT COUNT(*) FROM inl_tag i2_x1 WHERE i2_x1.parentid = i2.id AND i2_x1.parentcode = '') > 1`,
		// string-length() of an optional inlined child reads its
		// column, the empty string when the child is absent.
		"/root/entry[string-length(note) = 0]": `LENGTH(COALESCE(i2."note", '')) = 0`,
		// An inlined child occurs at most once: count() reads its column.
		"/root/entry[count(note) = 0]": `(CASE WHEN i2."note" IS NULL THEN 0 ELSE 1 END) = 0`,
	} {
		sql, err := Inline(xpath.MustParse(q), m)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !strings.Contains(sql, want) {
			t.Errorf("%s: want %s in\n%s", q, want, sql)
		}
	}
	// Set-valued child crosses into its own relation with parentcode.
	sql, err = Inline(xpath.MustParse("/root/entry/tag"), m)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "inl_tag") || !strings.Contains(sql, "parentid") {
		t.Errorf("tag relation join missing:\n%s", sql)
	}
	// Descendants through recursion are rejected below the root.
	dRec, err := dtd.Parse(`
<!ELEMENT assembly (part)>
<!ELEMENT part (partname, part*)>
<!ELEMENT partname (#PCDATA)>
`, "assembly")
	if err != nil {
		t.Fatal(err)
	}
	mRec, err := BuildInlineMapping(dtd.BuildGraph(dRec))
	if err != nil {
		t.Fatal(err)
	}
	// Document-rooted // is exact even with recursion.
	if _, err := Inline(xpath.MustParse("//partname"), mRec); err != nil {
		t.Errorf("root-anchored //partname should work: %v", err)
	}
	if _, err := Inline(xpath.MustParse("/assembly/part//partname"), mRec); err == nil {
		t.Error("anchored descendant through recursion should be unsupported")
	}
}

// TestNamedPositionSQLUnchanged pins the positional SQL of named steps,
// which the plan cache and the F1 plans key on: counting by the step's
// node test changed only the *, node() and text() forms.
func TestNamedPositionSQLUnchanged(t *testing.T) {
	q := xpath.MustParse("/site/open_auctions/open_auction/bidder[1]/increase")
	for _, c := range []struct {
		scheme string
		sql    func() (string, error)
		want   string
	}{
		{"interval", func() (string, error) { return Interval(q, IntervalOptions{}) },
			"(SELECT COUNT(*) FROM accel s WHERE s.parent = a4.parent AND s.kind = a4.kind AND s.name = a4.name AND s.ordinal < a4.ordinal) + 1 = 1"},
		{"dewey", func() (string, error) { return Dewey(q) },
			"(SELECT COUNT(*) FROM dewey s WHERE s.parent = d4.parent AND s.kind = d4.kind AND s.name = d4.name AND s.path < d4.path) + 1 = 1"},
		{"edge", func() (string, error) { return Edge(q, EdgeOptions{MaxDepth: 8}) },
			"(SELECT COUNT(*) FROM edge s WHERE s.source = e4.source AND s.kind = e4.kind AND s.name = e4.name AND s.ordinal < e4.ordinal) + 1 = 1"},
	} {
		sql, err := c.sql()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sql, c.want) {
			t.Errorf("%s positional SQL changed:\n%s", c.scheme, sql)
		}
	}
}
