package translate

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dtd"
	"repro/internal/sqldb"
	"repro/internal/xpath"
)

func TestDeweyAncestorTranslation(t *testing.T) {
	sql, err := Dewey(xpath.MustParse("//city/ancestor::person"))
	if err != nil {
		t.Fatal(err)
	}
	// The ancestor step reverses the prefix range: the current path
	// must fall inside the candidate ancestor's range.
	if !strings.Contains(sql, ".path > d2.path || '.'") || !strings.Contains(sql, ".path < d2.path || '/'") {
		t.Errorf("ancestor prefix conditions missing:\n%s", sql)
	}
}

func TestEdgeCatalogPredicatePlacement(t *testing.T) {
	c := NewPathCatalog()
	for _, p := range []string{
		"site", "site/regions", "site/regions/africa",
		"site/regions/africa/item", "site/regions/africa/item/name",
		"site/regions/africa/item/name/#text",
	} {
		c.Add(p)
	}
	sql, err := Edge(xpath.MustParse("//item[name='x']/name"), EdgeOptions{MaxDepth: 8, Catalog: c})
	if err != nil {
		t.Fatal(err)
	}
	// The predicate must anchor at the item hop, not the final name hop:
	// the EXISTS subquery probes from the item alias (e4).
	if !strings.Contains(sql, "e4p1.source = e4.target") {
		t.Errorf("predicate anchored at the wrong hop:\n%s", sql)
	}
	if !strings.Contains(sql, "e5.target AS id") {
		t.Errorf("result should come from the trailing name hop:\n%s", sql)
	}
}

func TestEdgeCatalogNoMatchStillValid(t *testing.T) {
	c := NewPathCatalog()
	c.Add("site")
	sql, err := Edge(xpath.MustParse("//nonexistent"), EdgeOptions{MaxDepth: 8, Catalog: c})
	if err != nil {
		t.Fatal(err)
	}
	if sql != emptyQuery {
		t.Errorf("expected the empty query:\n%s", sql)
	}
	res, err := sqldb.New().Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Errorf("the empty query returned %d rows", res.Len())
	}
}

func TestIntervalChildViaRegionTranslation(t *testing.T) {
	probe, err := Interval(xpath.MustParse("/a/b"), IntervalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	region, err := Interval(xpath.MustParse("/a/b"), IntervalOptions{ChildViaRegion: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(probe, "a2.parent = a1.pre") {
		t.Errorf("probe form missing parent join:\n%s", probe)
	}
	if !strings.Contains(region, "a2.level = a1.level + 1") || !strings.Contains(region, "a2.pre <= a1.pre + a1.size") {
		t.Errorf("region form missing region predicates:\n%s", region)
	}
	// The first step from the document root always uses the parent
	// column (there is no enclosing region row to range over).
	if !strings.Contains(region, "a1.parent = 0") {
		t.Errorf("root step should stay a parent probe:\n%s", region)
	}
}

func TestTranslationsQuoteValues(t *testing.T) {
	// Value literals with quotes must be escaped in every translator.
	q := xpath.MustParse(`/a/b[c="o'clock"]`)
	for name, f := range map[string]func() (string, error){
		"edge":     func() (string, error) { return Edge(q, EdgeOptions{MaxDepth: 4}) },
		"interval": func() (string, error) { return Interval(q, IntervalOptions{}) },
		"dewey":    func() (string, error) { return Dewey(q) },
	} {
		sql, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(sql, "'o''clock'") {
			t.Errorf("%s: quote escaping missing:\n%s", name, sql)
		}
	}
}

func TestContainsEscapesLikeMeta(t *testing.T) {
	q := xpath.MustParse(`/a/b[contains(., '50%_x')]`)
	sql, err := Interval(q, IntervalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, `50\%\_x`) || !strings.Contains(sql, `ESCAPE '\'`) {
		t.Errorf("LIKE metacharacters not escaped:\n%s", sql)
	}
}

func TestAttrDescendantPattern(t *testing.T) {
	// //@id (expanded by the xpath parser) must translate everywhere
	// that supports it.
	q := xpath.MustParse("//@id")
	if _, err := Edge(q, EdgeOptions{MaxDepth: 4}); err != nil {
		t.Errorf("edge //@id: %v", err)
	}
	if _, err := Interval(q, IntervalOptions{}); err != nil {
		t.Errorf("interval //@id: %v", err)
	}
	if _, err := Dewey(q); err != nil {
		t.Errorf("dewey //@id: %v", err)
	}
}

// TestExpansionCapsAreUnsupported holds the expansion caps to the
// refusal every other untranslatable query gets: Edge's 256 chains,
// blind or from the catalog, and Inline's 128 routes.
func TestExpansionCapsAreUnsupported(t *testing.T) {
	wide := NewPathCatalog()
	var dtdText strings.Builder
	dtdText.WriteString("<!ELEMENT doc (")
	for i := range 300 {
		wide.Add(fmt.Sprintf("r/x%d/leaf", i))
		if i < 130 {
			if i > 0 {
				dtdText.WriteString(", ")
			}
			fmt.Fprintf(&dtdText, "c%d*", i)
		}
	}
	dtdText.WriteString(")>\n<!ELEMENT leaf (#PCDATA)>\n")
	for i := range 130 {
		fmt.Fprintf(&dtdText, "<!ELEMENT c%d (leaf*)>\n", i)
	}
	d, err := dtd.Parse(dtdText.String(), "doc")
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildInlineMapping(dtd.BuildGraph(d))
	if err != nil {
		t.Fatal(err)
	}
	for name, translate := range map[string]func() (string, error){
		"edge blind":   func() (string, error) { return Edge(xpath.MustParse("//a//b//c"), EdgeOptions{MaxDepth: 16}) },
		"edge catalog": func() (string, error) { return Edge(xpath.MustParse("//leaf"), EdgeOptions{Catalog: wide}) },
		"inline":       func() (string, error) { return Inline(xpath.MustParse("/doc//leaf"), m) },
	} {
		var unsup *ErrUnsupported
		if _, err := translate(); !errors.As(err, &unsup) {
			t.Errorf("%s: want an unsupported error, got %v", name, err)
		}
	}
}
