package shred

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/xmldom"
	"repro/internal/xpath"
)

// orderQueries depend on document order — sibling axes and positional
// predicates — so they are only answerable by schemes with an order
// encoding (Dewey paths, interval ordinals).
var orderQueries = []string{
	"/list/item[2]/following-sibling::item",
	"/list/item[4]/preceding-sibling::item",
	"/list/item[position() = 2]",
	"/list/item[1]",
	"/list/item[3]/following-sibling::item/text()",
}

const orderDoc = `<list><item>a</item><item>b</item><item>c</item><item>d</item><item>e</item></list>`

// orderedDomValues evaluates the query natively and returns the node
// values in document order.
func orderedDomValues(doc *xmldom.Document, query string) []string {
	var out []string
	for _, n := range xpath.Eval(doc, xpath.MustParse(query)) {
		out = append(out, n.Text())
	}
	return out
}

// TestSiblingOrderStatic compares sibling-axis and positional results
// against the DOM by node id on a freshly loaded document.
func TestSiblingOrderStatic(t *testing.T) {
	doc, err := xmldom.ParseString(orderDoc)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range All(false) {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			db, err := LoadDocument(s, doc)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			for _, q := range orderQueries {
				want := domIDs(doc, q)
				got, err := QueryIDs(db, s, q)
				if err != nil {
					if isUnsupported(err) {
						continue
					}
					t.Errorf("%s: %v", q, err)
					continue
				}
				if !int64sEqual(want, got) {
					t.Errorf("%s: dom ids %v, %s ids %v", q, want, s.Name(), got)
				}
			}
		})
	}
}

// TestOrderAfterInserts re-checks the order-sensitive battery after
// ordered insertions. Inserted nodes get fresh ids past the loaded
// range while the mirrored DOM renumbers, so results are compared as
// ordered value sequences, not ids.
func TestOrderAfterInserts(t *testing.T) {
	for _, mk := range []func() Scheme{
		func() Scheme { return NewInterval(false) },
		func() Scheme { return NewDewey(false) },
	} {
		s := mk()
		t.Run(s.Name(), func(t *testing.T) {
			doc, err := xmldom.ParseString(orderDoc)
			if err != nil {
				t.Fatal(err)
			}
			db, err := LoadDocument(s, doc)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			list := doc.RootElement()
			// Three inserts: front, middle (twice at the same slot, so
			// the second lands between earlier siblings), exercising the
			// scheme's renumber/relabel path each time.
			for i, pos := range []int{0, 2, 2} {
				frag, err := xmldom.ParseString(fmt.Sprintf("<item>new%d</item>", i))
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Insert(context.Background(), db, int64(list.Pre), pos, frag.Tokens()); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
				list.InsertChild(frag.RootElement().Copy(), pos)
				doc.Number()
			}
			for _, q := range orderQueries {
				want := orderedDomValues(doc, q)
				rows, err := Query(db, s, q)
				if err != nil {
					t.Errorf("%s: %v", q, err)
					continue
				}
				var got []string
				for _, r := range rows.Data {
					got = append(got, r[1].Text())
				}
				if fmt.Sprint(want) != fmt.Sprint(got) {
					t.Errorf("%s: dom values %v, %s values %v", q, want, s.Name(), got)
				}
			}
			// The full document still reconstructs in the new order.
			got, err := s.Reconstruct(db)
			if err != nil {
				t.Fatalf("reconstruct: %v", err)
			}
			if xmldom.SerializeString(got.Root) != xmldom.SerializeString(doc.Root) {
				t.Errorf("post-insert reconstruction differs:\nwant %s\ngot  %s",
					xmldom.SerializeString(doc.Root), xmldom.SerializeString(got.Root))
			}
		})
	}
}
