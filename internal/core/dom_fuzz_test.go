package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/sqldb"
	"repro/internal/xmldom"
	"repro/internal/xmlgen"
	"repro/internal/xpath"
)

// domCorpus is the XPath corpus the six schemes are held to the DOM
// on: the F1 query mix plus fuzz-derived shapes — deep descendants,
// chained predicates, empty results, attribute tests, positional steps.
var domCorpus = append(append([]string{}, f1Queries...),
	"/site",
	"/site//item",
	"//bidder/increase",
	"/site/regions//item/name",
	"//open_auction[bidder/increase > 20]",
	"//person[profile/education]",
	"/site/people/person[address/city='Nowhere']/name",
	"//item[location='United States']/name",
	"/site/open_auctions/open_auction[3]/initial",
	"//category/description",
	"//person[@id='person0']/name",
	"/site/closed_auctions/closed_auction/price",
)

// fuzzStores lazily builds the shared Interval stores for
// FuzzXPathVsDOM (document shredding is far too slow to repeat per fuzz
// input) — one on an unbounded heap, one behind a three-page buffer
// pool — with the DOM they were loaded from.
var fuzzStores struct {
	once         sync.Once
	doc          *xmldom.Document
	heap, pooled *Store
	err          error
}

func domFuzzStores() (*xmldom.Document, *Store, *Store, error) {
	fuzzStores.once.Do(func() {
		doc := xmlgen.Auction(xmlgen.Config{Factor: 0.05, Seed: 7})
		open := func(pool int) (*Store, error) {
			st, err := Open(Interval)
			if err != nil {
				return nil, err
			}
			if err := st.LoadDocument(doc); err != nil {
				return nil, err
			}
			st.DB().SetBufferPool(pool)
			return st, nil
		}
		fuzzStores.doc = doc
		if fuzzStores.heap, fuzzStores.err = open(0); fuzzStores.err != nil {
			return
		}
		fuzzStores.pooled, fuzzStores.err = open(3)
	})
	return fuzzStores.doc, fuzzStores.heap, fuzzStores.pooled, fuzzStores.err
}

// FuzzXPathVsDOM checks the Interval store against the DOM: an XPath
// query with a fuzzed comparison constant must match exactly the nodes
// xpath.Eval finds, in document order, on an unbounded heap and behind
// a three-page pool. Randomized SQL over the accelerator relation —
// modulus and range filters, grouped aggregation, the parent/child self
// join, a LIMIT — must return byte-identical rows from both.
func FuzzXPathVsDOM(f *testing.F) {
	f.Add(uint16(7), uint16(3), uint8(2), uint8(5), int64(20))
	f.Add(uint16(1), uint16(0), uint8(0), uint8(0), int64(0))
	f.Add(uint16(1024), uint16(1023), uint8(11), uint8(63), int64(-5))
	f.Add(uint16(97), uint16(96), uint8(4), uint8(10), int64(1000))
	f.Fuzz(func(t *testing.T, mod, rem uint16, lvl, sz uint8, xc int64) {
		doc, heap, pooled, err := domFuzzStores()
		if err != nil {
			t.Fatalf("store: %v", err)
		}

		// The XPath grammar has no unary minus, so the constant is its
		// magnitude (as unsigned: int64's minimum has no positive twin).
		mag := uint64(xc)
		if xc < 0 {
			mag = -mag
		}
		xq := fmt.Sprintf(`//open_auction[bidder/increase > %d]`, mag)
		var want []int64
		for _, n := range xpath.Eval(doc, xpath.MustParse(xq)) {
			want = append(want, int64(n.Pre))
		}
		for name, st := range map[string]*Store{"heap": heap, "pooled": pooled} {
			res, err := st.Query(xq)
			if err != nil {
				t.Fatalf("%s %q: %v", name, xq, err)
			}
			var got []int64
			for _, m := range res.Matches {
				got = append(got, m.ID)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %q: store matched %v, DOM %v", name, xq, got, want)
			}
		}

		p := int64(mod%2048) + 1
		r := int64(rem) % p
		l := int64(lvl % 16)
		s := int64(sz % 64)
		for _, sql := range []string{
			fmt.Sprintf(`SELECT pre, name FROM accel WHERE pre %% %d = %d AND level >= %d`, p, r, l),
			fmt.Sprintf(`SELECT kind, COUNT(*), MIN(pre), MAX(level) FROM accel WHERE size %% %d <> 1 GROUP BY kind`, s%7+2),
			fmt.Sprintf(`SELECT COUNT(*) FROM accel c, accel p WHERE c.parent = p.pre AND p.size > %d AND c.level > %d`, s, l),
			fmt.Sprintf(`SELECT name, value FROM accel WHERE name IS NOT NULL AND level = %d LIMIT %d`, l, p),
		} {
			want, err := heap.DB().Query(sql)
			if err != nil {
				t.Fatalf("heap %q: %v", sql, err)
			}
			got, err := pooled.DB().Query(sql)
			if err != nil {
				t.Fatalf("pooled %q: %v", sql, err)
			}
			if !reflect.DeepEqual(want.Columns, got.Columns) || !sqldb.IdenticalRows(want.Data, got.Data) {
				t.Fatalf("%q: heap %d rows, pooled %d rows, or order/value drift", sql, want.Len(), got.Len())
			}
		}
	})
}

// TestStoreMatchesDOM loads every scheme and runs the DOM corpus: for
// every scheme but Inline (whose ids are row ids, not node ids) each
// match list must be exactly the nodes xpath.Eval finds in the DOM, in
// document order; Inline must find as many matches as the DOM.
func TestStoreMatchesDOM(t *testing.T) {
	doc := xmlgen.Auction(xmlgen.Config{Factor: 0.05, Seed: 11})
	for _, kind := range []SchemeKind{Edge, Binary, Universal, Interval, Dewey, Inline} {
		t.Run(string(kind), func(t *testing.T) {
			var opts Options
			if kind == Inline {
				opts.DTD = xmlgen.AuctionDTD
				opts.Root = "site"
			}
			st, err := OpenWith(kind, opts)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			if err := st.LoadDocument(doc); err != nil {
				t.Fatalf("load: %v", err)
			}
			for _, q := range domCorpus {
				if _, err := st.Translate(q); err != nil {
					continue // documented mapping limitation
				}
				res, err := st.Query(q)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				var got, want []int64
				for _, m := range res.Matches {
					got = append(got, m.ID)
				}
				for _, n := range xpath.Eval(doc, xpath.MustParse(q)) {
					want = append(want, int64(n.Pre))
				}
				if kind == Inline {
					if len(got) != len(want) {
						t.Errorf("%s: store matched %d nodes, DOM %d", q, len(got), len(want))
					}
				} else if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: store matched %d nodes, DOM %d", q, len(got), len(want))
				}
			}
		})
	}
}
