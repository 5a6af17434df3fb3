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

// fuzzStores lazily builds the shared serial and parallel Interval
// stores for FuzzXPathVsDOM (document shredding is far too slow to
// repeat per fuzz input), with the DOM they were loaded from.
var fuzzStores struct {
	once             sync.Once
	doc              *xmldom.Document
	serial, parallel *Store
	err              error
}

func domFuzzStores() (*xmldom.Document, *Store, *Store, error) {
	fuzzStores.once.Do(func() {
		doc := xmlgen.Auction(xmlgen.Config{Factor: 0.05, Seed: 7})
		open := func(dop int) (*Store, error) {
			st, err := OpenWith(Interval, Options{Parallelism: dop})
			if err != nil {
				return nil, err
			}
			return st, st.LoadDocument(doc)
		}
		fuzzStores.doc = doc
		if fuzzStores.serial, fuzzStores.err = open(1); fuzzStores.err != nil {
			return
		}
		fuzzStores.parallel, fuzzStores.err = open(4)
	})
	return fuzzStores.doc, fuzzStores.serial, fuzzStores.parallel, fuzzStores.err
}

// FuzzXPathVsDOM checks the Interval store against the DOM: an XPath
// query with a fuzzed comparison constant must match exactly the nodes
// xpath.Eval finds, in document order, at DOP 1 and 4. Randomized SQL
// over the accelerator relation — modulus and range filters, grouped
// aggregation, the parent/child self join, a LIMIT — must return
// byte-identical rows serially and through the parallel gather.
func FuzzXPathVsDOM(f *testing.F) {
	f.Add(uint16(7), uint16(3), uint8(2), uint8(5), int64(20))
	f.Add(uint16(1), uint16(0), uint8(0), uint8(0), int64(0))
	f.Add(uint16(1024), uint16(1023), uint8(11), uint8(63), int64(-5))
	f.Add(uint16(97), uint16(96), uint8(4), uint8(10), int64(1000))
	f.Fuzz(func(t *testing.T, mod, rem uint16, lvl, sz uint8, xc int64) {
		doc, serial, parallel, err := domFuzzStores()
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
		for _, st := range []*Store{serial, parallel} {
			res, err := st.Query(xq)
			if err != nil {
				t.Fatalf("dop=%d %q: %v", st.DB().Parallelism(), xq, err)
			}
			var got []int64
			for _, m := range res.Matches {
				got = append(got, m.ID)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("dop=%d %q: store matched %v, DOM %v", st.DB().Parallelism(), xq, got, want)
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
			want, err := serial.DB().Query(sql)
			if err != nil {
				t.Fatalf("dop=1 %q: %v", sql, err)
			}
			got, err := parallel.DB().Query(sql)
			if err != nil {
				t.Fatalf("dop=4 %q: %v", sql, err)
			}
			if !reflect.DeepEqual(want.Columns, got.Columns) || !sqldb.IdenticalRows(want.Data, got.Data) {
				t.Fatalf("%q: dop=1 %d rows, dop=4 %d rows, or order/value drift", sql, want.Len(), got.Len())
			}
		}
	})
}

// TestVectorizedStoreMatchesSerial loads every scheme once and switches
// the same store between DOP 1, 4 and 16, so re-planned queries run
// against the very data the serial pass saw. Over the parallel corpus
// every pass must return the serial match list, and for every scheme
// but Inline (whose ids are row ids, not node ids) that list must be
// exactly the nodes xpath.Eval finds in the DOM, in document order. The
// name is kept from the batch-engine differential this test succeeds.
func TestVectorizedStoreMatchesSerial(t *testing.T) {
	doc := xmlgen.Auction(xmlgen.Config{Factor: 0.05, Seed: 11})
	for _, kind := range []SchemeKind{Edge, Binary, Universal, Interval, Dewey, Inline} {
		t.Run(string(kind), func(t *testing.T) {
			opts := Options{Parallelism: 1}
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
			serial := map[string][]Match{}
			for _, dop := range []int{1, 4, 16} {
				st.DB().SetParallelism(dop)
				for _, q := range parallelCorpus {
					if _, err := st.Translate(q); err != nil {
						continue // documented mapping limitation
					}
					res, err := st.Query(q)
					if err != nil {
						t.Fatalf("dop=%d %s: %v", dop, q, err)
					}
					if dop == 1 {
						serial[q] = res.Matches
						if kind == Inline {
							continue
						}
						var got, want []int64
						for _, m := range res.Matches {
							got = append(got, m.ID)
						}
						for _, n := range xpath.Eval(doc, xpath.MustParse(q)) {
							want = append(want, int64(n.Pre))
						}
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s: store matched %d nodes, DOM %d", q, len(got), len(want))
						}
					} else if !reflect.DeepEqual(serial[q], res.Matches) {
						t.Errorf("dop=%d %s: result diverges from serial (%d vs %d matches)",
							dop, q, len(res.Matches), len(serial[q]))
					}
				}
			}
		})
	}
}
