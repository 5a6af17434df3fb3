// Package repro's root benchmark suite: one testing.B benchmark per
// reproduced table/figure (see DESIGN.md's experiment index and
// EXPERIMENTS.md for the recorded shapes). `go test -bench=. -benchmem`
// regenerates every series; cmd/xbench prints the same experiments as
// formatted tables with derived columns.
package repro

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/shred"
	"repro/internal/sqldb"
	"repro/internal/xmldom"
	"repro/internal/xmlgen"
	"repro/internal/xpath"
)

const (
	benchFactor = 0.1
	benchSeed   = 42
)

// Shared fixtures, built once per process.
var (
	auctionOnce sync.Once
	auctionDoc  *xmldom.Document

	loadedOnce sync.Once
	loadedDBs  map[string]*sqldb.Database
	loadedSch  map[string]shred.Scheme
)

func benchDoc() *xmldom.Document {
	auctionOnce.Do(func() {
		auctionDoc = xmlgen.Auction(xmlgen.Config{Factor: benchFactor, Seed: benchSeed})
	})
	return auctionDoc
}

func benchSchemes(tb testing.TB) (map[string]*sqldb.Database, map[string]shred.Scheme) {
	loadedOnce.Do(func() {
		loadedDBs = map[string]*sqldb.Database{}
		loadedSch = map[string]shred.Scheme{}
		schemes := shred.All(false)
		inline, err := shred.NewInline(xmlgen.AuctionDTD, "site")
		if err != nil {
			panic(err)
		}
		schemes = append(schemes, inline)
		for _, s := range schemes {
			db, err := shred.LoadDocument(s, benchDoc())
			if err != nil {
				panic(fmt.Sprintf("loading %s: %v", s.Name(), err))
			}
			loadedDBs[s.Name()] = db
			loadedSch[s.Name()] = s
		}
	})
	return loadedDBs, loadedSch
}

func freshScheme(tb testing.TB, name string) shred.Scheme {
	tb.Helper()
	var s shred.Scheme
	var err error
	switch name {
	case "edge":
		s = shred.NewEdge(false)
	case "binary":
		s = shred.NewBinary(false)
	case "universal":
		s = shred.NewUniversal()
	case "interval":
		s = shred.NewInterval(false)
	case "dewey":
		s = shred.NewDewey(false)
	case "inline":
		s, err = shred.NewInline(xmlgen.AuctionDTD, "site")
	default:
		tb.Fatalf("unknown scheme %s", name)
	}
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

var schemeNames = []string{"edge", "binary", "universal", "interval", "dewey", "inline"}

// preparedQuery translates and prepares an XPath under a scheme,
// skipping the sub-benchmark when the scheme cannot express it.
func preparedQuery(b *testing.B, db *sqldb.Database, s shred.Scheme, query string) *sqldb.Prepared {
	b.Helper()
	p, err := xpath.Parse(query)
	if err != nil {
		b.Fatal(err)
	}
	sql, err := s.Translate(p)
	if err != nil {
		b.Skipf("%s cannot translate %s: %v", s.Name(), query, err)
	}
	prep, err := db.Prepare(sql)
	if err != nil {
		b.Fatal(err)
	}
	return prep
}

// ---------------------------------------------------------------------------
// T1: database size (rows/bytes reported as metrics; the timed body is
// the shred itself, so -benchmem shows allocation footprints too).

func BenchmarkT1DatabaseSize(b *testing.B) {
	doc := benchDoc()
	for _, name := range schemeNames {
		b.Run(name, func(b *testing.B) {
			var rows int
			var bytes int64
			for i := 0; i < b.N; i++ {
				db, err := shred.LoadDocument(freshScheme(b, name), doc)
				if err != nil {
					b.Fatal(err)
				}
				rows = db.TotalRows()
				bytes = db.TotalBytes()
			}
			b.ReportMetric(float64(rows), "rows")
			b.ReportMetric(float64(bytes)/1024, "KB")
		})
	}
}

// ---------------------------------------------------------------------------
// T2: load time

func BenchmarkT2Load(b *testing.B) {
	doc := benchDoc()
	for _, name := range schemeNames {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := shred.LoadDocument(freshScheme(b, name), doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// F1: query classes

var f1Queries = []struct{ id, query string }{
	{"Q1_short_path", "/site/categories/category/name"},
	{"Q2_descendant", "//item/name"},
	{"Q3_value_select", "/site/people/person[address/city='Berlin']/name"},
	{"Q4_twig", "//open_auction[initial > 200]/bidder/increase"},
	{"Q5_positional", "/site/open_auctions/open_auction/bidder[1]/increase"},
	{"Q6_attr_value", "//person[profile/@income > 60000]"},
}

func BenchmarkF1QueryClasses(b *testing.B) {
	dbs, schemes := benchSchemes(b)
	for _, qc := range f1Queries {
		for _, name := range schemeNames {
			b.Run(qc.id+"/"+name, func(b *testing.B) {
				prep := preparedQuery(b, dbs[name], schemes[name], qc.query)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := prep.Query(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------------------
// F2: descendant cost vs depth

func BenchmarkF2DescendantDepth(b *testing.B) {
	for _, depth := range []int{4, 8, 12} {
		doc := xmlgen.Deep(depth, 300, benchSeed)
		for _, name := range []string{"edge", "interval", "dewey"} {
			b.Run(fmt.Sprintf("depth%d/%s", depth, name), func(b *testing.B) {
				s := freshScheme(b, name)
				db, err := shred.LoadDocument(s, doc)
				if err != nil {
					b.Fatal(err)
				}
				prep := preparedQuery(b, db, s, "//leaf")
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rows, err := prep.Query()
					if err != nil {
						b.Fatal(err)
					}
					if rows.Len() != 300 {
						b.Fatalf("want 300 leaves, got %d", rows.Len())
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------------------
// T3: reconstruction

func BenchmarkT3Reconstruct(b *testing.B) {
	dbs, schemes := benchSchemes(b)
	for _, name := range schemeNames {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := schemes[name].Reconstruct(dbs[name]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// F3: ordered insertion (one insert per iteration; the database is
// reloaded outside the timer every 64 inserts to bound growth).

const f3Fragment = `<open_auction id="bench_oa_%d"><initial>10.00</initial><current>10.00</current><itemref item="item0"/><seller person="person0"/><annotation><author>Bench Author</author><happiness>5</happiness></annotation><quantity>1</quantity><type>Regular</type><interval><start>01/01/2000</start><end>02/01/2000</end></interval></open_auction>`

func BenchmarkF3OrderedInsert(b *testing.B) {
	doc := xmlgen.Auction(xmlgen.Config{Factor: 0.05, Seed: benchSeed})
	parentNodes := xpath.Eval(doc, xpath.MustParse("/site/open_auctions"))
	parentID := int64(parentNodes[0].Pre)
	nChildren := len(parentNodes[0].Children)
	for _, name := range []string{"edge", "binary", "interval", "dewey", "inline"} {
		b.Run(name, func(b *testing.B) {
			var s shred.Scheme
			var db *sqldb.Database
			reload := func() {
				var err error
				s = freshScheme(b, name)
				db, err = shred.LoadDocument(s, doc)
				if err != nil {
					b.Fatal(err)
				}
			}
			reload()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%64 == 0 && i > 0 {
					b.StopTimer()
					reload()
					b.StartTimer()
				}
				frag, err := xmldom.ParseString(fmt.Sprintf(f3Fragment, i))
				if err != nil {
					b.Fatal(err)
				}
				pos := (i * 13) % nChildren
				if err := s.InsertSubtree(db, parentID, pos, frag.RootElement()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// T4: inlining vs edge on DTD-conforming queries

var t4Queries = []struct{ id, query string }{
	{"direct_column", "/site/people/person/emailaddress"},
	{"inlined_filter", "/site/people/person[address/city='Berlin']/name"},
	{"attr_filter", "//person[profile/@income > 60000]/creditcard"},
	{"optional_child", "/site/open_auctions/open_auction[initial > 200]/reserve"},
}

func BenchmarkT4Inlining(b *testing.B) {
	dbs, schemes := benchSchemes(b)
	for _, qc := range t4Queries {
		for _, name := range []string{"inline", "edge"} {
			b.Run(qc.id+"/"+name, func(b *testing.B) {
				prep := preparedQuery(b, dbs[name], schemes[name], qc.query)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := prep.Query(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------------------
// F4: scalability

func BenchmarkF4Scalability(b *testing.B) {
	for _, factor := range []float64{0.05, 0.1, 0.2} {
		doc := xmlgen.Auction(xmlgen.Config{Factor: factor, Seed: benchSeed})
		for _, name := range []string{"edge", "binary", "interval", "dewey"} {
			b.Run(fmt.Sprintf("f%.2f/%s", factor, name), func(b *testing.B) {
				s := freshScheme(b, name)
				db, err := shred.LoadDocument(s, doc)
				if err != nil {
					b.Fatal(err)
				}
				prep := preparedQuery(b, db, s, "//item/name")
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := prep.Query(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------------------
// F5: value index ablation

func BenchmarkF5ValueIndex(b *testing.B) {
	for _, n := range []int{2000, 20000} {
		doc := xmlgen.Wide(n, benchSeed)
		val := xpath.Eval(doc, xpath.MustParse("/table/row/val"))[0].Text()
		query := fmt.Sprintf("/table/row/val[. = '%s']", val)
		for _, withIdx := range []bool{false, true} {
			label := "noindex"
			if withIdx {
				label = "indexed"
			}
			b.Run(fmt.Sprintf("rows%d/%s", n, label), func(b *testing.B) {
				s := shred.NewEdge(withIdx)
				db, err := shred.LoadDocument(s, doc)
				if err != nil {
					b.Fatal(err)
				}
				prep := preparedQuery(b, db, s, query)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := prep.Query(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------------------
// T5: native DOM evaluation vs relational translation

func BenchmarkT5NativeVsRelational(b *testing.B) {
	doc := benchDoc()
	dbs, schemes := benchSchemes(b)
	for _, qc := range f1Queries {
		b.Run(qc.id+"/dom", func(b *testing.B) {
			p := xpath.MustParse(qc.query)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				xpath.Eval(doc, p)
			}
		})
		b.Run(qc.id+"/interval", func(b *testing.B) {
			prep := preparedQuery(b, dbs["interval"], schemes["interval"], qc.query)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := prep.Query(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// T6: order-sensitive queries

var t6Queries = []struct{ id, query string }{
	{"first_child", "/site/open_auctions/open_auction/bidder[1]/increase"},
	{"position_fn", "//bidder[position() = 2]"},
	{"following_sibling", "/site/open_auctions/open_auction/bidder[1]/following-sibling::bidder"},
}

func BenchmarkT6OrderQueries(b *testing.B) {
	dbs, schemes := benchSchemes(b)
	for _, qc := range t6Queries {
		for _, name := range []string{"edge", "binary", "interval", "dewey"} {
			b.Run(qc.id+"/"+name, func(b *testing.B) {
				prep := preparedQuery(b, dbs[name], schemes[name], qc.query)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := prep.Query(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------------------
// A1: edge descendant expansion — blind vs path catalog

func BenchmarkA1EdgeCatalog(b *testing.B) {
	doc := benchDoc()
	for _, useCat := range []bool{false, true} {
		label := "blind"
		if useCat {
			label = "catalog"
		}
		b.Run(label, func(b *testing.B) {
			s := shred.NewEdge(false)
			s.UseCatalog(useCat)
			db, err := shred.LoadDocument(s, doc)
			if err != nil {
				b.Fatal(err)
			}
			prep := preparedQuery(b, db, s, "//open_auction//increase")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := prep.Query(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// A2: interval child step — parent probe vs region predicate

func BenchmarkA2IntervalChildStep(b *testing.B) {
	doc := benchDoc()
	for _, viaRegion := range []bool{false, true} {
		label := "parent_probe"
		if viaRegion {
			label = "region"
		}
		b.Run(label, func(b *testing.B) {
			s := shred.NewInterval(false)
			s.ChildViaRegion(viaRegion)
			db, err := shred.LoadDocument(s, doc)
			if err != nil {
				b.Fatal(err)
			}
			prep := preparedQuery(b, db, s, "/site/open_auctions/open_auction/bidder/increase")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := prep.Query(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
