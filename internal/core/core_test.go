package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/sqldb"
	"repro/internal/xmldom"
	"repro/internal/xmlgen"
	"repro/internal/xpath"
)

const smallDoc = `<bib><book year="1994"><title>TCP</title><price>65.95</price></book><book year="2000"><title>Web</title><price>39.95</price></book></bib>`

// smallDocDTD types smallDoc (and the books inserted into it) for the
// Inline scheme.
const smallDocDTD = `<!ELEMENT bib (book*)>
<!ELEMENT book (title, price?)>
<!ATTLIST book year CDATA #REQUIRED>
<!ELEMENT title (#PCDATA)>
<!ELEMENT price (#PCDATA)>`

// allSchemes lists the six mappings.
var allSchemes = []SchemeKind{Edge, Binary, Universal, Interval, Dewey, Inline}

// smallDocOptions opens kind for smallDoc: Inline needs its DTD.
func smallDocOptions(kind SchemeKind) Options {
	if kind == Inline {
		return Options{DTD: smallDocDTD, Root: "bib"}
	}
	return Options{}
}

func TestOpenAllSchemes(t *testing.T) {
	for _, kind := range []SchemeKind{Edge, Binary, Universal, Interval, Dewey} {
		st, err := Open(kind)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if err := st.LoadXML([]byte(smallDoc)); err != nil {
			t.Fatalf("%s load: %v", kind, err)
		}
		n, err := st.Count(`/bib/book[price < 50]/title`)
		if err != nil {
			t.Fatalf("%s query: %v", kind, err)
		}
		if n != 1 {
			t.Errorf("%s: count = %d", kind, n)
		}
		var b strings.Builder
		if err := st.WriteXML(&b); err != nil {
			t.Fatalf("%s publish: %v", kind, err)
		}
		if b.String() != smallDoc {
			t.Errorf("%s round trip:\n%s", kind, b.String())
		}
	}
}

func TestOpenInlineRequiresDTD(t *testing.T) {
	if _, err := OpenWith(Inline, Options{}); err == nil {
		t.Fatal("inline without DTD must fail")
	}
	st, err := OpenWith(Inline, Options{DTD: xmlgen.AuctionDTD, Root: "site"})
	if err != nil {
		t.Fatal(err)
	}
	doc := xmlgen.Auction(xmlgen.Config{Factor: 0.01, Seed: 2})
	if err := st.LoadDocument(doc); err != nil {
		t.Fatal(err)
	}
	res, err := st.Query(`/site/people/person/name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 || !res.Matches[0].HasValue {
		t.Errorf("inline query matches = %+v", res.Matches)
	}
}

func TestOpenUnknownScheme(t *testing.T) {
	if _, err := Open("nonsense"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

// TestDoubleLoadRejected: a store holds one document. A second load is
// refused, and of loads racing into one empty store exactly one lands —
// the check that the store is empty runs in the load's transaction.
func TestDoubleLoadRejected(t *testing.T) {
	st, _ := Open(Interval)
	if err := st.LoadXML([]byte(smallDoc)); err != nil {
		t.Fatal(err)
	}
	if err := st.LoadXML([]byte(smallDoc)); err == nil {
		t.Fatal("second load accepted")
	}
	for _, kind := range allSchemes {
		st, err := OpenWith(kind, smallDocOptions(kind))
		if err != nil {
			t.Fatal(err)
		}
		const loaders = 4
		errs := make(chan error, loaders)
		for i := 0; i < loaders; i++ {
			go func() { errs <- st.LoadXML([]byte(smallDoc)) }()
		}
		landed := 0
		for i := 0; i < loaders; i++ {
			if err := <-errs; err == nil {
				landed++
			}
		}
		if landed != 1 {
			t.Errorf("%s: %d of %d concurrent loads landed, want 1", kind, landed, loaders)
		}
		var b strings.Builder
		if err := st.WriteXML(&b); err != nil || b.String() != smallDoc {
			t.Errorf("%s: store holds %q (%v) after the concurrent loads", kind, b.String(), err)
		}
	}
}

func TestTranslateExposesSQL(t *testing.T) {
	st, _ := Open(Edge)
	_ = st.LoadXML([]byte(smallDoc))
	sql, err := st.Translate(`/bib/book/title`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "FROM edge") {
		t.Errorf("sql = %s", sql)
	}
	if _, err := st.Translate(`not a valid [ query`); err == nil {
		t.Error("bad query accepted")
	}
}

func TestInsertXML(t *testing.T) {
	st, _ := Open(Dewey)
	if err := st.LoadXML([]byte(smallDoc)); err != nil {
		t.Fatal(err)
	}
	res, err := st.Query(`/bib`)
	if err != nil || len(res.Matches) != 1 {
		t.Fatalf("locate bib: %v", err)
	}
	if err := st.InsertXML(res.Matches[0].ID, 1, []byte(`<book year="1999"><title>Mid</title><price>10</price></book>`)); err != nil {
		t.Fatal(err)
	}
	n, err := st.Count(`/bib/book`)
	if err != nil || n != 3 {
		t.Fatalf("after insert: %d %v", n, err)
	}
	// Order preserved: the new book sits in the middle.
	res, _ = st.Query(`/bib/book[2]/title`)
	if len(res.Matches) != 1 || res.Matches[0].Value != "Mid" {
		t.Errorf("middle book = %+v", res.Matches)
	}
}

// tableDump renders every table of the store, rows in scan order.
func tableDump(t *testing.T, st *Store) string {
	t.Helper()
	var b strings.Builder
	for _, name := range st.DB().TableNames() {
		rows, err := st.DB().Query("SELECT * FROM " + name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %v\n", name, rows.Columns)
		for _, r := range rows.Data {
			fmt.Fprintln(&b, r)
		}
	}
	return b.String()
}

// TestInsertRefusesNonElementParent: an insert under the document node
// of a loaded store, or under a parent that is not a stored element — an
// attribute, a text node, a missing id — or at a negative position is
// refused on every insertable scheme and leaves the tables as they were. Under Inline an
// attribute's or a text node's id is its host row's, an element's, so
// only the document node and the missing id apply.
func TestInsertRefusesNonElementParent(t *testing.T) {
	const doc = `<a x="1">t</a>`
	for _, kind := range []SchemeKind{Edge, Binary, Interval, Dewey, Inline} {
		t.Run(string(kind), func(t *testing.T) {
			opts := Options{}
			if kind == Inline {
				opts = Options{DTD: `<!ELEMENT a (#PCDATA)><!ATTLIST a x CDATA #IMPLIED>`, Root: "a"}
			}
			st, err := OpenWith(kind, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.LoadXML([]byte(doc)); err != nil {
				t.Fatal(err)
			}
			type refusal struct {
				what     string
				parent   int64
				position int
				want     string
			}
			res, err := st.Query("/a")
			if err != nil || len(res.Matches) != 1 {
				t.Fatalf("/a: %v, %v", res, err)
			}
			cases := []refusal{
				{"document node", 0, 0, errSecondDocument.Error()},
				{"missing id", 99, 0, "no element with id 99"},
				{"element at position -1", res.Matches[0].ID, -1, "insert position -1 is negative"},
			}
			if kind != Inline {
				for _, q := range []string{"/a/@x", "/a/text()"} {
					res, err := st.Query(q)
					if err != nil || len(res.Matches) != 1 {
						t.Fatalf("%s: %v, %v", q, res, err)
					}
					id := res.Matches[0].ID
					cases = append(cases, refusal{q, id, 0, fmt.Sprintf("no element with id %d", id)})
				}
			}
			before := tableDump(t, st)
			for _, c := range cases {
				err := st.InsertXML(c.parent, c.position, []byte(`<c/>`))
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Errorf("insert under the %s (id %d): got %v, want %q", c.what, c.parent, err, c.want)
				}
				if tableDump(t, st) != before {
					t.Errorf("refused insert under the %s changed the tables", c.what)
				}
			}
			var b strings.Builder
			if err := st.WriteXML(&b); err != nil || b.String() != doc {
				t.Errorf("store publishes %q (%v), want %q", b.String(), err, doc)
			}
		})
	}
}

// TestInlineInsertPlacesSharedChild: under Inline, an inserted subtree
// hangs at the one inner path of its parent's relation whose element
// admits its root, in the rows and in the published document alike; a
// root that several inner paths admit is refused and changes nothing.
func TestInlineInsertPlacesSharedChild(t *testing.T) {
	doc := xmlgen.Auction(xmlgen.Config{Factor: 0.01, Seed: 1})
	st, err := OpenWith(Inline, Options{DTD: xmlgen.AuctionDTD, Root: "site"})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.LoadDocument(doc); err != nil {
		t.Fatal(err)
	}
	site, err := st.Query("/site")
	if err != nil || len(site.Matches) != 1 {
		t.Fatalf("/site: %v, %v", site, err)
	}
	siteID := site.Matches[0].ID
	before, err := st.Count("//open_auction")
	if err != nil {
		t.Fatal(err)
	}
	// open_auctions is the one spot of a site row that admits it.
	if err := st.InsertXML(siteID, 0, []byte(`<open_auction id="inserted"><initial>1</initial></open_auction>`)); err != nil {
		t.Fatal(err)
	}
	if n, err := st.Count("//open_auction"); err != nil || n != before+1 {
		t.Errorf("store counts %d open auctions (%v), want %d", n, err, before+1)
	}
	var b strings.Builder
	if err := st.WriteXML(&b); err != nil {
		t.Fatal(err)
	}
	out, err := xmldom.ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(xpath.Eval(out, xpath.MustParse("//open_auction"))); n != before+1 {
		t.Errorf("WriteXML holds %d open auctions, want %d", n, before+1)
	}
	if got := xpath.Eval(out, xpath.MustParse("/site/open_auctions/open_auction[1]/@id")); len(got) != 1 || got[0].Value != "inserted" {
		t.Errorf("first open auction in WriteXML: %v, want the inserted one", got)
	}
	// item hangs under each of the six regions of a site row.
	dump := tableDump(t, st)
	err = st.InsertXML(siteID, 0, []byte(`<item id="x"><name>x</name></item>`))
	if err == nil || !strings.Contains(err.Error(), "hangs at 6 places") {
		t.Errorf("ambiguous insert: got %v, want a refusal", err)
	}
	if tableDump(t, st) != dump {
		t.Error("refused ambiguous insert changed the tables")
	}
}

func TestStats(t *testing.T) {
	st, _ := Open(Interval)
	_ = st.LoadXML([]byte(smallDoc))
	s := st.Stats()
	if s.Scheme != Interval || s.Rows == 0 || s.Bytes == 0 || s.Tables != 1 {
		t.Errorf("stats = %+v", s)
	}
}

// TestSaveAndReopen checkpoints a data directory under each scheme and
// reopens it with no options: the reopened store answers and publishes
// like the one that wrote it — Inline under the DTD it stored — and
// refuses a second document.
func TestSaveAndReopen(t *testing.T) {
	for _, kind := range allSchemes {
		fs := sqldb.NewMemVFS()
		ds, err := OpenDurableVFS(kind, fs, smallDocOptions(kind), DurableOptions{})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if err := ds.LoadXML([]byte(smallDoc)); err != nil {
			t.Fatalf("%s load: %v", kind, err)
		}
		if err := ds.Checkpoint(); err != nil {
			t.Fatalf("%s checkpoint: %v", kind, err)
		}
		ds.Close()
		re, err := OpenDurableVFS(kind, fs, Options{}, DurableOptions{})
		if err != nil {
			t.Fatalf("%s reopen: %v", kind, err)
		}
		n, err := re.Count(`/bib/book[price < 50]/title`)
		if err != nil || n != 1 {
			t.Errorf("%s reopened query: %d %v", kind, n, err)
		}
		var out strings.Builder
		if err := re.WriteXML(&out); err != nil {
			t.Fatal(err)
		}
		if out.String() != smallDoc {
			t.Errorf("%s reopened round trip mismatch:\n%s", kind, out.String())
		}
		// A second document may not be loaded into a reopened store.
		if err := re.LoadXML([]byte(smallDoc)); err == nil {
			t.Errorf("%s: double load after reopen accepted", kind)
		}
		re.Close()
	}
}

func TestResultsInDocumentOrder(t *testing.T) {
	for _, kind := range []SchemeKind{Edge, Binary, Interval, Dewey, Universal} {
		st, err := Open(kind)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.LoadXML([]byte(smallDoc)); err != nil {
			t.Fatal(err)
		}
		res, err := st.Query(`//title`)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(res.Matches) != 2 {
			t.Fatalf("%s: %d matches", kind, len(res.Matches))
		}
		if res.Matches[0].ID >= res.Matches[1].ID {
			t.Errorf("%s: results not in document order: %v", kind, res.Matches)
		}
		if res.Matches[0].Value != "TCP" || res.Matches[1].Value != "Web" {
			t.Errorf("%s: values = %v", kind, res.Matches)
		}
	}
}

// TestQueryMatchesPrepared holds Store.Query to the path a caller
// takes by hand: parse, translate against the database, prepare the
// SQL (which compiles a fresh plan) and run it. Both give the same SQL
// and the same matches, the second time round too, when Store.Query's
// plan comes from the plan cache.
func TestQueryMatchesPrepared(t *testing.T) {
	st, _ := Open(Interval)
	if err := st.LoadXML([]byte(smallDoc)); err != nil {
		t.Fatal(err)
	}
	const q = `/bib/book/title`
	p, err := xpath.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	sql, err := st.Scheme().Translate(st.DB(), p)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := st.DB().Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := prep.Query()
	if err != nil {
		t.Fatal(err)
	}
	want := resultFrom(q, sql, rows)
	if len(want.Matches) != 2 {
		t.Fatalf("prepared path: %d matches, want 2", len(want.Matches))
	}
	for i := 0; i < 2; i++ {
		got, err := st.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if got.SQL != want.SQL {
			t.Errorf("run %d: SQL %q, prepared path %q", i, got.SQL, want.SQL)
		}
		if !slices.Equal(got.Matches, want.Matches) {
			t.Errorf("run %d: matches %v, prepared path %v", i, got.Matches, want.Matches)
		}
	}
	if plans := st.DB().PlanCacheStats(); plans.Hits == 0 {
		t.Errorf("plan cache saw no hits: %+v", plans)
	}
}

// TestEdgeQuerySeesInsertedPaths: the Edge scheme's descendant
// translation depends on its path catalog, which grows when new element
// names arrive, so a query after an insert must translate against the
// new paths.
func TestEdgeQuerySeesInsertedPaths(t *testing.T) {
	st, _ := Open(Edge)
	if err := st.LoadXML([]byte(smallDoc)); err != nil {
		t.Fatal(err)
	}
	const q = `//title`
	n, err := st.Count(q)
	if err != nil || n != 2 {
		t.Fatalf("before insert: %d %v", n, err)
	}
	res, err := st.Query(`/bib`)
	if err != nil || len(res.Matches) != 1 {
		t.Fatalf("locate bib: %v", err)
	}
	if err := st.InsertXML(res.Matches[0].ID, 2, []byte(`<article><title>New</title></article>`)); err != nil {
		t.Fatal(err)
	}
	n, err = st.Count(q)
	if err != nil || n != 3 {
		t.Fatalf("after insert: count = %d, %v", n, err)
	}
}

// TestConcurrentQueriesWithWrites races cached Store queries against
// relational DML/DDL on the underlying database. Run under -race.
func TestConcurrentQueriesWithWrites(t *testing.T) {
	st, _ := Open(Interval)
	doc := xmlgen.Auction(xmlgen.Config{Factor: 0.02, Seed: 5})
	if err := st.LoadDocument(doc); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`/site/people/person/name`,
		`//item/name`,
		`/site/regions`,
	}
	want := make([]int, len(queries))
	for i, q := range queries {
		n, err := st.Count(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want[i] = n
	}

	var wg sync.WaitGroup
	errc := make(chan error, 6)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				qi := (r + i) % len(queries)
				n, err := st.Count(queries[qi])
				if err != nil {
					errc <- err
					return
				}
				if n != want[qi] {
					errc <- fmt.Errorf("count %q = %d, want %d", queries[qi], n, want[qi])
					return
				}
			}
		}(r)
	}
	// Writer: DDL churn (epoch bumps) on an unrelated table plus index
	// create/drop on the store's own node table.
	wg.Add(1)
	go func() {
		defer wg.Done()
		db := st.DB()
		for i := 0; i < 30; i++ {
			if _, err := db.Exec(`CREATE TABLE scratch (x INTEGER)`); err != nil {
				errc <- err
				return
			}
			if _, err := db.Exec(`DROP TABLE scratch`); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Errorf("concurrent worker: %v", err)
	}
}

func TestValueIndexOptionStillCorrect(t *testing.T) {
	st, err := OpenWith(Interval, Options{WithValueIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.LoadXML([]byte(smallDoc)); err != nil {
		t.Fatal(err)
	}
	n, err := st.Count(`/bib/book/title[. = 'Web']`)
	if err != nil || n != 1 {
		t.Fatalf("indexed value query: %d %v", n, err)
	}
}
