package bench

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/shred"
	"repro/internal/sqldb"
	"repro/internal/xmldom"
	"repro/internal/xmlgen"
	"repro/internal/xpath"
)

// The canonical query mix (the classes the F&K/Shanmugasundaram
// evaluations sweep): short path, descendant, value selection, twig,
// positional, attribute-value selection.
var queryClasses = []struct {
	ID    string
	Class string
	Query string
}{
	{"Q1", "short path", "/site/categories/category/name"},
	{"Q2", "descendant", "//item/name"},
	{"Q3", "value select", "/site/people/person[address/city='Berlin']/name"},
	{"Q4", "twig", "//open_auction[initial > 200]/bidder/increase"},
	{"Q5", "positional", "/site/open_auctions/open_auction/bidder[1]/increase"},
	{"Q6", "attr value", "//person[profile/@income > 60000]"},
}

// schemeNames is the six mappings in report order.
var schemeNames = []string{"edge", "binary", "universal", "interval", "dewey", "inline"}

// newScheme returns a fresh instance of the named mapping: schemes hold
// per-load state such as path catalogs, so every load takes its own.
// Inline is generated from the auction DTD.
func newScheme(name string, valueIndex bool) (shred.Scheme, error) {
	switch name {
	case "edge":
		return shred.NewEdge(valueIndex), nil
	case "binary":
		return shred.NewBinary(valueIndex), nil
	case "universal":
		return shred.NewUniversal(), nil
	case "interval":
		return shred.NewInterval(valueIndex), nil
	case "dewey":
		return shred.NewDewey(valueIndex), nil
	case "inline":
		return shred.NewInline(xmlgen.AuctionDTD, "site")
	}
	return nil, fmt.Errorf("bench: unknown scheme %s", name)
}

// loaded is a document shredded under one mapping.
type loaded struct {
	s  shred.Scheme
	db *sqldb.Database
}

// loadAll shreds doc under each named mapping.
func loadAll(doc *xmldom.Document, valueIndex bool, names ...string) ([]loaded, error) {
	var ls []loaded
	for _, n := range names {
		s, err := newScheme(n, valueIndex)
		if err != nil {
			return nil, err
		}
		db, err := shred.LoadDocument(s, doc)
		if err != nil {
			return nil, err
		}
		ls = append(ls, loaded{s: s, db: db})
	}
	return ls, nil
}

// msHeader labels one "<scheme> ms" column per mapping.
func msHeader(lead []string, names []string) []string {
	for _, n := range names {
		lead = append(lead, n+" ms")
	}
	return lead
}

// errNoSQL marks a query the mapping cannot translate.
var errNoSQL = errors.New("scheme cannot translate the query")

// timeQuery translates query under l's mapping, prepares it once and
// reports the best execution time and the result count.
func timeQuery(cfg Config, l loaded, query string) (time.Duration, int, error) {
	sql, err := l.s.Translate(xpath.MustParse(query))
	if err != nil {
		return 0, 0, fmt.Errorf("%s: %q: %w", l.s.Name(), query, errNoSQL)
	}
	prep, err := l.db.Prepare(sql)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: preparing %q: %w", l.s.Name(), query, err)
	}
	n := 0
	d, err := timeIt(cfg, func() error {
		rows, err := prep.Query()
		if err == nil {
			n = rows.Len()
		}
		return err
	})
	if err != nil {
		return 0, 0, fmt.Errorf("%s: running %q: %w", l.s.Name(), query, err)
	}
	return d, n, nil
}

// queryCells times query on every mapping in ls; a mapping that cannot
// translate it reports "n/a".
func queryCells(cfg Config, ls []loaded, query string) ([]string, error) {
	var cells []string
	for _, l := range ls {
		d, _, err := timeQuery(cfg, l, query)
		switch {
		case errors.Is(err, errNoSQL):
			cells = append(cells, "n/a")
		case err != nil:
			return nil, err
		default:
			cells = append(cells, ms(d))
		}
	}
	return cells, nil
}

func ratio(num, den time.Duration) string {
	return fmt.Sprintf("%.1fx", float64(num)/float64(den+1))
}

// ---------------------------------------------------------------------------
// T1: database size

func runT1(w io.Writer, cfg Config) error {
	factors := []float64{0.25, 0.5, 1}
	if cfg.Quick {
		factors = []float64{0.1, 0.25}
	}
	t := newTable("factor", "scheme", "tables", "rows", "KB", "vs XML text")
	for _, f := range factors {
		doc := xmlgen.Auction(xmlgen.Config{Factor: f, Seed: cfg.Seed})
		xmlBytes := int64(len(xmldom.SerializeString(doc.Root)))
		ls, err := loadAll(doc, false, schemeNames...)
		if err != nil {
			return err
		}
		for _, l := range ls {
			bytes := l.db.TotalBytes()
			t.add(fmt.Sprintf("%.2f", f), l.s.Name(),
				fmt.Sprintf("%d", len(l.db.TableNames())),
				fmt.Sprintf("%d", l.db.TotalRows()), kb(bytes),
				fmt.Sprintf("%.2fx", float64(bytes)/float64(xmlBytes)))
		}
		t.add(fmt.Sprintf("%.2f", f), "(xml text)", "-", fmt.Sprintf("%d nodes", doc.NodeCount()), kb(xmlBytes), "1.00x")
	}
	t.write(w)
	return nil
}

// ---------------------------------------------------------------------------
// T2: load time

func runT2(w io.Writer, cfg Config) error {
	f := 0.5
	if cfg.Quick {
		f = 0.1
	}
	doc := xmlgen.Auction(xmlgen.Config{Factor: f, Seed: cfg.Seed})
	t := newTable("scheme", "load ms", "rows", "rows/ms")
	for _, name := range schemeNames {
		var db *sqldb.Database
		d, err := timeIt(cfg, func() error {
			ls, err := loadAll(doc, false, name)
			if err == nil {
				db = ls[0].db
			}
			return err
		})
		if err != nil {
			return err
		}
		rows := db.TotalRows()
		t.add(name, ms(d), fmt.Sprintf("%d", rows),
			fmt.Sprintf("%.0f", float64(rows)/(float64(d.Microseconds())/1000+0.001)))
	}
	t.write(w)
	return nil
}

// ---------------------------------------------------------------------------
// F1: query classes

func runF1(w io.Writer, cfg Config) error {
	f := cfg.Factor
	if cfg.Quick {
		f = 0.1
	}
	doc := xmlgen.Auction(xmlgen.Config{Factor: f, Seed: cfg.Seed})
	ls, err := loadAll(doc, false, schemeNames...)
	if err != nil {
		return err
	}
	t := newTable(msHeader([]string{"query", "class", "results"}, schemeNames)...)
	for _, qc := range queryClasses {
		nResults := len(xpath.Eval(doc, xpath.MustParse(qc.Query)))
		cells, err := queryCells(cfg, ls, qc.Query)
		if err != nil {
			return err
		}
		t.add(append([]string{qc.ID, qc.Class, fmt.Sprintf("%d", nResults)}, cells...)...)
	}
	t.write(w)
	fmt.Fprintln(w, "cells: ms per execution (prepared plan, best of repeats); n/a = scheme cannot translate")
	return nil
}

// ---------------------------------------------------------------------------
// P1: per-operator runtime profile

// runP1 executes the F1 query mix under EXPLAIN ANALYZE on every scheme
// and reports the executed result cardinality and wall time per cell —
// a differential check (a cardinality that differs from the DOM's fails
// the run) and a per-operator cost profile. One full annotated plan is
// printed as an exemplar.
func runP1(w io.Writer, cfg Config) error {
	f := cfg.Factor
	if cfg.Quick {
		f = 0.05
	}
	doc := xmlgen.Auction(xmlgen.Config{Factor: f, Seed: cfg.Seed})
	ls, err := loadAll(doc, false, schemeNames...)
	if err != nil {
		return err
	}
	t := newTable(msHeader([]string{"query", "dom results"}, schemeNames)...)
	var exemplar string
	for _, qc := range queryClasses {
		nResults := len(xpath.Eval(doc, xpath.MustParse(qc.Query)))
		row := []string{qc.ID, fmt.Sprintf("%d", nResults)}
		for _, l := range ls {
			sql, err := l.s.Translate(xpath.MustParse(qc.Query))
			if err != nil {
				row = append(row, "n/a")
				continue
			}
			ap, err := l.db.ExplainAnalyzePlan(sql)
			if err != nil {
				return fmt.Errorf("%s: analyzing %q: %w", l.s.Name(), qc.Query, err)
			}
			if ap.Rows != nResults {
				return fmt.Errorf("%s: %q returned %d rows, the DOM %d", l.s.Name(), qc.Query, ap.Rows, nResults)
			}
			row = append(row, fmt.Sprintf("%d in %s", ap.Rows, ms(ap.Duration)))
			if qc.ID == "Q4" && l.s.Name() == "interval" {
				exemplar = ap.Text
			}
		}
		t.add(row...)
	}
	t.write(w)
	fmt.Fprintln(w, "cells: executed rows in ms (EXPLAIN ANALYZE); n/a = scheme cannot translate")
	if exemplar != "" {
		fmt.Fprintln(w, "\nexemplar (interval, Q4 twig):")
		fmt.Fprint(w, exemplar)
	}
	return nil
}

// ---------------------------------------------------------------------------
// F2: descendant cost vs depth

func runF2(w io.Writer, cfg Config) error {
	depths := []int{4, 6, 8, 10, 12}
	chains := 300
	if cfg.Quick {
		depths = []int{4, 6, 8}
		chains = 100
	}
	t := newTable("depth", "nodes", "edge ms", "interval ms", "dewey ms", "edge/interval")
	for _, depth := range depths {
		doc := xmlgen.Deep(depth, chains, cfg.Seed)
		ls, err := loadAll(doc, false, "edge", "interval", "dewey")
		if err != nil {
			return err
		}
		row := []string{fmt.Sprintf("%d", depth), fmt.Sprintf("%d", doc.NodeCount())}
		var times []time.Duration
		for _, l := range ls {
			d, n, err := timeQuery(cfg, l, "//leaf")
			if err != nil {
				return err
			}
			if n != chains {
				return fmt.Errorf("%s returned %d leaves, want %d", l.s.Name(), n, chains)
			}
			times = append(times, d)
			row = append(row, ms(d))
		}
		t.add(append(row, ratio(times[0], times[1]))...)
	}
	t.write(w)
	fmt.Fprintln(w, "expected shape: interval flat in depth; edge grows with expansion length")
	return nil
}

// ---------------------------------------------------------------------------
// T3: reconstruction

func runT3(w io.Writer, cfg Config) error {
	f := 0.25
	if cfg.Quick {
		f = 0.05
	}
	doc := xmlgen.Auction(xmlgen.Config{Factor: f, Seed: cfg.Seed})
	ls, err := loadAll(doc, false, schemeNames...)
	if err != nil {
		return err
	}
	t := newTable("scheme", "reconstruct ms", "serialized KB", "faithful")
	orig := xmldom.SerializeString(doc.Root)
	for _, l := range ls {
		var out string
		d, err := timeIt(cfg, func() error {
			rec, err := l.s.Reconstruct(l.db)
			if err != nil {
				return err
			}
			out = xmldom.SerializeString(rec.Root)
			return nil
		})
		if err != nil {
			return err
		}
		faithful := "yes"
		if out != orig {
			faithful = "lossy (by design)"
		}
		t.add(l.s.Name(), ms(d), kb(int64(len(out))), faithful)
	}
	t.write(w)
	return nil
}

// ---------------------------------------------------------------------------
// F3: ordered insertion

const insertFragment = `<open_auction id="open_auction_new_%d"><initial>10.00</initial><current>10.00</current><itemref item="item0"/><seller person="person0"/><annotation><author>Bench Author</author><happiness>5</happiness></annotation><quantity>1</quantity><type>Regular</type><interval><start>01/01/2000</start><end>02/01/2000</end></interval></open_auction>`

// runF3 inserts open auctions at random positions under every mapping.
// Universal refuses ordered insertion by design and keeps an n/a row;
// any other mapping's failed insert fails the experiment.
func runF3(w io.Writer, cfg Config) error {
	f := 0.25
	inserts := 30
	if cfg.Quick {
		f = 0.05
		inserts = 10
	}
	doc := xmlgen.Auction(xmlgen.Config{Factor: f, Seed: cfg.Seed})
	oas := xpath.Eval(doc, xpath.MustParse("/site/open_auctions"))
	if len(oas) != 1 {
		return fmt.Errorf("expected one open_auctions element")
	}
	parentID := int64(oas[0].Pre)
	nChildren := len(oas[0].Children)
	t := newTable("scheme", "total ms", "ms/insert", "note")
	for _, name := range schemeNames {
		ls, err := loadAll(doc, false, name)
		if err != nil {
			return err
		}
		rng := xmlgen.NewRNG(cfg.Seed)
		var refused error
		start := time.Now()
		for i := 0; i < inserts && refused == nil; i++ {
			frag, err := xmldom.ParseString(fmt.Sprintf(insertFragment, i))
			if err != nil {
				return err
			}
			refused = ls[0].s.InsertSubtree(ls[0].db, parentID, rng.Intn(nChildren+i), frag.RootElement().Copy())
			if refused != nil && name != "universal" {
				return fmt.Errorf("%s: insert %d: %w", name, i, refused)
			}
		}
		if refused != nil {
			t.add(name, "n/a", "n/a", "not supported (by design)")
			continue
		}
		total := time.Since(start)
		t.add(name, ms(total), ms(total/time.Duration(inserts)), fmt.Sprintf("%d inserts", inserts))
	}
	t.write(w)
	fmt.Fprintln(w, "expected shape: dewey/edge local updates; interval pays document-wide renumbering")
	return nil
}

// ---------------------------------------------------------------------------
// T4: inlining

func runT4(w io.Writer, cfg Config) error {
	f := cfg.Factor
	if cfg.Quick {
		f = 0.1
	}
	doc := xmlgen.Auction(xmlgen.Config{Factor: f, Seed: cfg.Seed})
	ls, err := loadAll(doc, false, "inline", "edge")
	if err != nil {
		return err
	}
	m := ls[0].s.(*shred.Inline).Mapping()
	nCols := 0
	for _, name := range m.Order {
		nCols += len(m.Relations[name].Columns)
	}
	fmt.Fprintf(w, "inlined schema: %d relations, %d mapped columns (DTD declares %d elements)\n\n",
		len(m.Order), nCols, len(m.Graph.DTD.Order))

	queries := []string{
		"/site/people/person/emailaddress",
		"/site/people/person[address/city='Berlin']/name",
		"//person[profile/@income > 60000]/creditcard",
		"/site/open_auctions/open_auction[initial > 200]/reserve",
	}
	t := newTable("query", "inline tables", "edge tables", "inline ms", "edge ms", "speedup")
	for _, q := range queries {
		row := []string{q}
		var times []time.Duration
		for _, l := range ls {
			sql, err := l.s.Translate(xpath.MustParse(q))
			if err != nil {
				return err
			}
			row = append(row, fmt.Sprintf("%d", countTableRefs(sql)))
			d, _, err := timeQuery(cfg, l, q)
			if err != nil {
				return err
			}
			times = append(times, d)
		}
		t.add(append(row, ms(times[0]), ms(times[1]), ratio(times[1], times[0]))...)
	}
	t.write(w)
	return nil
}

// countTableRefs counts table references in generated SQL (the joins-
// per-query metric of the inlining paper).
func countTableRefs(sql string) int {
	n := 0
	rest := sql
	for {
		i := strings.Index(rest, "FROM ")
		if i < 0 {
			return n
		}
		rest = rest[i+len("FROM "):]
		// Count comma-separated sources until a clause keyword.
		end := len(rest)
		for _, kw := range []string{" WHERE ", " ORDER ", " GROUP ", ")"} {
			if j := strings.Index(rest, kw); j >= 0 && j < end {
				end = j
			}
		}
		n += strings.Count(rest[:end], ",") + 1
	}
}

// ---------------------------------------------------------------------------
// F4: scalability

func runF4(w io.Writer, cfg Config) error {
	factors := []float64{0.125, 0.25, 0.5, 1}
	if cfg.Quick {
		factors = []float64{0.05, 0.1, 0.2}
	}
	names := []string{"edge", "binary", "universal", "interval", "dewey"}
	t := newTable(msHeader([]string{"factor", "nodes", "query"}, names)...)
	for _, f := range factors {
		doc := xmlgen.Auction(xmlgen.Config{Factor: f, Seed: cfg.Seed})
		ls, err := loadAll(doc, false, names...)
		if err != nil {
			return err
		}
		for _, q := range []string{"//item/name", "/site/people/person[address/city='Berlin']/name"} {
			cells, err := queryCells(cfg, ls, q)
			if err != nil {
				return err
			}
			t.add(append([]string{fmt.Sprintf("%.3f", f), fmt.Sprintf("%d", doc.NodeCount()), q}, cells...)...)
		}
	}
	t.write(w)
	return nil
}

// ---------------------------------------------------------------------------
// F5: value-index ablation

func runF5(w io.Writer, cfg Config) error {
	sizes := []int{5000, 20000, 50000}
	if cfg.Quick {
		sizes = []int{1000, 5000}
	}
	t := newTable("rows", "scheme", "no index ms", "with index ms", "speedup")
	for _, n := range sizes {
		doc := xmlgen.Wide(n, cfg.Seed)
		// Probe value: the first row's val text. The final-step form
		// lets the planner drive the whole plan from the value index
		// (the selection-query shape of the F&K experiment); the
		// EXISTS-style [val='x'] predicate form is measured by F1/Q3.
		val := xpath.Eval(doc, xpath.MustParse("/table/row/val"))[0].Text()
		query := fmt.Sprintf("/table/row/val[. = '%s']", val)
		for _, name := range []string{"edge", "interval", "dewey"} {
			var times [2]time.Duration
			for vi, withIdx := range []bool{false, true} {
				ls, err := loadAll(doc, withIdx, name)
				if err != nil {
					return err
				}
				if times[vi], _, err = timeQuery(cfg, ls[0], query); err != nil {
					return err
				}
			}
			t.add(fmt.Sprintf("%d", n), name, ms(times[0]), ms(times[1]), ratio(times[0], times[1]))
		}
	}
	t.write(w)
	fmt.Fprintln(w, "expected shape: index speedup grows with table size (scan vs probe)")
	return nil
}

// ---------------------------------------------------------------------------
// T5: native DOM vs relational

func runT5(w io.Writer, cfg Config) error {
	f := cfg.Factor
	if cfg.Quick {
		f = 0.1
	}
	doc := xmlgen.Auction(xmlgen.Config{Factor: f, Seed: cfg.Seed})
	ls, err := loadAll(doc, true, "edge", "interval")
	if err != nil {
		return err
	}
	t := newTable("query", "results", "dom ms", "edge ms", "interval ms")
	for _, qc := range queryClasses {
		p := xpath.MustParse(qc.Query)
		var n int
		dDOM, err := timeIt(cfg, func() error {
			n = len(xpath.Eval(doc, p))
			return nil
		})
		if err != nil {
			return err
		}
		cells, err := queryCells(cfg, ls, qc.Query)
		if err != nil {
			return err
		}
		t.add(append([]string{qc.ID, fmt.Sprintf("%d", n), ms(dDOM)}, cells...)...)
	}
	t.write(w)
	fmt.Fprintln(w, "expected shape: DOM wins unselective scans; indexed relational wins selective value queries")
	return nil
}

// ---------------------------------------------------------------------------
// T6: order-sensitive queries

func runT6(w io.Writer, cfg Config) error {
	f := cfg.Factor
	if cfg.Quick {
		f = 0.1
	}
	doc := xmlgen.Auction(xmlgen.Config{Factor: f, Seed: cfg.Seed})
	names := []string{"edge", "binary", "interval", "dewey"}
	ls, err := loadAll(doc, false, names...)
	if err != nil {
		return err
	}
	t := newTable(msHeader([]string{"query", "results"}, names)...)
	for _, q := range []string{
		"/site/open_auctions/open_auction/bidder[1]/increase",
		"//bidder[position() = 2]",
		"/site/open_auctions/open_auction/bidder[1]/following-sibling::bidder",
	} {
		cells, err := queryCells(cfg, ls, q)
		if err != nil {
			return err
		}
		n := len(xpath.Eval(doc, xpath.MustParse(q)))
		t.add(append([]string{q, fmt.Sprintf("%d", n)}, cells...)...)
	}
	t.write(w)
	return nil
}

// ---------------------------------------------------------------------------
// A1: edge descendant expansion — blind wildcard chains vs path catalog

func runA1(w io.Writer, cfg Config) error {
	f := cfg.Factor
	if cfg.Quick {
		f = 0.1
	}
	doc := xmlgen.Auction(xmlgen.Config{Factor: f, Seed: cfg.Seed})
	queries := []string{
		"//item/name",
		"//person[profile/@income > 60000]",
		"//open_auction//increase",
	}
	t := newTable("query", "blind ms", "catalog ms", "blind unions", "catalog unions", "speedup")
	for _, q := range queries {
		var times [2]time.Duration
		var unions [2]int
		for vi, useCat := range []bool{false, true} {
			s := shred.NewEdge(false)
			s.UseCatalog(useCat)
			db, err := shred.LoadDocument(s, doc)
			if err != nil {
				return err
			}
			sql, err := s.Translate(xpath.MustParse(q))
			if err != nil {
				return err
			}
			unions[vi] = strings.Count(sql, "UNION ALL") + 1
			if times[vi], _, err = timeQuery(cfg, loaded{s: s, db: db}, q); err != nil {
				return err
			}
		}
		t.add(q, ms(times[0]), ms(times[1]),
			fmt.Sprintf("%d", unions[0]), fmt.Sprintf("%d", unions[1]), ratio(times[0], times[1]))
	}
	t.write(w)
	fmt.Fprintln(w, "expected shape: the catalog removes wildcard hops, so fewer/cheaper chains")
	return nil
}

// ---------------------------------------------------------------------------
// A2: interval child step — parent probe vs region predicate

func runA2(w io.Writer, cfg Config) error {
	f := cfg.Factor
	if cfg.Quick {
		f = 0.1
	}
	doc := xmlgen.Auction(xmlgen.Config{Factor: f, Seed: cfg.Seed})
	queries := []string{
		"/site/categories/category/name",
		"/site/people/person[address/city='Berlin']/name",
		"/site/open_auctions/open_auction/bidder/increase",
	}
	t := newTable("query", "parent probe ms", "region ms", "region/probe")
	for _, q := range queries {
		var times [2]time.Duration
		for vi, viaRegion := range []bool{false, true} {
			s := shred.NewInterval(false)
			s.ChildViaRegion(viaRegion)
			db, err := shred.LoadDocument(s, doc)
			if err != nil {
				return err
			}
			if times[vi], _, err = timeQuery(cfg, loaded{s: s, db: db}, q); err != nil {
				return err
			}
		}
		t.add(q, ms(times[0]), ms(times[1]), ratio(times[1], times[0]))
	}
	t.write(w)
	fmt.Fprintln(w, "expected shape: parent-id probes win child-heavy chains (region ranges re-scan whole subtrees)")
	return nil
}
