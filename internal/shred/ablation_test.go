package shred

import (
	"context"
	"strings"
	"testing"

	"repro/internal/xmldom"
	"repro/internal/xmlgen"
	"repro/internal/xpath"
)

// TestEdgeCatalogConformance: catalog-driven descendant expansion
// (ablation A1) must agree with the DOM on the full battery.
func TestEdgeCatalogConformance(t *testing.T) {
	doc := xmlgen.Auction(xmlgen.Config{Factor: 0.02, Seed: 7})
	s := NewEdge(false)
	s.UseCatalog(true)
	db, err := LoadDocument(s, doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, cq := range conformanceQueries {
		if cq.skip[s.Name()] {
			continue
		}
		want := domIDs(doc, cq.query)
		got, err := QueryIDs(db, s, cq.query)
		if err != nil {
			t.Errorf("%s: %v", cq.query, err)
			continue
		}
		if !int64sEqual(want, got) {
			t.Errorf("%s: want %d ids, got %d", cq.query, len(want), len(got))
		}
	}
	// The catalog-driven SQL must not contain blind wildcard hops.
	sql, err := s.Translate(db, xpath.MustParse("//item/name"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sql, "kind = 'elem' AND e2.source") && !strings.Contains(sql, "name =") {
		t.Errorf("unexpected blind expansion:\n%s", sql)
	}
	blind := NewEdge(false)
	dbBlind, err := LoadDocument(blind, doc)
	if err != nil {
		t.Fatal(err)
	}
	sqlBlind, err := blind.Translate(dbBlind, xpath.MustParse("//item/name"))
	if err != nil {
		t.Fatal(err)
	}
	// Catalog expansion names every hop; blind expansion leaves
	// wildcard hops with only a kind test.
	if strings.Count(sql, "name = ") <= strings.Count(sqlBlind, "name = ") {
		t.Errorf("catalog SQL should name more hops: %d vs %d",
			strings.Count(sql, "name = "), strings.Count(sqlBlind, "name = "))
	}
}

// TestEdgeCatalogAfterInsert: the catalog must cover paths introduced by
// ordered insertion, or catalog-driven queries silently miss new data.
func TestEdgeCatalogAfterInsert(t *testing.T) {
	doc := xmlgen.Auction(xmlgen.Config{Factor: 0.01, Seed: 3})
	s := NewEdge(false)
	s.UseCatalog(true)
	db, err := LoadDocument(s, doc)
	if err != nil {
		t.Fatal(err)
	}
	cats := xpath.Eval(doc, xpath.MustParse("/site/categories"))
	fragDoc, err := xmldom.ParseString(`<category id="cX"><name>New</name><description><parlist><listitem>fresh path</listitem></parlist></description></category>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(context.Background(), db, int64(cats[0].Pre), 0, fragDoc.Tokens()); err != nil {
		t.Fatal(err)
	}
	// The listitem under a category description is a brand-new path.
	ids, err := QueryIDs(db, s, "//category//listitem")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 {
		t.Errorf("inserted path not found via catalog expansion: %d ids", len(ids))
	}
}

// TestIntervalChildViaRegion: the region formulation of child steps
// (ablation A2) must agree with the parent-probe formulation.
func TestIntervalChildViaRegion(t *testing.T) {
	doc := xmlgen.Auction(xmlgen.Config{Factor: 0.02, Seed: 7})
	region := NewInterval(false)
	region.ChildViaRegion(true)
	db, err := LoadDocument(region, doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, cq := range conformanceQueries {
		if cq.skip[region.Name()] {
			continue
		}
		want := domIDs(doc, cq.query)
		got, err := QueryIDs(db, region, cq.query)
		if err != nil {
			t.Errorf("%s: %v", cq.query, err)
			continue
		}
		if !int64sEqual(want, got) {
			t.Errorf("%s: want %d ids, got %d", cq.query, len(want), len(got))
		}
	}
	sql, err := region.Translate(db, xpath.MustParse("/site/people/person"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "level = ") && !strings.Contains(sql, "level =") {
		t.Errorf("region child step missing level predicate:\n%s", sql)
	}
}
