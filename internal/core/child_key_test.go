package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sqldb"
	"repro/internal/translate"
	"repro/internal/xmlgen"
	"repro/internal/xpath"
)

// mixedChildSteps are child and positional steps over parents whose
// children have mixed names. A child index keyed (parent, kind, name,
// …) lists one parent's children grouped by name, not in document
// order, so a wildcard, node() or positional step over it must still
// come back in document order, and count positions among the right
// siblings.
var mixedChildSteps = []string{
	"/site/open_auctions/open_auction[3]/*",
	"/site/regions/*/item[2]/name",
	"//open_auction/*[2]",
	"//item/node()[1]",
}

// TestMixedChildStepsMatchDOM runs mixedChildSteps on every scheme
// against the DOM: a scheme that answers must match its nodes in
// document order; one may refuse a query only with its unsupported
// error (Universal has no order columns, Inline no wildcard, Binary
// neither a positional wildcard nor node() there).
func TestMixedChildStepsMatchDOM(t *testing.T) {
	doc := xmlgen.Auction(xmlgen.Config{Factor: 0.02, Seed: 11})
	for _, kind := range allSchemes {
		t.Run(string(kind), func(t *testing.T) {
			st, err := OpenWith(kind, corpusOptions(kind))
			if err != nil {
				t.Fatal(err)
			}
			if err := st.LoadDocument(doc); err != nil {
				t.Fatal(err)
			}
			for _, q := range mixedChildSteps {
				res, err := st.Query(q)
				var unsup *translate.ErrUnsupported
				if errors.As(err, &unsup) {
					continue
				}
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
				if len(want) == 0 {
					t.Fatalf("%s: the DOM matches nothing; the case tests nothing", q)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: store matched %d nodes %v, DOM %d %v", q, len(got), got, len(want), want)
				}
			}
		})
	}
}

// TestOldChildIndexesStillAnswer reopens data directories whose child
// indexes have the key shape of the builds before the node test joined
// it — Interval's accel_parent (parent, ordinal), Edge's edge_source
// (source, ordinal), Dewey's dewey_parent (parent) — and requires the
// F1 mix and the mixed child steps to answer as the DOM does.
func TestOldChildIndexesStillAnswer(t *testing.T) {
	old := map[SchemeKind][]string{
		Interval: {
			`CREATE TABLE accel (pre INTEGER NOT NULL, parent INTEGER, size INTEGER NOT NULL, level INTEGER NOT NULL,
				ordinal INTEGER NOT NULL, kind TEXT NOT NULL, name TEXT, value TEXT)`,
			`CREATE INDEX accel_pre ON accel (pre)`,
			`CREATE INDEX accel_parent ON accel (parent, ordinal)`,
			`CREATE INDEX accel_kind_name ON accel (kind, name, pre)`,
		},
		Edge: {
			`CREATE TABLE edge (source INTEGER NOT NULL, ordinal INTEGER NOT NULL, name TEXT, kind TEXT NOT NULL,
				target INTEGER NOT NULL PRIMARY KEY, value TEXT)`,
			`CREATE INDEX edge_source ON edge (source, ordinal)`,
			`CREATE INDEX edge_kind_name ON edge (kind, name)`,
			`CREATE TABLE edge_state (kind TEXT NOT NULL, label TEXT NOT NULL, value TEXT)`,
		},
		Dewey: {
			`CREATE TABLE dewey (pre INTEGER NOT NULL, path TEXT NOT NULL, parent TEXT, level INTEGER NOT NULL,
				kind TEXT NOT NULL, name TEXT, value TEXT)`,
			`CREATE INDEX dewey_pre ON dewey (pre)`,
			`CREATE INDEX dewey_path ON dewey (path)`,
			`CREATE INDEX dewey_parent ON dewey (parent)`,
			`CREATE INDEX dewey_kind_name ON dewey (kind, name, path)`,
		},
	}
	childIndex := map[SchemeKind]string{Interval: "accel_parent", Edge: "edge_source", Dewey: "dewey_parent"}
	doc := xmlgen.Auction(xmlgen.Config{Factor: 0.02, Seed: 3})
	for _, kind := range []SchemeKind{Interval, Edge, Dewey} {
		t.Run(string(kind), func(t *testing.T) {
			fs := sqldb.NewMemVFS()
			ddb, err := sqldb.OpenDurable(fs, DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, ddl := range old[kind] {
				if _, err := ddb.DB().Exec(ddl); err != nil {
					t.Fatal(err)
				}
			}
			if err := ddb.Close(); err != nil {
				t.Fatal(err)
			}
			ds, err := OpenDurableVFS(kind, fs, Options{}, DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			if err := ds.LoadDocument(doc); err != nil {
				t.Fatal(err)
			}
			// The directory's own child index serves the child steps:
			// its key binds the parent and nothing after it.
			sql, err := ds.Translate("/site/regions/*/item")
			if err != nil {
				t.Fatal(err)
			}
			if plan, err := ds.DB().Explain(sql); err != nil || !strings.Contains(plan, "via "+childIndex[kind]+" (eq 1,") {
				t.Errorf("the child steps do not probe the directory's %s by parent alone: %v\n%s", childIndex[kind], err, plan)
			}
			for _, q := range append(append([]string(nil), f1Queries...), mixedChildSteps...) {
				res, err := ds.Query(q)
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
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: store matched %d nodes, the DOM %d", q, len(got), len(want))
				}
			}
		})
	}
}
