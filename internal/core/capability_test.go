package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"repro/internal/shred"
	"repro/internal/translate"
	"repro/internal/xmlgen"
)

// capabilityGoldenFile records, for a grid of XPath forms, what each
// mapping does with them: the first 10 hex digits of the SHA-256 of
// the SQL it emits, or "-" for a query it refuses with
// translate.ErrUnsupported. It pins the refusal surface across axes,
// node tests and predicate forms that translate.golden's corpus does
// not reach; rewrite it with `go test ./internal/core -run
// TestCapabilityGolden -update` and let the diff show which cells
// moved.
const capabilityGoldenFile = "testdata/capability.golden"

// capabilityColumns are the golden's columns: the six schemes, plus
// Edge with catalog expansion (ablation A1) and Interval with child
// steps as region predicates (ablation A2).
var capabilityColumns = []struct {
	name   string
	kind   SchemeKind
	tuning func(shred.Scheme)
}{
	{"edge", Edge, nil},
	{"binary", Binary, nil},
	{"universal", Universal, nil},
	{"interval", Interval, nil},
	{"dewey", Dewey, nil},
	{"inline", Inline, nil},
	{"edge+catalog", Edge, func(s shred.Scheme) { s.(*shred.Edge).UseCatalog(true) }},
	{"interval+region", Interval, func(s shred.Scheme) { s.(*shred.Interval).ChildViaRegion(true) }},
}

// capabilityQueries is the grid: every axis × node test × predicate
// form, asked from the document node and from /site/people, then a
// few relative paths and the bare document path.
func capabilityQueries() []string {
	axes := []struct{ axis, name string }{
		{"child::", "person"},
		{"descendant::", "person"},
		{"descendant-or-self::", "person"},
		{"attribute::", "id"},
		{"self::", "people"},
		{"parent::", "site"},
		{"ancestor::", "site"},
		{"following-sibling::", "open_auctions"},
		{"preceding-sibling::", "regions"},
	}
	tests := []string{"", "*", "text()", "node()", "comment()"}
	preds := []string{
		"",
		"[1]",
		"[name]",
		"[name = 'x']",
		"[not(name)]",
		"[count(name) > 1]",
		"[contains(., 'a')]",
		"[address[city]]",
		"[../name]",
		"[@id]",
		"[string-length(name) > 3]",
	}
	var out []string
	for _, from := range []string{"", "/site/people"} {
		for _, ax := range axes {
			for _, test := range tests {
				if test == "" {
					test = ax.name
				}
				for _, pred := range preds {
					out = append(out, from+"/"+ax.axis+test+pred)
				}
			}
		}
	}
	return append(out, "/", "person", "./person", "name/text()", "person[1]", "..", "@id")
}

// TestCapabilityGolden compares every column's answer to every
// capability query with the checked-in golden. An error other than
// translate.ErrUnsupported fails the test: a refusal must say it is
// one.
func TestCapabilityGolden(t *testing.T) {
	queries := capabilityQueries()
	doc := xmlgen.Auction(xmlgen.Config{Factor: 0.01, Seed: 1})
	cells := make([][]string, len(queries))
	for _, col := range capabilityColumns {
		var opts Options
		if col.kind == Inline {
			opts.DTD, opts.Root = xmlgen.AuctionDTD, "site"
		}
		st, err := OpenWith(col.kind, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.LoadDocument(doc); err != nil {
			t.Fatalf("%s: load: %v", col.name, err)
		}
		if col.tuning != nil {
			col.tuning(st.Scheme())
		}
		for i, q := range queries {
			sql, err := st.Translate(q)
			var unsup *translate.ErrUnsupported
			switch {
			case errors.As(err, &unsup):
				cells[i] = append(cells[i], "-")
			case err != nil:
				t.Errorf("%s %s: %v", col.name, q, err)
				cells[i] = append(cells[i], "error")
			default:
				sum := sha256.Sum256([]byte(sql))
				cells[i] = append(cells[i], hex.EncodeToString(sum[:])[:10])
			}
		}
	}
	var b bytes.Buffer
	fmt.Fprint(&b, "#")
	for _, col := range capabilityColumns {
		fmt.Fprint(&b, " ", col.name)
	}
	fmt.Fprintln(&b, " query")
	for i, q := range queries {
		for _, c := range cells[i] {
			fmt.Fprintf(&b, "%-11s", c)
		}
		fmt.Fprintln(&b, q)
	}
	checkGolden(t, capabilityGoldenFile, b.Bytes())
}
