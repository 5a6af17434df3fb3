package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/xmldom"
	"repro/internal/xmlgen"
	"repro/internal/xpath"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/f1_examined.golden from this run")

// f1GoldenFile records, for every scheme and F1 class that translates,
// the rows the plan's scan and join operators produce ("examined") and
// the result rows, on the repository benchmark's document (XMark factor
// 1, seed 1, Q3 on the most common city). A cell that moves is a plan
// that changed; rewrite the file with `go test ./internal/core -run
// TestF1ExaminedGolden -update` and let the diff show which.
const f1GoldenFile = "testdata/f1_examined.golden"

// TestF1ExaminedGolden compares rows examined per (scheme, F1 class)
// with the checked-in golden. Examined rows are counted as the
// benchmark counts them: under EXPLAIN ANALYZE, the rows of every
// operator whose kind names a Scan or a Join.
func TestF1ExaminedGolden(t *testing.T) {
	doc := xmlgen.Auction(xmlgen.Config{Factor: 1, Seed: 1})
	queries := append([]string(nil), f1Queries...)
	queries[2] = fmt.Sprintf("/site/people/person[address/city='%s']/name", commonCity(doc))

	var got bytes.Buffer
	fmt.Fprintln(&got, "# scheme class examined result")
	for _, kind := range []SchemeKind{Edge, Binary, Universal, Interval, Dewey, Inline} {
		opts := Options{Parallelism: 1}
		if kind == Inline {
			opts.DTD, opts.Root = xmlgen.AuctionDTD, "site"
		}
		st, err := OpenWith(kind, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.LoadDocument(doc); err != nil {
			t.Fatalf("%s: load: %v", kind, err)
		}
		for i, q := range queries {
			sql, err := st.Translate(q)
			if err != nil {
				continue // a documented mapping limitation (Universal Q5)
			}
			ap, err := st.DB().ExplainAnalyzePlan(sql)
			if err != nil {
				t.Fatalf("%s Q%d: %v", kind, i+1, err)
			}
			var examined int64
			for _, op := range ap.Ops {
				if strings.Contains(op.Kind, "Scan") || strings.Contains(op.Kind, "Join") {
					examined += op.Rows
				}
			}
			fmt.Fprintf(&got, "%s Q%d %d %d\n", kind, i+1, examined, ap.Rows)
		}
	}

	if *updateGolden {
		if err := os.WriteFile(f1GoldenFile, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(f1GoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("rows examined moved; if intended, rerun with -update.\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}

// commonCity is the most frequent person city, ties to the smaller
// string: the value the benchmark's Q3 selects.
func commonCity(doc *xmldom.Document) string {
	count := map[string]int{}
	best := ""
	for _, n := range xpath.Eval(doc, xpath.MustParse("/site/people/person/address/city")) {
		c := n.Text()
		count[c]++
		if count[c] > count[best] || (count[c] == count[best] && c < best) {
			best = c
		}
	}
	return best
}
