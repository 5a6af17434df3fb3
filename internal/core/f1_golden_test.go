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

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*.golden files from this run")

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
// operator whose kind names a Scan or a Join. It also pins the plans
// the child keys are for: Interval's Q2 scans the item elements and
// probes accel_parent on (parent, kind, name) — the planner prices the
// literal tail behind the join key rather than scanning every name
// element — and Q5's sibling count is an IndexCount that reads no heap
// row on Interval, Edge and Binary, whose child keys end in the
// ordinal (Dewey's stops at the name, so its count walks the same-name
// siblings).
func TestF1ExaminedGolden(t *testing.T) {
	out := runGoldens(t)
	pendingTranslation = out.translated
	for _, e := range out.planErrs {
		t.Error(e)
	}
	checkGolden(t, f1GoldenFile, out.examined)
}

// translateGoldenFile records the SQL every scheme emits for every
// domCorpus query on the F1 document, or the error text of a query the
// scheme refuses. A translator change shows here as a diff of SQL text;
// rewrite the file with `go test ./internal/core -run
// TestTranslationGolden -update`.
const translateGoldenFile = "testdata/translate.golden"

// TestTranslationGolden compares each scheme's translation of the DOM
// corpus with the checked-in golden. It checks the output the
// TestF1ExaminedGolden just before it computed, or computes its own.
func TestTranslationGolden(t *testing.T) {
	got := pendingTranslation
	pendingTranslation = nil
	if got == nil {
		got = runGoldens(t).translated
	}
	checkGolden(t, translateGoldenFile, got)
}

// pendingTranslation hands the translation output a TestF1ExaminedGolden
// run computed to the TestTranslationGolden that follows it, which
// takes it once.
var pendingTranslation []byte

// goldenOutputs is what the two goldens record, from one load of each
// scheme: rows examined per F1 class (with the plan checks that
// failed), and every DOM corpus query's translation.
type goldenOutputs struct {
	examined, translated []byte
	planErrs             []string
}

// runGoldens loads the F1 document into each scheme in turn, one store
// alive at a time (factor 1 in six schemes is most of a -race pass of
// this package), and records both goldens' outputs from it.
func runGoldens(t *testing.T) goldenOutputs {
	t.Helper()
	doc := xmlgen.Auction(xmlgen.Config{Factor: 1, Seed: 1})
	queries := append([]string(nil), f1Queries...)
	queries[2] = fmt.Sprintf("/site/people/person[address/city='%s']/name", commonCity(doc))

	var out goldenOutputs
	var examined, translated bytes.Buffer
	fmt.Fprintln(&examined, "# scheme class examined result")
	eachSchemeLoaded(t, doc, func(kind SchemeKind, st *Store) {
		for _, q := range domCorpus {
			sql, err := st.Translate(q)
			if err != nil {
				sql = "error: " + err.Error()
			}
			fmt.Fprintf(&translated, "%s %s\n\t%s\n", kind, q, sql)
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
			var rows int64
			for _, op := range ap.Ops {
				if strings.Contains(op.Kind, "Scan") || strings.Contains(op.Kind, "Join") {
					rows += op.Rows
				}
			}
			fmt.Fprintf(&examined, "%s Q%d %d %d\n", kind, i+1, rows, ap.Rows)
			switch {
			case kind == Interval && i == 1:
				if !strings.Contains(ap.Text, "IndexJoin accel via accel_parent (eq 3,") ||
					!strings.Contains(ap.Text, "IndexScan accel via accel_kind_name (eq 2,") {
					out.planErrs = append(out.planErrs, fmt.Sprintf("Q2 does not scan item and probe accel_parent on three columns:\n%s", ap.Text))
				}
			case i == 4 && (kind == Interval || kind == Edge || kind == Binary):
				if !strings.Contains(ap.Text, "SubPlan") || !strings.Contains(ap.Text, "IndexCount ") {
					out.planErrs = append(out.planErrs, fmt.Sprintf("%s Q5's sibling count is not an IndexCount:\n%s", kind, ap.Text))
				}
			}
		}
	})
	out.examined, out.translated = examined.Bytes(), translated.Bytes()
	return out
}

// eachSchemeLoaded calls fn with a store of each of the six schemes
// loaded with doc, one at a time.
func eachSchemeLoaded(t *testing.T, doc *xmldom.Document, fn func(SchemeKind, *Store)) {
	t.Helper()
	for _, kind := range []SchemeKind{Edge, Binary, Universal, Interval, Dewey, Inline} {
		var opts Options
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
		fn(kind, st)
	}
}

// checkGolden compares got with the golden file, or rewrites the file
// under -update.
func checkGolden(t *testing.T, file string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(file, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	line := func(ls []string) string {
		if i < len(ls) {
			return ls[i]
		}
		return "(end of file)"
	}
	t.Errorf("%s differs from line %d; if intended, rerun with -update.\ngot:  %s\nwant: %s", file, i+1, line(g), line(w))
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
