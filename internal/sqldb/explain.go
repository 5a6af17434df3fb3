package sqldb

import (
	"context"
	"fmt"
	"strings"
	"time"
)

// Explain compiles a SELECT and renders its physical plan tree, one
// operator per line with the planner's cardinality estimates. When the
// plan was served from the plan cache the output is prefixed with a
// "(cached)" marker. It is a debugging and teaching aid; the format is
// not stable.
func (db *Database) Explain(sql string, args ...Value) (string, error) {
	st := db.readState()
	e, fromCache, err := db.cachedPlanFor(st, sql, "Explain")
	if err != nil {
		return "", err
	}
	var b strings.Builder
	if fromCache {
		fmt.Fprintf(&b, "(cached) plan epoch %d\n", st.epoch)
	}
	explainTree(&b, e.p.root, 0, nil, nil)
	return b.String(), nil
}

// OpReport is one operator's line of an analyzed plan, in pre-order.
type OpReport struct {
	Kind  string
	Depth int
	Est   float64
	OpStats
}

// AnalyzedPlan is the structured result of ExplainAnalyzePlan: the
// rendered text plus per-operator actuals and the overall execution
// figures.
type AnalyzedPlan struct {
	Text string
	// Rows is the executed query's result cardinality.
	Rows int
	// Duration is the end-to-end execution wall time.
	Duration time.Duration
	// Ops lists the plan's operators in pre-order (Ops[0] is the root).
	Ops []OpReport
}

// ExplainAnalyze executes a SELECT and renders its plan tree annotated
// with actual per-operator row counts, next() calls, open counts, join
// build sizes, B-tree descents of index scans and joins (every other
// probe resumed from the last one's landing) and inclusive wall time.
// The execution is a real one: it runs against a pinned snapshot and
// through the plan cache exactly like Query, and is recorded in the
// metrics registry.
func (db *Database) ExplainAnalyze(sql string, args ...Value) (string, error) {
	ap, err := db.ExplainAnalyzePlan(sql, args...)
	if err != nil {
		return "", err
	}
	return ap.Text, nil
}

// ExplainAnalyzePlan is ExplainAnalyze returning the structured form.
func (db *Database) ExplainAnalyzePlan(sql string, args ...Value) (*AnalyzedPlan, error) {
	st := db.readState()
	e, fromCache, err := db.cachedPlanFor(st, sql, "ExplainAnalyze")
	if err != nil {
		return nil, err
	}
	data, rs, total, err := db.execPlan(context.Background(), st, e.p, true, sql, args)
	if err != nil {
		return nil, err
	}

	ap := &AnalyzedPlan{Rows: len(data), Duration: total}
	var b strings.Builder
	if fromCache {
		fmt.Fprintf(&b, "(cached) plan epoch %d\n", st.epoch)
	}
	explainTree(&b, e.p.root, 0, rs, &ap.Ops)
	fmt.Fprintf(&b, "Execution: %d row(s) in %s\n", len(data), total.Round(time.Microsecond))
	ap.Text = b.String()
	return ap, nil
}

// explainTree renders the operator tree. With rs non-nil each line is
// annotated with the execution's actual counters, and when ops is also
// non-nil a structured OpReport is appended per operator in pre-order.
func explainTree(b *strings.Builder, n planNode, depth int, rs *runStats, ops *[]OpReport) {
	indent := strings.Repeat("  ", depth)
	var actual string
	if rs != nil {
		if id, ok := rs.meta.index[n]; ok {
			op := rs.ops[id]
			actual = fmt.Sprintf(" (actual rows=%d nexts=%d opens=%d", op.Rows, op.Nexts, op.Opens)
			if op.BuildRows > 0 {
				actual += fmt.Sprintf(" build=%d", op.BuildRows)
			}
			switch n.(type) {
			case *indexScanNode, *indexJoinNode:
				actual += fmt.Sprintf(" descents=%d", op.Descents)
			}
			actual += fmt.Sprintf(" time=%s)", op.Time.Round(time.Microsecond))
			if ops != nil {
				*ops = append(*ops, OpReport{Kind: opKind(n), Depth: depth, Est: n.estRows(), OpStats: op})
			}
		}
	}
	write := func(format string, args ...any) {
		fmt.Fprintf(b, "%s%s (est %.1f)%s\n", indent, fmt.Sprintf(format, args...), n.estRows(), actual)
	}
	switch n := n.(type) {
	case *seqScanNode:
		filter := ""
		if n.filter != nil {
			filter = " filtered"
		}
		write("SeqScan %s as %s%s", n.tbl.def.Name, n.alias, filter)
	case *indexScanNode:
		write("IndexScan %s via %s (eq %d, range lo=%v hi=%v)", n.tbl.def.Name, n.idx.def.Name, len(n.eq), n.lo != nil, n.hi != nil)
	case *filterNode:
		write("Filter")
	case *projectNode:
		write("Project %d cols", len(n.exprs))
	case *nlJoinNode:
		kind := "NestedLoopJoin"
		if n.leftOuter {
			kind = "NestedLoopLeftJoin"
		}
		if n.cond == nil {
			kind += " (cross)"
		}
		write("%s %s", kind, n.cols())
	case *hashJoinNode:
		write("HashJoin on %d key(s) %s", len(n.leftKeys), n.cols())
	case *indexJoinNode:
		write("IndexJoin %s via %s (eq %d, range lo=%v hi=%v) %s", n.tbl.def.Name, n.idx.def.Name, len(n.eq), n.lo != nil, n.hi != nil, n.cols())
	case *sortNode:
		write("Sort on %d key(s)", len(n.keys))
	case *limitNode:
		write("Limit")
	case *distinctNode:
		write("Distinct")
	case *aggNode:
		write("Aggregate %d group key(s), %d aggregate(s)", len(n.groupBy), len(n.aggs))
	case *indexMinMaxNode:
		write("IndexMinMax %s %s", n.idx.def.Name, n.fn())
	case *unionAllNode:
		write("UnionAll %d parts", len(n.parts))
	case *derivedNode:
		write("Derived")
	case *valuesNode:
		write("Values %d row(s)", len(n.rows))
	case *cutNode:
		write("Cut to %d cols", n.width)
	default:
		fmt.Fprintf(b, "%s%T\n", indent, n)
	}
	for _, c := range planChildren(n) {
		explainTree(b, c, depth+1, rs, ops)
	}
}

// explainMode classifies a textual EXPLAIN prefix.
type explainMode int

const (
	explainNone explainMode = iota
	explainPlain
	explainAnalyze
)

// stripExplainPrefix detects a leading EXPLAIN [ANALYZE] keyword pair
// and returns the statement that follows it. EXPLAIN is not a lexer
// keyword, so a simple case-insensitive prefix check suffices: no valid
// statement begins with that word otherwise.
func stripExplainPrefix(sql string) (explainMode, string) {
	rest, ok := cutWord(sql, "EXPLAIN")
	if !ok {
		return explainNone, sql
	}
	if inner, ok := cutWord(rest, "ANALYZE"); ok {
		return explainAnalyze, inner
	}
	return explainPlain, rest
}

// cutWord strips one leading case-insensitive word followed by
// whitespace.
func cutWord(s, word string) (string, bool) {
	s = strings.TrimLeft(s, " \t\r\n")
	if len(s) <= len(word) || !strings.EqualFold(s[:len(word)], word) {
		return s, false
	}
	switch s[len(word)] {
	case ' ', '\t', '\r', '\n':
		return s[len(word)+1:], true
	}
	return s, false
}
