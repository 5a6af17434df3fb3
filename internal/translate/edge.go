package translate

import (
	"fmt"
	"strings"

	"repro/internal/xpath"
)

// EdgeOptions parameterizes the Edge-table translation.
type EdgeOptions struct {
	// Table is the edge table name (default "edge").
	Table string
	// MaxDepth bounds the expansion of descendant steps: the Edge
	// scheme has no structural index, so `//x` becomes a UNION over
	// explicit join chains of every possible length — the cost the
	// interval encoding exists to remove (experiment F2).
	MaxDepth int
	// MaxExpansions caps the UNION size (safety valve).
	MaxExpansions int
	// Catalog, when set, switches descendant expansion from blind
	// wildcard chains to the concrete label paths observed in the data
	// (the path-index variant; ablation A1). Wildcard hops disappear
	// and the UNION covers only label chains that actually exist.
	Catalog *PathCatalog
}

func (o *EdgeOptions) defaults() {
	if o.Table == "" {
		o.Table = "edge"
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 16
	}
	if o.MaxExpansions <= 0 {
		o.MaxExpansions = 256
	}
}

// edgeHop is one join hop of an expanded path.
type edgeHop struct {
	axis xpath.Axis
	test xpath.NodeTest
	// preds are attached to the final hop of each original step, and
	// posTest is that step's own node test: the one its positional
	// predicates rank among, which a catalog expansion of a wildcard
	// into concrete names does not change.
	preds   []xpath.Expr
	posTest xpath.NodeTest
}

// Edge translates an XPath query to SQL over the Edge table
// edge(source, ordinal, name, kind, target, value).
func Edge(p *xpath.Path, opt EdgeOptions) (string, error) {
	opt.defaults()
	if !p.Absolute {
		return "", unsupported("edge", "relative paths")
	}
	if len(p.Steps) == 0 {
		return "", unsupported("edge", "the bare document path /")
	}
	var expansions [][]edgeHop
	var err error
	if opt.Catalog != nil {
		expansions, err = expandEdgeViaCatalog(p.Steps, opt)
	} else {
		expansions, err = expandEdgeSteps(p.Steps, opt)
	}
	if err != nil {
		return "", err
	}
	var parts []string
	for _, hops := range expansions {
		q, err := edgeChainSQL(hops, opt)
		if err != nil {
			return "", err
		}
		parts = append(parts, q)
	}
	if len(parts) == 1 {
		return parts[0] + " ORDER BY id", nil
	}
	return "SELECT DISTINCT id, val FROM (" + strings.Join(parts, " UNION ALL ") + ") u ORDER BY id", nil
}

// expandEdgeSteps replaces descendant steps with every possible chain of
// wildcard child hops, bounded by MaxDepth.
func expandEdgeSteps(steps []xpath.Step, opt EdgeOptions) ([][]edgeHop, error) {
	// Fixed hops consumed by non-descendant steps.
	fixed := 0
	nDesc := 0
	for _, s := range steps {
		switch s.Axis {
		case xpath.AxisDescendant:
			nDesc++
		case xpath.AxisChild, xpath.AxisAttribute, xpath.AxisParent:
			fixed++
		case xpath.AxisSelf:
			// no hop
		default:
			return nil, unsupported("edge", "axis "+s.Axis.String())
		}
	}
	budget := opt.MaxDepth - fixed
	if budget < nDesc {
		budget = nDesc
	}

	out := [][]edgeHop{nil}
	for _, s := range steps {
		if err := checkPositional("edge", &s); err != nil {
			return nil, err
		}
		switch s.Axis {
		case xpath.AxisChild, xpath.AxisAttribute, xpath.AxisParent, xpath.AxisSelf:
			for i := range out {
				out[i] = append(out[i], edgeHop{axis: s.Axis, test: s.Test, preds: s.Preds, posTest: s.Test})
			}
		case xpath.AxisDescendant:
			var next [][]edgeHop
			for _, base := range out {
				for d := 1; d <= budget; d++ {
					hops := append([]edgeHop{}, base...)
					for k := 1; k < d; k++ {
						// Intermediate hops walk the element spine.
						hops = append(hops, edgeHop{axis: xpath.AxisChild, test: xpath.NodeTest{Kind: xpath.TestWildcard}})
					}
					hops = append(hops, edgeHop{axis: xpath.AxisChild, test: s.Test, preds: s.Preds, posTest: s.Test})
					next = append(next, hops)
					if len(next) > opt.MaxExpansions {
						return nil, fmt.Errorf("translate: edge descendant expansion exceeds %d chains (depth %d); raise MaxExpansions", opt.MaxExpansions, opt.MaxDepth)
					}
				}
			}
			out = next
		}
	}
	return out, nil
}

// expandEdgeViaCatalog expands descendant/wildcard steps into the
// concrete label chains recorded in the path catalog (ablation A1):
// the path index removes blind wildcard hops at the price of a catalog
// lookup and a data-dependent (but exact) union.
func expandEdgeViaCatalog(steps []xpath.Step, opt EdgeOptions) ([][]edgeHop, error) {
	// Paths containing axes the catalog cannot express fall back to
	// blind expansion.
	for _, s := range steps {
		switch s.Axis {
		case xpath.AxisChild, xpath.AxisDescendant, xpath.AxisAttribute:
		default:
			return expandEdgeSteps(steps, opt)
		}
	}
	pat, err := patternOf(steps, "edge")
	if err != nil {
		return expandEdgeSteps(steps, opt)
	}
	matches := opt.Catalog.Expand(pat)
	if len(matches) > opt.MaxExpansions {
		return nil, fmt.Errorf("translate: edge catalog expansion exceeds %d chains", opt.MaxExpansions)
	}
	var out [][]edgeHop
	for _, m := range matches {
		// Map step index -> segment for predicate attachment.
		segPreds := make(map[int][]xpath.Expr)
		segTest := make(map[int]xpath.NodeTest)
		for si, s := range steps {
			segPreds[m.StepSeg[si]] = append(segPreds[m.StepSeg[si]], s.Preds...)
			segTest[m.StepSeg[si]] = s.Test
		}
		var hops []edgeHop
		for k, seg := range m.Segments {
			h := edgeHop{axis: xpath.AxisChild, preds: segPreds[k], posTest: segTest[k]}
			switch {
			case seg == "#text":
				h.test = xpath.NodeTest{Kind: xpath.TestText}
			case strings.HasPrefix(seg, "@"):
				h.axis = xpath.AxisAttribute
				h.test = xpath.NodeTest{Kind: xpath.TestName, Name: seg[1:]}
			default:
				h.test = xpath.NodeTest{Kind: xpath.TestName, Name: seg}
			}
			hops = append(hops, h)
		}
		out = append(out, hops)
	}
	if len(out) == 0 {
		// No concrete path: one impossible chain keeps the SQL valid.
		out = append(out, []edgeHop{{
			axis: xpath.AxisChild,
			test: xpath.NodeTest{Kind: xpath.TestName, Name: "\x00nomatch"},
		}})
	}
	return out, nil
}

// edgeChainSQL renders one expansion as a single-block SELECT.
func edgeChainSQL(hops []edgeHop, opt EdgeOptions) (string, error) {
	tbl := opt.Table
	var from []string
	var where []string
	alias := func(i int) string { return fmt.Sprintf("e%d", i+1) }

	cur := "" // empty means the document node (id 0)
	n := 0
	for _, h := range hops {
		switch h.axis {
		case xpath.AxisParent:
			if cur == "" {
				return "", unsupported("edge", "parent of the document node")
			}
			a := alias(n)
			n++
			from = append(from, tbl+" "+a)
			where = append(where, fmt.Sprintf("%s.target = %s.source", a, cur))
			if c := edgeTestCond(a, h.test, false); c != "" {
				where = append(where, c)
			}
			cur = a
		case xpath.AxisSelf:
			if c := edgeTestCond(cur, h.test, false); c != "" {
				where = append(where, c)
			}
		default: // child, attribute
			a := alias(n)
			n++
			from = append(from, tbl+" "+a)
			src := "0"
			if cur != "" {
				src = cur + ".target"
			}
			where = append(where, fmt.Sprintf("%s.source = %s", a, src))
			if c := edgeTestCond(a, h.test, h.axis == xpath.AxisAttribute); c != "" {
				where = append(where, c)
			}
			cur = a
		}
		for _, pe := range h.preds {
			c, err := edgePred(pe, cur, h.posTest, opt)
			if err != nil {
				return "", err
			}
			where = append(where, c)
		}
	}
	if cur == "" {
		return "", unsupported("edge", "empty path")
	}
	sql := "SELECT " + cur + ".target AS id, " + cur + ".value AS val FROM " + strings.Join(from, ", ")
	if len(where) > 0 {
		sql += " WHERE " + strings.Join(where, " AND ")
	}
	return sql, nil
}

// edgeTestCond renders the node test for an edge alias.
func edgeTestCond(a string, t xpath.NodeTest, isAttr bool) string {
	if a == "" {
		return ""
	}
	switch t.Kind {
	case xpath.TestName:
		kind := "elem"
		if isAttr {
			kind = "attr"
		}
		return fmt.Sprintf("%s.kind = '%s' AND %s.name = %s", a, kind, a, QuoteString(t.Name))
	case xpath.TestWildcard:
		kind := "elem"
		if isAttr {
			kind = "attr"
		}
		return fmt.Sprintf("%s.kind = '%s'", a, kind)
	case xpath.TestText:
		return fmt.Sprintf("%s.kind = 'text'", a)
	case xpath.TestComment:
		return fmt.Sprintf("%s.kind = 'comment'", a)
	case xpath.TestNode:
		return fmt.Sprintf("%s.kind <> 'attr'", a)
	}
	return ""
}

// edgePred translates one predicate for the context edge alias `cur`.
// The context node id is cur.target.
func edgePred(e xpath.Expr, cur string, test xpath.NodeTest, opt EdgeOptions) (string, error) {
	switch e := e.(type) {
	case *xpath.BinaryExpr:
		switch e.Op {
		case "and", "or":
			l, err := edgePred(e.L, cur, test, opt)
			if err != nil {
				return "", err
			}
			r, err := edgePred(e.R, cur, test, opt)
			if err != nil {
				return "", err
			}
			op := strings.ToUpper(e.Op)
			return "(" + l + " " + op + " " + r + ")", nil
		default:
			return edgeComparison(e, cur, test, opt)
		}
	case *xpath.NumberLit:
		// [N] == [position() = N]
		return edgePosition(cur, test, "=", numLiteral(e.Val), opt), nil
	case *xpath.PathOperand:
		chain, _, err := edgePredChain(e.Path, cur, opt)
		if err != nil {
			return "", err
		}
		return "EXISTS (" + chain + ")", nil
	case *xpath.FuncCall:
		return edgePredFunc(e, cur, test, opt)
	}
	return "", unsupported("edge", fmt.Sprintf("predicate %T", e))
}

func edgePredFunc(e *xpath.FuncCall, cur string, test xpath.NodeTest, opt EdgeOptions) (string, error) {
	switch e.Name {
	case "not":
		if len(e.Args) != 1 {
			return "", unsupported("edge", "not() arity")
		}
		inner, err := edgePred(e.Args[0], cur, test, opt)
		if err != nil {
			return "", err
		}
		return "NOT (" + inner + ")", nil
	case "true":
		return "1 = 1", nil
	case "false":
		return "1 = 0", nil
	case "contains", "starts-with":
		if len(e.Args) != 2 {
			return "", unsupported("edge", e.Name+"() arity")
		}
		lit, ok := e.Args[1].(*xpath.StringLit)
		if !ok {
			return "", unsupported("edge", e.Name+"() with a non-literal pattern")
		}
		pattern := "%" + likeEscapeMeta(lit.Val) + "%"
		if e.Name == "starts-with" {
			pattern = likeEscapeMeta(lit.Val) + "%"
		}
		return edgeValueMatch(e.Args[0], cur, opt, func(operand string) string {
			return fmt.Sprintf("%s LIKE %s ESCAPE '\\'", operand, QuoteString(pattern))
		})
	}
	return "", unsupported("edge", e.Name+"() in a predicate")
}

// edgeValueMatch applies cond() to the string value of the first
// argument (a relative path or "."). Dot is the context node's value.
func edgeValueMatch(arg xpath.Expr, cur string, opt EdgeOptions, cond func(string) string) (string, error) {
	if po, ok := arg.(*xpath.PathOperand); ok {
		if len(po.Path.Steps) == 1 && po.Path.Steps[0].Axis == xpath.AxisSelf {
			return cond(cur + ".value"), nil
		}
		chain, valCol, err := edgePredChain(po.Path, cur, opt)
		if err != nil {
			return "", err
		}
		return "EXISTS (" + chain + " AND " + cond(valCol) + ")", nil
	}
	return "", unsupported("edge", "non-path operand in string function")
}

// edgeComparison translates [path op literal] and positional forms.
func edgeComparison(e *xpath.BinaryExpr, cur string, test xpath.NodeTest, opt EdgeOptions) (string, error) {
	l, r, op := e.L, e.R, e.Op
	// Normalize literal-first comparisons.
	if isLiteral(l) && !isLiteral(r) {
		l, r = r, l
		op = flipXPathOp(op)
	}
	lit, err := literalSQL(r)
	if err != nil {
		return "", err
	}
	sqlOp := op
	if sqlOp == "!=" {
		sqlOp = "<>"
	}
	switch lx := l.(type) {
	case *xpath.FuncCall:
		switch lx.Name {
		case "position":
			return edgePosition(cur, test, sqlOp, lit, opt), nil
		case "count":
			if len(lx.Args) != 1 {
				return "", unsupported("edge", "count() arity")
			}
			po, ok := lx.Args[0].(*xpath.PathOperand)
			if !ok {
				return "", unsupported("edge", "count() of a non-path")
			}
			chain, _, err := edgePredChain(po.Path, cur, opt)
			if err != nil {
				return "", err
			}
			countQ := strings.Replace(chain, "SELECT 1 ", "SELECT COUNT(*) ", 1)
			return "(" + countQ + ") " + sqlOp + " " + lit, nil
		case "string-length":
			if len(lx.Args) == 0 {
				return "LENGTH(" + cur + ".value) " + sqlOp + " " + lit, nil
			}
			return edgeValueMatch(lx.Args[0], cur, opt, func(operand string) string {
				return "LENGTH(" + operand + ") " + sqlOp + " " + lit
			})
		}
		return "", unsupported("edge", lx.Name+"() comparison")
	case *xpath.PathOperand:
		if len(lx.Path.Steps) == 1 && lx.Path.Steps[0].Axis == xpath.AxisSelf {
			return cur + ".value " + sqlOp + " " + lit, nil
		}
		chain, valCol, err := edgePredChain(lx.Path, cur, opt)
		if err != nil {
			return "", err
		}
		return "EXISTS (" + chain + " AND " + valCol + " " + sqlOp + " " + lit + ")", nil
	}
	return "", unsupported("edge", fmt.Sprintf("comparison of %T", l))
}

// edgePosition renders the positional predicate: the rank of the
// context node among its preceding siblings that the step's node test
// admits (see siblingTest).
func edgePosition(cur string, test xpath.NodeTest, op, lit string, opt EdgeOptions) string {
	return fmt.Sprintf(
		"(SELECT COUNT(*) FROM %s s WHERE s.source = %s.source AND %s AND s.ordinal < %s.ordinal) + 1 %s %s",
		opt.Table, cur, siblingTest(test, cur), cur, op, lit)
}

// edgePredChain builds the EXISTS body for a relative predicate path.
// It returns the subquery (without closing paren) and the value column
// of its final hop.
func edgePredChain(p *xpath.Path, cur string, opt EdgeOptions) (string, string, error) {
	if p.Absolute {
		return "", "", unsupported("edge", "absolute paths inside predicates")
	}
	var from []string
	var where []string
	prev := ""
	for i, s := range p.Steps {
		if len(s.Preds) > 0 {
			return "", "", unsupported("edge", "nested predicates")
		}
		a := fmt.Sprintf("%sp%d", cur, i+1)
		switch s.Axis {
		case xpath.AxisChild, xpath.AxisAttribute:
			from = append(from, opt.Table+" "+a)
			src := cur + ".target"
			if prev != "" {
				src = prev + ".target"
			}
			where = append(where, fmt.Sprintf("%s.source = %s", a, src))
			if c := edgeTestCond(a, s.Test, s.Axis == xpath.AxisAttribute); c != "" {
				where = append(where, c)
			}
			prev = a
		case xpath.AxisParent:
			from = append(from, opt.Table+" "+a)
			tgt := cur + ".source"
			if prev != "" {
				tgt = prev + ".source"
			}
			where = append(where, fmt.Sprintf("%s.target = %s", a, tgt))
			prev = a
		default:
			return "", "", unsupported("edge", "axis "+s.Axis.String()+" inside predicates")
		}
	}
	if prev == "" {
		return "", "", unsupported("edge", "empty predicate path")
	}
	q := "SELECT 1 FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(where, " AND ")
	return q, prev + ".value", nil
}

// Shared predicate-literal helpers.

func isLiteral(e xpath.Expr) bool {
	switch e.(type) {
	case *xpath.StringLit, *xpath.NumberLit:
		return true
	}
	return false
}

func literalSQL(e xpath.Expr) (string, error) {
	switch e := e.(type) {
	case *xpath.StringLit:
		return QuoteString(e.Val), nil
	case *xpath.NumberLit:
		return numLiteral(e.Val), nil
	}
	return "", fmt.Errorf("translate: comparison requires a literal operand, got %T", e)
}

func flipXPathOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}
