package translate

import (
	"fmt"
	"strings"

	"repro/internal/xpath"
)

// IntervalOptions parameterizes the interval-encoding translation.
type IntervalOptions struct {
	// Table is the accel table name (default "accel"):
	// accel(pre, parent, size, level, ordinal, kind, name, value).
	Table string
	// ChildViaRegion translates child steps as region predicates
	// (pre-range plus level equality) instead of parent-id probes —
	// the pure-Grust formulation without a parent column (ablation A2).
	ChildViaRegion bool
}

func (o *IntervalOptions) defaults() {
	if o.Table == "" {
		o.Table = "accel"
	}
}

// Interval translates XPath to SQL over the XPath-accelerator layout
// (Grust): every axis becomes a region predicate on (pre, size, level),
// so descendant steps are single range joins regardless of depth — the
// structural contrast with the Edge expansion measured by F2.
func Interval(p *xpath.Path, opt IntervalOptions) (string, error) {
	opt.defaults()
	if !p.Absolute {
		return "", unsupported("interval", "relative paths")
	}
	if len(p.Steps) == 0 {
		return "", unsupported("interval", "the bare document path /")
	}
	tbl := opt.Table
	var from []string
	var where []string
	cur := "" // empty = document node (pre 0, size = all)
	n := 0
	newAlias := func() string {
		n++
		a := fmt.Sprintf("a%d", n)
		from = append(from, tbl+" "+a)
		return a
	}

	for _, s := range p.Steps {
		switch s.Axis {
		case xpath.AxisChild, xpath.AxisAttribute:
			a := newAlias()
			if opt.ChildViaRegion && cur != "" {
				where = append(where,
					fmt.Sprintf("%s.pre > %s.pre", a, cur),
					fmt.Sprintf("%s.pre <= %s.pre + %s.size", a, cur, cur),
					fmt.Sprintf("%s.level = %s.level + 1", a, cur),
				)
			} else {
				parent := "0"
				if cur != "" {
					parent = cur + ".pre"
				}
				where = append(where, fmt.Sprintf("%s.parent = %s", a, parent))
			}
			if c := intervalTestCond(a, s.Test, s.Axis == xpath.AxisAttribute); c != "" {
				where = append(where, c)
			}
			cur = a
		case xpath.AxisDescendant:
			a := newAlias()
			if cur == "" {
				// Descendant of the document node: every node.
			} else {
				where = append(where,
					fmt.Sprintf("%s.pre > %s.pre", a, cur),
					fmt.Sprintf("%s.pre <= %s.pre + %s.size", a, cur, cur),
				)
			}
			if c := intervalTestCond(a, s.Test, false); c != "" {
				where = append(where, c)
			}
			cur = a
		case xpath.AxisParent:
			if cur == "" {
				return "", unsupported("interval", "parent of the document node")
			}
			a := newAlias()
			where = append(where, fmt.Sprintf("%s.pre = %s.parent", a, cur))
			if c := intervalTestCond(a, s.Test, false); c != "" {
				where = append(where, c)
			}
			cur = a
		case xpath.AxisAncestor:
			if cur == "" {
				return "", unsupported("interval", "ancestor of the document node")
			}
			a := newAlias()
			where = append(where,
				fmt.Sprintf("%s.pre < %s.pre", a, cur),
				fmt.Sprintf("%s.pre + %s.size >= %s.pre", a, a, cur),
			)
			if c := intervalTestCond(a, s.Test, false); c != "" {
				where = append(where, c)
			}
			cur = a
		case xpath.AxisFollowingSibling, xpath.AxisPrecedingSibling:
			if cur == "" {
				return "", unsupported("interval", "siblings of the document node")
			}
			a := newAlias()
			where = append(where, fmt.Sprintf("%s.parent = %s.parent", a, cur))
			if s.Axis == xpath.AxisFollowingSibling {
				where = append(where, fmt.Sprintf("%s.ordinal > %s.ordinal", a, cur))
			} else {
				where = append(where, fmt.Sprintf("%s.ordinal < %s.ordinal", a, cur))
			}
			where = append(where, fmt.Sprintf("%s.kind <> 'attr'", a))
			if c := intervalTestCond(a, s.Test, false); c != "" {
				where = append(where, c)
			}
			cur = a
		case xpath.AxisSelf:
			if cur == "" {
				return "", unsupported("interval", "self step on the document node")
			}
			if c := intervalTestCond(cur, s.Test, false); c != "" {
				where = append(where, c)
			}
		default:
			return "", unsupported("interval", "axis "+s.Axis.String())
		}
		if err := checkPositional("interval", &s); err != nil {
			return "", err
		}
		for _, pe := range s.Preds {
			c, err := intervalPred(pe, cur, s.Test, opt)
			if err != nil {
				return "", err
			}
			where = append(where, c)
		}
	}

	sql := "SELECT DISTINCT " + cur + ".pre AS id, " + cur + ".value AS val FROM " + strings.Join(from, ", ")
	if len(where) > 0 {
		sql += " WHERE " + strings.Join(where, " AND ")
	}
	return sql + " ORDER BY id", nil
}

func intervalTestCond(a string, t xpath.NodeTest, isAttr bool) string {
	switch t.Kind {
	case xpath.TestName:
		kind := "elem"
		if isAttr {
			kind = "attr"
		}
		return fmt.Sprintf("%s.name = %s AND %s.kind = '%s'", a, QuoteString(t.Name), a, kind)
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

func intervalPred(e xpath.Expr, cur string, test xpath.NodeTest, opt IntervalOptions) (string, error) {
	switch e := e.(type) {
	case *xpath.BinaryExpr:
		switch e.Op {
		case "and", "or":
			l, err := intervalPred(e.L, cur, test, opt)
			if err != nil {
				return "", err
			}
			r, err := intervalPred(e.R, cur, test, opt)
			if err != nil {
				return "", err
			}
			return "(" + l + " " + strings.ToUpper(e.Op) + " " + r + ")", nil
		default:
			return intervalComparison(e, cur, test, opt)
		}
	case *xpath.NumberLit:
		return intervalPosition(cur, test, "=", numLiteral(e.Val), opt), nil
	case *xpath.PathOperand:
		chain, _, err := intervalPredChain(e.Path, cur, opt)
		if err != nil {
			return "", err
		}
		return "EXISTS (" + chain + ")", nil
	case *xpath.FuncCall:
		return intervalPredFunc(e, cur, test, opt)
	}
	return "", unsupported("interval", fmt.Sprintf("predicate %T", e))
}

func intervalPredFunc(e *xpath.FuncCall, cur string, test xpath.NodeTest, opt IntervalOptions) (string, error) {
	switch e.Name {
	case "not":
		if len(e.Args) != 1 {
			return "", unsupported("interval", "not() arity")
		}
		inner, err := intervalPred(e.Args[0], cur, test, opt)
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
			return "", unsupported("interval", e.Name+"() arity")
		}
		lit, ok := e.Args[1].(*xpath.StringLit)
		if !ok {
			return "", unsupported("interval", e.Name+"() with a non-literal pattern")
		}
		pattern := "%" + likeEscapeMeta(lit.Val) + "%"
		if e.Name == "starts-with" {
			pattern = likeEscapeMeta(lit.Val) + "%"
		}
		cond := func(operand string) string {
			return fmt.Sprintf("%s LIKE %s ESCAPE '\\'", operand, QuoteString(pattern))
		}
		if po, ok := e.Args[0].(*xpath.PathOperand); ok {
			if len(po.Path.Steps) == 1 && po.Path.Steps[0].Axis == xpath.AxisSelf {
				return cond(cur + ".value"), nil
			}
			chain, valCol, err := intervalPredChain(po.Path, cur, opt)
			if err != nil {
				return "", err
			}
			return "EXISTS (" + chain + " AND " + cond(valCol) + ")", nil
		}
		return "", unsupported("interval", "non-path operand in string function")
	}
	return "", unsupported("interval", e.Name+"() in a predicate")
}

func intervalComparison(e *xpath.BinaryExpr, cur string, test xpath.NodeTest, opt IntervalOptions) (string, error) {
	l, r, op := e.L, e.R, e.Op
	if isLiteral(l) && !isLiteral(r) {
		l, r = r, l
		op = flipXPathOp(op)
	}
	lit, err := literalSQL(r)
	if err != nil {
		return "", err
	}
	if op == "!=" {
		op = "<>"
	}
	switch lx := l.(type) {
	case *xpath.FuncCall:
		switch lx.Name {
		case "position":
			return intervalPosition(cur, test, op, lit, opt), nil
		case "count":
			if len(lx.Args) != 1 {
				return "", unsupported("interval", "count() arity")
			}
			po, ok := lx.Args[0].(*xpath.PathOperand)
			if !ok {
				return "", unsupported("interval", "count() of a non-path")
			}
			chain, _, err := intervalPredChain(po.Path, cur, opt)
			if err != nil {
				return "", err
			}
			countQ := strings.Replace(chain, "SELECT 1 ", "SELECT COUNT(*) ", 1)
			return "(" + countQ + ") " + op + " " + lit, nil
		case "string-length":
			if len(lx.Args) == 0 {
				return "LENGTH(" + cur + ".value) " + op + " " + lit, nil
			}
		}
		return "", unsupported("interval", lx.Name+"() comparison")
	case *xpath.PathOperand:
		if len(lx.Path.Steps) == 1 && lx.Path.Steps[0].Axis == xpath.AxisSelf {
			return cur + ".value " + op + " " + lit, nil
		}
		chain, valCol, err := intervalPredChain(lx.Path, cur, opt)
		if err != nil {
			return "", err
		}
		return "EXISTS (" + chain + " AND " + valCol + " " + op + " " + lit + ")", nil
	}
	return "", unsupported("interval", fmt.Sprintf("comparison of %T", l))
}

// intervalPosition renders the positional predicate: the rank of the
// context node among its preceding siblings that the step's node test
// admits (see siblingTest).
func intervalPosition(cur string, test xpath.NodeTest, op, lit string, opt IntervalOptions) string {
	return fmt.Sprintf(
		"(SELECT COUNT(*) FROM %s s WHERE s.parent = %s.parent AND %s AND s.ordinal < %s.ordinal) + 1 %s %s",
		opt.Table, cur, siblingTest(test, cur), cur, op, lit)
}

// intervalPredChain builds the EXISTS body for a relative predicate path
// and returns (subquery, value column).
func intervalPredChain(p *xpath.Path, cur string, opt IntervalOptions) (string, string, error) {
	if p.Absolute {
		return "", "", unsupported("interval", "absolute paths inside predicates")
	}
	var from []string
	var where []string
	prev := cur
	for i, s := range p.Steps {
		if len(s.Preds) > 0 {
			return "", "", unsupported("interval", "nested predicates")
		}
		a := fmt.Sprintf("%sq%d", cur, i+1)
		from = append(from, opt.Table+" "+a)
		switch s.Axis {
		case xpath.AxisChild, xpath.AxisAttribute:
			where = append(where, fmt.Sprintf("%s.parent = %s.pre", a, prev))
			if c := intervalTestCond(a, s.Test, s.Axis == xpath.AxisAttribute); c != "" {
				where = append(where, c)
			}
		case xpath.AxisDescendant:
			where = append(where,
				fmt.Sprintf("%s.pre > %s.pre", a, prev),
				fmt.Sprintf("%s.pre <= %s.pre + %s.size", a, prev, prev),
			)
			if c := intervalTestCond(a, s.Test, false); c != "" {
				where = append(where, c)
			}
		case xpath.AxisParent:
			where = append(where, fmt.Sprintf("%s.pre = %s.parent", a, prev))
		default:
			return "", "", unsupported("interval", "axis "+s.Axis.String()+" inside predicates")
		}
		prev = a
	}
	if prev == cur {
		return "", "", unsupported("interval", "empty predicate path")
	}
	q := "SELECT 1 FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(where, " AND ")
	return q, prev + ".value", nil
}
