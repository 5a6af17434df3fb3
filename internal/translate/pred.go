package translate

import (
	"fmt"
	"strings"

	"repro/internal/xpath"
)

// A predicate means the same under every mapping: a comparison, an
// existence test, count(), a position, not() or contains() differ only
// in how a scheme reaches the nodes they read. compilePred renders each
// form once for Edge, Binary, Interval and Dewey; a scheme supplies the
// layout below, what its encoding decides. Universal and Inline keep
// their own predicate code: their predicates add self-joins or route
// through the DTD mapping.

// layout is one scheme's encoding as the predicate compiler sees it.
type layout interface {
	// scheme names the scheme in unsupported-construct errors.
	scheme() string
	// predPath compiles a relative predicate path from the context
	// alias cur.
	predPath(p *xpath.Path, cur string) (predPath, error)
	// siblingsBefore renders a subquery counting the context node's
	// preceding siblings that the step's node test admits (see
	// siblingTest); the node's position is one more.
	siblingsBefore(cur string, test xpath.NodeTest) string
}

// predPath is a relative predicate path compiled by a layout.
type predPath struct {
	// q is the EXISTS body, "SELECT 1 FROM … WHERE …".
	q string
	// val is the value column of the path's final step, and order the
	// column that ranks its nodes in document order (the one the
	// scheme's result ORDER BY uses).
	val, order string
}

// selecting renders the path's subquery selecting cols instead of 1.
func (pp predPath) selecting(cols string) string {
	return "SELECT " + cols + strings.TrimPrefix(pp.q, "SELECT 1")
}

// compilePred renders predicate e of a step whose node test is test, on
// the context alias cur.
func compilePred(l layout, e xpath.Expr, cur string, test xpath.NodeTest) (string, error) {
	switch e := e.(type) {
	case *xpath.BinaryExpr:
		if e.Op != "and" && e.Op != "or" {
			return compileComparison(l, e, cur, test)
		}
		lc, err := compilePred(l, e.L, cur, test)
		if err != nil {
			return "", err
		}
		rc, err := compilePred(l, e.R, cur, test)
		if err != nil {
			return "", err
		}
		return "(" + lc + " " + strings.ToUpper(e.Op) + " " + rc + ")", nil
	case *xpath.NumberLit:
		// [N] abbreviates [position() = N].
		return l.siblingsBefore(cur, test) + " + 1 = " + numLiteral(e.Val), nil
	case *xpath.PathOperand:
		pp, err := l.predPath(e.Path, cur)
		if err != nil {
			return "", err
		}
		return "EXISTS (" + pp.q + ")", nil
	case *xpath.FuncCall:
		switch e.Name {
		case "not":
			if len(e.Args) != 1 {
				return "", unsupported(l.scheme(), "not() arity")
			}
			inner, err := compilePred(l, e.Args[0], cur, test)
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
				return "", unsupported(l.scheme(), e.Name+"() arity")
			}
			lit, ok := e.Args[1].(*xpath.StringLit)
			if !ok {
				return "", unsupported(l.scheme(), e.Name+"() with a non-literal pattern")
			}
			s, err := stringValue(l, e.Args[0], cur)
			if err != nil {
				return "", err
			}
			return s + " LIKE " + QuoteString(likePattern(e.Name, lit.Val)) + ` ESCAPE '\'`, nil
		}
		return "", unsupported(l.scheme(), e.Name+"() in a predicate")
	}
	return "", unsupported(l.scheme(), fmt.Sprintf("predicate %T", e))
}

// compileComparison renders a comparison of a path, position(), count()
// or string-length() with a literal, in either order.
func compileComparison(l layout, e *xpath.BinaryExpr, cur string, test xpath.NodeTest) (string, error) {
	lhs, rhs, op := e.L, e.R, e.Op
	if isLiteral(lhs) && !isLiteral(rhs) {
		lhs, rhs, op = rhs, lhs, flipXPathOp(op)
	}
	lit, err := literalSQL(rhs)
	if err != nil {
		return "", err
	}
	if op == "!=" {
		op = "<>"
	}
	cmp := " " + op + " " + lit
	switch x := lhs.(type) {
	case *xpath.FuncCall:
		switch x.Name {
		case "position":
			return l.siblingsBefore(cur, test) + " + 1" + cmp, nil
		case "count":
			if len(x.Args) != 1 {
				return "", unsupported(l.scheme(), "count() arity")
			}
			po, ok := x.Args[0].(*xpath.PathOperand)
			if !ok {
				return "", unsupported(l.scheme(), "count() of a non-path")
			}
			pp, err := l.predPath(po.Path, cur)
			if err != nil {
				return "", err
			}
			return "(" + pp.selecting("COUNT(*)") + ")" + cmp, nil
		case "string-length":
			switch len(x.Args) {
			case 0:
				return "LENGTH(" + cur + ".value)" + cmp, nil
			case 1:
				s, err := stringValue(l, x.Args[0], cur)
				if err != nil {
					return "", err
				}
				return "LENGTH(" + s + ")" + cmp, nil
			}
			return "", unsupported(l.scheme(), "string-length() arity")
		}
		return "", unsupported(l.scheme(), x.Name+"() comparison")
	case *xpath.PathOperand:
		if isDot(x.Path) {
			return cur + ".value" + cmp, nil
		}
		pp, err := l.predPath(x.Path, cur)
		if err != nil {
			return "", err
		}
		return "EXISTS (" + pp.q + " AND " + pp.val + cmp + ")", nil
	}
	return "", unsupported(l.scheme(), fmt.Sprintf("comparison of %T", lhs))
}

// stringValue renders the string value of a string function's argument
// (XPath 1.0's string()): for "." the context node's value, for a path
// the value of its first node in document order, or the empty string
// when it selects none.
func stringValue(l layout, arg xpath.Expr, cur string) (string, error) {
	po, ok := arg.(*xpath.PathOperand)
	if !ok {
		return "", unsupported(l.scheme(), "non-path operand in string function")
	}
	if isDot(po.Path) {
		return cur + ".value", nil
	}
	pp, err := l.predPath(po.Path, cur)
	if err != nil {
		return "", err
	}
	return "COALESCE((" + pp.selecting(pp.val) + " ORDER BY " + pp.order + " LIMIT 1), '')", nil
}

// isDot reports whether p is ".", the context node itself.
func isDot(p *xpath.Path) bool {
	return !p.Absolute && len(p.Steps) == 1 && p.Steps[0].Axis == xpath.AxisSelf &&
		p.Steps[0].Test.Kind == xpath.TestNode && len(p.Steps[0].Preds) == 0
}

// testCond renders node test t on alias a of a node table with kind and
// name columns (Edge, Interval and Dewey; a Binary partition fixes the
// label instead). Name and * tests select attributes when attr is set,
// elements otherwise.
func testCond(a string, t xpath.NodeTest, attr bool) string {
	kind := "'elem'"
	if attr {
		kind = "'attr'"
	}
	switch t.Kind {
	case xpath.TestName:
		return a + ".name = " + QuoteString(t.Name) + " AND " + a + ".kind = " + kind
	case xpath.TestWildcard:
		return a + ".kind = " + kind
	case xpath.TestText:
		return a + ".kind = 'text'"
	case xpath.TestComment:
		return a + ".kind = 'comment'"
	case xpath.TestNode:
		return a + ".kind <> 'attr'"
	}
	return ""
}

// Literal operands of comparisons, shared with Universal and Inline.

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
