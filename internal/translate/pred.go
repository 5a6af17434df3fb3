package translate

import (
	"fmt"
	"strings"

	"repro/internal/xpath"
)

// A predicate means the same under every mapping: a comparison, an
// existence test, count(), a position, not() or contains() differ only
// in how a scheme reaches the nodes they read. compilePred renders each
// form once for Edge, Binary, Interval, Dewey and Inline; a scheme
// supplies the layout below, what its encoding decides. Universal keeps
// its own predicate code: its table has no index, so a correlated
// EXISTS would scan the whole table once per outer row, where its
// self-join plans as one hash join.

// layout is one scheme's encoding at one node, as the step walker
// (path.go) and the predicate compiler see it.
type layout interface {
	// scheme names the scheme in unsupported-construct errors.
	scheme() string
	// step renders hop h onto alias a from the context alias cur, ""
	// for the document node: the FROM entry, "" when h's node is on
	// cur's row, and the conditions that join it.
	step(h hop, a, cur string) (from string, conds []string)
	// test renders h's node test on alias a, or "" where the encoding
	// implies it.
	test(a string, h hop) string
	// result renders the SELECT list, id and val, of a location chain
	// that ends at hop h, adding to w the conditions it needs.
	result(h hop, w *walked) string
	// predPath compiles a relative predicate path from the context
	// alias cur.
	predPath(p *xpath.Path, cur string) (predPath, error)
	// position renders the context node's position among its siblings
	// that the step's node test admits (see siblingTest).
	position(cur string, test xpath.NodeTest) string
	// value renders the context node's own value, ".".
	value(cur string) string
}

// predPath is a relative predicate path compiled by a layout.
type predPath struct {
	// q is the EXISTS body, "SELECT 1 FROM … WHERE …", or "" when the
	// path never leaves the context row: val is then the column of the
	// row that holds the path's node, NULL where it is absent.
	q string
	// val is the value column of the path's final step, and order the
	// columns that rank its nodes in document order (the ones the
	// scheme's result ORDER BY uses).
	val, order string
}

// nodeValue is the value hook of the node tables, whose rows hold a
// node's value in their value column.
type nodeValue struct{}

func (nodeValue) value(cur string) string { return cur + ".value" }

// nodeTable adds the node-test hook of the tables with kind and name
// columns (Edge, Interval and Dewey).
type nodeTable struct{ nodeValue }

func (nodeTable) test(a string, h hop) string {
	return testCond(a, h.test, h.axis == xpath.AxisAttribute)
}

// nonePath is a path that selects nothing.
var nonePath = predPath{q: "SELECT 1 WHERE 1 = 0", val: "NULL", order: "1"}

// selecting renders the path's subquery selecting cols instead of 1.
func (pp predPath) selecting(cols string) string {
	return "SELECT " + cols + strings.TrimPrefix(pp.q, "SELECT 1")
}

// where renders the existence of a node on the path whose value
// satisfies c, a condition on pp.val. On the context row the node's
// existence is tested as well, so that under not() an absent node
// (NULL) reads as false, as the EXISTS form reads it, not as unknown.
func (pp predPath) where(c string) string {
	if pp.q == "" {
		return "(" + pp.val + " IS NOT NULL AND " + c + ")"
	}
	return "EXISTS (" + pp.q + " AND " + c + ")"
}

// exists renders the existence of a node on the path.
func (pp predPath) exists() string {
	if pp.q == "" {
		return pp.val + " IS NOT NULL"
	}
	return "EXISTS (" + pp.q + ")"
}

// count renders the number of nodes on the path.
func (pp predPath) count() string {
	if pp.q == "" {
		return "(CASE WHEN " + pp.val + " IS NULL THEN 0 ELSE 1 END)"
	}
	return "(" + pp.selecting("COUNT(*)") + ")"
}

// first renders the string value of the path's first node in document
// order, or the empty string when it selects none.
func (pp predPath) first() string {
	if pp.q == "" {
		return "COALESCE(" + pp.val + ", '')"
	}
	return "COALESCE((" + pp.selecting(pp.val) + " ORDER BY " + pp.order + " LIMIT 1), '')"
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
		return l.position(cur, test) + " = " + numLiteral(e.Val), nil
	case *xpath.PathOperand:
		pp, err := l.predPath(e.Path, cur)
		if err != nil {
			return "", err
		}
		return pp.exists(), nil
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
			arg, cond, err := like(l.scheme(), e)
			if err != nil {
				return "", err
			}
			s, err := stringValue(l, arg, cur)
			if err != nil {
				return "", err
			}
			return s + cond, nil
		}
		return "", unsupported(l.scheme(), e.Name+"() in a predicate")
	}
	return "", unsupported(l.scheme(), fmt.Sprintf("predicate %T", e))
}

// compileComparison renders a comparison of a path, position(), count()
// or string-length() with a literal, in either order.
func compileComparison(l layout, e *xpath.BinaryExpr, cur string, test xpath.NodeTest) (string, error) {
	lhs, cmp, err := comparison(l.scheme(), e)
	if err != nil {
		return "", err
	}
	switch x := lhs.(type) {
	case *xpath.FuncCall:
		switch x.Name {
		case "position":
			return l.position(cur, test) + cmp, nil
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
			return pp.count() + cmp, nil
		case "string-length":
			switch len(x.Args) {
			case 0:
				return "LENGTH(" + l.value(cur) + ")" + cmp, nil
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
			return l.value(cur) + cmp, nil
		}
		pp, err := l.predPath(x.Path, cur)
		if err != nil {
			return "", err
		}
		return pp.where(pp.val + cmp), nil
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
		return l.value(cur), nil
	}
	pp, err := l.predPath(po.Path, cur)
	if err != nil {
		return "", err
	}
	return pp.first(), nil
}

// isDot reports whether p is ".", the context node itself.
func isDot(p *xpath.Path) bool {
	return !p.Absolute && len(p.Steps) == 1 && p.Steps[0].Axis == xpath.AxisSelf &&
		p.Steps[0].Test.Kind == xpath.TestNode && len(p.Steps[0].Preds) == 0
}

// testCond renders node test t on alias a of a node table with kind and
// name columns (Edge, Interval and Dewey; a Binary partition and an
// Inline column fix the label instead). Name and * tests select attributes when attr is set,
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

// flipOp mirrors a comparison operator, for swapped operands.
var flipOp = strings.NewReplacer("<", ">", ">", "<")

// comparison splits a comparison with a literal, in either order, into
// its other operand and the SQL " op literal" that operand is to pass
// (shared with Universal).
func comparison(scheme string, e *xpath.BinaryExpr) (xpath.Expr, string, error) {
	lhs, rhs, op := e.L, e.R, e.Op
	switch lhs.(type) {
	case *xpath.StringLit, *xpath.NumberLit:
		lhs, rhs, op = rhs, lhs, flipOp.Replace(op)
	}
	if op == "!=" {
		op = "<>"
	}
	switch r := rhs.(type) {
	case *xpath.StringLit:
		return lhs, " " + op + " " + QuoteString(r.Val), nil
	case *xpath.NumberLit:
		return lhs, " " + op + " " + numLiteral(r.Val), nil
	}
	return nil, "", unsupported(scheme, "comparisons without a literal operand")
}
