package translate

import (
	"fmt"
	"strings"

	"repro/internal/xpath"
)

// DeweyOptions parameterizes the Dewey-order translation.
type DeweyOptions struct {
	// Table is the dewey table name (default "dewey"):
	// dewey(pre, path, parent, level, kind, name, value).
	// path is the dotted, zero-padded Dewey label; parent is the
	// parent's path; lexicographic path order is document order, so
	// sibling order and position come from path, not a stored ordinal.
	Table string
}

func (o *DeweyOptions) defaults() {
	if o.Table == "" {
		o.Table = "dewey"
	}
}

// Dewey translates XPath to SQL over Dewey-order labels (Tatarinov et
// al.): ancestry is a path-prefix test, rendered as a half-open string
// range (path > p || '.' AND path < p || '/') so the B-tree on path
// serves both child and descendant steps; child adds a level equality.
func Dewey(p *xpath.Path, opt DeweyOptions) (string, error) {
	opt.defaults()
	if !p.Absolute {
		return "", unsupported("dewey", "relative paths")
	}
	if len(p.Steps) == 0 {
		return "", unsupported("dewey", "the bare document path /")
	}
	tbl := opt.Table
	var from []string
	var where []string
	cur := "" // empty = document node
	n := 0
	newAlias := func() string {
		n++
		a := fmt.Sprintf("d%d", n)
		from = append(from, tbl+" "+a)
		return a
	}

	prefixRange := func(a, parent string) {
		// Descendants of `parent` are exactly the paths in the open
		// range (parent + '.', parent + '/'): '/' is the successor of
		// '.' in ASCII.
		where = append(where,
			fmt.Sprintf("%s.path > %s.path || '.'", a, parent),
			fmt.Sprintf("%s.path < %s.path || '/'", a, parent),
		)
	}

	for _, s := range p.Steps {
		switch s.Axis {
		case xpath.AxisChild, xpath.AxisAttribute:
			a := newAlias()
			if cur == "" {
				where = append(where, fmt.Sprintf("%s.level = 1", a))
			} else {
				// Child: parent-path equality beats the range+level
				// form because the (parent, …) index is an exact probe.
				where = append(where, fmt.Sprintf("%s.parent = %s.path", a, cur))
			}
			if c := deweyTestCond(a, s.Test, s.Axis == xpath.AxisAttribute); c != "" {
				where = append(where, c)
			}
			cur = a
		case xpath.AxisDescendant:
			a := newAlias()
			if cur != "" {
				prefixRange(a, cur)
			}
			if c := deweyTestCond(a, s.Test, false); c != "" {
				where = append(where, c)
			}
			cur = a
		case xpath.AxisParent:
			if cur == "" {
				return "", unsupported("dewey", "parent of the document node")
			}
			a := newAlias()
			where = append(where, fmt.Sprintf("%s.path = %s.parent", a, cur))
			if c := deweyTestCond(a, s.Test, false); c != "" {
				where = append(where, c)
			}
			cur = a
		case xpath.AxisAncestor:
			if cur == "" {
				return "", unsupported("dewey", "ancestor of the document node")
			}
			// Ancestors are exactly the proper path prefixes (at
			// component boundaries): the reverse of the descendant
			// range.
			a := newAlias()
			where = append(where,
				fmt.Sprintf("%s.path > %s.path || '.'", cur, a),
				fmt.Sprintf("%s.path < %s.path || '/'", cur, a),
			)
			if c := deweyTestCond(a, s.Test, false); c != "" {
				where = append(where, c)
			}
			cur = a
		case xpath.AxisFollowingSibling, xpath.AxisPrecedingSibling:
			if cur == "" {
				return "", unsupported("dewey", "siblings of the document node")
			}
			a := newAlias()
			where = append(where, fmt.Sprintf("%s.parent = %s.parent", a, cur))
			if s.Axis == xpath.AxisFollowingSibling {
				where = append(where, fmt.Sprintf("%s.path > %s.path", a, cur))
			} else {
				where = append(where, fmt.Sprintf("%s.path < %s.path", a, cur))
			}
			where = append(where, fmt.Sprintf("%s.kind <> 'attr'", a))
			if c := deweyTestCond(a, s.Test, false); c != "" {
				where = append(where, c)
			}
			cur = a
		case xpath.AxisSelf:
			if cur == "" {
				return "", unsupported("dewey", "self step on the document node")
			}
			if c := deweyTestCond(cur, s.Test, false); c != "" {
				where = append(where, c)
			}
		default:
			return "", unsupported("dewey", "axis "+s.Axis.String())
		}
		for _, pe := range s.Preds {
			c, err := deweyPred(pe, cur, opt)
			if err != nil {
				return "", err
			}
			where = append(where, c)
		}
	}

	sql := "SELECT DISTINCT " + cur + ".pre AS id, " + cur + ".value AS val, " + cur + ".path AS dpath FROM " + strings.Join(from, ", ")
	if len(where) > 0 {
		sql += " WHERE " + strings.Join(where, " AND ")
	}
	// Document order is path order (pre numbers go stale after ordered
	// inserts; paths never do).
	return "SELECT id, val FROM (" + sql + ") r ORDER BY dpath", nil
}

func deweyTestCond(a string, t xpath.NodeTest, isAttr bool) string {
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

func deweyPred(e xpath.Expr, cur string, opt DeweyOptions) (string, error) {
	switch e := e.(type) {
	case *xpath.BinaryExpr:
		switch e.Op {
		case "and", "or":
			l, err := deweyPred(e.L, cur, opt)
			if err != nil {
				return "", err
			}
			r, err := deweyPred(e.R, cur, opt)
			if err != nil {
				return "", err
			}
			return "(" + l + " " + strings.ToUpper(e.Op) + " " + r + ")", nil
		default:
			return deweyComparison(e, cur, opt)
		}
	case *xpath.NumberLit:
		return deweyPosition(cur, "=", numLiteral(e.Val), opt), nil
	case *xpath.PathOperand:
		chain, _, err := deweyPredChain(e.Path, cur, opt)
		if err != nil {
			return "", err
		}
		return "EXISTS (" + chain + ")", nil
	case *xpath.FuncCall:
		switch e.Name {
		case "not":
			if len(e.Args) != 1 {
				return "", unsupported("dewey", "not() arity")
			}
			inner, err := deweyPred(e.Args[0], cur, opt)
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
				return "", unsupported("dewey", e.Name+"() arity")
			}
			lit, ok := e.Args[1].(*xpath.StringLit)
			if !ok {
				return "", unsupported("dewey", e.Name+"() with a non-literal pattern")
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
				chain, valCol, err := deweyPredChain(po.Path, cur, opt)
				if err != nil {
					return "", err
				}
				return "EXISTS (" + chain + " AND " + cond(valCol) + ")", nil
			}
			return "", unsupported("dewey", "non-path operand in string function")
		}
		return "", unsupported("dewey", e.Name+"() in a predicate")
	}
	return "", unsupported("dewey", fmt.Sprintf("predicate %T", e))
}

func deweyComparison(e *xpath.BinaryExpr, cur string, opt DeweyOptions) (string, error) {
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
			return deweyPosition(cur, op, lit, opt), nil
		case "count":
			if len(lx.Args) != 1 {
				return "", unsupported("dewey", "count() arity")
			}
			po, ok := lx.Args[0].(*xpath.PathOperand)
			if !ok {
				return "", unsupported("dewey", "count() of a non-path")
			}
			chain, _, err := deweyPredChain(po.Path, cur, opt)
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
		return "", unsupported("dewey", lx.Name+"() comparison")
	case *xpath.PathOperand:
		if len(lx.Path.Steps) == 1 && lx.Path.Steps[0].Axis == xpath.AxisSelf {
			return cur + ".value " + op + " " + lit, nil
		}
		chain, valCol, err := deweyPredChain(lx.Path, cur, opt)
		if err != nil {
			return "", err
		}
		return "EXISTS (" + chain + " AND " + valCol + " " + op + " " + lit + ")", nil
	}
	return "", unsupported("dewey", fmt.Sprintf("comparison of %T", l))
}

func deweyPosition(cur, op, lit string, opt DeweyOptions) string {
	return fmt.Sprintf(
		"(SELECT COUNT(*) FROM %s s WHERE s.parent = %s.parent AND s.kind = %s.kind AND s.name = %s.name AND s.path < %s.path) + 1 %s %s",
		opt.Table, cur, cur, cur, cur, op, lit)
}

func deweyPredChain(p *xpath.Path, cur string, opt DeweyOptions) (string, string, error) {
	if p.Absolute {
		return "", "", unsupported("dewey", "absolute paths inside predicates")
	}
	var from []string
	var where []string
	prev := cur
	for i, s := range p.Steps {
		if len(s.Preds) > 0 {
			return "", "", unsupported("dewey", "nested predicates")
		}
		a := fmt.Sprintf("%sq%d", cur, i+1)
		from = append(from, opt.Table+" "+a)
		switch s.Axis {
		case xpath.AxisChild, xpath.AxisAttribute:
			where = append(where, fmt.Sprintf("%s.parent = %s.path", a, prev))
			if c := deweyTestCond(a, s.Test, s.Axis == xpath.AxisAttribute); c != "" {
				where = append(where, c)
			}
		case xpath.AxisDescendant:
			where = append(where,
				fmt.Sprintf("%s.path > %s.path || '.'", a, prev),
				fmt.Sprintf("%s.path < %s.path || '/'", a, prev),
			)
			if c := deweyTestCond(a, s.Test, false); c != "" {
				where = append(where, c)
			}
		case xpath.AxisParent:
			where = append(where, fmt.Sprintf("%s.path = %s.parent", a, prev))
		default:
			return "", "", unsupported("dewey", "axis "+s.Axis.String()+" inside predicates")
		}
		prev = a
	}
	if prev == cur {
		return "", "", unsupported("dewey", "empty predicate path")
	}
	q := "SELECT 1 FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(where, " AND ")
	return q, prev + ".value", nil
}
