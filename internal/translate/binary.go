package translate

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/xpath"
)

// BinaryOptions parameterizes the Binary (attribute-partitioned)
// translation. The edge table is split by label: element edges with
// label L live in ElemTable(L), attribute edges in AttrTable(L), text
// edges in TextTable. Every partition has columns
// (source, ordinal, target, value).
type BinaryOptions struct {
	// Catalog lists the concrete label paths of the loaded documents;
	// it drives descendant-step expansion (the path index role).
	Catalog *PathCatalog
	// ElemTable maps an element label to its partition's table name
	// (empty result means the label never occurred: no rows).
	ElemTable func(label string) (string, bool)
	// AttrTable maps an attribute label to its partition.
	AttrTable func(label string) (string, bool)
	// TextTable is the text-node partition.
	TextTable string
}

// Binary translates XPath to SQL over the partitioned layout. Because a
// partition fixes the label, every step with a name test touches only
// its own (smaller) table; wildcard and descendant steps are expanded
// against the path catalog into concrete label chains.
func Binary(p *xpath.Path, opt BinaryOptions) (string, error) {
	if opt.Catalog == nil || opt.ElemTable == nil || opt.AttrTable == nil {
		return "", fmt.Errorf("translate: binary options missing catalog or table maps")
	}
	if opt.TextTable == "" {
		opt.TextTable = "bt_text"
	}
	if !p.Absolute {
		return "", unsupported("binary", "relative paths")
	}
	if len(p.Steps) == 0 {
		return "", unsupported("binary", "the bare document path /")
	}
	pat, err := patternOf(p.Steps, "binary")
	if err != nil {
		return "", err
	}
	matches := opt.Catalog.Expand(pat)
	if len(matches) == 0 {
		// No concrete path matches: an empty but valid query.
		return "SELECT 0 AS id, NULL AS val WHERE 1 = 0", nil
	}
	var parts []string
	for _, m := range matches {
		q, err := binaryChainSQL(p.Steps, m, opt)
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

// binaryTableFor resolves the partition for one path segment.
func binaryTableFor(seg string, opt BinaryOptions) (string, bool) {
	switch {
	case seg == "#text":
		return opt.TextTable, true
	case strings.HasPrefix(seg, "@"):
		return opt.AttrTable(seg[1:])
	default:
		return opt.ElemTable(seg)
	}
}

// binaryChainSQL renders one concrete label chain as a join over the
// per-label partitions. Every segment of the concrete path becomes one
// hop; predicates of the original steps attach at their matched segment.
func binaryChainSQL(steps []xpath.Step, m CatalogMatch, opt BinaryOptions) (string, error) {
	// predsAt[k] collects predicates anchored at segment k.
	predsAt := make(map[int][]xpath.Expr)
	pi := 0
	for _, s := range steps {
		if s.Test.Kind == xpath.TestWildcard && slices.ContainsFunc(s.Preds, positional) {
			// A partition holds one label: it ranks a node among its
			// same-label siblings, never among all elements.
			return "", unsupported("binary", "positional predicates on wildcard steps")
		}
		switch s.Axis {
		case xpath.AxisChild, xpath.AxisDescendant, xpath.AxisAttribute:
			seg := m.StepSeg[pi]
			predsAt[seg] = append(predsAt[seg], s.Preds...)
			pi++
		default:
			return "", unsupported("binary", "axis "+s.Axis.String())
		}
	}

	var from []string
	var where []string
	aliases := make([]string, len(m.Segments))
	for k, seg := range m.Segments {
		tbl, ok := binaryTableFor(seg, opt)
		if !ok {
			return "SELECT 0 AS id, NULL AS val WHERE 1 = 0", nil
		}
		a := fmt.Sprintf("b%d", k+1)
		aliases[k] = a
		from = append(from, tbl+" "+a)
		src := "0"
		if k > 0 {
			src = aliases[k-1] + ".target"
		}
		where = append(where, fmt.Sprintf("%s.source = %s", a, src))
	}
	for k := range m.Segments {
		for _, pe := range predsAt[k] {
			c, err := binaryPred(pe, aliases[k], m.Segments[k], opt)
			if err != nil {
				return "", err
			}
			where = append(where, c)
		}
	}
	last := aliases[len(aliases)-1]
	sql := "SELECT " + last + ".target AS id, " + last + ".value AS val FROM " + strings.Join(from, ", ")
	if len(where) > 0 {
		sql += " WHERE " + strings.Join(where, " AND ")
	}
	return sql, nil
}

// binaryPred translates one predicate anchored at alias `cur`, whose
// label is curSeg (needed to resolve child partitions).
func binaryPred(e xpath.Expr, cur, curSeg string, opt BinaryOptions) (string, error) {
	switch e := e.(type) {
	case *xpath.BinaryExpr:
		switch e.Op {
		case "and", "or":
			l, err := binaryPred(e.L, cur, curSeg, opt)
			if err != nil {
				return "", err
			}
			r, err := binaryPred(e.R, cur, curSeg, opt)
			if err != nil {
				return "", err
			}
			return "(" + l + " " + strings.ToUpper(e.Op) + " " + r + ")", nil
		default:
			return binaryComparison(e, cur, curSeg, opt)
		}
	case *xpath.NumberLit:
		// Positional within a partition: rank among same-label siblings,
		// which is the step's own node test (wildcards are refused in
		// binaryChainSQL).
		tbl, ok := binaryTableFor(curSeg, opt)
		if !ok {
			return "1 = 0", nil
		}
		return fmt.Sprintf(
			"(SELECT COUNT(*) FROM %s s WHERE s.source = %s.source AND s.ordinal < %s.ordinal) + 1 = %s",
			tbl, cur, cur, numLiteral(e.Val)), nil
	case *xpath.PathOperand:
		chain, _, err := binaryPredChain(e.Path, cur, opt)
		if err != nil {
			return "", err
		}
		return "EXISTS (" + chain + ")", nil
	case *xpath.FuncCall:
		switch e.Name {
		case "not":
			if len(e.Args) != 1 {
				return "", unsupported("binary", "not() arity")
			}
			inner, err := binaryPred(e.Args[0], cur, curSeg, opt)
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
				return "", unsupported("binary", e.Name+"() arity")
			}
			lit, ok := e.Args[1].(*xpath.StringLit)
			if !ok {
				return "", unsupported("binary", e.Name+"() with a non-literal pattern")
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
				chain, valCol, err := binaryPredChain(po.Path, cur, opt)
				if err != nil {
					return "", err
				}
				return "EXISTS (" + chain + " AND " + cond(valCol) + ")", nil
			}
			return "", unsupported("binary", "non-path operand in string function")
		}
		return "", unsupported("binary", e.Name+"() in a predicate")
	}
	return "", unsupported("binary", fmt.Sprintf("predicate %T", e))
}

func binaryComparison(e *xpath.BinaryExpr, cur, curSeg string, opt BinaryOptions) (string, error) {
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
			tbl, ok := binaryTableFor(curSeg, opt)
			if !ok {
				return "1 = 0", nil
			}
			return fmt.Sprintf(
				"(SELECT COUNT(*) FROM %s s WHERE s.source = %s.source AND s.ordinal < %s.ordinal) + 1 %s %s",
				tbl, cur, cur, op, lit), nil
		case "count":
			if len(lx.Args) != 1 {
				return "", unsupported("binary", "count() arity")
			}
			po, ok := lx.Args[0].(*xpath.PathOperand)
			if !ok {
				return "", unsupported("binary", "count() of a non-path")
			}
			chain, _, err := binaryPredChain(po.Path, cur, opt)
			if err != nil {
				return "", err
			}
			countQ := strings.Replace(chain, "SELECT 1 ", "SELECT COUNT(*) ", 1)
			return "(" + countQ + ") " + op + " " + lit, nil
		}
		return "", unsupported("binary", lx.Name+"() comparison")
	case *xpath.PathOperand:
		if len(lx.Path.Steps) == 1 && lx.Path.Steps[0].Axis == xpath.AxisSelf {
			return cur + ".value " + op + " " + lit, nil
		}
		chain, valCol, err := binaryPredChain(lx.Path, cur, opt)
		if err != nil {
			return "", err
		}
		return "EXISTS (" + chain + " AND " + valCol + " " + op + " " + lit + ")", nil
	}
	return "", unsupported("binary", fmt.Sprintf("comparison of %T", l))
}

// binaryPredChain builds the EXISTS body for a relative predicate path
// of child/attribute steps with name tests (each step knows its
// partition directly).
func binaryPredChain(p *xpath.Path, cur string, opt BinaryOptions) (string, string, error) {
	if p.Absolute {
		return "", "", unsupported("binary", "absolute paths inside predicates")
	}
	var from []string
	var where []string
	prev := cur
	for i, s := range p.Steps {
		if len(s.Preds) > 0 {
			return "", "", unsupported("binary", "nested predicates")
		}
		var tbl string
		var ok bool
		switch {
		case s.Axis == xpath.AxisChild && s.Test.Kind == xpath.TestName:
			tbl, ok = opt.ElemTable(s.Test.Name)
		case s.Axis == xpath.AxisChild && s.Test.Kind == xpath.TestText:
			tbl, ok = opt.TextTable, true
		case s.Axis == xpath.AxisAttribute && s.Test.Kind == xpath.TestName:
			tbl, ok = opt.AttrTable(s.Test.Name)
		default:
			return "", "", unsupported("binary", "predicate step "+s.Axis.String())
		}
		if !ok {
			return "SELECT 1 WHERE 1 = 0", "NULL", nil
		}
		a := fmt.Sprintf("%sp%d", cur, i+1)
		from = append(from, tbl+" "+a)
		where = append(where, fmt.Sprintf("%s.source = %s.target", a, prev))
		prev = a
	}
	if prev == cur {
		return "", "", unsupported("binary", "empty predicate path")
	}
	q := "SELECT 1 FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(where, " AND ")
	return q, prev + ".value", nil
}
