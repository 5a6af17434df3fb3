package translate

import (
	"fmt"
	"strings"

	"repro/internal/xpath"
)

// UniversalOptions parameterizes the Universal-table translation.
//
// The universal table is the classic strawman: one denormalized
// relation with a pair of columns per label (id_<l>, val_<l>) and one
// row per leaf node, carrying the ids/values of every node on the
// root-to-leaf path. Simple path queries become single-table column
// conjunctions; the price is massive redundancy (experiment T1) and
// awkward branching predicates (self-joins below).
type UniversalOptions struct {
	Catalog *PathCatalog
	// Column maps a path segment ("person", "@id", "#text") to the
	// sanitized column suffix; labels never seen return false.
	Column func(seg string) (string, bool)
}

// Universal translates XPath to SQL over the universal table.
func Universal(p *xpath.Path, opt UniversalOptions) (string, error) {
	if opt.Catalog == nil || opt.Column == nil {
		return "", fmt.Errorf("translate: universal options missing catalog or column map")
	}
	return compilePath(universalLayout{opt}, p)
}

// universalLayout is the universal table. Its chains are not walked:
// every hop is a column of one row, u0, and predicates are self-joins
// that add rows (see pred.go's header).
type universalLayout struct{ opt UniversalOptions }

func (universalLayout) scheme() string { return "universal" }

func (l universalLayout) expand(steps []xpath.Step) ([][]hop, error) {
	return l.opt.Catalog.chains(steps, "universal", nil)
}

// inOrder keeps a lone chain DISTINCT too: a node's id repeats on the
// row of every leaf below it.
func (universalLayout) inOrder() (string, string) {
	return "SELECT DISTINCT id, val FROM (", ") u ORDER BY id"
}

func universalCol(seg, kind string, opt UniversalOptions) (string, bool) {
	suffix, ok := opt.Column(seg)
	if !ok {
		return "", false
	}
	return kind + "_" + suffix, true
}

// chain renders one concrete label chain: non-null checks for every
// segment's id column, predicates via value columns or self-joins.
func (l universalLayout) chain(c []hop, pre, post string) (string, error) {
	u := "u0"
	var where []string
	for _, h := range c {
		idCol, ok := universalCol(h.label, "id", l.opt)
		if !ok {
			return pre + emptyQuery + post, nil
		}
		where = append(where, fmt.Sprintf("%s.%s IS NOT NULL", u, QuoteIdent(idCol)))
	}
	joins := []string{"universal " + u}
	joinN := 0
	for _, h := range c {
		for _, pe := range h.preds {
			cond, extraJoin, err := universalPred(pe, u, h.label, &joinN, l.opt)
			if err != nil {
				return "", err
			}
			joins = append(joins, extraJoin...)
			where = append(where, cond)
		}
	}
	lastSeg := c[len(c)-1].label
	idCol, _ := universalCol(lastSeg, "id", l.opt)
	valCol, ok := universalCol(lastSeg, "val", l.opt)
	if !ok {
		valCol = idCol
	}
	head := fmt.Sprintf("SELECT %s.%s AS id, %s.%s AS val ", u, QuoteIdent(idCol), u, QuoteIdent(valCol))
	return walked{from: joins, where: where}.render(pre, head, post), nil
}

// universalPred translates a predicate anchored at the element whose
// label is anchorSeg on row alias u. Predicates over sibling branches
// need a self-join: another universal row sharing the anchor's id.
func universalPred(e xpath.Expr, u, anchorSeg string, joinN *int, opt UniversalOptions) (string, []string, error) {
	switch e := e.(type) {
	case *xpath.BinaryExpr:
		switch e.Op {
		case "and", "or":
			l, jl, err := universalPred(e.L, u, anchorSeg, joinN, opt)
			if err != nil {
				return "", nil, err
			}
			r, jr, err := universalPred(e.R, u, anchorSeg, joinN, opt)
			if err != nil {
				return "", nil, err
			}
			if e.Op == "or" && (len(jl) > 0 || len(jr) > 0) {
				// A disjunct with its own join would wrongly constrain
				// the other branch.
				return "", nil, unsupported("universal", "or over branching predicates")
			}
			return "(" + l + " " + strings.ToUpper(e.Op) + " " + r + ")", append(jl, jr...), nil
		default:
			return universalComparison(e, u, anchorSeg, joinN, opt)
		}
	case *xpath.PathOperand:
		t, err := universalPredTarget(e.Path, u, anchorSeg, joinN, opt)
		if err != nil {
			return "", nil, err
		}
		return t.cond, t.join, nil
	case *xpath.FuncCall:
		switch e.Name {
		case "not":
			if len(e.Args) != 1 {
				return "", nil, unsupported("universal", "not() arity")
			}
			inner, joins, err := universalPred(e.Args[0], u, anchorSeg, joinN, opt)
			if err != nil {
				return "", nil, err
			}
			if len(joins) > 0 {
				return "", nil, unsupported("universal", "not() over branching predicates")
			}
			return "NOT (" + inner + ")", nil, nil
		case "true":
			return "1 = 1", nil, nil
		case "false":
			return "1 = 0", nil, nil
		case "contains", "starts-with":
			arg, cond, err := like("universal", e)
			if err != nil {
				return "", nil, err
			}
			po, ok := arg.(*xpath.PathOperand)
			if !ok {
				return "", nil, unsupported("universal", "non-path operand in string function")
			}
			t, err := universalPredTarget(po.Path, u, anchorSeg, joinN, opt)
			if err != nil {
				return "", nil, err
			}
			return t.first() + cond, nil, nil
		}
		return "", nil, unsupported("universal", e.Name+"() in a predicate")
	case *xpath.NumberLit:
		return "", nil, unsupported("universal", "positional predicates (no order columns)")
	}
	return "", nil, unsupported("universal", fmt.Sprintf("predicate %T", e))
}

func universalComparison(e *xpath.BinaryExpr, u, anchorSeg string, joinN *int, opt UniversalOptions) (string, []string, error) {
	l, cmp, err := comparison("universal", e)
	if err != nil {
		return "", nil, err
	}
	po, ok := l.(*xpath.PathOperand)
	if !ok {
		return "", nil, unsupported("universal", fmt.Sprintf("comparison of %T", l))
	}
	t, err := universalPredTarget(po.Path, u, anchorSeg, joinN, opt)
	if err != nil {
		return "", nil, err
	}
	return "(" + t.cond + " AND " + t.val + cmp + ")", t.join, nil
}

// universalTarget is a relative predicate path resolved on a self-joined
// universal row: another leaf row sharing the anchor element's id, as
// the sibling branch lives in a different leaf row.
type universalTarget struct {
	// cond puts the row on the path, join is the row's FROM entry (none
	// when the path cannot match), and val and id are the value and id
	// columns of the path's final step on the row.
	cond    string
	join    []string
	val, id string
}

// first renders the string value of the path's first node in document
// order (ids are pre-order ranks), or the empty string when it selects
// none: the operand of a string function.
func (t universalTarget) first() string {
	if len(t.join) == 0 {
		return "''"
	}
	return "COALESCE((SELECT " + t.val + " FROM " + t.join[0] + " WHERE " + t.cond + " ORDER BY " + t.id + " LIMIT 1), '')"
}

// universalPredTarget resolves a relative predicate path on a new
// self-joined row.
func universalPredTarget(p *xpath.Path, u, anchorSeg string, joinN *int, opt UniversalOptions) (universalTarget, error) {
	none := universalTarget{cond: "1 = 0", val: "NULL"}
	if err := predSteps("universal", p); err != nil {
		return none, err
	}
	anchorID, ok := universalCol(anchorSeg, "id", opt)
	if !ok {
		return none, nil
	}
	*joinN++
	v := fmt.Sprintf("v%d", *joinN)
	join := []string{"universal " + v}
	conds := []string{fmt.Sprintf("%s.%s = %s.%s", v, QuoteIdent(anchorID), u, QuoteIdent(anchorID))}
	var lastSeg string
	for _, s := range p.Steps {
		seg, err := predLabel("universal", s)
		if err != nil {
			return none, err
		}
		idCol, ok := universalCol(seg, "id", opt)
		if !ok {
			return none, nil
		}
		conds = append(conds, fmt.Sprintf("%s.%s IS NOT NULL", v, QuoteIdent(idCol)))
		lastSeg = seg
	}
	t := universalTarget{cond: strings.Join(conds, " AND "), join: join, val: "NULL"}
	idCol, _ := universalCol(lastSeg, "id", opt)
	t.id = v + "." + QuoteIdent(idCol)
	if valCol, ok := universalCol(lastSeg, "val", opt); ok {
		t.val = v + "." + QuoteIdent(valCol)
	}
	return t, nil
}
