package sqldb

import (
	"context"
	"fmt"
	"strings"
)

// colInfo describes one column of an intermediate result. typ is the
// declared type when known (TypeNull = unknown, e.g. derived columns);
// the planner uses it to reject index bounds whose ordering would
// disagree with SQL's coercing comparisons.
type colInfo struct {
	alias string // table alias ("" for derived columns)
	name  string // column name
	typ   Type
}

type schema []colInfo

// resolve finds the column (table, name) in s. An empty table matches any
// alias; ambiguity is an error.
func (s schema) resolve(table, name string) (int, error) {
	found := -1
	for i, c := range s {
		if table != "" && !strings.EqualFold(c.alias, table) {
			continue
		}
		if !strings.EqualFold(c.name, name) {
			continue
		}
		if found >= 0 {
			return 0, errorf("ambiguous column reference %s", refName(table, name))
		}
		found = i
	}
	if found < 0 {
		return 0, errorf("unknown column %s", refName(table, name))
	}
	return found, nil
}

func refName(table, name string) string {
	if table == "" {
		return name
	}
	return table + "." + name
}

// evalCtx carries per-execution state: the pinned database snapshot the
// query runs against, bound parameters, and the current outer row for
// correlated subqueries.
type evalCtx struct {
	// snap is the immutable dbState the execution reads. For ordinary
	// queries it is the published state pinned at query start; for reads
	// inside a writer statement (INSERT ... SELECT, UPDATE set
	// expressions) it is the writer's pending state.
	snap *dbState
	// qctx carries cancellation/deadline; executor chokepoints poll it
	// (see statIter.next and materialize).
	qctx   context.Context
	params []Value
	outer  []Value
	// stats collects per-operator counters when non-nil (see metrics.go).
	stats *runStats
	// morsel, when non-nil, restricts the scan of exactly one
	// seqScanNode (matched by pointer) to a rowid range; set by gather
	// workers so each worker processes its claimed morsel (parallel.go).
	morsel *morselRange
	// shared caches join build sides across the morsel re-opens of one
	// parallel segment; nil outside gather workers (parallel.go).
	shared *sharedBuilds
	// mem is the query's memory accountant; nil when no budget is
	// configured. Inherited by gather workers and subquery executions
	// so every allocation anywhere in the query charges one ledger
	// (see governor.go).
	mem *memAccountant
}

// compiledExpr evaluates an expression against a row.
type compiledExpr func(ctx *evalCtx, row []Value) (Value, error)

// inputRef is an internal expression that reads a column by position.
// The planner's aggregate rewriting produces these.
type inputRef struct{ idx int }

func (*inputRef) expr() {}

// outerRef reads a column of the outer (correlated) row.
type outerRef struct{ idx int }

func (*outerRef) expr() {}

// compiler compiles expressions against a schema; outer is the enclosing
// query's schema when compiling a correlated subquery. st is the
// database state the compilation (and any subquery planning) sees.
type compiler struct {
	st    *dbState
	sch   schema
	outer schema
}

func (c *compiler) compile(e Expr) (compiledExpr, error) {
	switch e := e.(type) {
	case *Literal:
		v := e.Val
		return func(*evalCtx, []Value) (Value, error) { return v, nil }, nil
	case *Param:
		idx := e.Idx
		return func(ctx *evalCtx, _ []Value) (Value, error) {
			if idx >= len(ctx.params) {
				return Null, errorf("missing value for parameter %d", idx+1)
			}
			return ctx.params[idx], nil
		}, nil
	case *inputRef:
		idx := e.idx
		return func(_ *evalCtx, row []Value) (Value, error) { return row[idx], nil }, nil
	case *outerRef:
		idx := e.idx
		return func(ctx *evalCtx, _ []Value) (Value, error) {
			if idx >= len(ctx.outer) {
				return Null, errorf("correlated reference outside outer row")
			}
			return ctx.outer[idx], nil
		}, nil
	case *ColumnRef:
		idx, err := c.sch.resolve(e.Table, e.Name)
		if err == nil {
			return func(_ *evalCtx, row []Value) (Value, error) { return row[idx], nil }, nil
		}
		if c.outer != nil {
			if oidx, oerr := c.outer.resolve(e.Table, e.Name); oerr == nil {
				name := refName(e.Table, e.Name)
				return func(ctx *evalCtx, _ []Value) (Value, error) {
					if oidx >= len(ctx.outer) {
						return Null, errorf("correlated reference %s evaluated without an outer row", name)
					}
					return ctx.outer[oidx], nil
				}, nil
			}
		}
		return nil, err
	case *UnaryExpr:
		x, err := c.compile(e.X)
		if err != nil {
			return nil, err
		}
		switch e.Op {
		case "-":
			return func(ctx *evalCtx, row []Value) (Value, error) {
				v, err := x(ctx, row)
				if err != nil {
					return Null, err
				}
				return negValue(v), nil
			}, nil
		case "NOT":
			return func(ctx *evalCtx, row []Value) (Value, error) {
				v, err := x(ctx, row)
				if err != nil {
					return Null, err
				}
				if v.IsNull() {
					return Null, nil
				}
				return NewBool(!v.Bool()), nil
			}, nil
		}
		return nil, errorf("unknown unary operator %s", e.Op)
	case *BinaryExpr:
		return c.compileBinary(e)
	case *LikeExpr:
		return c.compileLike(e)
	case *InExpr:
		return c.compileIn(e)
	case *ExistsExpr:
		return c.compileExists(e)
	case *BetweenExpr:
		x, err := c.compile(e.X)
		if err != nil {
			return nil, err
		}
		lo, err := c.compile(e.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := c.compile(e.Hi)
		if err != nil {
			return nil, err
		}
		not := e.Not
		return func(ctx *evalCtx, row []Value) (Value, error) {
			xv, err := x(ctx, row)
			if err != nil {
				return Null, err
			}
			lov, err := lo(ctx, row)
			if err != nil {
				return Null, err
			}
			hiv, err := hi(ctx, row)
			if err != nil {
				return Null, err
			}
			c1, ok1 := compareSQL(xv, lov)
			c2, ok2 := compareSQL(xv, hiv)
			if !ok1 || !ok2 {
				return Null, nil
			}
			res := c1 >= 0 && c2 <= 0
			if not {
				res = !res
			}
			return NewBool(res), nil
		}, nil
	case *IsNullExpr:
		x, err := c.compile(e.X)
		if err != nil {
			return nil, err
		}
		not := e.Not
		return func(ctx *evalCtx, row []Value) (Value, error) {
			v, err := x(ctx, row)
			if err != nil {
				return Null, err
			}
			return NewBool(v.IsNull() != not), nil
		}, nil
	case *CaseExpr:
		return c.compileCase(e)
	case *CastExpr:
		x, err := c.compile(e.X)
		if err != nil {
			return nil, err
		}
		to := e.To
		return func(ctx *evalCtx, row []Value) (Value, error) {
			v, err := x(ctx, row)
			if err != nil {
				return Null, err
			}
			return coerceTo(v, to), nil
		}, nil
	case *FuncExpr:
		return c.compileFunc(e)
	case *SubqueryExpr:
		return c.compileScalarSub(e.Sub)
	}
	return nil, errorf("unsupported expression %T", e)
}

func (c *compiler) compileBinary(e *BinaryExpr) (compiledExpr, error) {
	l, err := c.compile(e.L)
	if err != nil {
		return nil, err
	}
	r, err := c.compile(e.R)
	if err != nil {
		return nil, err
	}
	switch e.Op {
	case "AND":
		return func(ctx *evalCtx, row []Value) (Value, error) {
			lv, err := l(ctx, row)
			if err != nil {
				return Null, err
			}
			// Short-circuit: false AND x = false even if x errors/NULL.
			if !lv.IsNull() && !lv.Bool() {
				return NewBool(false), nil
			}
			rv, err := r(ctx, row)
			if err != nil {
				return Null, err
			}
			if !rv.IsNull() && !rv.Bool() {
				return NewBool(false), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return Null, nil
			}
			return NewBool(true), nil
		}, nil
	case "OR":
		return func(ctx *evalCtx, row []Value) (Value, error) {
			lv, err := l(ctx, row)
			if err != nil {
				return Null, err
			}
			if !lv.IsNull() && lv.Bool() {
				return NewBool(true), nil
			}
			rv, err := r(ctx, row)
			if err != nil {
				return Null, err
			}
			if !rv.IsNull() && rv.Bool() {
				return NewBool(true), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return Null, nil
			}
			return NewBool(false), nil
		}, nil
	case "=", "<>", "<", "<=", ">", ">=":
		op := e.Op
		return func(ctx *evalCtx, row []Value) (Value, error) {
			lv, err := l(ctx, row)
			if err != nil {
				return Null, err
			}
			rv, err := r(ctx, row)
			if err != nil {
				return Null, err
			}
			cmp, ok := compareSQL(lv, rv)
			if !ok {
				return Null, nil
			}
			var res bool
			switch op {
			case "=":
				res = cmp == 0
			case "<>":
				res = cmp != 0
			case "<":
				res = cmp < 0
			case "<=":
				res = cmp <= 0
			case ">":
				res = cmp > 0
			case ">=":
				res = cmp >= 0
			}
			return NewBool(res), nil
		}, nil
	case "+", "-", "*", "/", "%":
		op := e.Op
		return func(ctx *evalCtx, row []Value) (Value, error) {
			lv, err := l(ctx, row)
			if err != nil {
				return Null, err
			}
			rv, err := r(ctx, row)
			if err != nil {
				return Null, err
			}
			switch op {
			case "+":
				return addValues(lv, rv), nil
			case "-":
				return subValues(lv, rv), nil
			case "*":
				return mulValues(lv, rv), nil
			case "/":
				return divValues(lv, rv), nil
			default:
				return modValues(lv, rv), nil
			}
		}, nil
	case "||":
		return func(ctx *evalCtx, row []Value) (Value, error) {
			lv, err := l(ctx, row)
			if err != nil {
				return Null, err
			}
			rv, err := r(ctx, row)
			if err != nil {
				return Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return Null, nil
			}
			return NewText(lv.Text() + rv.Text()), nil
		}, nil
	}
	return nil, errorf("unknown binary operator %s", e.Op)
}

func (c *compiler) compileLike(e *LikeExpr) (compiledExpr, error) {
	x, err := c.compile(e.X)
	if err != nil {
		return nil, err
	}
	pat, err := c.compile(e.Pattern)
	if err != nil {
		return nil, err
	}
	var escFn compiledExpr
	if e.Escape != nil {
		escFn, err = c.compile(e.Escape)
		if err != nil {
			return nil, err
		}
	}
	not := e.Not
	return func(ctx *evalCtx, row []Value) (Value, error) {
		xv, err := x(ctx, row)
		if err != nil {
			return Null, err
		}
		pv, err := pat(ctx, row)
		if err != nil {
			return Null, err
		}
		if xv.IsNull() || pv.IsNull() {
			return Null, nil
		}
		var esc byte
		if escFn != nil {
			ev, err := escFn(ctx, row)
			if err != nil {
				return Null, err
			}
			s := ev.Text()
			if len(s) != 1 {
				return Null, errorf("ESCAPE must be a single character")
			}
			esc = s[0]
		}
		res := likeMatch(xv.Text(), pv.Text(), esc)
		if not {
			res = !res
		}
		return NewBool(res), nil
	}, nil
}

func (c *compiler) compileIn(e *InExpr) (compiledExpr, error) {
	x, err := c.compile(e.X)
	if err != nil {
		return nil, err
	}
	not := e.Not
	if e.Sub != nil {
		subPlan, subSch, err := planSelect(c.st, e.Sub, c.sch)
		if err != nil {
			return nil, err
		}
		if len(subSch) != 1 {
			return nil, errorf("IN subquery must return exactly one column")
		}
		return func(ctx *evalCtx, row []Value) (Value, error) {
			xv, err := x(ctx, row)
			if err != nil {
				return Null, err
			}
			if xv.IsNull() {
				return Null, nil
			}
			rows, err := runSubquery(ctx, subPlan, row)
			if err != nil {
				return Null, err
			}
			sawNull := false
			for _, r := range rows {
				if r[0].IsNull() {
					sawNull = true
					continue
				}
				if cmp, ok := compareSQL(xv, r[0]); ok && cmp == 0 {
					return NewBool(!not), nil
				}
			}
			if sawNull {
				return Null, nil
			}
			return NewBool(not), nil
		}, nil
	}
	items := make([]compiledExpr, len(e.List))
	for i, le := range e.List {
		items[i], err = c.compile(le)
		if err != nil {
			return nil, err
		}
	}
	return func(ctx *evalCtx, row []Value) (Value, error) {
		xv, err := x(ctx, row)
		if err != nil {
			return Null, err
		}
		if xv.IsNull() {
			return Null, nil
		}
		sawNull := false
		for _, it := range items {
			iv, err := it(ctx, row)
			if err != nil {
				return Null, err
			}
			if iv.IsNull() {
				sawNull = true
				continue
			}
			if cmp, ok := compareSQL(xv, iv); ok && cmp == 0 {
				return NewBool(!not), nil
			}
		}
		if sawNull {
			return Null, nil
		}
		return NewBool(not), nil
	}, nil
}

func (c *compiler) compileExists(e *ExistsExpr) (compiledExpr, error) {
	subPlan, _, err := planSelect(c.st, e.Sub, c.sch)
	if err != nil {
		return nil, err
	}
	not := e.Not
	return func(ctx *evalCtx, row []Value) (Value, error) {
		found, err := subqueryHasRow(ctx, subPlan, row)
		if err != nil {
			return Null, err
		}
		return NewBool(found != not), nil
	}, nil
}

func (c *compiler) compileScalarSub(sub *SelectStmt) (compiledExpr, error) {
	subPlan, subSch, err := planSelect(c.st, sub, c.sch)
	if err != nil {
		return nil, err
	}
	if len(subSch) != 1 {
		return nil, errorf("scalar subquery must return exactly one column")
	}
	return func(ctx *evalCtx, row []Value) (Value, error) {
		rows, err := runSubquery(ctx, subPlan, row)
		if err != nil {
			return Null, err
		}
		switch len(rows) {
		case 0:
			return Null, nil
		case 1:
			return rows[0][0], nil
		default:
			return Null, errorf("scalar subquery returned %d rows", len(rows))
		}
	}, nil
}

func (c *compiler) compileCase(e *CaseExpr) (compiledExpr, error) {
	var operand compiledExpr
	var err error
	if e.Operand != nil {
		operand, err = c.compile(e.Operand)
		if err != nil {
			return nil, err
		}
	}
	type arm struct{ cond, result compiledExpr }
	arms := make([]arm, len(e.Whens))
	for i, w := range e.Whens {
		arms[i].cond, err = c.compile(w.Cond)
		if err != nil {
			return nil, err
		}
		arms[i].result, err = c.compile(w.Result)
		if err != nil {
			return nil, err
		}
	}
	var elseFn compiledExpr
	if e.Else != nil {
		elseFn, err = c.compile(e.Else)
		if err != nil {
			return nil, err
		}
	}
	return func(ctx *evalCtx, row []Value) (Value, error) {
		var opv Value
		if operand != nil {
			var err error
			opv, err = operand(ctx, row)
			if err != nil {
				return Null, err
			}
		}
		for _, a := range arms {
			cv, err := a.cond(ctx, row)
			if err != nil {
				return Null, err
			}
			matched := false
			if operand != nil {
				if cmp, ok := compareSQL(opv, cv); ok && cmp == 0 {
					matched = true
				}
			} else {
				matched = !cv.IsNull() && cv.Bool()
			}
			if matched {
				return a.result(ctx, row)
			}
		}
		if elseFn != nil {
			return elseFn(ctx, row)
		}
		return Null, nil
	}, nil
}

// aggregateFuncs are handled by the aggregation operator, never here.
var aggregateFuncs = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

func (c *compiler) compileFunc(e *FuncExpr) (compiledExpr, error) {
	if aggregateFuncs[e.Name] {
		return nil, errorf("aggregate %s used outside of aggregation context", e.Name)
	}
	args := make([]compiledExpr, len(e.Args))
	var err error
	for i, a := range e.Args {
		args[i], err = c.compile(a)
		if err != nil {
			return nil, err
		}
	}
	evalArgs := func(ctx *evalCtx, row []Value) ([]Value, error) {
		vals := make([]Value, len(args))
		for i, a := range args {
			vals[i], err = a(ctx, row)
			if err != nil {
				return nil, err
			}
		}
		return vals, nil
	}
	need := func(n int) error {
		if len(args) != n {
			return errorf("%s expects %d argument(s), got %d", e.Name, n, len(args))
		}
		return nil
	}
	switch e.Name {
	case "LENGTH":
		if err := need(1); err != nil {
			return nil, err
		}
		return func(ctx *evalCtx, row []Value) (Value, error) {
			v, err := evalArgs(ctx, row)
			if err != nil {
				return Null, err
			}
			if v[0].IsNull() {
				return Null, nil
			}
			return NewInt(int64(len(v[0].Text()))), nil
		}, nil
	case "UPPER", "LOWER":
		if err := need(1); err != nil {
			return nil, err
		}
		up := e.Name == "UPPER"
		return func(ctx *evalCtx, row []Value) (Value, error) {
			v, err := evalArgs(ctx, row)
			if err != nil {
				return Null, err
			}
			if v[0].IsNull() {
				return Null, nil
			}
			if up {
				return NewText(strings.ToUpper(v[0].Text())), nil
			}
			return NewText(strings.ToLower(v[0].Text())), nil
		}, nil
	case "TRIM":
		if err := need(1); err != nil {
			return nil, err
		}
		return func(ctx *evalCtx, row []Value) (Value, error) {
			v, err := evalArgs(ctx, row)
			if err != nil {
				return Null, err
			}
			if v[0].IsNull() {
				return Null, nil
			}
			return NewText(strings.TrimSpace(v[0].Text())), nil
		}, nil
	case "ABS":
		if err := need(1); err != nil {
			return nil, err
		}
		return func(ctx *evalCtx, row []Value) (Value, error) {
			v, err := evalArgs(ctx, row)
			if err != nil {
				return Null, err
			}
			switch v[0].t {
			case TypeNull:
				return Null, nil
			case TypeFloat:
				f := v[0].f()
				if f < 0 {
					f = -f
				}
				return NewFloat(f), nil
			default:
				i := v[0].Int()
				if i < 0 {
					i = -i
				}
				return NewInt(i), nil
			}
		}, nil
	case "SUBSTR", "SUBSTRING":
		if len(args) != 2 && len(args) != 3 {
			return nil, errorf("SUBSTR expects 2 or 3 arguments")
		}
		return func(ctx *evalCtx, row []Value) (Value, error) {
			v, err := evalArgs(ctx, row)
			if err != nil {
				return Null, err
			}
			if v[0].IsNull() {
				return Null, nil
			}
			s := v[0].Text()
			start := int(v[1].Int()) // 1-based
			if start < 1 {
				start = 1
			}
			if start > len(s)+1 {
				return NewText(""), nil
			}
			rest := s[start-1:]
			if len(v) == 3 {
				n := int(v[2].Int())
				if n < 0 {
					n = 0
				}
				if n < len(rest) {
					rest = rest[:n]
				}
			}
			return NewText(rest), nil
		}, nil
	case "REPLACE":
		if err := need(3); err != nil {
			return nil, err
		}
		return func(ctx *evalCtx, row []Value) (Value, error) {
			v, err := evalArgs(ctx, row)
			if err != nil {
				return Null, err
			}
			if v[0].IsNull() {
				return Null, nil
			}
			return NewText(strings.ReplaceAll(v[0].Text(), v[1].Text(), v[2].Text())), nil
		}, nil
	case "INSTR":
		if err := need(2); err != nil {
			return nil, err
		}
		return func(ctx *evalCtx, row []Value) (Value, error) {
			v, err := evalArgs(ctx, row)
			if err != nil {
				return Null, err
			}
			if v[0].IsNull() || v[1].IsNull() {
				return Null, nil
			}
			return NewInt(int64(strings.Index(v[0].Text(), v[1].Text()) + 1)), nil
		}, nil
	case "COALESCE":
		if len(args) == 0 {
			return nil, errorf("COALESCE expects at least one argument")
		}
		fns := args
		return func(ctx *evalCtx, row []Value) (Value, error) {
			for _, f := range fns {
				v, err := f(ctx, row)
				if err != nil {
					return Null, err
				}
				if !v.IsNull() {
					return v, nil
				}
			}
			return Null, nil
		}, nil
	case "IFNULL":
		if err := need(2); err != nil {
			return nil, err
		}
		return func(ctx *evalCtx, row []Value) (Value, error) {
			v, err := args[0](ctx, row)
			if err != nil {
				return Null, err
			}
			if !v.IsNull() {
				return v, nil
			}
			return args[1](ctx, row)
		}, nil
	case "NULLIF":
		if err := need(2); err != nil {
			return nil, err
		}
		return func(ctx *evalCtx, row []Value) (Value, error) {
			v, err := evalArgs(ctx, row)
			if err != nil {
				return Null, err
			}
			if cmp, ok := compareSQL(v[0], v[1]); ok && cmp == 0 {
				return Null, nil
			}
			return v[0], nil
		}, nil
	case "ROUND":
		if len(args) != 1 && len(args) != 2 {
			return nil, errorf("ROUND expects 1 or 2 arguments")
		}
		return func(ctx *evalCtx, row []Value) (Value, error) {
			v, err := evalArgs(ctx, row)
			if err != nil {
				return Null, err
			}
			if v[0].IsNull() {
				return Null, nil
			}
			digits := 0
			if len(v) == 2 {
				digits = int(v[1].Int())
			}
			return NewFloat(roundTo(v[0].Float(), digits)), nil
		}, nil
	}
	return nil, errorf("unknown function %s", e.Name)
}

func roundTo(f float64, digits int) float64 {
	scale := 1.0
	for i := 0; i < digits; i++ {
		scale *= 10
	}
	for i := 0; i > digits; i-- {
		scale /= 10
	}
	v := f * scale
	if v < 0 {
		return float64(int64(v-0.5)) / scale
	}
	return float64(int64(v+0.5)) / scale
}

// exprString renders an expression canonically so the planner can match
// GROUP BY keys against select-list expressions structurally.
func exprString(e Expr) string {
	switch e := e.(type) {
	case *Literal:
		return e.Val.String()
	case *Param:
		return fmt.Sprintf("?%d", e.Idx)
	case *inputRef:
		return fmt.Sprintf("#%d", e.idx)
	case *outerRef:
		return fmt.Sprintf("^%d", e.idx)
	case *ColumnRef:
		return strings.ToLower(refName(e.Table, e.Name))
	case *UnaryExpr:
		return "(" + e.Op + " " + exprString(e.X) + ")"
	case *BinaryExpr:
		return "(" + exprString(e.L) + " " + e.Op + " " + exprString(e.R) + ")"
	case *LikeExpr:
		s := "(" + exprString(e.X) + " LIKE " + exprString(e.Pattern)
		if e.Escape != nil {
			s += " ESCAPE " + exprString(e.Escape)
		}
		if e.Not {
			s = "(NOT " + s + "))"
		} else {
			s += ")"
		}
		return s
	case *InExpr:
		var parts []string
		for _, x := range e.List {
			parts = append(parts, exprString(x))
		}
		return fmt.Sprintf("(%s IN [%s] not=%v sub=%p)", exprString(e.X), strings.Join(parts, ","), e.Not, e.Sub)
	case *ExistsExpr:
		return fmt.Sprintf("(EXISTS %p not=%v)", e.Sub, e.Not)
	case *BetweenExpr:
		return fmt.Sprintf("(%s BETWEEN %s AND %s not=%v)", exprString(e.X), exprString(e.Lo), exprString(e.Hi), e.Not)
	case *IsNullExpr:
		return fmt.Sprintf("(%s IS NULL not=%v)", exprString(e.X), e.Not)
	case *CaseExpr:
		var b strings.Builder
		b.WriteString("(CASE ")
		if e.Operand != nil {
			b.WriteString(exprString(e.Operand))
		}
		for _, w := range e.Whens {
			b.WriteString(" WHEN " + exprString(w.Cond) + " THEN " + exprString(w.Result))
		}
		if e.Else != nil {
			b.WriteString(" ELSE " + exprString(e.Else))
		}
		b.WriteString(" END)")
		return b.String()
	case *FuncExpr:
		var parts []string
		for _, a := range e.Args {
			parts = append(parts, exprString(a))
		}
		star := ""
		if e.Star {
			star = "*"
		}
		distinct := ""
		if e.Distinct {
			distinct = "DISTINCT "
		}
		return e.Name + "(" + distinct + star + strings.Join(parts, ",") + ")"
	case *CastExpr:
		return "CAST(" + exprString(e.X) + " AS " + e.To.String() + ")"
	case *SubqueryExpr:
		return fmt.Sprintf("(SUB %p)", e.Sub)
	}
	return fmt.Sprintf("%T", e)
}
