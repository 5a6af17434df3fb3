package sqldb

import (
	"strings"
	"sync"
)

// plan is a compiled, executable query.
type plan struct {
	root planNode
	cols schema // output column names exposed to the API
	// template is the normalized SQL this plan was compiled from
	// (metrics key); set by the entry points that know the source text.
	template string
	// ops is the lazily built operator-id metadata for instrumentation.
	opsOnce sync.Once
	ops     *planOps
}

// planSelect compiles a SELECT (possibly a UNION ALL chain) into a plan.
// outer is the enclosing query's schema when compiling a subquery (nil at
// the top level).
func planSelect(st *dbState, stmt *SelectStmt, outer schema) (*plan, schema, error) {
	if stmt.UnionAll == nil {
		return planSingleSelect(st, stmt, outer)
	}
	// UNION ALL chain: ORDER BY/LIMIT parsed on the last member apply to
	// the whole union.
	var parts []*SelectStmt
	for s := stmt; s != nil; s = s.UnionAll {
		parts = append(parts, s)
	}
	last := parts[len(parts)-1]
	orderBy, limit, offset := last.OrderBy, last.Limit, last.Offset
	last.OrderBy, last.Limit, last.Offset = nil, nil, nil
	defer func() { last.OrderBy, last.Limit, last.Offset = orderBy, limit, offset }()

	var nodes []planNode
	var outSch schema
	for i, part := range parts {
		p, sch, err := planSingleSelect(st, part, outer)
		if err != nil {
			return nil, nil, err
		}
		if i == 0 {
			outSch = sch
		} else if len(sch) != len(outSch) {
			return nil, nil, errorf("UNION ALL members have different column counts (%d vs %d)", len(outSch), len(sch))
		}
		nodes = append(nodes, p.root)
	}
	var root planNode = &unionAllNode{parts: nodes, schema: outSch}
	var err error
	root, err = applyOrderLimit(st, root, outSch, orderBy, limit, offset, false)
	if err != nil {
		return nil, nil, err
	}
	if outer == nil {
		root = parallelize(st, root)
	}
	return &plan{root: root, cols: outSch}, outSch, nil
}

// relation is one FROM source during planning.
type relation struct {
	alias string
	node  planNode
	tbl   *table // non-nil for base tables
	// own holds this relation's single-alias conjuncts; they are
	// consumed either by its access path or by an index-join probe.
	own []*conjunct
}

// conjunct is one AND-term of the WHERE/ON predicates.
type conjunct struct {
	expr    Expr
	aliases map[string]bool
	// refs lists every column the conjunct reads, subquery bodies
	// included: join outputs keep them until the conjunct is applied.
	refs []colRef
	// complex marks a conjunct holding a subquery. It becomes a filter
	// above the first join that binds its aliases, unless pinned to the
	// top filter (see analyzeConjunct).
	complex bool
	pinned  bool
	used    bool
}

func planSingleSelect(st *dbState, stmt *SelectStmt, outer schema) (*plan, schema, error) {
	// 1. Build the FROM relations.
	var rels []relation
	hasLeft := false
	for i := range stmt.From {
		fi := &stmt.From[i]
		rel, err := buildRelation(st, fi, outer)
		if err != nil {
			return nil, nil, err
		}
		if fi.JoinKind == "LEFT" {
			hasLeft = true
		}
		rels = append(rels, rel)
	}
	// Duplicate alias check.
	seen := map[string]bool{}
	for _, r := range rels {
		key := strings.ToLower(r.alias)
		if seen[key] {
			return nil, nil, errorf("duplicate table alias %s", r.alias)
		}
		seen[key] = true
	}

	var joined planNode
	var err error
	var topConjs []conjunct
	switch {
	case len(rels) == 0:
		joined = &valuesNode{rows: [][]Value{{}}, schema: schema{}}
		if stmt.Where != nil {
			topConjs = append(topConjs, conjunct{expr: stmt.Where, complex: true})
		}
	case hasLeft:
		joined, topConjs, err = planOrderedJoins(st, stmt, rels, outer)
	default:
		joined, topConjs, err = planReorderedJoins(st, stmt, rels, outer)
	}
	if err != nil {
		return nil, nil, err
	}

	// Top-level residual filter (pinned complex conjuncts, leftovers).
	if len(topConjs) > 0 {
		if joined, err = filterOver(st, joined, topConjs, outer); err != nil {
			return nil, nil, err
		}
	}

	inSch := joined.sch()

	// 2. Expand stars in the select list.
	items, err := expandStars(stmt.Items, inSch)
	if err != nil {
		return nil, nil, err
	}

	// 3. Aggregation.
	needAgg := len(stmt.GroupBy) > 0
	for _, it := range items {
		if hasAggregate(it.Expr) {
			needAgg = true
		}
	}
	if stmt.Having != nil {
		needAgg = true
	}
	for _, o := range stmt.OrderBy {
		if hasAggregate(o.Expr) {
			needAgg = true
		}
	}

	var projExprs []Expr // final projection expressions (over inSch or agg output)
	var projInput planNode
	var projInSch schema
	var orderExprs []Expr // order-by expressions in the projection input space
	if needAgg {
		projInput, projInSch, projExprs, orderExprs, err = planAggregation(st, stmt, items, joined, inSch, outer)
		if err != nil {
			return nil, nil, err
		}
	} else {
		projInput, projInSch = joined, inSch
		for _, it := range items {
			projExprs = append(projExprs, it.Expr)
		}
		for _, o := range stmt.OrderBy {
			orderExprs = append(orderExprs, o.Expr)
		}
	}

	// 4. Output schema naming.
	outSch := make(schema, len(items))
	for i, it := range items {
		outSch[i] = colInfo{name: outputName(it, i)}
	}

	// 5. Compile projection; ORDER BY keys that are not output columns
	// become hidden extra columns.
	comp := &compiler{st: st, sch: projInSch, outer: outer}
	var compiled []compiledExpr
	for _, e := range projExprs {
		ce, err := comp.compile(e)
		if err != nil {
			return nil, nil, err
		}
		compiled = append(compiled, ce)
	}

	type orderKey struct {
		col  int
		desc bool
	}
	var orderKeys []orderKey
	hidden := 0
	fullSch := append(schema{}, outSch...)
	for i, o := range stmt.OrderBy {
		desc := o.Desc
		// ORDER BY <ordinal>
		if lit, ok := o.Expr.(*Literal); ok && lit.Val.t == TypeInt {
			n := int(lit.Val.i())
			if n < 1 || n > len(outSch) {
				return nil, nil, errorf("ORDER BY position %d is out of range", n)
			}
			orderKeys = append(orderKeys, orderKey{col: n - 1, desc: desc})
			continue
		}
		// ORDER BY <output alias or matching expression>
		if col := matchOutput(o.Expr, items, outSch); col >= 0 {
			orderKeys = append(orderKeys, orderKey{col: col, desc: desc})
			continue
		}
		// Hidden key computed from the projection input.
		ce, err := comp.compile(orderExprs[i])
		if err != nil {
			return nil, nil, err
		}
		if stmt.Distinct {
			return nil, nil, errorf("ORDER BY expression must appear in the select list of a DISTINCT query")
		}
		compiled = append(compiled, ce)
		fullSch = append(fullSch, colInfo{name: "__order"})
		orderKeys = append(orderKeys, orderKey{col: len(fullSch) - 1, desc: desc})
		hidden++
	}

	var root planNode = &projectNode{in: projInput, exprs: compiled, schema: fullSch}

	if stmt.Distinct {
		root = &distinctNode{in: root}
	}

	if len(orderKeys) > 0 {
		keys := make([]compiledExpr, len(orderKeys))
		desc := make([]bool, len(orderKeys))
		for i, k := range orderKeys {
			col := k.col
			keys[i] = func(_ *evalCtx, row []Value) (Value, error) { return row[col], nil }
			desc[i] = k.desc
		}
		root = &sortNode{in: root, keys: keys, desc: desc}
	}
	if hidden > 0 {
		root = &cutNode{in: root, width: len(outSch), schema: outSch}
	}
	if stmt.Limit != nil || stmt.Offset != nil {
		lc := &compiler{st: st, sch: schema{}, outer: outer}
		var limitFn, offsetFn compiledExpr
		if stmt.Limit != nil {
			limitFn, err = lc.compile(stmt.Limit)
			if err != nil {
				return nil, nil, err
			}
		}
		if stmt.Offset != nil {
			offsetFn, err = lc.compile(stmt.Offset)
			if err != nil {
				return nil, nil, err
			}
		}
		root = &limitNode{in: root, limit: limitFn, offset: offsetFn}
	}
	// Top-level plans get the parallel decoration; subqueries always run
	// serially inside whichever worker evaluates them (outer != nil).
	// The pass is idempotent over already-decorated subtrees, so UNION
	// ALL members wrapped here are left alone by planSelect's own pass.
	if outer == nil {
		root = parallelize(st, root)
	}
	return &plan{root: root, cols: outSch}, outSch, nil
}

// applyOrderLimit adds sort/limit over a union.
func applyOrderLimit(st *dbState, root planNode, sch schema, orderBy []OrderItem, limit, offset Expr, _ bool) (planNode, error) {
	if len(orderBy) > 0 {
		comp := &compiler{st: st, sch: sch}
		keys := make([]compiledExpr, len(orderBy))
		desc := make([]bool, len(orderBy))
		for i, o := range orderBy {
			if lit, ok := o.Expr.(*Literal); ok && lit.Val.t == TypeInt {
				n := int(lit.Val.i())
				if n < 1 || n > len(sch) {
					return nil, errorf("ORDER BY position %d is out of range", n)
				}
				col := n - 1
				keys[i] = func(_ *evalCtx, row []Value) (Value, error) { return row[col], nil }
			} else {
				ce, err := comp.compile(o.Expr)
				if err != nil {
					return nil, err
				}
				keys[i] = ce
			}
			desc[i] = o.Desc
		}
		root = &sortNode{in: root, keys: keys, desc: desc}
	}
	if limit != nil || offset != nil {
		comp := &compiler{st: st, sch: schema{}}
		var limitFn, offsetFn compiledExpr
		var err error
		if limit != nil {
			limitFn, err = comp.compile(limit)
			if err != nil {
				return nil, err
			}
		}
		if offset != nil {
			offsetFn, err = comp.compile(offset)
			if err != nil {
				return nil, err
			}
		}
		root = &limitNode{in: root, limit: limitFn, offset: offsetFn}
	}
	return root, nil
}

// valuesNode produces fixed rows (used for FROM-less selects).
type valuesNode struct {
	rows   [][]Value
	schema schema
}

func (n *valuesNode) sch() schema      { return n.schema }
func (n *valuesNode) estRows() float64 { return float64(len(n.rows)) }
func (n *valuesNode) open(*evalCtx) (rowIter, error) {
	return &sliceIter{rows: n.rows}, nil
}

// cutNode truncates rows to the first width columns (drops hidden
// order-by keys).
type cutNode struct {
	in     planNode
	width  int
	schema schema
}

func (n *cutNode) sch() schema      { return n.schema }
func (n *cutNode) estRows() float64 { return n.in.estRows() }
func (n *cutNode) open(ctx *evalCtx) (rowIter, error) {
	in, err := openNode(ctx, n.in)
	if err != nil {
		return nil, err
	}
	return &cutIter{in: in, width: n.width}, nil
}

type cutIter struct {
	in    rowIter
	width int
}

func (it *cutIter) next() ([]Value, error) {
	row, err := it.in.next()
	if err != nil || row == nil {
		return nil, err
	}
	return row[:it.width], nil
}

func (it *cutIter) close() { it.in.close() }

// derivedNode wraps a subquery plan as a FROM source with renamed schema.
type derivedNode struct {
	p      *plan
	schema schema
	est    float64
}

func (n *derivedNode) sch() schema      { return n.schema }
func (n *derivedNode) estRows() float64 { return n.est }
func (n *derivedNode) open(ctx *evalCtx) (rowIter, error) {
	return openNode(ctx, n.p.root)
}

func buildRelation(st *dbState, fi *FromItem, outer schema) (relation, error) {
	if fi.Sub != nil {
		p, sch, err := planSelect(st, fi.Sub, outer)
		if err != nil {
			return relation{}, err
		}
		renamed := make(schema, len(sch))
		for i, c := range sch {
			renamed[i] = colInfo{alias: fi.Alias, name: c.name}
		}
		return relation{
			alias: fi.Alias,
			node:  &derivedNode{p: &plan{root: p.root, cols: renamed}, schema: renamed, est: p.root.estRows()},
		}, nil
	}
	tbl := st.table(fi.Table)
	if tbl == nil {
		return relation{}, errorf("no such table: %s", fi.Table)
	}
	alias := fi.Alias
	if alias == "" {
		alias = fi.Table
	}
	return relation{alias: alias, node: newSeqScanNode(tbl, alias), tbl: tbl}, nil
}

// splitConjuncts flattens an AND tree.
func splitConjuncts(e Expr, out []Expr) []Expr {
	if b, ok := e.(*BinaryExpr); ok && b.Op == "AND" {
		out = splitConjuncts(b.L, out)
		return splitConjuncts(b.R, out)
	}
	return append(out, e)
}

func andAll(conjs []conjunct) Expr {
	var e Expr
	for _, c := range conjs {
		if e == nil {
			e = c.expr
		} else {
			e = &BinaryExpr{Op: "AND", L: e, R: c.expr}
		}
	}
	return e
}

// filterOver wraps in with a filter applying the AND of conjs.
func filterOver(st *dbState, in planNode, conjs []conjunct, outer schema) (planNode, error) {
	pred := andAll(conjs)
	c := &compiler{st: st, sch: in.sch(), outer: outer}
	f, err := c.compile(pred)
	if err != nil {
		return nil, err
	}
	return &filterNode{in: in, pred: f, sel: 0.5}, nil
}

// analyzeConjunct determines which relation aliases a conjunct touches.
// Unqualified columns are resolved against the relation schemas; columns
// that resolve only in the outer schema contribute no alias. A conjunct
// holding a subquery is complex, and the aliases its body reads through
// correlated references count too. It is pinned to the top filter when
// those cannot be determined, or when evaluating it below a join could
// raise an error that join would have hidden.
func analyzeConjunct(st *dbState, e Expr, rels []relation) (conjunct, error) {
	c := conjunct{expr: e, aliases: map[string]bool{}, refs: addRefs(nil, e)}
	var err error
	visitExpr(e, func(e Expr) bool {
		if err != nil {
			return false // siblings are still visited; keep the first error
		}
		if r, ok := e.(*ColumnRef); ok {
			err = c.bind(r, rels)
		} else if sub := subqueryOf(e); sub != nil {
			c.complex = true
			c.pinned = c.pinned || !c.correlate(st, sub, rels)
		}
		return err == nil
	})
	c.pinned = c.pinned || (c.complex && mayRaise(e))
	return c, err
}

// bind adds the relation a column reference of this level names: a
// qualifier naming one of rels, or an unqualified name exactly one of
// them has (more than one is ambiguous). Anything else is an outer
// reference, or an error at compile time.
func (c *conjunct) bind(r *ColumnRef, rels []relation) error {
	if r.Table != "" {
		for _, rel := range rels {
			if strings.EqualFold(rel.alias, r.Table) {
				c.aliases[strings.ToLower(rel.alias)] = true
				return nil
			}
		}
		return nil
	}
	matches := 0
	var owner string
	for _, rel := range rels {
		for _, col := range rel.node.sch() {
			if strings.EqualFold(col.name, r.Name) {
				matches++
				owner = rel.alias
				break
			}
		}
	}
	if matches > 1 {
		return errorf("ambiguous column reference %s", r.Name)
	}
	if matches == 1 {
		c.aliases[strings.ToLower(owner)] = true
	}
	return nil
}

// correlate adds the aliases of rels that subquery body s reads through
// correlated references. Names resolve the way the compiler resolves
// them: against the body's own FROM first — an inner alias shadows an
// outer one — and only then against this level. It reports false when a
// reference cannot be tied to a relation (an unqualified name the body
// does not resolve) or the body's scope is not a list of base tables.
// Nested subqueries are not entered: they resolve against the body,
// never against this level.
func (c *conjunct) correlate(st *dbState, s *SelectStmt, rels []relation) bool {
	for ; s != nil; s = s.UnionAll {
		var inner schema
		ends := make([]int, len(s.From))
		leftJoin := false
		for i, f := range s.From {
			t := st.table(f.Table)
			if f.Sub != nil || t == nil {
				return false
			}
			alias := f.Alias
			if alias == "" {
				alias = f.Table
			}
			for _, col := range t.def.Columns {
				inner = append(inner, colInfo{alias: alias, name: col.Name})
			}
			ends[i] = len(inner)
			leftJoin = leftJoin || f.JoinKind == "LEFT"
		}
		ok := true
		in := func(sch schema) func(Expr) bool {
			return func(e Expr) bool {
				if r, isRef := e.(*ColumnRef); isRef {
					if _, err := sch.resolve(r.Table, r.Name); err != nil {
						if r.Table == "" {
							ok = false
						} else {
							c.bind(r, rels)
						}
					}
				}
				return ok
			}
		}
		for _, it := range s.Items {
			visitExpr(it.Expr, in(inner))
		}
		for i, f := range s.From {
			// Under LEFT JOIN each ON is compiled against the items up
			// to its own; otherwise ON terms join the WHERE conjuncts.
			onSch := inner
			if leftJoin {
				onSch = inner[:ends[i]]
			}
			visitExpr(f.On, in(onSch))
		}
		visitExpr(s.Where, in(inner))
		for _, g := range s.GroupBy {
			visitExpr(g, in(inner))
		}
		visitExpr(s.Having, in(inner))
		for _, o := range s.OrderBy {
			visitExpr(o.Expr, in(inner))
		}
		// LIMIT and OFFSET are compiled against an empty schema.
		visitExpr(s.Limit, in(nil))
		visitExpr(s.Offset, in(nil))
		if !ok {
			return false
		}
	}
	return true
}

// mayRaise reports whether evaluating e can fail on a row a later join
// would have discarded: anywhere in e, subquery bodies included, a
// scalar subquery that can return more than one row, or a LIKE whose
// ESCAPE is not a one-character literal. Such a conjunct stays in the
// top filter; EXISTS, IN (subquery) and single-aggregate scalar
// subqueries cannot fail and move down.
func mayRaise(e Expr) bool {
	raise := false
	var visit func(Expr) bool
	visit = func(e Expr) bool {
		switch e := e.(type) {
		case *SubqueryExpr:
			raise = raise || !atMostOneRow(e.Sub)
		case *LikeExpr:
			if e.Escape != nil {
				lit, isLit := e.Escape.(*Literal)
				raise = raise || !isLit || len(lit.Val.Text()) != 1
			}
		}
		if sub := subqueryOf(e); sub != nil && !raise {
			visitStmtExprs(sub, visit)
		}
		return !raise
	}
	visitExpr(e, visit)
	return raise
}

// atMostOneRow reports whether a scalar subquery can never fail with
// "returned N rows": a single aggregate item with no GROUP BY and no
// UNION ALL yields exactly one row before HAVING/LIMIT.
func atMostOneRow(s *SelectStmt) bool {
	return s.UnionAll == nil && len(s.GroupBy) == 0 && len(s.Items) == 1 &&
		!s.Items[0].Star && hasAggregate(s.Items[0].Expr)
}

// planReorderedJoins plans inner/cross joins with greedy reordering and
// index selection. Subquery conjuncts become filters right above the
// first join that binds their aliases, and every join emits only the
// columns read above it. Returns the join tree and the conjuncts that
// must be applied on top.
func planReorderedJoins(st *dbState, stmt *SelectStmt, rels []relation, outer schema) (planNode, []conjunct, error) {
	// Gather conjuncts from WHERE and inner-join ON clauses.
	var raw []Expr
	if stmt.Where != nil {
		raw = splitConjuncts(stmt.Where, nil)
	}
	for i := range stmt.From {
		if stmt.From[i].On != nil {
			raw = splitConjuncts(stmt.From[i].On, raw)
		}
	}
	var conjs, subConjs, topConjs []conjunct
	for _, e := range raw {
		c, err := analyzeConjunct(st, e, rels)
		if err != nil {
			return nil, nil, err
		}
		switch {
		case c.pinned:
			topConjs = append(topConjs, c)
		case c.complex:
			subConjs = append(subConjs, c)
		default:
			conjs = append(conjs, c)
		}
	}

	// Assign single-relation conjuncts to their relation; they are
	// consumed later, either by the relation's access path or by an
	// index-join probe.
	for i := range rels {
		for j := range conjs {
			c := &conjs[j]
			if len(c.aliases) == 1 && c.aliases[strings.ToLower(rels[i].alias)] {
				rels[i].own = append(rels[i].own, c)
			}
		}
	}

	// Zero-alias conjuncts (constants) go to the top filter.
	for j := range conjs {
		if !conjs[j].used && len(conjs[j].aliases) == 0 {
			topConjs = append(topConjs, conjs[j])
			conjs[j].used = true
		}
	}

	// Cost-based join ordering: prefer plan-time sampling (executing
	// capped candidate chains, which sees real skew and correlation);
	// fall back to the distinct-count estimate model when the query is
	// not sampleable (outer references, parameters, many relations).
	order, sampled := sampledJoinOrder(st, rels, conjs, outer)
	if !sampled {
		order = chooseJoinOrder(rels, conjs)
	}

	// placeFilters wraps cur in a filter of every subquery conjunct whose
	// aliases are all placed by now.
	placed := map[string]bool{}
	placeFilters := func(cur planNode) (planNode, error) {
		var ready []conjunct
		for i := range subConjs {
			c := &subConjs[i]
			if c.used || !aliasesPlaced(c.aliases, placed) {
				continue
			}
			c.used = true
			ready = append(ready, *c)
		}
		if len(ready) == 0 {
			return cur, nil
		}
		return filterOver(st, cur, ready, outer)
	}
	// need is the set of columns read above the join just built: the
	// statement's own clauses and every conjunct not applied yet.
	selectRefs := stmtRefs(stmt)
	need := func() colNeed {
		n := colNeed{}
		n.add(selectRefs)
		for _, cs := range [][]conjunct{conjs, subConjs, topConjs} {
			for i := range cs {
				if !cs[i].used {
					n.add(cs[i].refs)
				}
			}
		}
		return n
	}

	placed[strings.ToLower(rels[order[0]].alias)] = true
	cur, err := buildAccessPath(st, &rels[order[0]], rels[order[0]].own, outer)
	if err != nil {
		return nil, nil, err
	}
	if cur, err = placeFilters(cur); err != nil {
		return nil, nil, err
	}
	for _, next := range order[1:] {
		cross := !hasJoinLink(conjs, rels, placed, next)
		cur, err = joinRelation(st, cur, &rels[next], conjs, rels, placed, cross, outer)
		if err != nil {
			return nil, nil, err
		}
		placed[strings.ToLower(rels[next].alias)] = true
		narrowJoin(cur, need())
		if cur, err = placeFilters(cur); err != nil {
			return nil, nil, err
		}
	}

	// Any conjunct still unused (references now all placed) -> top filter.
	for j := range conjs {
		if !conjs[j].used {
			topConjs = append(topConjs, conjs[j])
		}
	}
	return cur, topConjs, nil
}

// conjSelectivity estimates the selectivity of one predicate. An
// equality on an indexed column of rel is estimated from the index's
// distinct-prefix statistic — the same figure estWithEq feeds the
// join-order model — so single-table filter estimates and join-order
// estimates agree. Range, LIKE and BETWEEN predicates keep class
// heuristics (distinct counts say nothing about value ranges), as does
// any predicate without a usable column or index (rel may be nil).
func conjSelectivity(e Expr, rel *relation) float64 {
	switch e := e.(type) {
	case *BinaryExpr:
		switch e.Op {
		case "=":
			return eqSelectivity(e, rel)
		case "<", "<=", ">", ">=":
			return 0.25
		}
	case *LikeExpr:
		return 0.15
	case *BetweenExpr:
		return 0.2
	}
	return 0.5
}

// eqSelectivity estimates an equality predicate as 1/distinct(col)
// when one side names a column of rel led by an index, else 0.05.
func eqSelectivity(e *BinaryExpr, rel *relation) float64 {
	const fallback = 0.05
	if rel == nil || rel.tbl == nil {
		return fallback
	}
	relSch := rel.node.sch()
	col := candColumn(e.L, rel, relSch)
	if col < 0 {
		col = candColumn(e.R, rel, relSch)
	}
	if col < 0 {
		return fallback
	}
	d := 0
	for _, idx := range rel.tbl.indexes {
		if idx.def.Columns[0] == col {
			if dp := idx.tree.DistinctPrefix(1); dp > d {
				d = dp
			}
		}
	}
	if d <= 0 {
		return fallback
	}
	return 1 / float64(d)
}

// eqPrefixSelectivity is the joint selectivity of l leading equality
// bounds on idx: matched rows / live rows via the distinct-prefix
// statistic.
func eqPrefixSelectivity(idx *tableIndex, l int) float64 {
	if l <= 0 {
		return 1
	}
	d := idx.tree.DistinctPrefix(l)
	if d < 1 {
		d = 1
	}
	return 1 / float64(d)
}

// hasJoinLink reports whether candidate cand connects to the placed set
// via any comparison predicate.
func hasJoinLink(conjs []conjunct, rels []relation, placed map[string]bool, cand int) bool {
	ca := strings.ToLower(rels[cand].alias)
	for i := range conjs {
		c := &conjs[i]
		if c.used || !c.aliases[ca] || len(c.aliases) < 2 {
			continue
		}
		otherPlaced := true
		for a := range c.aliases {
			if a == ca {
				continue
			}
			if !placed[a] {
				otherPlaced = false
				break
			}
		}
		if otherPlaced {
			return true
		}
	}
	return false
}

// joinBound is one candidate index-probe bound harvested from a join
// conjunct or a constant (single-relation) conjunct. For join bounds,
// expr references only placed relations; for constant bounds it is
// row-independent.
type joinBound struct {
	candCol int
	op      string // "=", "<", "<=", ">", ">="
	expr    Expr
	conj    *conjunct
	isConst bool
}

// joinRelation joins rel into cur using the best available method:
// index nested-loop (combining constant and join-key bounds, including
// a trailing range column), hash join on equi pairs, or nested loop.
func joinRelation(st *dbState, cur planNode, rel *relation, conjs []conjunct, rels []relation, placed map[string]bool, cross bool, outer schema) (planNode, error) {
	ca := strings.ToLower(rel.alias)
	relSch := rel.node.sch()
	joinedSch := append(append(schema{}, cur.sch()...), relSch...)

	// Collect applicable join conjuncts: reference rel + only placed.
	var applicable []*conjunct
	for i := range conjs {
		c := &conjs[i]
		if c.used || len(c.aliases) < 2 {
			continue
		}
		ok := true
		touchesCand := false
		for a := range c.aliases {
			if a == ca {
				touchesCand = true
				continue
			}
			if !placed[a] {
				ok = false
				break
			}
		}
		if ok && touchesCand {
			applicable = append(applicable, c)
		}
	}

	// compileResidual compiles leftover conjuncts over the joined row.
	compileResidual := func(conjs []*conjunct, consumed map[*conjunct]bool) (compiledExpr, error) {
		var exprs []conjunct
		for _, c := range conjs {
			c.used = true
			if consumed[c] {
				continue
			}
			exprs = append(exprs, *c)
		}
		if len(exprs) == 0 {
			return nil, nil
		}
		comp := &compiler{st: st, sch: joinedSch, outer: outer}
		return comp.compile(andAll(exprs))
	}

	// Harvest index-probe bounds.
	var bounds []joinBound
	for _, c := range applicable {
		b, ok := c.expr.(*BinaryExpr)
		if !ok {
			continue
		}
		switch b.Op {
		case "=", "<", "<=", ">", ">=":
		default:
			continue
		}
		if col := candColumn(b.L, rel, relSch); col >= 0 && exprAvoidsAlias(b.R, ca, rels) {
			if bt, ok := staticExprType(b.R, cur.sch()); boundTypeOK(relSch[col].typ, bt, ok) {
				bounds = append(bounds, joinBound{candCol: col, op: b.Op, expr: b.R, conj: c})
			}
		} else if col := candColumn(b.R, rel, relSch); col >= 0 && exprAvoidsAlias(b.L, ca, rels) {
			if bt, ok := staticExprType(b.L, cur.sch()); boundTypeOK(relSch[col].typ, bt, ok) {
				bounds = append(bounds, joinBound{candCol: col, op: flipOp(b.Op), expr: b.L, conj: c})
			}
		}
	}
	for _, c := range rel.own {
		if c.used {
			continue
		}
		b, ok := c.expr.(*BinaryExpr)
		if !ok {
			continue
		}
		switch b.Op {
		case "=", "<", "<=", ">", ">=":
		default:
			continue
		}
		if col := candColumn(b.L, rel, relSch); col >= 0 && isConstExprFor(b.R, rel) {
			if bt, ok := staticExprType(b.R, nil); boundTypeOK(relSch[col].typ, bt, ok) {
				bounds = append(bounds, joinBound{candCol: col, op: b.Op, expr: b.R, conj: c, isConst: true})
			}
		} else if col := candColumn(b.R, rel, relSch); col >= 0 && isConstExprFor(b.L, rel) {
			if bt, ok := staticExprType(b.L, nil); boundTypeOK(relSch[col].typ, bt, ok) {
				bounds = append(bounds, joinBound{candCol: col, op: flipOp(b.Op), expr: b.L, conj: c, isConst: true})
			}
		}
	}

	hasJoinBound := false
	for _, b := range bounds {
		if !b.isConst {
			hasJoinBound = true
			break
		}
	}

	// Index nested-loop join: pick the index with the longest bound
	// prefix (equality columns, then one range column). Only worthwhile
	// when at least one join-derived bound participates; pure-constant
	// bounds are better served by the access path below.
	if rel.tbl != nil && hasJoinBound && !cross {
		type idxChoice struct {
			idx    *tableIndex
			eq     []*joinBound
			lo, hi *joinBound
			est    float64
		}
		var best *idxChoice
		live := float64(rel.tbl.live)
		if live < 1 {
			live = 1
		}
		for _, idx := range rel.tbl.indexes {
			ch := &idxChoice{idx: idx}
			for _, ic := range idx.def.Columns {
				var eq *joinBound
				for bi := range bounds {
					if bounds[bi].candCol == ic && bounds[bi].op == "=" {
						eq = &bounds[bi]
						break
					}
				}
				if eq != nil {
					ch.eq = append(ch.eq, eq)
					continue
				}
				for bi := range bounds {
					b := &bounds[bi]
					if b.candCol != ic {
						continue
					}
					switch b.op {
					case ">", ">=":
						if ch.lo == nil {
							ch.lo = b
						}
					case "<", "<=":
						if ch.hi == nil {
							ch.hi = b
						}
					}
				}
				break
			}
			if len(ch.eq) == 0 && ch.lo == nil && ch.hi == nil {
				continue
			}
			joinBacked := false
			for _, e := range ch.eq {
				if !e.isConst {
					joinBacked = true
				}
			}
			if (ch.lo != nil && !ch.lo.isConst) || (ch.hi != nil && !ch.hi.isConst) {
				joinBacked = true
			}
			if !joinBacked {
				continue
			}
			// Estimate the per-probe match count with the index's
			// distinct-prefix statistics: a join-backed equality on a
			// near-unique column beats a constant name filter plus a
			// wide range (the dewey sibling-join case).
			d := 1
			if len(ch.eq) > 0 {
				d = ch.idx.tree.DistinctPrefix(len(ch.eq))
			}
			ch.est = live / float64(d)
			if ch.lo != nil || ch.hi != nil {
				ch.est *= 0.3
			}
			if best == nil || ch.est < best.est {
				best = ch
			}
		}
		if best != nil {
			leftComp := &compiler{st: st, sch: cur.sch(), outer: outer}
			compileBound := func(b *joinBound) (compiledExpr, error) {
				if b.isConst {
					constComp := &compiler{st: st, sch: schema{}, outer: outer}
					return constComp.compile(b.expr)
				}
				return leftComp.compile(b.expr)
			}
			node := &indexJoinNode{left: cur, tbl: rel.tbl, idx: best.idx, joinOut: fullJoinOut(joinedSch), sel: 1}
			consumed := map[*conjunct]bool{}
			for _, b := range best.eq {
				ke, err := compileBound(b)
				if err != nil {
					return nil, err
				}
				node.eq = append(node.eq, ke)
				consumed[b.conj] = true
			}
			node.sel *= eqPrefixSelectivity(best.idx, len(best.eq))
			if best.lo != nil {
				ke, err := compileBound(best.lo)
				if err != nil {
					return nil, err
				}
				node.lo = ke
				node.loIncl = best.lo.op == ">="
				node.sel *= 0.5
				consumed[best.lo.conj] = true
			}
			if best.hi != nil {
				ke, err := compileBound(best.hi)
				if err != nil {
					return nil, err
				}
				node.hi = ke
				node.hiIncl = best.hi.op == "<="
				node.sel *= 0.5
				consumed[best.hi.conj] = true
			}
			all := append(append([]*conjunct{}, applicable...), rel.own...)
			extra, err := compileResidual(all, consumed)
			if err != nil {
				return nil, err
			}
			node.extraCond = extra
			return node, nil
		}
	}

	// No index probe: build rel's access path from its own conjuncts.
	right, err := buildAccessPath(st, rel, rel.own, outer)
	if err != nil {
		return nil, err
	}

	// Hash join on all join-derived equality pairs. A known type-class
	// mismatch between the key sides would make hash equality diverge
	// from SQL's coercing comparison; such pairs stay in the residual.
	var eqPairs []*joinBound
	for bi := range bounds {
		b := &bounds[bi]
		if b.op != "=" || b.isConst {
			continue
		}
		if bt, ok := staticExprType(b.expr, cur.sch()); !boundTypeOK(relSch[b.candCol].typ, bt, ok) {
			continue
		}
		eqPairs = append(eqPairs, b)
	}
	if len(eqPairs) > 0 && !cross {
		leftComp := &compiler{st: st, sch: cur.sch(), outer: outer}
		var lkeys, rkeys []compiledExpr
		consumed := map[*conjunct]bool{}
		for _, p := range eqPairs {
			lk, err := leftComp.compile(p.expr)
			if err != nil {
				return nil, err
			}
			col := p.candCol
			lkeys = append(lkeys, lk)
			rkeys = append(rkeys, func(_ *evalCtx, row []Value) (Value, error) { return row[col], nil })
			consumed[p.conj] = true
		}
		extra, err := compileResidual(applicable, consumed)
		if err != nil {
			return nil, err
		}
		return &hashJoinNode{
			left: cur, right: right,
			leftKeys: lkeys, rightKeys: rkeys,
			extraCond: extra, joinOut: fullJoinOut(joinedSch),
		}, nil
	}

	// Nested loop with whatever conditions apply (cross join when none).
	cond, err := compileResidual(applicable, nil)
	if err != nil {
		return nil, err
	}
	return &nlJoinNode{left: cur, right: right, cond: cond, joinOut: fullJoinOut(joinedSch)}, nil
}

// aliasesPlaced reports whether every alias is in placed.
func aliasesPlaced(aliases, placed map[string]bool) bool {
	for a := range aliases {
		if !placed[a] {
			return false
		}
	}
	return true
}

// narrowJoin restricts a join's emitted row to the columns need keeps.
// Its condition was compiled against the full row and still sees it;
// everything compiled above the join resolves against the narrow one.
func narrowJoin(n planNode, need colNeed) {
	o := n.(interface{ output() *joinOut }).output()
	keep := make([]int, 0, len(o.schema))
	sch := make(schema, 0, len(o.schema))
	for i, c := range o.schema {
		if need.has(c) {
			keep = append(keep, i)
			sch = append(sch, c)
		}
	}
	if len(keep) < len(o.schema) {
		o.keep, o.schema = keep, sch
	}
}

// colRef is a column reference as written, lower-cased: table "" is an
// unqualified name, name "*" a star.
type colRef struct{ table, name string }

// colNeed is the set of columns operators above a join still read. An
// unqualified name keeps that column under every alias, so pruning can
// never turn an ambiguous reference into a resolvable one; a star keeps
// every column of its alias (unqualified: of all aliases).
type colNeed map[colRef]bool

func (n colNeed) add(refs []colRef) {
	for _, r := range refs {
		n[r] = true
	}
}

func (n colNeed) has(c colInfo) bool {
	a, name := strings.ToLower(c.alias), strings.ToLower(c.name)
	return n[colRef{"", "*"}] || n[colRef{a, "*"}] || n[colRef{"", name}] || n[colRef{a, name}]
}

// stmtRefs lists the columns a SELECT reads outside its WHERE and ON
// conjuncts: the select list, GROUP BY, HAVING and ORDER BY.
func stmtRefs(stmt *SelectStmt) []colRef {
	var refs []colRef
	for _, it := range stmt.Items {
		if it.Star {
			refs = append(refs, colRef{strings.ToLower(it.StarTable), "*"})
			continue
		}
		refs = addRefs(refs, it.Expr)
	}
	for _, g := range stmt.GroupBy {
		refs = addRefs(refs, g)
	}
	refs = addRefs(refs, stmt.Having)
	for _, o := range stmt.OrderBy {
		refs = addRefs(refs, o.Expr)
	}
	return refs
}

// addRefs appends every column reference in e, including those in
// subquery bodies whatever scope they resolve in: collecting too many
// only keeps a column that could have been dropped.
func addRefs(refs []colRef, e Expr) []colRef {
	var visit func(Expr) bool
	visit = func(e Expr) bool {
		if r, ok := e.(*ColumnRef); ok {
			refs = append(refs, colRef{strings.ToLower(r.Table), strings.ToLower(r.Name)})
		} else if sub := subqueryOf(e); sub != nil {
			visitStmtExprs(sub, visit)
		}
		return true
	}
	visitExpr(e, visit)
	return refs
}

// visitExpr calls fn on e and, while fn returns true, on its operands
// in source order. Subquery bodies are not entered: fn sees the
// subquery node (see subqueryOf) and walks the body itself if it must.
func visitExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch e := e.(type) {
	case *UnaryExpr:
		visitExpr(e.X, fn)
	case *BinaryExpr:
		visitExpr(e.L, fn)
		visitExpr(e.R, fn)
	case *LikeExpr:
		visitExpr(e.X, fn)
		visitExpr(e.Pattern, fn)
		visitExpr(e.Escape, fn)
	case *InExpr:
		visitExpr(e.X, fn)
		for _, x := range e.List {
			visitExpr(x, fn)
		}
	case *BetweenExpr:
		visitExpr(e.X, fn)
		visitExpr(e.Lo, fn)
		visitExpr(e.Hi, fn)
	case *IsNullExpr:
		visitExpr(e.X, fn)
	case *CaseExpr:
		visitExpr(e.Operand, fn)
		for _, w := range e.Whens {
			visitExpr(w.Cond, fn)
			visitExpr(w.Result, fn)
		}
		visitExpr(e.Else, fn)
	case *FuncExpr:
		for _, a := range e.Args {
			visitExpr(a, fn)
		}
	case *CastExpr:
		visitExpr(e.X, fn)
	}
}

// visitStmtExprs applies visitExpr(fn) to every expression of a SELECT:
// each UNION ALL member's select list, derived tables' bodies, ON,
// WHERE, GROUP BY, HAVING, ORDER BY, LIMIT and OFFSET.
func visitStmtExprs(s *SelectStmt, fn func(Expr) bool) {
	for ; s != nil; s = s.UnionAll {
		for _, it := range s.Items {
			visitExpr(it.Expr, fn)
		}
		for _, f := range s.From {
			if f.Sub != nil {
				visitStmtExprs(f.Sub, fn)
			}
			visitExpr(f.On, fn)
		}
		visitExpr(s.Where, fn)
		for _, g := range s.GroupBy {
			visitExpr(g, fn)
		}
		visitExpr(s.Having, fn)
		for _, o := range s.OrderBy {
			visitExpr(o.Expr, fn)
		}
		visitExpr(s.Limit, fn)
		visitExpr(s.Offset, fn)
	}
}

// subqueryOf returns the body of a subquery expression, or nil.
func subqueryOf(e Expr) *SelectStmt {
	switch e := e.(type) {
	case *ExistsExpr:
		return e.Sub
	case *InExpr:
		return e.Sub
	case *SubqueryExpr:
		return e.Sub
	}
	return nil
}

// candColumn returns the column ordinal in rel's schema if e is a
// ColumnRef naming a column of rel, else -1.
func candColumn(e Expr, rel *relation, relSch schema) int {
	cr, ok := e.(*ColumnRef)
	if !ok {
		return -1
	}
	if cr.Table != "" && !strings.EqualFold(cr.Table, rel.alias) {
		return -1
	}
	for i, c := range relSch {
		if strings.EqualFold(c.name, cr.Name) {
			return i
		}
	}
	return -1
}

// exprAvoidsAlias reports whether e references no columns of alias ca.
func exprAvoidsAlias(e Expr, ca string, rels []relation) bool {
	ok := true
	visitExpr(e, func(e Expr) bool {
		if cr, isRef := e.(*ColumnRef); isRef {
			for i := range rels {
				if strings.ToLower(rels[i].alias) == ca && refBelongsTo(cr, &rels[i]) {
					ok = false
				}
			}
		}
		return ok
	})
	return ok
}

// planOrderedJoins plans FROM items strictly in written order; used when
// LEFT JOIN is present so outer-join semantics are preserved.
func planOrderedJoins(st *dbState, stmt *SelectStmt, rels []relation, outer schema) (planNode, []conjunct, error) {
	cur := rels[0].node
	for i := 1; i < len(rels); i++ {
		fi := &stmt.From[i]
		leftOuter := fi.JoinKind == "LEFT"
		joinedSch := append(append(schema{}, cur.sch()...), rels[i].node.sch()...)
		var cond compiledExpr
		if fi.On != nil {
			comp := &compiler{st: st, sch: joinedSch, outer: outer}
			var err error
			cond, err = comp.compile(fi.On)
			if err != nil {
				return nil, nil, err
			}
		}
		cur = &nlJoinNode{left: cur, right: rels[i].node, cond: cond, leftOuter: leftOuter, joinOut: fullJoinOut(joinedSch)}
	}
	var topConjs []conjunct
	if stmt.Where != nil {
		topConjs = append(topConjs, conjunct{expr: stmt.Where, complex: true})
	}
	return cur, topConjs, nil
}

// rangeBound captures one sargable condition on a column.
type rangeBound struct {
	col   int
	op    string // "=", "<", "<=", ">", ">=", "like"
	bound Expr
	conj  *conjunct
	// forLike carries the precomputed prefix for LIKE conditions.
	likePrefix     string
	likePrefixOnly bool
}

// buildAccessPath chooses a seq scan or index scan for a base relation
// given its single-relation conjuncts, marking consumed conjuncts used.
func buildAccessPath(st *dbState, rel *relation, conjs []*conjunct, outer schema) (planNode, error) {
	relSch := rel.node.sch()
	// Keep only conjuncts not already consumed elsewhere.
	unused := conjs[:0:0]
	for _, c := range conjs {
		if !c.used {
			unused = append(unused, c)
		}
	}
	conjs = unused
	if len(conjs) == 0 {
		return rel.node, nil
	}

	if rel.tbl == nil {
		// Derived table: just wrap a filter.
		var exprs []conjunct
		sel := 1.0
		for _, c := range conjs {
			exprs = append(exprs, *c)
			sel *= conjSelectivity(c.expr, rel)
			c.used = true
		}
		comp := &compiler{st: st, sch: relSch, outer: outer}
		pred, err := comp.compile(andAll(exprs))
		if err != nil {
			return nil, err
		}
		return &filterNode{in: rel.node, pred: pred, sel: sel}, nil
	}

	// Find sargable bounds.
	var bounds []rangeBound
	for _, c := range conjs {
		switch e := c.expr.(type) {
		case *BinaryExpr:
			if e.Op != "=" && e.Op != "<" && e.Op != "<=" && e.Op != ">" && e.Op != ">=" {
				continue
			}
			if col := candColumn(e.L, rel, relSch); col >= 0 && isConstExprFor(e.R, rel) {
				if bt, ok := staticExprType(e.R, nil); boundTypeOK(relSch[col].typ, bt, ok) {
					bounds = append(bounds, rangeBound{col: col, op: e.Op, bound: e.R, conj: c})
				}
			} else if col := candColumn(e.R, rel, relSch); col >= 0 && isConstExprFor(e.L, rel) {
				if bt, ok := staticExprType(e.L, nil); boundTypeOK(relSch[col].typ, bt, ok) {
					bounds = append(bounds, rangeBound{col: col, op: flipOp(e.Op), bound: e.L, conj: c})
				}
			}
		case *LikeExpr:
			if e.Not || e.Escape != nil {
				continue
			}
			lit, ok := e.Pattern.(*Literal)
			if !ok || lit.Val.t != TypeText {
				continue
			}
			col := candColumn(e.X, rel, relSch)
			if col < 0 || !boundTypeOK(relSch[col].typ, TypeText, true) {
				continue
			}
			prefix, prefixOnly := likePrefix(lit.Val.s(), 0)
			if prefix == "" {
				continue
			}
			bounds = append(bounds, rangeBound{col: col, op: "like", bound: e.Pattern, conj: c, likePrefix: prefix, likePrefixOnly: prefixOnly})
		case *BetweenExpr:
			if e.Not {
				continue
			}
			if col := candColumn(e.X, rel, relSch); col >= 0 && isConstExprFor(e.Lo, rel) && isConstExprFor(e.Hi, rel) {
				loT, loOK := staticExprType(e.Lo, nil)
				hiT, hiOK := staticExprType(e.Hi, nil)
				if boundTypeOK(relSch[col].typ, loT, loOK) && boundTypeOK(relSch[col].typ, hiT, hiOK) {
					bounds = append(bounds, rangeBound{col: col, op: ">=", bound: e.Lo, conj: c})
					bounds = append(bounds, rangeBound{col: col, op: "<=", bound: e.Hi, conj: c})
				}
			}
		}
	}

	// Choose the index with the longest usable prefix.
	var best *choice
	for _, idx := range rel.tbl.indexes {
		ch := &choice{idx: idx}
		for _, ic := range idx.def.Columns {
			var eq *rangeBound
			for bi := range bounds {
				b := &bounds[bi]
				if b.col == ic && b.op == "=" {
					eq = b
					break
				}
			}
			if eq != nil {
				ch.eq = append(ch.eq, eq)
				ch.score += 4
				continue
			}
			// Range bounds on this column terminate the prefix.
			for bi := range bounds {
				b := &bounds[bi]
				if b.col != ic {
					continue
				}
				switch b.op {
				case ">", ">=":
					if ch.lo == nil {
						ch.lo = b
						ch.score++
					}
				case "<", "<=":
					if ch.hi == nil {
						ch.hi = b
						ch.score++
					}
				case "like":
					if ch.lo == nil && ch.hi == nil {
						ch.lo = b
						ch.hi = b
						ch.score += 2
					}
				}
			}
			break
		}
		if ch.score > 0 && (best == nil || ch.score > best.score) {
			best = ch
		}
	}

	comp := &compiler{st: st, sch: relSch, outer: outer}
	constComp := &compiler{st: st, sch: schema{}, outer: outer}

	if best == nil {
		var exprs []conjunct
		sel := 1.0
		for _, c := range conjs {
			exprs = append(exprs, *c)
			sel *= conjSelectivity(c.expr, rel)
			c.used = true
		}
		pred, err := comp.compile(andAll(exprs))
		if err != nil {
			return nil, err
		}
		scan := newSeqScanNode(rel.tbl, rel.alias)
		scan.filter = pred
		scan.sel = sel
		return scan, nil
	}

	node := &indexScanNode{
		tbl:    rel.tbl,
		idx:    best.idx,
		alias:  rel.alias,
		schema: relSch,
		sel:    1.0,
	}
	consumed := map[*conjunct]bool{}
	for _, b := range best.eq {
		ce, err := constComp.compile(b.bound)
		if err != nil {
			return nil, err
		}
		node.eq = append(node.eq, ce)
		consumed[b.conj] = true
	}
	node.sel *= eqPrefixSelectivity(best.idx, len(best.eq))
	if best.lo != nil && best.lo.op == "like" {
		// LIKE prefix range: [prefix, succ(prefix)).
		prefix := best.lo.likePrefix
		loLit := NewText(prefix)
		node.lo = func(*evalCtx, []Value) (Value, error) { return loLit, nil }
		node.loIncl = true
		if succ, ok := succString(prefix); ok {
			hiLit := NewText(succ)
			node.hi = func(*evalCtx, []Value) (Value, error) { return hiLit, nil }
			node.hiIncl = false
		}
		node.sel *= 0.1
		if best.lo.likePrefixOnly {
			consumed[best.lo.conj] = true
		}
	} else {
		if best.lo != nil {
			ce, err := constComp.compile(best.lo.bound)
			if err != nil {
				return nil, err
			}
			node.lo = ce
			node.loIncl = best.lo.op == ">="
			node.sel *= 0.5
			consumed[best.lo.conj] = true
		}
		if best.hi != nil {
			ce, err := constComp.compile(best.hi.bound)
			if err != nil {
				return nil, err
			}
			node.hi = ce
			node.hiIncl = best.hi.op == "<="
			node.sel *= 0.5
			consumed[best.hi.conj] = true
		}
	}
	// BETWEEN produces two bounds sharing one conjunct; only mark it
	// consumed if both its bounds were used. Simpler and safe: recheck.
	var residual []conjunct
	for _, c := range conjs {
		c.used = true
		if consumed[c] && !betweenNeedsRecheck(c, best) {
			continue
		}
		residual = append(residual, *c)
		node.sel *= conjSelectivity(c.expr, rel)
	}
	if len(residual) > 0 {
		pred, err := comp.compile(andAll(residual))
		if err != nil {
			return nil, err
		}
		node.filter = pred
	}
	return node, nil
}

// betweenNeedsRecheck: a BETWEEN conjunct that only got one of its two
// bounds into the index scan must still be rechecked.
func betweenNeedsRecheck(c *conjunct, ch *choice) bool {
	if _, ok := c.expr.(*BetweenExpr); !ok {
		return false
	}
	lo := ch.lo != nil && ch.lo.conj == c
	hi := ch.hi != nil && ch.hi.conj == c
	return !(lo && hi)
}

// choice is one candidate index access path considered by
// buildAccessPath.
type choice struct {
	idx    *tableIndex
	eq     []*rangeBound
	lo, hi *rangeBound
	score  int
}

func flipOp(op string) string {
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

// staticExprType infers an expression's type from declared column types.
// ok=false means unknown.
func staticExprType(e Expr, sch schema) (Type, bool) {
	switch e := e.(type) {
	case *Literal:
		if e.Val.t == TypeNull {
			return TypeNull, false
		}
		return e.Val.t, true
	case *ColumnRef:
		if sch == nil {
			return TypeNull, false
		}
		idx, err := sch.resolve(e.Table, e.Name)
		if err != nil || sch[idx].typ == TypeNull {
			return TypeNull, false
		}
		return sch[idx].typ, true
	case *UnaryExpr:
		if e.Op == "-" {
			// Numeric class, like the binary operators below: negating
			// int64's minimum yields REAL.
			if _, ok := staticExprType(e.X, sch); !ok {
				return TypeNull, false
			}
			return TypeFloat, true
		}
		return TypeBool, true
	case *BinaryExpr:
		switch e.Op {
		case "+", "-", "*", "/", "%":
			return TypeFloat, true // numeric class
		case "||":
			return TypeText, true
		case "AND", "OR", "=", "<>", "<", "<=", ">", ">=":
			return TypeBool, true
		}
	case *CastExpr:
		return e.To, true
	case *FuncExpr:
		switch e.Name {
		case "LENGTH", "INSTR":
			return TypeInt, true
		case "UPPER", "LOWER", "TRIM", "SUBSTR", "SUBSTRING", "REPLACE":
			return TypeText, true
		case "ABS", "ROUND":
			return TypeFloat, true
		}
	}
	return TypeNull, false
}

// typeClass groups types whose B-tree order agrees with SQL comparison.
func typeClass(t Type) int {
	switch t {
	case TypeInt, TypeFloat, TypeBool:
		return 1
	case TypeText:
		return 2
	case TypeBlob:
		return 3
	default:
		return 0
	}
}

// boundTypeOK reports whether an index bound of inferred type bt can be
// used against a column of declared type ct: only a known-mismatched
// class is rejected (a TEXT column probed with a numeric bound would
// scan in the wrong order; SQL's coercing comparison still applies it
// correctly as a residual filter).
func boundTypeOK(ct Type, bt Type, btKnown bool) bool {
	if !btKnown || typeClass(ct) == 0 {
		return true
	}
	return typeClass(ct) == typeClass(bt)
}

// isConstExpr reports whether e is row-independent at the current level:
// it contains no ColumnRef at all.
func isConstExpr(e Expr) bool {
	switch e := e.(type) {
	case nil:
		return true
	case *Literal, *Param, *outerRef:
		return true
	case *UnaryExpr:
		return isConstExpr(e.X)
	case *BinaryExpr:
		return isConstExpr(e.L) && isConstExpr(e.R)
	case *CastExpr:
		return isConstExpr(e.X)
	case *FuncExpr:
		for _, a := range e.Args {
			if !isConstExpr(a) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// isConstExprFor reports whether e is constant during one scan of rel:
// it references no column of rel (outer-correlated references resolve to
// ctx.outer, which is fixed per subquery execution, so they are
// legitimate index bounds — this is what makes correlated EXISTS and
// positional-count subqueries probe instead of scan).
func isConstExprFor(e Expr, rel *relation) bool {
	switch e := e.(type) {
	case nil:
		return true
	case *Literal, *Param, *outerRef:
		return true
	case *ColumnRef:
		return !refBelongsTo(e, rel)
	case *UnaryExpr:
		return isConstExprFor(e.X, rel)
	case *BinaryExpr:
		return isConstExprFor(e.L, rel) && isConstExprFor(e.R, rel)
	case *CastExpr:
		return isConstExprFor(e.X, rel)
	case *FuncExpr:
		for _, a := range e.Args {
			if !isConstExprFor(a, rel) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// refBelongsTo reports whether a column reference names a column of rel.
func refBelongsTo(cr *ColumnRef, rel *relation) bool {
	if cr.Table != "" {
		return strings.EqualFold(cr.Table, rel.alias)
	}
	for _, c := range rel.node.sch() {
		if strings.EqualFold(c.name, cr.Name) {
			return true
		}
	}
	return false
}

// succString returns the smallest string greater than every string with
// the given prefix, for LIKE-prefix range scans.
func succString(s string) (string, bool) {
	b := []byte(s)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] < 0xff {
			b[i]++
			return string(b[:i+1]), true
		}
	}
	return "", false
}

// ---------------------------------------------------------------------------
// Star expansion, output naming, aggregation planning

func expandStars(items []SelectItem, inSch schema) ([]SelectItem, error) {
	var out []SelectItem
	for _, it := range items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		n := 0
		for _, c := range inSch {
			if it.StarTable != "" && !strings.EqualFold(c.alias, it.StarTable) {
				continue
			}
			out = append(out, SelectItem{
				Expr:  &ColumnRef{Table: c.alias, Name: c.name},
				Alias: c.name,
			})
			n++
		}
		if n == 0 {
			if it.StarTable != "" {
				return nil, errorf("no such table alias %s in star expansion", it.StarTable)
			}
			return nil, errorf("SELECT * with empty FROM")
		}
	}
	return out, nil
}

func outputName(it SelectItem, i int) string {
	if it.Alias != "" {
		return it.Alias
	}
	switch e := it.Expr.(type) {
	case *ColumnRef:
		return e.Name
	case *FuncExpr:
		return strings.ToLower(e.Name)
	}
	return "col" + itoa(i+1)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	neg := i < 0
	if neg {
		i = -i
	}
	var buf [20]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	if neg {
		pos--
		buf[pos] = '-'
	}
	return string(buf[pos:])
}

// matchOutput finds an output column matching an ORDER BY expression,
// either by alias or structurally.
func matchOutput(e Expr, items []SelectItem, outSch schema) int {
	if cr, ok := e.(*ColumnRef); ok && cr.Table == "" {
		for i := range outSch {
			if strings.EqualFold(outSch[i].name, cr.Name) {
				return i
			}
		}
	}
	es := exprString(e)
	for i := range items {
		if items[i].Expr != nil && exprString(items[i].Expr) == es {
			return i
		}
	}
	return -1
}

func hasAggregate(e Expr) bool {
	found := false
	visitExpr(e, func(e Expr) bool {
		if f, ok := e.(*FuncExpr); ok && aggregateFuncs[f.Name] {
			found = true
		}
		return !found
	})
	return found
}

// aggRewriter rewrites expressions over the aggregation output: GROUP BY
// keys become inputRef{0..}, aggregate calls become inputRef{nGroup+i}.
type aggRewriter struct {
	groupKeys map[string]int // exprString -> group ordinal
	nGroup    int
	aggs      []*FuncExpr
	aggIdx    map[string]int
	inSch     schema
}

func (rw *aggRewriter) rewrite(e Expr) (Expr, error) {
	if e == nil {
		return nil, nil
	}
	if idx, ok := rw.groupKeys[strings.ToLower(exprString(e))]; ok {
		return &inputRef{idx: idx}, nil
	}
	switch e := e.(type) {
	case *Literal, *Param, *inputRef, *outerRef:
		return e, nil
	case *ColumnRef:
		// A bare column not in GROUP BY: error if it belongs to this
		// query's input; otherwise leave it for outer resolution.
		if _, err := rw.inSch.resolve(e.Table, e.Name); err == nil {
			return nil, errorf("column %s must appear in GROUP BY or inside an aggregate", refName(e.Table, e.Name))
		}
		return e, nil
	case *FuncExpr:
		if aggregateFuncs[e.Name] {
			key := exprString(e)
			idx, ok := rw.aggIdx[key]
			if !ok {
				idx = len(rw.aggs)
				rw.aggs = append(rw.aggs, e)
				rw.aggIdx[key] = idx
			}
			return &inputRef{idx: rw.nGroup + idx}, nil
		}
		out := &FuncExpr{Name: e.Name, Star: e.Star, Distinct: e.Distinct}
		for _, a := range e.Args {
			na, err := rw.rewrite(a)
			if err != nil {
				return nil, err
			}
			out.Args = append(out.Args, na)
		}
		return out, nil
	case *UnaryExpr:
		x, err := rw.rewrite(e.X)
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: e.Op, X: x}, nil
	case *BinaryExpr:
		l, err := rw.rewrite(e.L)
		if err != nil {
			return nil, err
		}
		r, err := rw.rewrite(e.R)
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: e.Op, L: l, R: r}, nil
	case *CastExpr:
		x, err := rw.rewrite(e.X)
		if err != nil {
			return nil, err
		}
		return &CastExpr{X: x, To: e.To}, nil
	case *CaseExpr:
		out := &CaseExpr{}
		var err error
		out.Operand, err = rw.rewrite(e.Operand)
		if err != nil {
			return nil, err
		}
		for _, w := range e.Whens {
			c, err := rw.rewrite(w.Cond)
			if err != nil {
				return nil, err
			}
			r, err := rw.rewrite(w.Result)
			if err != nil {
				return nil, err
			}
			out.Whens = append(out.Whens, CaseWhen{Cond: c, Result: r})
		}
		out.Else, err = rw.rewrite(e.Else)
		if err != nil {
			return nil, err
		}
		return out, nil
	case *LikeExpr:
		x, err := rw.rewrite(e.X)
		if err != nil {
			return nil, err
		}
		p, err := rw.rewrite(e.Pattern)
		if err != nil {
			return nil, err
		}
		esc, err := rw.rewrite(e.Escape)
		if err != nil {
			return nil, err
		}
		return &LikeExpr{X: x, Pattern: p, Escape: esc, Not: e.Not}, nil
	case *BetweenExpr:
		x, err := rw.rewrite(e.X)
		if err != nil {
			return nil, err
		}
		lo, err := rw.rewrite(e.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := rw.rewrite(e.Hi)
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{X: x, Lo: lo, Hi: hi, Not: e.Not}, nil
	case *IsNullExpr:
		x, err := rw.rewrite(e.X)
		if err != nil {
			return nil, err
		}
		return &IsNullExpr{X: x, Not: e.Not}, nil
	case *InExpr:
		x, err := rw.rewrite(e.X)
		if err != nil {
			return nil, err
		}
		out := &InExpr{X: x, Sub: e.Sub, Not: e.Not}
		for _, item := range e.List {
			ni, err := rw.rewrite(item)
			if err != nil {
				return nil, err
			}
			out.List = append(out.List, ni)
		}
		return out, nil
	case *ExistsExpr, *SubqueryExpr:
		return e, nil
	}
	return nil, errorf("cannot use %T in an aggregation context", e)
}

// planAggregation builds the aggregation operator and rewrites the
// select/having/order-by expressions over its output. Returns the new
// input node, its schema, and the rewritten projection and order
// expressions.
func planAggregation(st *dbState, stmt *SelectStmt, items []SelectItem, in planNode, inSch schema, outer schema) (planNode, schema, []Expr, []Expr, error) {
	rw := &aggRewriter{
		groupKeys: map[string]int{},
		nGroup:    len(stmt.GroupBy),
		aggIdx:    map[string]int{},
		inSch:     inSch,
	}
	for i, g := range stmt.GroupBy {
		rw.groupKeys[strings.ToLower(exprString(g))] = i
	}

	var projExprs []Expr
	for _, it := range items {
		ne, err := rw.rewrite(it.Expr)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		projExprs = append(projExprs, ne)
	}
	var having Expr
	if stmt.Having != nil {
		var err error
		having, err = rw.rewrite(stmt.Having)
		if err != nil {
			return nil, nil, nil, nil, err
		}
	}
	var orderExprs []Expr
	for _, o := range stmt.OrderBy {
		ne, err := rw.rewrite(o.Expr)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		orderExprs = append(orderExprs, ne)
	}

	// Compile group keys and aggregate arguments against the input.
	inComp := &compiler{st: st, sch: inSch, outer: outer}
	var groupBy []compiledExpr
	for _, g := range stmt.GroupBy {
		ce, err := inComp.compile(g)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		groupBy = append(groupBy, ce)
	}
	var specs []aggSpec
	for _, a := range rw.aggs {
		spec := aggSpec{name: a.Name, distinct: a.Distinct}
		if a.Star {
			if a.Name != "COUNT" {
				return nil, nil, nil, nil, errorf("%s(*) is not valid", a.Name)
			}
			spec.exact = true
		} else {
			if len(a.Args) != 1 {
				return nil, nil, nil, nil, errorf("%s expects exactly one argument", a.Name)
			}
			ce, err := inComp.compile(a.Args[0])
			if err != nil {
				return nil, nil, nil, nil, err
			}
			spec.arg = ce
			if !a.Distinct {
				switch a.Name {
				case "COUNT", "MIN", "MAX":
					spec.exact = true
				case "SUM", "AVG":
					// Integer sums merge exactly; float addition does
					// not associate, so float sums stay serial to keep
					// parallel results byte-identical.
					if t, ok := staticExprType(a.Args[0], inSch); ok && (t == TypeInt || t == TypeBool) {
						spec.exact = true
					}
				}
			}
		}
		specs = append(specs, spec)
	}

	aggSch := make(schema, 0, len(groupBy)+len(specs))
	for i := range groupBy {
		aggSch = append(aggSch, colInfo{name: "__g" + itoa(i)})
	}
	for i := range specs {
		aggSch = append(aggSch, colInfo{name: "__a" + itoa(i)})
	}
	node := indexMinMax(stmt, rw.aggs, in, aggSch)
	if node == nil {
		node = &aggNode{in: in, groupBy: groupBy, aggs: specs, schema: aggSch}
	}

	if having != nil {
		hComp := &compiler{st: st, sch: aggSch, outer: outer}
		pred, err := hComp.compile(having)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		node = &filterNode{in: node, pred: pred, sel: 0.5}
	}
	return node, aggSch, projExprs, orderExprs, nil
}

// indexMinMax plans the statement's only aggregate, MIN(c) or MAX(c),
// as an index probe when the statement reads one table with no WHERE,
// GROUP BY or HAVING and c leads one of the table's indexes. It returns
// nil for any other shape.
func indexMinMax(stmt *SelectStmt, aggs []*FuncExpr, in planNode, sch schema) planNode {
	scan, ok := in.(*seqScanNode)
	if !ok || stmt.Where != nil || len(stmt.GroupBy) > 0 || stmt.Having != nil || len(aggs) != 1 {
		return nil
	}
	a := aggs[0]
	if (a.Name != "MIN" && a.Name != "MAX") || a.Distinct || a.Star || len(a.Args) != 1 {
		return nil
	}
	ref, ok := a.Args[0].(*ColumnRef)
	if !ok {
		return nil
	}
	col, err := scan.schema.resolve(ref.Table, ref.Name)
	if err != nil {
		return nil
	}
	idx := scan.tbl.findIndex([]int{col})
	if idx == nil {
		return nil
	}
	return &indexMinMaxNode{tbl: scan.tbl, idx: idx, max: a.Name == "MAX", schema: sch}
}
