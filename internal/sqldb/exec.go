package sqldb

import (
	"math"
	"slices"
	"sort"
	"strconv"
	"unsafe"
)

// rowIter is the Volcano-style iterator every physical operator
// implements. next returns (nil, nil) at end of stream. rewind restarts
// the stream from its beginning, reading the evaluation context afresh
// — above all the current outer row of a correlated subquery — so one
// iterator tree serves every execution of a subquery body (see
// evalCtx.subquery). close releases the page pins the iterator holds;
// a closed iterator can still be rewound.
//
// A row next returns is valid until the iterator's next call to next
// (or rewind): a scan decodes each row into scratch it owns (see
// pageFrame.row), and a projection or a join builds its output in one
// reused row. The values in it stay valid, since a TEXT or BLOB points
// at stored bytes, but the slice does not. So materialize, which copies
// every row it keeps, is the one place rows are held past next: a
// sort's input, a hash join's build side, a nested-loop join's inner
// side and a query's result (Rows.Data) are all materialized. Every
// other operator passes its input's row on (filter, limit, distinct,
// union, cut), builds a new row from it (project, joins), or folds it
// into values (aggregates, subqueries); a join holds its left row
// while it reads the right side, and calls its left input's next only
// once it is done with it.
type rowIter interface {
	next() ([]Value, error)
	rewind() error
	close()
}

// planNode is a physical operator in a compiled plan. Opening a node
// yields a fresh iterator; a node can be opened multiple times (e.g. the
// build side of a join each time the join is rewound).
type planNode interface {
	sch() schema
	open(ctx *evalCtx) (rowIter, error)
	// estRows is the planner's cardinality estimate, used for join
	// ordering. It is heuristic, not statistical.
	estRows() float64
}

// resolveTable maps a plan-time table pointer to the version the
// running snapshot sees. Plans capture *table pointers at planning
// time; with versioned storage every DML publishes a fresh version, so
// scans re-resolve by catalog key when they open. The schema-epoch
// validation on cached and prepared plans guarantees the key still
// denotes the same relation (same definition), so the fallback to the
// plan-time version is only reachable when snap IS the planning state.
func (ctx *evalCtx) resolveTable(t *table) *table {
	if cur := ctx.snap.tables[t.key]; cur != nil {
		return cur
	}
	return t
}

// resolveIndex finds idx's counterpart inside the resolved table
// version t (index identity is the definition name).
func resolveIndex(t *table, idx *tableIndex) *tableIndex {
	if cur := t.index(idx.def.Name); cur != nil {
		return cur
	}
	return idx
}

// canceled polls the execution context for cancellation, deadline
// expiry, or a tripped memory budget. Chokepoints (statIter.next,
// materialize) call it on a coarse stride so the hot path stays cheap;
// a budget overrun anywhere in the query is observed at the next
// chokepoint, so the whole query unwinds and releases its
// partially-built state.
func (ctx *evalCtx) canceled() error {
	if err := ctx.mem.err(); err != nil {
		return err
	}
	if ctx.qctx == nil {
		return nil
	}
	select {
	case <-ctx.qctx.Done():
		return ctx.qctx.Err()
	default:
		return nil
	}
}

// ---------------------------------------------------------------------------
// Sequential scan

type seqScanNode struct {
	tbl    *table
	alias  string
	schema schema
	// filter is the residual predicate pushed into the scan (may be nil).
	filter compiledExpr
	// sel is the estimated selectivity of filter.
	sel float64
}

func newSeqScanNode(tbl *table, alias string) *seqScanNode {
	s := make(schema, len(tbl.def.Columns))
	for i, c := range tbl.def.Columns {
		s[i] = colInfo{alias: alias, name: c.Name, typ: c.Type}
	}
	return &seqScanNode{tbl: tbl, alias: alias, schema: s, sel: 1}
}

func (n *seqScanNode) sch() schema { return n.schema }

func (n *seqScanNode) estRows() float64 { return float64(n.tbl.live)*n.sel + 1 }

func (n *seqScanNode) open(ctx *evalCtx) (rowIter, error) {
	it := &seqScanIter{node: n, ctx: ctx}
	return it, it.rewind()
}

func (it *seqScanIter) rewind() error {
	it.tbl = it.ctx.resolveTable(it.node.tbl)
	it.pos, it.end = 0, it.tbl.slotCount()
	return nil
}

type seqScanIter struct {
	node    *seqScanNode
	ctx     *evalCtx
	tbl     *table
	pos     int64
	end     int64
	ref     pageRef
	scratch []Value // the row next returns (see pageFrame.row)
}

func (it *seqScanIter) next() ([]Value, error) {
	for it.pos < it.end {
		row := it.tbl.rowRef(it.pos, &it.ref, &it.scratch)
		it.pos++
		if row == nil {
			continue
		}
		if it.node.filter != nil {
			v, err := it.node.filter(it.ctx, row)
			if err != nil {
				return nil, err
			}
			if v.IsNull() || !v.Bool() {
				continue
			}
		}
		return row, nil
	}
	return nil, nil
}

func (it *seqScanIter) close() { it.ref.release() }

// ---------------------------------------------------------------------------
// Index scan

// indexProbe is an index range: equality bounds on the leading key
// columns, then an optional lower and/or upper bound on the next one.
// The bounds are evaluated against a row — the left row of an index
// join, nil for an index scan, whose bounds are row-independent
// (literals, params, outer refs).
type indexProbe struct {
	eq             []compiledExpr
	lo, hi         compiledExpr
	loIncl, hiIncl bool
}

// probeBuf holds the encoded bounds an iterator reuses across probes.
// Both start out in the inline arrays, so a probe allocates nothing
// unless its bounds outgrow them.
type probeBuf struct {
	lo, hi       []byte
	loArr, hiArr [keyScratch]byte
}

// keyBound ends an index range: the cursor stops at the first key whose
// leading len(key) bytes sort after key (incl) or at-or-after it
// (!incl). An empty key never stops.
type keyBound struct {
	key  string
	incl bool
	// run is the leaf passed last looked at, and rest, c and decided are
	// its cutBound of key: the leaf's keys are compared by suffix alone,
	// or not at all when its prefix decides. No write changes the tree
	// while a range is walked, so the cut holds for the whole leaf.
	run     *packedKeys
	rest    string
	c       int
	decided bool
}

// next returns the rowid of the entry the cursor stands on and steps
// past it; ok is false when the cursor is exhausted or the entry's key
// lies past the bound.
func (b *keyBound) next(c *btreeCursor) (rid int64, ok bool) {
	if len(c.frames) == 0 {
		return 0, false
	}
	top := &c.frames[len(c.frames)-1]
	run, i := &top.node.keys, top.pos
	if b.passed(run, i) {
		return 0, false
	}
	if top.pos++; top.pos == run.len() {
		c.skipEmpty()
	}
	return run.rid(i), true
}

// passed reports whether key i of the leaf run lies past the bound.
func (b *keyBound) passed(run *packedKeys, i int) bool {
	if b.key == "" {
		return false
	}
	if run != b.run {
		b.run = run
		b.rest, b.c, b.decided = run.cutBound(b.key)
	}
	cmp := b.c
	if !b.decided {
		cmp = prefixCompare(run.suf(i), b.rest)
	}
	if b.incl {
		return cmp > 0
	}
	return cmp >= 0
}

// firstPassed returns the first position at or after from in run whose
// key lies past the bound, run.len() when there is none. Keys past the
// bound form a suffix of any run; the position sought is usually a few
// keys on (a handful of siblings), so it gallops — from, from+1,
// from+3, … — and bisects the last step, as packedKeys.firstAbove does.
func (b *keyBound) firstPassed(run *packedKeys, from int) int {
	lo, hi, step := from, from, 1
	for hi < run.len() && !b.passed(run, hi) {
		lo = hi + 1
		hi += step
		step *= 2
	}
	hi = min(hi, run.len())
	return lo + sort.Search(hi-lo, func(i int) bool { return b.passed(run, lo+i) })
}

// prefix returns how many entries of n's subtree, from its first, lie
// before the bound: the children left of the first separator past it
// whole, then the same count inside the child that separator opens.
func (b *keyBound) prefix(n *btreeNode) int {
	c := 0
	for !n.leaf {
		s := b.firstPassed(&n.keys, 0)
		for _, k := range n.counts[:s] {
			c += k
		}
		n = n.children[s]
	}
	return c + b.firstPassed(&n.keys, 0)
}

// seek evaluates the probe against row and positions cur at the first
// entry of the range in tree, leaving it past the end when a bound is
// NULL, which matches nothing in SQL. The returned bound points into
// buf and stays valid until the next seek; a descent from the root is
// counted in stat (nil: not instrumented).
func (p *indexProbe) seek(ctx *evalCtx, row []Value, tree *btree, buf *probeBuf, cur *probeCursor, stat *OpStats) (keyBound, error) {
	if buf.lo == nil {
		buf.lo, buf.hi = buf.loArr[:0], buf.hiArr[:0]
	}
	r, err := p.bounds(ctx, row, buf.lo, buf.hi)
	buf.lo, buf.hi = r.lo, r.hi
	if r.empty || err != nil {
		cur.frames = cur.frames[:0]
		return r.stop(), err
	}
	if cur.seek(tree, keyView(r.lo), r.after) && stat != nil {
		stat.Descents++
	}
	return r.stop(), nil
}

// count returns how many index entries the probe's range holds in
// tree, from the inner nodes and the two boundary leaves alone; the
// planner counts constant bounds with it. The bounds are encoded into
// arrays on the stack: bounds takes and returns its buffers by value,
// as a buffer stored through a pointer would move to the heap.
func (p *indexProbe) count(ctx *evalCtx, tree *btree) (int, error) {
	var lo, hi [keyScratch]byte
	r, err := p.bounds(ctx, nil, lo[:0], hi[:0])
	if r.empty || err != nil {
		return 0, err
	}
	return tree.countRange(keyView(r.lo), r.after, r.stop()), nil
}

// probeRange is the index range a probe's bounds give, encoded into the
// caller's buffers lo and hi, which it keeps for its next probe. The
// range starts at the first key whose prefix compares to lo by at least
// after (0: >=, 1: >) and ends at stop; empty reports a NULL bound,
// which matches nothing.
type probeRange struct {
	lo, hi      []byte
	after       int
	incl, empty bool
}

// stop returns the range's end: the first key past the keys hi prefixes
// (incl) or the first of them; an empty hi never stops.
func (r *probeRange) stop() keyBound { return keyBound{key: keyView(r.hi), incl: r.incl} }

// bounds evaluates the probe against row, encoding its bounds into lo
// and hi.
func (p *indexProbe) bounds(ctx *evalCtx, row []Value, lo, hi []byte) (r probeRange, err error) {
	r.lo, r.hi = lo[:0], hi[:0]
	for _, e := range p.eq {
		v, err := e(ctx, row)
		if err != nil {
			return r, err
		}
		if v.IsNull() {
			// Equality with NULL matches nothing in SQL.
			r.empty = true
			return r, nil
		}
		r.lo = appendKeyValue(r.lo, v)
	}
	r.hi, r.incl = append(r.hi, r.lo...), true
	switch {
	case p.lo != nil:
		v, err := p.lo(ctx, row)
		if err != nil {
			return r, err
		}
		if v.IsNull() {
			r.empty = true
			return r, nil
		}
		r.lo = appendKeyValue(r.lo, v)
		if !p.loIncl {
			r.after = 1
		}
	case p.hi != nil:
		// Upper-bound-only range: NULL keys sort first in the index but
		// never satisfy a SQL comparison, so start after the NULL run.
		r.lo = append(r.lo, keyNull)
		r.after = 1
	}
	if p.hi != nil {
		v, err := p.hi(ctx, row)
		if err != nil {
			return r, err
		}
		if v.IsNull() {
			r.empty = true
			return r, nil
		}
		r.hi, r.incl = appendKeyValue(r.hi, v), p.hiIncl
	}
	return r, nil
}

// indexScanNode scans an index range; its probe is evaluated when the
// iterator opens.
type indexScanNode struct {
	tbl    *table
	idx    *tableIndex
	alias  string
	schema schema
	indexProbe
	filter compiledExpr
	sel    float64
}

func (n *indexScanNode) sch() schema { return n.schema }

func (n *indexScanNode) estRows() float64 { return float64(n.tbl.live)*n.sel + 1 }

func (n *indexScanNode) open(ctx *evalCtx) (rowIter, error) {
	it := &indexScanIter{node: n, ctx: ctx, stat: ctx.opStat(n)}
	if err := it.rewind(); err != nil {
		return nil, err
	}
	return it, nil
}

// indexScanIter keeps its probe cursor across rewinds, so a subquery
// body's index scan resumes from where the previous outer row's probe
// landed (see probeCursor).
type indexScanIter struct {
	node    *indexScanNode
	ctx     *evalCtx
	tbl     *table
	cur     probeCursor
	stop    keyBound
	buf     probeBuf
	ref     pageRef
	scratch []Value
	stat    *OpStats
}

func (it *indexScanIter) rewind() error {
	it.tbl = it.ctx.resolveTable(it.node.tbl)
	var err error
	it.stop, err = it.node.seek(it.ctx, nil, resolveIndex(it.tbl, it.node.idx).tree, &it.buf, &it.cur, it.stat)
	return err
}

func (it *indexScanIter) next() ([]Value, error) {
	for {
		rid, ok := it.stop.next(&it.cur.btreeCursor)
		if !ok {
			return nil, nil
		}
		row := it.tbl.rowRef(rid, &it.ref, &it.scratch)
		if row == nil {
			continue
		}
		if it.node.filter != nil {
			v, err := it.node.filter(it.ctx, row)
			if err != nil {
				return nil, err
			}
			if v.IsNull() || !v.Bool() {
				continue
			}
		}
		return row, nil
	}
}

func (it *indexScanIter) close() { it.ref.release() }

// ---------------------------------------------------------------------------
// Filter

type filterNode struct {
	in   planNode
	pred compiledExpr
	sel  float64
	subs []*plan // the subqueries pred evaluates, for EXPLAIN
}

func (n *filterNode) sch() schema      { return n.in.sch() }
func (n *filterNode) estRows() float64 { return n.in.estRows()*n.sel + 1 }

func (n *filterNode) open(ctx *evalCtx) (rowIter, error) {
	in, err := openNode(ctx, n.in)
	if err != nil {
		return nil, err
	}
	return &filterIter{in: in, pred: n.pred, ctx: ctx}, nil
}

type filterIter struct {
	in   rowIter
	pred compiledExpr
	ctx  *evalCtx
}

func (it *filterIter) next() ([]Value, error) {
	for {
		row, err := it.in.next()
		if err != nil || row == nil {
			return nil, err
		}
		v, err := it.pred(it.ctx, row)
		if err != nil {
			return nil, err
		}
		if !v.IsNull() && v.Bool() {
			return row, nil
		}
	}
}

func (it *filterIter) rewind() error { return it.in.rewind() }
func (it *filterIter) close()        { it.in.close() }

// ---------------------------------------------------------------------------
// Projection

type projectNode struct {
	in     planNode
	exprs  []compiledExpr
	schema schema
}

func (n *projectNode) sch() schema      { return n.schema }
func (n *projectNode) estRows() float64 { return n.in.estRows() }

func (n *projectNode) open(ctx *evalCtx) (rowIter, error) {
	in, err := openNode(ctx, n.in)
	if err != nil {
		return nil, err
	}
	// make, not nil: a nil row ends a row iterator's stream.
	return &projectIter{in: in, node: n, ctx: ctx, out: make([]Value, len(n.exprs))}, nil
}

type projectIter struct {
	in   rowIter
	node *projectNode
	ctx  *evalCtx
	out  []Value // the row next returns
}

func (it *projectIter) next() ([]Value, error) {
	row, err := it.in.next()
	if err != nil || row == nil {
		return nil, err
	}
	for i, e := range it.node.exprs {
		it.out[i], err = e(it.ctx, row)
		if err != nil {
			return nil, err
		}
	}
	return it.out, nil
}

func (it *projectIter) rewind() error { return it.in.rewind() }

func (it *projectIter) close() { it.in.close() }

// ---------------------------------------------------------------------------
// Join output rows

// joinOut is the output side of a join operator. A join evaluates its
// condition over the full left++right row (width columns) and emits only
// keep, the columns an operator above it still reads (nil keeps all);
// schema describes the emitted row, so everything compiled above the
// join resolves against the narrow row (see narrowJoin in plan.go).
type joinOut struct {
	schema schema
	keep   []int
	width  int
}

func fullJoinOut(s schema) joinOut { return joinOut{schema: s, width: len(s)} }

func (o *joinOut) sch() schema      { return o.schema }
func (o *joinOut) output() *joinOut { return o }

// cols renders the output width for EXPLAIN: emitted/full columns.
func (o *joinOut) cols() string { return "cols=" + itoa(len(o.schema)) + "/" + itoa(o.width) }

// joinBuf builds one join iterator's output rows. A condition over both
// sides (cond) is tested on a reused full-width scratch row — the left
// columns copied once per left row, the right ones once per candidate;
// without one there is no scratch row and nothing is copied to test.
// Only a candidate that passes is emitted, into one reused output row
// holding just the kept columns, read from the left row and the
// candidate directly.
type joinBuf struct {
	out   *joinOut
	cond  compiledExpr
	row   []Value // scratch for cond; nil without one
	left  []Value
	lw    int
	nulls []Value // the right side of a padded row
	res   []Value // the row emit returns
}

func newJoinBuf(out *joinOut, left planNode, cond compiledExpr) joinBuf {
	w := out.width
	if out.keep != nil {
		w = len(out.keep)
	}
	b := joinBuf{out: out, cond: cond, lw: len(left.sch()), res: make([]Value, w)}
	if cond != nil {
		b.row = make([]Value, out.width)
	}
	return b
}

func (b *joinBuf) setLeft(l []Value) {
	b.left = l
	if b.row != nil {
		copy(b.row[:b.lw], l)
	}
}

// test reports whether the condition (nil = always) holds for the
// current left row joined with r.
func (b *joinBuf) test(ctx *evalCtx, r []Value) (bool, error) {
	if b.cond == nil {
		return true, nil
	}
	copy(b.row[b.lw:], r)
	v, err := b.cond(ctx, b.row)
	if err != nil {
		return false, err
	}
	return !v.IsNull() && v.Bool(), nil
}

// emit builds the output row of the current left row joined with r.
func (b *joinBuf) emit(r []Value) []Value {
	out := b.res
	keep := b.out.keep
	if keep == nil {
		copy(out, b.left)
		copy(out[b.lw:], r)
		return out
	}
	for i, c := range keep {
		if c < b.lw {
			out[i] = b.left[c]
		} else {
			out[i] = r[c-b.lw]
		}
	}
	return out
}

// pad emits the current left row with a NULL right side (left outer
// join, no match).
func (b *joinBuf) pad() []Value {
	if b.nulls == nil {
		b.nulls = make([]Value, b.out.width-b.lw)
	}
	return b.emit(b.nulls)
}

// rewind forgets the left row.
func (b *joinBuf) rewind() { b.left = nil }

// ---------------------------------------------------------------------------
// Nested-loop join (materializes the inner side once)

type nlJoinNode struct {
	left, right planNode
	cond        compiledExpr // may be nil (cross join)
	leftOuter   bool
	joinOut
}

func (n *nlJoinNode) estRows() float64 {
	f := 0.5
	if n.cond == nil {
		f = 1
	}
	return n.left.estRows() * n.right.estRows() * f
}

func (n *nlJoinNode) open(ctx *evalCtx) (rowIter, error) {
	left, err := openNode(ctx, n.left)
	if err != nil {
		return nil, err
	}
	it := &nlJoinIter{node: n, ctx: ctx, left: left, buf: newJoinBuf(&n.joinOut, n.left, n.cond)}
	if err := it.build(); err != nil {
		left.close()
		return nil, err
	}
	return it, nil
}

// build materializes the inner side against the context's current
// outer row, which a correlated inner side reads.
func (it *nlJoinIter) build() error {
	inner, err := materialize(it.ctx, it.node.right)
	if err != nil {
		return err
	}
	if s := it.ctx.opStat(it.node); s != nil {
		s.BuildRows += int64(len(inner))
	}
	it.inner = inner
	return nil
}

func (it *nlJoinIter) rewind() error {
	it.lrow, it.inner, it.ipos, it.matched = nil, nil, 0, false
	it.buf.rewind()
	if err := it.build(); err != nil {
		return err
	}
	return it.left.rewind()
}

type nlJoinIter struct {
	node    *nlJoinNode
	ctx     *evalCtx
	left    rowIter
	inner   [][]Value
	lrow    []Value
	ipos    int
	matched bool
	buf     joinBuf
}

func (it *nlJoinIter) next() ([]Value, error) {
	for {
		if it.lrow == nil || it.ipos >= len(it.inner) {
			if it.lrow != nil && it.node.leftOuter && !it.matched {
				it.lrow = nil
				return it.buf.pad(), nil
			}
			var err error
			it.lrow, err = it.left.next()
			if err != nil || it.lrow == nil {
				return nil, err
			}
			it.buf.setLeft(it.lrow)
			it.ipos = 0
			it.matched = false
		}
		for it.ipos < len(it.inner) {
			r := it.inner[it.ipos]
			it.ipos++
			ok, err := it.buf.test(it.ctx, r)
			if err != nil {
				return nil, err
			}
			if ok {
				it.matched = true
				return it.buf.emit(r), nil
			}
		}
	}
}

func (it *nlJoinIter) close() { it.left.close() }

// ---------------------------------------------------------------------------
// Hash join (equi-join; builds on the right side)

type hashJoinNode struct {
	left, right         planNode
	leftKeys, rightKeys []compiledExpr
	extraCond           compiledExpr
	joinOut
}

func (n *hashJoinNode) estRows() float64 {
	l, r := n.left.estRows(), n.right.estRows()
	m := l
	if r > m {
		m = r
	}
	return m + 1
}

// appendKey appends v's hash/DISTINCT key encoding to b. Values that
// compare equal encode equally: an integer or boolean as its exact
// decimal digits, a float with an integral value in the int64 range as
// that same integer, any other float as its IEEE bits. (An integer and
// a float beyond 2^53 can still compare equal through float rounding
// while encoding differently; SQL equality is not transitive there.)
func appendKey(b []byte, v Value) []byte {
	switch v.Type() {
	case TypeNull:
		b = append(b, '0')
	case TypeInt, TypeBool:
		b = strconv.AppendInt(append(b, 'n'), v.i(), 10)
	case TypeFloat:
		if f := v.f(); f == math.Trunc(f) && f >= -(1<<63) && f < 1<<63 {
			b = strconv.AppendInt(append(b, 'n'), int64(f), 10)
		} else {
			b = strconv.AppendUint(append(b, 'f'), math.Float64bits(f), 16)
		}
	case TypeText:
		b = append(append(b, 's'), v.s()...)
	case TypeBlob:
		b = append(append(b, 'b'), v.Blob()...)
	}
	return append(b, 0)
}

// hashKey appends the join key of vals to b; ok is false when a value is
// NULL (NULL never joins).
func hashKey(b []byte, vals []Value) (key []byte, ok bool) {
	for _, v := range vals {
		if v.IsNull() {
			return b, false
		}
		b = appendKey(b, v)
	}
	return b, true
}

// probeKey is per-iterator scratch for hash-join keys: the evaluated
// key values and their encoding.
type probeKey struct {
	vals []Value
	enc  []byte
}

// encode evaluates keys on row into p.enc; ok is false when a key is
// NULL.
func (p *probeKey) encode(ctx *evalCtx, keys []compiledExpr, row []Value) (ok bool, err error) {
	p.vals = p.vals[:0]
	for _, ke := range keys {
		v, err := ke(ctx, row)
		if err != nil {
			return false, err
		}
		p.vals = append(p.vals, v)
	}
	p.enc, ok = hashKey(p.enc[:0], p.vals)
	return ok, nil
}

// lookup evaluates keys on row and returns its bucket in ht.
func (p *probeKey) lookup(ctx *evalCtx, keys []compiledExpr, row []Value, ht map[string][][]Value) ([][]Value, error) {
	ok, err := p.encode(ctx, keys, row)
	if !ok {
		return nil, err
	}
	return ht[string(p.enc)], nil
}

func (n *hashJoinNode) open(ctx *evalCtx) (rowIter, error) {
	it := &hashJoinIter{node: n, ctx: ctx, buf: newJoinBuf(&n.joinOut, n.left, n.extraCond)}
	if err := it.buildTable(); err != nil {
		return nil, err
	}
	var err error
	if it.left, err = openNode(ctx, n.left); err != nil {
		return nil, err
	}
	return it, nil
}

// buildTable builds the hash table against the context's current outer
// row, which a correlated build side reads.
func (it *hashJoinIter) buildTable() error {
	rows, err := materialize(it.ctx, it.node.right)
	if err != nil {
		return err
	}
	if s := it.ctx.opStat(it.node); s != nil {
		s.BuildRows += int64(len(rows))
	}
	it.ht, err = hashRows(it.ctx, rows, it.node.rightKeys)
	return err
}

func (it *hashJoinIter) rewind() error {
	it.lrow, it.ht, it.bucket, it.bpos = nil, nil, nil, 0
	it.buf.rewind()
	if err := it.buildTable(); err != nil {
		return err
	}
	return it.left.rewind()
}

// hashRows builds the hash-join table over rows, in row order, so every
// bucket lists its rows in build order.
func hashRows(ctx *evalCtx, rows [][]Value, keys []compiledExpr) (map[string][][]Value, error) {
	ht := make(map[string][][]Value, len(rows))
	var key probeKey
	var pending int64
	for n, r := range rows {
		ok, err := key.encode(ctx, keys, r)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		k := string(key.enc)
		// The rows were charged when the build input materialized; the
		// table itself costs roughly key bytes + bucket bookkeeping.
		pending += int64(len(k)) + 48
		if n&1023 == 1023 {
			if err := ctx.mem.charge(pending); err != nil {
				return nil, err
			}
			pending = 0
		}
		ht[k] = append(ht[k], r)
	}
	if err := ctx.mem.charge(pending); err != nil {
		return nil, err
	}
	return ht, nil
}

type hashJoinIter struct {
	node   *hashJoinNode
	ctx    *evalCtx
	left   rowIter
	ht     map[string][][]Value
	lrow   []Value
	key    probeKey
	bucket [][]Value
	bpos   int
	buf    joinBuf
}

func (it *hashJoinIter) next() ([]Value, error) {
	for {
		if it.lrow == nil || it.bpos >= len(it.bucket) {
			var err error
			it.lrow, err = it.left.next()
			if err != nil || it.lrow == nil {
				return nil, err
			}
			if it.bucket, err = it.key.lookup(it.ctx, it.node.leftKeys, it.lrow, it.ht); err != nil {
				return nil, err
			}
			it.bpos = 0
			it.buf.setLeft(it.lrow)
		}
		for it.bpos < len(it.bucket) {
			r := it.bucket[it.bpos]
			it.bpos++
			ok, err := it.buf.test(it.ctx, r)
			if err != nil {
				return nil, err
			}
			if ok {
				return it.buf.emit(r), nil
			}
		}
	}
}

func (it *hashJoinIter) close() { it.left.close() }

// ---------------------------------------------------------------------------
// Index nested-loop join: probes the right table's index per left row.

// The probe is an equality prefix (evaluated against the left row;
// constant bounds simply ignore the row) optionally followed by a range
// on the next key column, also computed per left row. Range support is
// what makes the interval-encoding descendant join
// (`c.pre BETWEEN p.pre+1 AND p.pre+p.size`) and the Dewey prefix join
// run as index lookups instead of nested-loop scans.
//
// The residual splits in two. tableCond holds the conjuncts that read
// the probed table alone (outer references and parameters aside): it is
// compiled against the table's own columns and tested on the stored row
// while its page is pinned, so a rejected candidate is never copied.
// extraCond holds the rest, over the full joined row.
type indexJoinNode struct {
	left planNode
	tbl  *table
	idx  *tableIndex
	indexProbe
	tableCond compiledExpr // over the probed table's row
	extraCond compiledExpr // over the full joined row
	joinOut
	sel float64
}

func (n *indexJoinNode) estRows() float64 {
	per := float64(n.tbl.live) * n.sel
	if per < 1 {
		per = 1
	}
	return n.left.estRows() * per
}

func (n *indexJoinNode) open(ctx *evalCtx) (rowIter, error) {
	left, err := openNode(ctx, n.left)
	if err != nil {
		return nil, err
	}
	it := &indexJoinIter{node: n, ctx: ctx, left: left, buf: newJoinBuf(&n.joinOut, n.left, n.extraCond), stat: ctx.opStat(n)}
	it.resolve()
	return it, nil
}

// indexJoinIter probes through one probe cursor for its whole
// execution, rewinds included: each outer row's probe resumes from
// where the previous one landed when it starts no earlier (see
// probeCursor).
type indexJoinIter struct {
	node   *indexJoinNode
	ctx    *evalCtx
	left   rowIter
	tbl    *table
	tree   *btree
	lrow   []Value
	cur    probeCursor
	stop   keyBound
	keys   probeBuf
	active bool
	ref    pageRef
	rrow   []Value // scratch for the probed table's rows
	buf    joinBuf
	stat   *OpStats
}

// resolve looks up the table version and index tree the snapshot sees.
func (it *indexJoinIter) resolve() {
	it.tbl = it.ctx.resolveTable(it.node.tbl)
	it.tree = resolveIndex(it.tbl, it.node.idx).tree
}

func (it *indexJoinIter) rewind() error {
	it.lrow, it.active = nil, false
	it.buf.rewind()
	it.resolve()
	return it.left.rewind()
}

func (it *indexJoinIter) next() ([]Value, error) {
	for {
		if !it.active {
			var err error
			it.lrow, err = it.left.next()
			if err != nil || it.lrow == nil {
				return nil, err
			}
			if it.stop, err = it.node.seek(it.ctx, it.lrow, it.tree, &it.keys, &it.cur, it.stat); err != nil {
				return nil, err
			}
			it.buf.setLeft(it.lrow)
			it.active = true
		}
		for {
			rid, ok := it.stop.next(&it.cur.btreeCursor)
			if !ok {
				break
			}
			row := it.tbl.rowRef(rid, &it.ref, &it.rrow)
			if row == nil {
				continue
			}
			if f := it.node.tableCond; f != nil {
				v, err := f(it.ctx, row)
				if err != nil {
					return nil, err
				}
				if v.IsNull() || !v.Bool() {
					continue
				}
			}
			ok, err := it.buf.test(it.ctx, row)
			if err != nil {
				return nil, err
			}
			if ok {
				return it.buf.emit(row), nil
			}
		}
		it.active = false
	}
}

func (it *indexJoinIter) close() {
	it.ref.release()
	it.left.close()
}

// ---------------------------------------------------------------------------
// Sort

type sortNode struct {
	in   planNode
	keys []compiledExpr
	desc []bool
}

func (n *sortNode) sch() schema      { return n.in.sch() }
func (n *sortNode) estRows() float64 { return n.in.estRows() }

func (n *sortNode) open(ctx *evalCtx) (rowIter, error) {
	return openBuilt(ctx, n.sorted)
}

// sorted materializes the input and sorts it in place. Every row's
// sort keys are evaluated once, into one block that holds nk values a
// row and is swapped along with the rows.
func (n *sortNode) sorted(ctx *evalCtx) ([][]Value, error) {
	rows, err := materialize(ctx, n.in)
	if err != nil {
		return nil, err
	}
	nk := len(n.keys)
	s := &keyedRows{rows: rows, keys: make([]Value, len(rows)*nk), desc: n.desc}
	var pending int64
	for i, r := range rows {
		kv := s.keys[i*nk : (i+1)*nk : (i+1)*nk]
		for j, ke := range n.keys {
			kv[j], err = ke(ctx, r)
			if err != nil {
				return nil, err
			}
		}
		pending += valuesBytes(kv)
		if i&1023 == 1023 {
			if err := ctx.mem.charge(pending); err != nil {
				return nil, err
			}
			pending = 0
		}
	}
	if err := ctx.mem.charge(pending); err != nil {
		return nil, err
	}
	sort.Stable(s)
	return rows, nil
}

// keyedRows sorts rows by their keys, len(desc) values a row.
type keyedRows struct {
	rows [][]Value
	keys []Value
	desc []bool
}

func (s *keyedRows) Len() int { return len(s.rows) }

func (s *keyedRows) Less(a, b int) bool {
	nk := len(s.desc)
	ka, kb := s.keys[a*nk:(a+1)*nk], s.keys[b*nk:(b+1)*nk]
	for j := range ka {
		c := Compare(ka[j], kb[j])
		if c == 0 {
			continue
		}
		if s.desc[j] {
			return c > 0
		}
		return c < 0
	}
	return false
}

func (s *keyedRows) Swap(a, b int) {
	s.rows[a], s.rows[b] = s.rows[b], s.rows[a]
	nk := len(s.desc)
	for j := 0; j < nk; j++ {
		s.keys[a*nk+j], s.keys[b*nk+j] = s.keys[b*nk+j], s.keys[a*nk+j]
	}
}

// ---------------------------------------------------------------------------
// Limit / offset

type limitNode struct {
	in            planNode
	limit, offset compiledExpr // either may be nil
}

func (n *limitNode) sch() schema      { return n.in.sch() }
func (n *limitNode) estRows() float64 { return n.in.estRows() }

func (n *limitNode) open(ctx *evalCtx) (rowIter, error) {
	in, err := openNode(ctx, n.in)
	if err != nil {
		return nil, err
	}
	it := &limitIter{node: n, ctx: ctx, in: in}
	if err := it.counts(); err != nil {
		in.close()
		return nil, err
	}
	return it, nil
}

type limitIter struct {
	node          *limitNode
	ctx           *evalCtx
	in            rowIter
	limit, offset int64
	emitted       int64
}

// counts evaluates LIMIT and OFFSET, which may read the outer row.
func (it *limitIter) counts() error {
	it.limit, it.offset, it.emitted = -1, 0, 0
	if it.node.limit != nil {
		v, err := it.node.limit(it.ctx, nil)
		if err != nil {
			return err
		}
		it.limit = v.Int()
	}
	if it.node.offset != nil {
		v, err := it.node.offset(it.ctx, nil)
		if err != nil {
			return err
		}
		it.offset = v.Int()
	}
	return nil
}

func (it *limitIter) rewind() error {
	if err := it.counts(); err != nil {
		return err
	}
	return it.in.rewind()
}

func (it *limitIter) next() ([]Value, error) {
	for it.offset > 0 {
		row, err := it.in.next()
		if err != nil || row == nil {
			return nil, err
		}
		it.offset--
	}
	if it.limit >= 0 && it.emitted >= it.limit {
		return nil, nil
	}
	row, err := it.in.next()
	if err != nil || row == nil {
		return nil, err
	}
	it.emitted++
	return row, nil
}

func (it *limitIter) close() { it.in.close() }

// ---------------------------------------------------------------------------
// Distinct

type distinctNode struct{ in planNode }

func (n *distinctNode) sch() schema      { return n.in.sch() }
func (n *distinctNode) estRows() float64 { return n.in.estRows() }

func (n *distinctNode) open(ctx *evalCtx) (rowIter, error) {
	in, err := openNode(ctx, n.in)
	if err != nil {
		return nil, err
	}
	return &distinctIter{in: in, seen: map[string]bool{}, mem: ctx.mem}, nil
}

// distinctIter encodes each row's key into one reused buffer; the map
// lookup with string(buf) does not allocate, and a new key is kept in
// the key arena, so keys cost an allocation per chunk, not per row.
type distinctIter struct {
	in   rowIter
	seen map[string]bool
	buf  []byte
	keys keyArena
	mem  *memAccountant
}

func (it *distinctIter) next() ([]Value, error) {
	for {
		row, err := it.in.next()
		if err != nil || row == nil {
			return nil, err
		}
		it.buf = appendDistinctKey(it.buf[:0], row)
		if it.seen[string(it.buf)] {
			continue
		}
		if err := it.mem.charge(int64(len(it.buf)) + 48); err != nil {
			return nil, err
		}
		it.seen[it.keys.keep(it.buf)] = true
		return row, nil
	}
}

func (it *distinctIter) rewind() error {
	clear(it.seen)
	it.keys.reset()
	return it.in.rewind()
}

// keyArena keeps byte strings in chunks that grow from 256 bytes to
// 32 KiB. A kept string is immutable until reset, which hands out the
// last chunk again from its start: only after whatever held the strings
// (a set's map) has been cleared.
type keyArena struct{ buf []byte }

func (a *keyArena) keep(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > cap(a.buf)-len(a.buf) {
		a.buf = make([]byte, 0, max(len(b), min(2*cap(a.buf), 32<<10), 256))
	}
	off := len(a.buf)
	a.buf = append(a.buf, b...)
	return unsafe.String(&a.buf[off], len(b))
}

func (a *keyArena) reset() { a.buf = a.buf[:0] }

func (it *distinctIter) close() { it.in.close() }

// distinctKey encodes a row for duplicate elimination; unlike hashKey it
// keeps NULLs (two NULL rows are duplicates under DISTINCT).
func distinctKey(vals []Value) string {
	return string(appendDistinctKey(nil, vals))
}

// appendDistinctKey appends distinctKey(vals) to dst.
func appendDistinctKey(dst []byte, vals []Value) []byte {
	for _, v := range vals {
		dst = appendKey(dst, v)
	}
	return dst
}

// ---------------------------------------------------------------------------
// Union all

type unionAllNode struct {
	parts  []planNode
	schema schema
}

func (n *unionAllNode) sch() schema { return n.schema }

func (n *unionAllNode) estRows() float64 {
	var t float64
	for _, p := range n.parts {
		t += p.estRows()
	}
	return t
}

func (n *unionAllNode) open(ctx *evalCtx) (rowIter, error) {
	return &unionAllIter{node: n, ctx: ctx, parts: make([]rowIter, len(n.parts)), stale: make([]bool, len(n.parts))}, nil
}

// unionAllIter opens each part when it reaches it. A rewound part is
// marked stale and rewound only when reached again, so a part a LIMIT
// never reaches is never evaluated.
type unionAllIter struct {
	node  *unionAllNode
	ctx   *evalCtx
	idx   int
	parts []rowIter
	stale []bool
}

func (it *unionAllIter) next() ([]Value, error) {
	for it.idx < len(it.parts) {
		cur := it.parts[it.idx]
		switch {
		case cur == nil:
			var err error
			if cur, err = openNode(it.ctx, it.node.parts[it.idx]); err != nil {
				return nil, err
			}
			it.parts[it.idx] = cur
		case it.stale[it.idx]:
			if err := cur.rewind(); err != nil {
				return nil, err
			}
			it.stale[it.idx] = false
		}
		row, err := cur.next()
		if err != nil || row != nil {
			return row, err
		}
		cur.close()
		it.idx++
	}
	return nil, nil
}

func (it *unionAllIter) rewind() error {
	for i, p := range it.parts {
		it.stale[i] = p != nil
	}
	it.idx = 0
	return nil
}

func (it *unionAllIter) close() {
	for _, p := range it.parts {
		if p != nil {
			p.close()
		}
	}
}

// ---------------------------------------------------------------------------
// Helpers

type sliceIter struct {
	rows [][]Value
	pos  int
}

func (it *sliceIter) next() ([]Value, error) {
	if it.pos >= len(it.rows) {
		return nil, nil
	}
	r := it.rows[it.pos]
	it.pos++
	return r, nil
}

func (it *sliceIter) rewind() error {
	it.pos = 0
	return nil
}

func (it *sliceIter) close() {}

// rowsLeft is how many rows an iterator over rows it already holds (a
// sort's, an aggregate's, a VALUES list's) has still to return; 0 when
// it cannot tell.
func rowsLeft(it rowIter) int {
	if s, ok := it.(*statIter); ok {
		it = s.in
	}
	switch it := it.(type) {
	case *builtIter:
		return len(it.rows) - it.pos
	case *sliceIter:
		return len(it.rows) - it.pos
	}
	return 0
}

// builtIter serves rows an operator computes whole — a sort, an
// aggregate — and computes them again, against the context's current
// outer row, when rewound.
type builtIter struct {
	sliceIter
	ctx   *evalCtx
	build func(*evalCtx) ([][]Value, error)
}

func openBuilt(ctx *evalCtx, build func(*evalCtx) ([][]Value, error)) (rowIter, error) {
	it := &builtIter{ctx: ctx, build: build}
	if err := it.rewind(); err != nil {
		return nil, err
	}
	return it, nil
}

func (it *builtIter) rewind() error {
	rows, err := it.build(it.ctx)
	it.rows, it.pos = rows, 0
	return err
}

// materialize drains a node into a slice of rows of its own, polling
// for cancellation on a coarse stride. It copies every row (an
// iterator's row is valid only until its next call to next, see
// rowIter) except those an iterator holds already (see rowsLeft),
// which nothing overwrites: a sort or an aggregate builds them for this
// open alone, and a VALUES list's are constant.
func materialize(ctx *evalCtx, n planNode) ([][]Value, error) {
	it, err := openNode(ctx, n)
	if err != nil {
		return nil, err
	}
	defer it.close()
	var out [][]Value
	var block []Value // where the next rows are copied, sized with out
	left := rowsLeft(it)
	held := left > 0
	if held {
		out = make([][]Value, 0, left)
	}
	var pending int64
	for {
		if len(out)&1023 == 0 {
			if err := ctx.canceled(); err != nil {
				return nil, err
			}
			if err := ctx.mem.charge(pending); err != nil {
				return nil, err
			}
			pending = 0
		}
		row, err := it.next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			if err := ctx.mem.charge(pending); err != nil {
				return nil, err
			}
			return out, nil
		}
		if len(out) == cap(out) {
			// Grow to twice the length: append grows a long slice by a
			// quarter, which leaves about four times the result behind
			// as garbage.
			out = slices.Grow(out, max(len(out), 16))
		}
		if !held && len(row) > 0 {
			if len(row) > len(block) {
				block = make([]Value, (cap(out)-len(out))*len(row))
			}
			kept := block[:len(row):len(row)]
			block = block[len(row):]
			copy(kept, row)
			row = kept
		}
		out = append(out, row)
		pending += valuesBytes(row)
	}
}

// ---------------------------------------------------------------------------
// Correlated subqueries

// subInstance is one compiled subquery's iterator tree inside one
// execution, with the context it evaluates in. It lives in the
// evaluating context's subs, never in the shared cached plan: every
// execution has its own.
type subInstance struct {
	ctx evalCtx
	it  rowIter
}

// subquery returns p's iterator at the start of its result for the
// outer row: the first call in an execution opens the tree, every later
// one rewinds it. The caller reads what it needs and closes the
// iterator, which releases its pins before the outer operator moves on.
func (ctx *evalCtx) subquery(p *plan, outerRow []Value) (rowIter, error) {
	if inst := ctx.subs[p]; inst != nil {
		inst.ctx.outer = outerRow
		if err := inst.it.rewind(); err != nil {
			inst.it.close()
			return nil, err
		}
		return inst.it, nil
	}
	inst := &subInstance{ctx: evalCtx{snap: ctx.snap, qctx: ctx.qctx, params: ctx.params, outer: outerRow, mem: ctx.mem,
		stats: ctx.stats.sub(p)}}
	it, err := openNode(&inst.ctx, p.root)
	if err != nil {
		return nil, err
	}
	inst.it = it
	if ctx.subs == nil {
		ctx.subs = map[*plan]*subInstance{}
	}
	ctx.subs[p] = inst
	return it, nil
}

// subRows reads a subquery's rows the way materializing them did:
// polling for cancellation and charging the rows' bytes to the memory
// ledger before the first row and every 1024th, and at the end.
type subRows struct {
	ctx     *evalCtx
	it      rowIter
	n       int
	pending int64
}

func (s *subRows) next() ([]Value, error) {
	if s.n&1023 == 0 {
		if err := s.ctx.canceled(); err != nil {
			return nil, err
		}
		if err := s.ctx.mem.charge(s.pending); err != nil {
			return nil, err
		}
		s.pending = 0
	}
	row, err := s.it.next()
	if err != nil {
		return nil, err
	}
	if row == nil {
		return nil, s.ctx.mem.charge(s.pending)
	}
	s.n++
	s.pending += valuesBytes(row)
	return row, nil
}

// subqueryHasRow reports whether the subplan yields at least one row.
func subqueryHasRow(ctx *evalCtx, p *plan, outerRow []Value) (bool, error) {
	it, err := ctx.subquery(p, outerRow)
	if err != nil {
		return false, err
	}
	defer it.close()
	row, err := it.next()
	if err != nil {
		return false, err
	}
	return row != nil, nil
}

// scalarSubquery returns the subplan's one value: NULL for no row, an
// error naming the count for more than one.
func scalarSubquery(ctx *evalCtx, p *plan, outerRow []Value) (Value, error) {
	it, err := ctx.subquery(p, outerRow)
	if err != nil {
		return Null, err
	}
	defer it.close()
	rows := subRows{ctx: ctx, it: it}
	v := Null
	for {
		row, err := rows.next()
		if err != nil {
			return Null, err
		}
		if row == nil {
			break
		}
		if rows.n == 1 {
			v = row[0]
		}
	}
	if rows.n > 1 {
		return Null, errorf("scalar subquery returned %d rows", rows.n)
	}
	return v, nil
}

// inSubquery evaluates x IN (subplan), x not NULL: true on a match,
// else NULL when the subplan yields a NULL, else false. It reads every
// row, as materializing them did, so an error in a later row still
// surfaces.
func inSubquery(ctx *evalCtx, p *plan, outerRow []Value, x Value) (Value, error) {
	it, err := ctx.subquery(p, outerRow)
	if err != nil {
		return Null, err
	}
	defer it.close()
	rows := subRows{ctx: ctx, it: it}
	found, sawNull := false, false
	for {
		row, err := rows.next()
		if err != nil {
			return Null, err
		}
		if row == nil {
			break
		}
		if row[0].IsNull() {
			sawNull = true
		} else if cmp, ok := compareSQL(x, row[0]); ok && cmp == 0 {
			found = true
		}
	}
	switch {
	case found:
		return NewBool(true), nil
	case sawNull:
		return Null, nil
	}
	return NewBool(false), nil
}
