package sqldb

import (
	"math"
	"sort"
	"strconv"
)

// rowIter is the Volcano-style iterator every physical operator
// implements. next returns (nil, nil) at end of stream. rewind restarts
// the stream from its beginning, reading the evaluation context afresh
// — above all the current outer row of a correlated subquery — so one
// iterator tree serves every execution of a subquery body (see
// evalCtx.subquery). close releases the page pins the iterator holds;
// a closed iterator can still be rewound.
//
// A row next returns stays valid until the iterator is rewound: an
// operator may reuse its output rows' storage across a rewind, never
// within one stream. Only an operator's own rewind rewinds its inputs,
// and it drops whatever it kept of their rows first.
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
	node *seqScanNode
	ctx  *evalCtx
	tbl  *table
	pos  int64
	end  int64
	ref  pageRef
}

func (it *seqScanIter) next() ([]Value, error) {
	for it.pos < it.end {
		row := it.tbl.rowRef(it.pos, &it.ref)
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
}

func (b *keyBound) passed(key string) bool {
	if b.key == "" {
		return false
	}
	c := prefixCompare(key, b.key)
	if b.incl {
		return c > 0
	}
	return c >= 0
}

// seek evaluates the probe against row and positions cur at the first
// entry of the range in tree, leaving it past the end when a bound is
// NULL, which matches nothing in SQL. The returned bound points into
// buf and stays valid until the next seek; a descent from the root is
// counted in stat (nil: not instrumented).
func (p *indexProbe) seek(ctx *evalCtx, row []Value, tree *btree, buf *probeBuf, cur *probeCursor, stat *OpStats) (keyBound, error) {
	from, after, stop, empty, err := p.bounds(ctx, row, buf)
	if empty || err != nil {
		cur.frames = cur.frames[:0]
		return stop, err
	}
	if cur.seek(tree, from, after) && stat != nil {
		stat.Descents++
	}
	return stop, nil
}

// count returns how many index entries the probe's range holds in
// tree, from the inner nodes and the two boundary leaves alone; the
// planner counts constant bounds with it.
func (p *indexProbe) count(ctx *evalCtx, tree *btree) (int, error) {
	var buf probeBuf
	from, after, stop, empty, err := p.bounds(ctx, nil, &buf)
	if empty || err != nil {
		return 0, err
	}
	return tree.countRange(from, after, stop), nil
}

// bounds evaluates the probe against row: the range starts at the first
// key whose prefix compares to from by at least after (0: >=, 1: >)
// and ends at stop. empty reports a NULL bound.
func (p *indexProbe) bounds(ctx *evalCtx, row []Value, buf *probeBuf) (from string, after int, stop keyBound, empty bool, err error) {
	if buf.lo == nil {
		buf.lo, buf.hi = buf.loArr[:0], buf.hiArr[:0]
	}
	buf.lo = buf.lo[:0]
	for _, e := range p.eq {
		v, err := e(ctx, row)
		if err != nil {
			return "", 0, stop, false, err
		}
		if v.IsNull() {
			// Equality with NULL matches nothing in SQL.
			return "", 0, stop, true, nil
		}
		buf.lo = appendKeyValue(buf.lo, v)
	}
	np := len(buf.lo)
	switch {
	case p.lo != nil:
		v, err := p.lo(ctx, row)
		if err != nil {
			return "", 0, stop, false, err
		}
		if v.IsNull() {
			return "", 0, stop, true, nil
		}
		buf.lo = appendKeyValue(buf.lo, v)
		if !p.loIncl {
			after = 1
		}
	case p.hi != nil:
		// Upper-bound-only range: NULL keys sort first in the index but
		// never satisfy a SQL comparison, so start after the NULL run.
		buf.lo = append(buf.lo, keyNull)
		after = 1
	}
	if p.hi != nil {
		v, err := p.hi(ctx, row)
		if err != nil {
			return "", 0, stop, false, err
		}
		if v.IsNull() {
			return "", 0, stop, true, nil
		}
		buf.hi = appendKeyValue(append(buf.hi[:0], buf.lo[:np]...), v)
		stop = keyBound{key: keyView(buf.hi), incl: p.hiIncl}
	} else if np > 0 {
		stop = keyBound{key: keyView(buf.lo[:np]), incl: true}
	}
	return keyView(buf.lo), after, stop, false, nil
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
	node *indexScanNode
	ctx  *evalCtx
	tbl  *table
	cur  probeCursor
	stop keyBound
	buf  probeBuf
	ref  pageRef
	stat *OpStats
}

func (it *indexScanIter) rewind() error {
	it.tbl = it.ctx.resolveTable(it.node.tbl)
	var err error
	it.stop, err = it.node.seek(it.ctx, nil, resolveIndex(it.tbl, it.node.idx).tree, &it.buf, &it.cur, it.stat)
	return err
}

func (it *indexScanIter) next() ([]Value, error) {
	for it.cur.valid() {
		e := it.cur.entry()
		if it.stop.passed(e.key) {
			return nil, nil
		}
		it.cur.advance()
		row := it.tbl.rowRef(e.rid, &it.ref)
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

func (it *indexScanIter) close() { it.ref.release() }

// ---------------------------------------------------------------------------
// Filter

type filterNode struct {
	in   planNode
	pred compiledExpr
	sel  float64
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
	return &projectIter{in: in, node: n, ctx: ctx}, nil
}

type projectIter struct {
	in    rowIter
	node  *projectNode
	ctx   *evalCtx
	arena rowArena
}

func (it *projectIter) next() ([]Value, error) {
	row, err := it.in.next()
	if err != nil || row == nil {
		return nil, err
	}
	out := it.arena.alloc(len(it.node.exprs))
	for i, e := range it.node.exprs {
		out[i], err = e(it.ctx, row)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (it *projectIter) rewind() error {
	it.arena.reset()
	return it.in.rewind()
}

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

// rowArena hands out row slices carved from chunked backing arrays, so
// operators that build output rows (projections, join output) pay one
// allocation per chunk instead of one per row. Chunks grow from one row
// to 256, so an iterator that emits a single row (an EXISTS probe) does
// not pay for a full chunk. Carved slices have their capacity clamped,
// so appends by a consumer cannot clobber a neighbour. A rewind resets
// the arena onto its last chunk: a subquery body that emits a row per
// outer row reuses one row's storage.
type rowArena struct {
	buf  []Value
	off  int
	rows int // rows per chunk, doubling up to 256
}

// emptyRow is the zero-width row: non-nil, because a nil row ends a
// row iterator's stream.
var emptyRow = []Value{}

// reset hands out the current chunk again from its start; rows carved
// before it may be overwritten.
func (a *rowArena) reset() { a.off = 0 }

func (a *rowArena) alloc(n int) []Value {
	if n == 0 {
		return emptyRow
	}
	if a.off+n > len(a.buf) {
		a.rows = min(max(2*a.rows, 1), 256)
		a.buf = make([]Value, n*a.rows)
		a.off = 0
	}
	s := a.buf[a.off : a.off+n : a.off+n]
	a.off += n
	return s
}

// joinBuf builds one join iterator's output rows. A condition over both
// sides (cond) is tested on a reused full-width scratch row — the left
// columns copied once per left row, the right ones once per candidate;
// without one there is no scratch row and nothing is copied to test.
// Only a candidate that passes gets an output row, carved from the
// arena and holding just the kept columns, read from the left row and
// the candidate directly.
type joinBuf struct {
	out   *joinOut
	cond  compiledExpr
	row   []Value // scratch for cond; nil without one
	left  []Value
	lw    int
	nulls []Value // the right side of a padded row
	arena rowArena
}

func newJoinBuf(out *joinOut, left planNode, cond compiledExpr) joinBuf {
	b := joinBuf{out: out, cond: cond, lw: len(left.sch())}
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
	keep := b.out.keep
	if keep == nil {
		out := b.arena.alloc(b.out.width)
		copy(out, b.left)
		copy(out[b.lw:], r)
		return out
	}
	out := b.arena.alloc(len(keep))
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

// rewind forgets the left row and reuses the arena (see rowIter).
func (b *joinBuf) rewind() {
	b.left = nil
	b.arena.reset()
}

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
	switch v.t {
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
		if v.t == TypeNull {
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
		for it.cur.valid() {
			e := it.cur.entry()
			if it.stop.passed(e.key) {
				break
			}
			it.cur.advance()
			row := it.tbl.rowRef(e.rid, &it.ref)
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

// sorted materializes the input and sorts it.
func (n *sortNode) sorted(ctx *evalCtx) ([][]Value, error) {
	rows, err := materialize(ctx, n.in)
	if err != nil {
		return nil, err
	}
	type keyed struct {
		row  []Value
		keys []Value
	}
	ks := make([]keyed, len(rows))
	var pending int64
	for i, r := range rows {
		kv := make([]Value, len(n.keys))
		for j, ke := range n.keys {
			kv[j], err = ke(ctx, r)
			if err != nil {
				return nil, err
			}
		}
		ks[i] = keyed{row: r, keys: kv}
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
	sort.SliceStable(ks, func(a, b int) bool {
		for j := range n.keys {
			c := Compare(ks[a].keys[j], ks[b].keys[j])
			if c == 0 {
				continue
			}
			if n.desc[j] {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	out := make([][]Value, len(ks))
	for i := range ks {
		out[i] = ks[i].row
	}
	return out, nil
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

type distinctIter struct {
	in   rowIter
	seen map[string]bool
	mem  *memAccountant
}

func (it *distinctIter) next() ([]Value, error) {
	for {
		row, err := it.in.next()
		if err != nil || row == nil {
			return nil, err
		}
		k := distinctKey(row)
		if it.seen[k] {
			continue
		}
		if err := it.mem.charge(int64(len(k)) + 48); err != nil {
			return nil, err
		}
		it.seen[k] = true
		return row, nil
	}
}

func (it *distinctIter) rewind() error {
	clear(it.seen)
	return it.in.rewind()
}

func (it *distinctIter) close() { it.in.close() }

// distinctKey encodes a row for duplicate elimination; unlike hashKey it
// keeps NULLs (two NULL rows are duplicates under DISTINCT).
func distinctKey(vals []Value) string {
	var b []byte
	for _, v := range vals {
		b = appendKey(b, v)
	}
	return string(b)
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

// materialize drains a node into a slice, polling for cancellation on a
// coarse stride.
func materialize(ctx *evalCtx, n planNode) ([][]Value, error) {
	it, err := openNode(ctx, n)
	if err != nil {
		return nil, err
	}
	defer it.close()
	var out [][]Value
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
	inst := &subInstance{ctx: evalCtx{snap: ctx.snap, qctx: ctx.qctx, params: ctx.params, outer: outerRow, mem: ctx.mem}}
	it, err := p.root.open(&inst.ctx)
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
