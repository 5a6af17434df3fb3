package sqldb

import (
	"math"
	"sort"
	"strconv"
)

// rowIter is the Volcano-style iterator every physical operator
// implements. next returns (nil, nil) at end of stream.
type rowIter interface {
	next() ([]Value, error)
	close()
}

// planNode is a physical operator in a compiled plan. Opening a node
// yields a fresh iterator; a node can be opened multiple times (e.g. the
// inner side of a nested-loop join or a correlated subquery).
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
// materialize) call it on a coarse stride so the
// hot path stays cheap; a budget overrun anywhere in the query (any
// worker) is observed here by every other worker, so the whole query
// unwinds and releases its partially-built state.
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
	tbl := ctx.resolveTable(n.tbl)
	it := &seqScanIter{node: n, ctx: ctx, tbl: tbl, end: tbl.slotCount()}
	// Inside a gather worker, the scan that drives the parallel segment
	// is restricted to the worker's claimed morsel. Pointer identity
	// guarantees only the driver scan is clipped — any other table
	// scanned by the segment (join build sides, subqueries) reads fully.
	if m := ctx.morsel; m != nil && m.node == n {
		it.pos, it.end = int64(m.lo), int64(m.hi)
	}
	return it, nil
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

// start evaluates the probe against row and positions a cursor at the
// first entry of the range in tree. empty reports that a bound
// evaluated to NULL, which matches nothing in SQL. The returned bound
// points into buf and stays valid until the next start.
func (p *indexProbe) start(ctx *evalCtx, row []Value, tree *btree, buf *probeBuf) (cur btreeCursor, stop keyBound, empty bool, err error) {
	from, after, stop, empty, err := p.bounds(ctx, row, buf)
	if empty || err != nil {
		return cur, stop, empty, err
	}
	return tree.descend(from, after), stop, false, nil
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
	tbl := ctx.resolveTable(n.tbl)
	it := &indexScanIter{node: n, ctx: ctx, tbl: tbl}
	var empty bool
	var err error
	it.cur, it.stop, empty, err = n.start(ctx, nil, resolveIndex(tbl, n.idx).tree, &it.buf)
	if err != nil {
		return nil, err
	}
	if empty {
		return &sliceIter{}, nil
	}
	return it, nil
}

type indexScanIter struct {
	node *indexScanNode
	ctx  *evalCtx
	tbl  *table
	cur  btreeCursor
	stop keyBound
	buf  probeBuf
	ref  pageRef
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

func (it *filterIter) close() { it.in.close() }

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
	in   rowIter
	node *projectNode
	ctx  *evalCtx
}

func (it *projectIter) next() ([]Value, error) {
	row, err := it.in.next()
	if err != nil || row == nil {
		return nil, err
	}
	out := make([]Value, len(it.node.exprs))
	for i, e := range it.node.exprs {
		out[i], err = e(it.ctx, row)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
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
// operators that materialize output rows (join output) pay one
// allocation per chunk instead of one per row. Chunks grow from one row
// to 256, so an iterator that emits a single row (an EXISTS probe) does
// not pay for a full chunk. Carved slices have their capacity clamped,
// so appends by a consumer cannot clobber a neighbour.
type rowArena struct {
	buf  []Value
	off  int
	rows int // rows per chunk, doubling up to 256
}

// emptyRow is the zero-width row: non-nil, because a nil row ends a
// row iterator's stream.
var emptyRow = []Value{}

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

// joinBuf builds one join iterator's output rows. The join condition is
// tested on a reused full-width scratch row — the left columns copied
// once per left row, the right ones once per candidate — and only a
// candidate that passes gets an output row, carved from the arena and
// holding just the kept columns.
type joinBuf struct {
	out   *joinOut
	row   []Value
	lw    int
	arena rowArena
}

func newJoinBuf(out *joinOut, left planNode) joinBuf {
	return joinBuf{out: out, row: make([]Value, out.width), lw: len(left.sch())}
}

func (b *joinBuf) setLeft(l []Value) { copy(b.row[:b.lw], l) }

// test reports whether cond (nil = always) holds for the current left
// row joined with r.
func (b *joinBuf) test(ctx *evalCtx, cond compiledExpr, r []Value) (bool, error) {
	copy(b.row[b.lw:], r)
	if cond == nil {
		return true, nil
	}
	v, err := cond(ctx, b.row)
	if err != nil {
		return false, err
	}
	return !v.IsNull() && v.Bool(), nil
}

// emit copies the scratch row's kept columns into a fresh output row.
func (b *joinBuf) emit() []Value {
	keep := b.out.keep
	if keep == nil {
		out := b.arena.alloc(len(b.row))
		copy(out, b.row)
		return out
	}
	out := b.arena.alloc(len(keep))
	for i, c := range keep {
		out[i] = b.row[c]
	}
	return out
}

// pad emits the current left row with a NULL right side (left outer
// join, no match).
func (b *joinBuf) pad() []Value {
	for i := b.lw; i < len(b.row); i++ {
		b.row[i] = Null
	}
	return b.emit()
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
	inner, built, err := n.innerRows(ctx)
	if err != nil {
		left.close()
		return nil, err
	}
	if s := ctx.opStat(n); s != nil {
		s.BuildRows += built
	}
	return &nlJoinIter{node: n, ctx: ctx, left: left, inner: inner, buf: newJoinBuf(&n.joinOut, n.left)}, nil
}

// innerRows materializes the inner side, sharing the result across a
// parallel segment's per-morsel re-opens (the inner is loop-invariant).
func (n *nlJoinNode) innerRows(ctx *evalCtx) ([][]Value, int64, error) {
	if sh := ctx.shared; sh != nil {
		e := sh.entry(n)
		builtNow := false
		e.once.Do(func() {
			// A panic inside the shared build must still publish an
			// error: sync.Once marks itself done even when f panics, so
			// without this every other waiter would see a nil e.err and
			// a nil build.
			defer func() {
				if r := recover(); r != nil {
					e.err = internalError(r)
				}
			}()
			e.rows, e.err = materialize(ctx, n.right)
			e.n = int64(len(e.rows))
			builtNow = true
		})
		if e.err != nil {
			return nil, 0, e.err
		}
		if builtNow {
			return e.rows, e.n, nil
		}
		return e.rows, 0, nil
	}
	rows, err := materialize(ctx, n.right)
	return rows, int64(len(rows)), err
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
			ok, err := it.buf.test(it.ctx, it.node.cond, r)
			if err != nil {
				return nil, err
			}
			if ok {
				it.matched = true
				return it.buf.emit(), nil
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
	leftOuter           bool
	joinOut
	// buildPar is the degree of parallelism for the partitioned build
	// (set by the planner's parallelize pass; 0/1 = serial build).
	buildPar int
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
	ht, built, err := n.build(ctx)
	if err != nil {
		return nil, err
	}
	if s := ctx.opStat(n); s != nil {
		s.BuildRows += built
	}
	left, err := openNode(ctx, n.left)
	if err != nil {
		return nil, err
	}
	return &hashJoinIter{node: n, ctx: ctx, left: left, ht: ht, buf: newJoinBuf(&n.joinOut, n.left)}, nil
}

// build produces the hash table for the right side. Inside a gather
// worker the result is shared across the segment's per-morsel re-opens
// (and across workers): the build side is loop-invariant, so it is
// computed once, by whichever worker gets there first. The returned
// count is non-zero only when this call actually built, keeping
// BuildRows comparable with serial execution.
func (n *hashJoinNode) build(ctx *evalCtx) (map[string][][]Value, int64, error) {
	if sh := ctx.shared; sh != nil {
		e := sh.entry(n)
		builtNow := false
		e.once.Do(func() {
			// See innerRows: a panicking build must set e.err for the
			// other waiters (once.Do completes even on panic).
			defer func() {
				if r := recover(); r != nil {
					e.err = internalError(r)
				}
			}()
			e.ht, e.n, e.err = n.buildHashTable(ctx)
			builtNow = true
		})
		if e.err != nil {
			return nil, 0, e.err
		}
		if builtNow {
			return e.ht, e.n, nil
		}
		return e.ht, 0, nil
	}
	return n.buildHashTable(ctx)
}

func (n *hashJoinNode) buildHashTable(ctx *evalCtx) (map[string][][]Value, int64, error) {
	rightRows, err := materialize(ctx, n.right)
	if err != nil {
		return nil, 0, err
	}
	ht, err := hashRows(ctx, rightRows, n.rightKeys, n.buildPar)
	if err != nil {
		return nil, 0, err
	}
	return ht, int64(len(rightRows)), nil
}

type hashJoinIter struct {
	node    *hashJoinNode
	ctx     *evalCtx
	left    rowIter
	ht      map[string][][]Value
	lrow    []Value
	key     probeKey
	bucket  [][]Value
	bpos    int
	matched bool
	buf     joinBuf
}

func (it *hashJoinIter) next() ([]Value, error) {
	for {
		if it.lrow == nil || it.bpos >= len(it.bucket) {
			if it.lrow != nil && it.node.leftOuter && !it.matched {
				it.lrow = nil
				return it.buf.pad(), nil
			}
			var err error
			it.lrow, err = it.left.next()
			if err != nil || it.lrow == nil {
				return nil, err
			}
			it.matched = false
			if it.bucket, err = it.key.lookup(it.ctx, it.node.leftKeys, it.lrow, it.ht); err != nil {
				return nil, err
			}
			it.bpos = 0
			it.buf.setLeft(it.lrow)
		}
		for it.bpos < len(it.bucket) {
			r := it.bucket[it.bpos]
			it.bpos++
			ok, err := it.buf.test(it.ctx, it.node.extraCond, r)
			if err != nil {
				return nil, err
			}
			if ok {
				it.matched = true
				return it.buf.emit(), nil
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
type indexJoinNode struct {
	left planNode
	tbl  *table
	idx  *tableIndex
	indexProbe
	extraCond compiledExpr // over the full joined row
	leftOuter bool
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
	tbl := ctx.resolveTable(n.tbl)
	return &indexJoinIter{node: n, ctx: ctx, left: left, tbl: tbl, tree: resolveIndex(tbl, n.idx).tree, buf: newJoinBuf(&n.joinOut, n.left)}, nil
}

type indexJoinIter struct {
	node    *indexJoinNode
	ctx     *evalCtx
	left    rowIter
	tbl     *table
	tree    *btree
	lrow    []Value
	cur     btreeCursor
	stop    keyBound
	keys    probeBuf
	active  bool
	matched bool
	ref     pageRef
	buf     joinBuf
}

func (it *indexJoinIter) next() ([]Value, error) {
	for {
		if !it.active {
			if it.lrow != nil && it.node.leftOuter && !it.matched {
				it.lrow = nil
				return it.buf.pad(), nil
			}
			var err error
			it.lrow, err = it.left.next()
			if err != nil || it.lrow == nil {
				return nil, err
			}
			it.matched = false
			var empty bool
			it.cur, it.stop, empty, err = it.node.start(it.ctx, it.lrow, it.tree, &it.keys)
			if err != nil {
				return nil, err
			}
			if empty { // NULL keys never join
				it.cur = btreeCursor{}
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
			ok, err := it.buf.test(it.ctx, it.node.extraCond, row)
			if err != nil {
				return nil, err
			}
			if ok {
				it.matched = true
				return it.buf.emit(), nil
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
	return &sliceIter{rows: out}, nil
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
	it := &limitIter{in: in, limit: -1}
	if n.limit != nil {
		v, err := n.limit(ctx, nil)
		if err != nil {
			in.close()
			return nil, err
		}
		it.limit = v.Int()
	}
	if n.offset != nil {
		v, err := n.offset(ctx, nil)
		if err != nil {
			in.close()
			return nil, err
		}
		it.offset = v.Int()
	}
	return it, nil
}

type limitIter struct {
	in            rowIter
	limit, offset int64
	emitted       int64
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
	return &unionAllIter{node: n, ctx: ctx}, nil
}

type unionAllIter struct {
	node *unionAllNode
	ctx  *evalCtx
	idx  int
	cur  rowIter
}

func (it *unionAllIter) next() ([]Value, error) {
	for {
		if it.cur == nil {
			if it.idx >= len(it.node.parts) {
				return nil, nil
			}
			var err error
			it.cur, err = openNode(it.ctx, it.node.parts[it.idx])
			if err != nil {
				return nil, err
			}
			it.idx++
		}
		row, err := it.cur.next()
		if err != nil {
			return nil, err
		}
		if row != nil {
			return row, nil
		}
		it.cur.close()
		it.cur = nil
	}
}

func (it *unionAllIter) close() {
	if it.cur != nil {
		it.cur.close()
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

func (it *sliceIter) close() {}

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

// runSubquery executes a compiled subplan with the given outer row.
func runSubquery(ctx *evalCtx, p *plan, outerRow []Value) ([][]Value, error) {
	sub := &evalCtx{snap: ctx.snap, qctx: ctx.qctx, params: ctx.params, outer: outerRow, mem: ctx.mem}
	return materialize(sub, p.root)
}

// subqueryHasRow reports whether the subplan yields at least one row.
func subqueryHasRow(ctx *evalCtx, p *plan, outerRow []Value) (bool, error) {
	sub := &evalCtx{snap: ctx.snap, qctx: ctx.qctx, params: ctx.params, outer: outerRow, mem: ctx.mem}
	it, err := p.root.open(sub)
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
