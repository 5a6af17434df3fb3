package sqldb

import "time"

// Vectorized execution paths for the hot operators: sequential and
// index scans, filter, projection, column cut, limit and the hash-join
// probe. Everything else (sort, distinct, nested-loop and index joins,
// union, gather) keeps its row iterator and participates through the
// batch/row adapters in batch.go. The row-at-a-time engine is the
// correctness oracle: a vectorized plan must produce byte-identical
// rows in the same order, so every operator here visits rows in exactly
// the order its row counterpart does.
//
// Instrumentation amortizes per batch: openVec mirrors openNode and
// wraps the iterator in a statVecIter that counts opens, batches,
// selected rows and examined rows (the selectivity denominator), and
// polls for cancellation once per batch instead of every 256 rows.

// openVec opens a plan node as a batch source, wrapping it with
// counters when the execution is instrumented. Operators without a
// native batch path are opened raw (their internal children still go
// through openNode) and adapted; the adapter, not a statIter, carries
// their counts so nothing is counted twice.
func openVec(ctx *evalCtx, n planNode) (vecIter, error) {
	open := func() (vecIter, error) {
		if vn, ok := n.(vecNode); ok {
			return vn.openVec(ctx)
		}
		it, err := n.open(ctx)
		if err != nil {
			return nil, err
		}
		return &rowSourceVec{in: it}, nil
	}
	st := ctx.stats
	if st == nil {
		return open()
	}
	id, ok := st.meta.index[n]
	if !ok {
		return open()
	}
	op := &st.ops[id]
	op.Opens++
	var t0 time.Time
	if st.timed {
		t0 = time.Now()
	}
	vi, err := open()
	if st.timed {
		op.Time += time.Since(t0)
	}
	if err != nil {
		return nil, err
	}
	return &statVecIter{in: vi, ctx: ctx, op: op, timed: st.timed}, nil
}

// statVecIter is the batch-level counterpart of statIter: it counts
// batches and rows flowing out of one operator and doubles as the
// cancellation chokepoint, polling the execution context once per
// nextBatch call (batch granularity).
type statVecIter struct {
	in    vecIter
	ctx   *evalCtx
	op    *OpStats
	timed bool
}

func (it *statVecIter) nextBatch() (*batch, error) {
	if err := it.ctx.canceled(); err != nil {
		return nil, err
	}
	var b *batch
	var err error
	if it.timed {
		t0 := time.Now()
		b, err = it.in.nextBatch()
		it.op.Time += time.Since(t0)
	} else {
		b, err = it.in.nextBatch()
	}
	it.op.Nexts++
	if b != nil {
		it.op.Batches++
		it.op.Rows += int64(b.n())
		it.op.InRows += b.in
	}
	return b, err
}

func (it *statVecIter) close() { it.in.close() }

// materializeVec drains a vectorized pipeline into a row slice. The
// batches are collected first and flattened into an exactly-sized
// result in a second pass — batch boundaries make the total row count
// known up front, so the result array is allocated once instead of
// doubling through append growth (the batches hold only row headers;
// the rows themselves are referenced either way).
func materializeVec(ctx *evalCtx, n planNode) ([][]Value, error) {
	vi, err := openVec(ctx, n)
	if err != nil {
		return nil, err
	}
	defer vi.close()
	var batches []*batch
	total := 0
	for {
		if err := ctx.canceled(); err != nil {
			return nil, err
		}
		b, err := vi.nextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		if b.n() == 0 {
			continue
		}
		// Every collected batch is retained until the flatten pass, so
		// this is the batch path's memory-charging chokepoint: the
		// selected rows (project flats, join-arena chunks, heap row
		// references) all survive through the result.
		if ctx.mem != nil {
			var nb int64
			for k, cnt := 0, b.n(); k < cnt; k++ {
				nb += rowSliceBytes(b.row(k))
			}
			if err := ctx.mem.charge(nb); err != nil {
				return nil, err
			}
		}
		batches = append(batches, b)
		total += b.n()
	}
	if total == 0 {
		return nil, nil
	}
	out := make([][]Value, 0, total)
	for _, b := range batches {
		if b.sel == nil {
			out = append(out, b.rows...)
		} else {
			for _, i := range b.sel {
				out = append(out, b.rows[i])
			}
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Sequential scan

func (n *seqScanNode) openVec(ctx *evalCtx) (vecIter, error) {
	tbl := ctx.resolveTable(n.tbl)
	it := &seqScanVec{node: n, ctx: ctx, tbl: tbl, end: tbl.slotCount()}
	// Same morsel clipping as the row path: inside a gather worker the
	// driving scan reads only the claimed rowid range.
	if m := ctx.morsel; m != nil && m.node == n {
		it.pos, it.end = int64(m.lo), int64(m.hi)
	}
	return it, nil
}

type seqScanVec struct {
	node *seqScanNode
	ctx  *evalCtx
	tbl  *table
	pos  int64
	end  int64
	ref  pageRef
}

func (it *seqScanVec) nextBatch() (*batch, error) {
	if it.pos >= it.end {
		return nil, nil
	}
	b := &batch{rows: make([][]Value, 0, batchSize)}
	for it.pos < it.end && len(b.rows) < batchSize {
		row := it.tbl.rowRef(it.pos, &it.ref)
		it.pos++
		if row == nil { // tombstone
			continue
		}
		b.in++
		if it.node.filter != nil {
			keep, err := evalPred(it.ctx, it.node.kernel, it.node.filter, row)
			if err != nil {
				return nil, err
			}
			if !keep {
				continue
			}
		}
		b.rows = append(b.rows, row)
	}
	return b, nil
}

func (it *seqScanVec) close() { it.ref.release() }

// ---------------------------------------------------------------------------
// Index scan

func (n *indexScanNode) openVec(ctx *evalCtx) (vecIter, error) {
	tbl := ctx.resolveTable(n.tbl)
	it := &indexScanVec{node: n, ctx: ctx, tbl: tbl}
	var empty bool
	var err error
	it.cur, it.stop, empty, err = n.start(ctx, nil, resolveIndex(tbl, n.idx).tree, &it.buf)
	if err != nil {
		return nil, err
	}
	if empty {
		return &rowSourceVec{in: &sliceIter{}}, nil
	}
	return it, nil
}

type indexScanVec struct {
	node *indexScanNode
	ctx  *evalCtx
	tbl  *table
	cur  btreeCursor
	stop keyBound
	buf  probeBuf
	done bool
	ref  pageRef
}

func (it *indexScanVec) nextBatch() (*batch, error) {
	if it.done || !it.cur.valid() {
		return nil, nil
	}
	b := &batch{rows: make([][]Value, 0, batchSize)}
	for it.cur.valid() && len(b.rows) < batchSize {
		e := it.cur.entry()
		if it.stop.passed(e.key) {
			it.done = true
			break
		}
		it.cur.advance()
		row := it.tbl.rowRef(e.rid, &it.ref)
		if row == nil {
			continue
		}
		b.in++
		if it.node.filter != nil {
			keep, err := evalPred(it.ctx, it.node.kernel, it.node.filter, row)
			if err != nil {
				return nil, err
			}
			if !keep {
				continue
			}
		}
		b.rows = append(b.rows, row)
	}
	return b, nil
}

func (it *indexScanVec) close() { it.ref.release() }

// ---------------------------------------------------------------------------
// Filter

func (n *filterNode) openVec(ctx *evalCtx) (vecIter, error) {
	in, err := openVec(ctx, n.in)
	if err != nil {
		return nil, err
	}
	return &filterVec{in: in, pred: n.pred, kernel: n.kernel, ctx: ctx}, nil
}

type filterVec struct {
	in     vecIter
	pred   compiledExpr
	kernel rowPred
	ctx    *evalCtx
}

// nextBatch narrows the child batch's selection vector in place. A
// batch where every row fails comes back empty (n() == 0), never nil —
// nil is reserved for end of stream.
func (it *filterVec) nextBatch() (*batch, error) {
	b, err := it.in.nextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	in := b.n()
	sel := make([]int, 0, in)
	for k := 0; k < in; k++ {
		idx := k
		if b.sel != nil {
			idx = b.sel[k]
		}
		keep, err := evalPred(it.ctx, it.kernel, it.pred, b.rows[idx])
		if err != nil {
			return nil, err
		}
		if keep {
			sel = append(sel, idx)
		}
	}
	b.sel = sel
	b.in = int64(in)
	return b, nil
}

func (it *filterVec) close() { it.in.close() }

// ---------------------------------------------------------------------------
// Projection

func (n *projectNode) openVec(ctx *evalCtx) (vecIter, error) {
	in, err := openVec(ctx, n.in)
	if err != nil {
		return nil, err
	}
	pv := &projectVec{in: in, node: n, ctx: ctx}
	if ci := n.colIdx; ci != nil {
		pv.prefix = true
		for j, c := range ci {
			if c != j {
				pv.prefix = false
				break
			}
		}
	}
	return pv, nil
}

type projectVec struct {
	in   vecIter
	node *projectNode
	ctx  *evalCtx
	// prefix marks a projection that keeps the leading input columns in
	// order — the output row is a reslice of the input row, so the
	// batch passes through with zero copying (the same trick cutVec
	// uses for hidden columns).
	prefix bool
}

func (it *projectVec) nextBatch() (*batch, error) {
	b, err := it.in.nextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	in := b.n()
	if it.prefix {
		// Reslice every row header in place (selected or not — the
		// extra truncations are harmless) and pass the batch through.
		w := len(it.node.colIdx)
		for i, r := range b.rows {
			b.rows[i] = r[:w]
		}
		b.in = int64(in)
		return b, nil
	}
	out := &batch{rows: make([][]Value, in), in: int64(in)}
	if in == 0 {
		return out, nil
	}
	if ci := it.node.colIdx; ci != nil {
		// Fast path: every projected expression is a plain column
		// reference, so the output row is a gather of input columns.
		// One flat backing array serves the whole batch — the dominant
		// cost of the row path here is the per-row make.
		w := len(ci)
		flat := make([]Value, in*w)
		for k := 0; k < in; k++ {
			r := b.row(k)
			or := flat[k*w : (k+1)*w : (k+1)*w]
			for j, c := range ci {
				or[j] = r[c]
			}
			out.rows[k] = or
		}
		return out, nil
	}
	w := len(it.node.exprs)
	flat := make([]Value, in*w)
	for k := 0; k < in; k++ {
		r := b.row(k)
		or := flat[k*w : (k+1)*w : (k+1)*w]
		for j, e := range it.node.exprs {
			or[j], err = e(it.ctx, r)
			if err != nil {
				return nil, err
			}
		}
		out.rows[k] = or
	}
	return out, nil
}

func (it *projectVec) close() { it.in.close() }

// ---------------------------------------------------------------------------
// Column cut

func (n *cutNode) openVec(ctx *evalCtx) (vecIter, error) {
	in, err := openVec(ctx, n.in)
	if err != nil {
		return nil, err
	}
	return &cutVec{in: in, width: n.width}, nil
}

type cutVec struct {
	in    vecIter
	width int
}

func (it *cutVec) nextBatch() (*batch, error) {
	b, err := it.in.nextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	// Reslicing the row headers drops the hidden columns without
	// copying; unselected rows are truncated too, harmlessly.
	for i, r := range b.rows {
		b.rows[i] = r[:it.width]
	}
	b.in = int64(b.n())
	return b, nil
}

func (it *cutVec) close() { it.in.close() }

// ---------------------------------------------------------------------------
// Limit / offset

func (n *limitNode) openVec(ctx *evalCtx) (vecIter, error) {
	in, err := openVec(ctx, n.in)
	if err != nil {
		return nil, err
	}
	it := &limitVec{in: in, limit: -1}
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

type limitVec struct {
	in            vecIter
	limit, offset int64
	emitted       int64
}

// nextBatch trims the child batch's selection: the offset consumes rows
// from the front (possibly straddling batch boundaries) and the limit
// caps the total emitted. Unlike the row path the child is pulled in
// whole batches, so child row counters round up to batch granularity —
// the differential battery exempts Limit plans from per-operator row
// equality for exactly this reason.
func (it *limitVec) nextBatch() (*batch, error) {
	for {
		if it.limit >= 0 && it.emitted >= it.limit {
			return nil, nil
		}
		b, err := it.in.nextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		n := int64(b.n())
		examined := n
		if it.offset > 0 {
			if n <= it.offset {
				it.offset -= n
				continue
			}
			b.trimFront(int(it.offset))
			n -= it.offset
			it.offset = 0
		}
		if it.limit >= 0 {
			if rem := it.limit - it.emitted; n > rem {
				b.trimTo(int(rem))
				n = rem
			}
		}
		it.emitted += n
		b.in = examined
		return b, nil
	}
}

func (it *limitVec) close() { it.in.close() }

// trimFront drops the first k selected rows from the batch.
func (b *batch) trimFront(k int) {
	if b.sel != nil {
		b.sel = b.sel[k:]
		return
	}
	b.rows = b.rows[k:]
}

// trimTo keeps only the first k selected rows of the batch.
func (b *batch) trimTo(k int) {
	if b.sel != nil {
		b.sel = b.sel[:k]
		return
	}
	b.rows = b.rows[:k]
}

// ---------------------------------------------------------------------------
// Hash-join probe

func (n *hashJoinNode) openVec(ctx *evalCtx) (vecIter, error) {
	ht, built, err := n.build(ctx)
	if err != nil {
		return nil, err
	}
	if s := ctx.opStat(n); s != nil {
		s.BuildRows += built
	}
	left, err := openVec(ctx, n.left)
	if err != nil {
		return nil, err
	}
	return &hashJoinVec{node: n, ctx: ctx, left: left, ht: ht, buf: newJoinBuf(&n.joinOut, n.left)}, nil
}

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

type hashJoinVec struct {
	node *hashJoinNode
	ctx  *evalCtx
	left vecIter
	ht   map[string][][]Value
	key  probeKey
	buf  joinBuf

	// Probe state carried across output batches: the current left
	// batch, position within it, and the active bucket.
	b       *batch
	k       int
	lrow    []Value
	bucket  [][]Value
	bpos    int
	matched bool
	active  bool
	done    bool
}

// nextBatch probes left rows in input order, emitting joined rows in
// exactly the order the row-at-a-time hashJoinIter produces: for each
// left row all bucket matches in build order, then (for a left outer
// join) a NULL-padded row if none matched. A left row's matches can
// straddle output batches.
func (it *hashJoinVec) nextBatch() (*batch, error) {
	if it.done {
		return nil, nil
	}
	out := &batch{rows: make([][]Value, 0, batchSize)}
	for len(out.rows) < batchSize {
		if !it.active {
			// Advance to the next left row, pulling batches as needed.
			for it.b == nil || it.k >= it.b.n() {
				b, err := it.left.nextBatch()
				if err != nil {
					return nil, err
				}
				if b == nil {
					it.done = true
					if len(out.rows) == 0 {
						return nil, nil
					}
					return out, nil
				}
				it.b, it.k = b, 0
			}
			it.lrow = it.b.row(it.k)
			it.k++
			out.in++
			it.matched = false
			var err error
			if it.bucket, err = it.key.lookup(it.ctx, it.node.leftKeys, it.lrow, it.ht); err != nil {
				return nil, err
			}
			it.bpos = 0
			it.buf.setLeft(it.lrow)
			it.active = true
		}
		for it.bpos < len(it.bucket) && len(out.rows) < batchSize {
			r := it.bucket[it.bpos]
			it.bpos++
			ok, err := it.buf.test(it.ctx, it.node.extraCond, r)
			if err != nil {
				return nil, err
			}
			if ok {
				it.matched = true
				out.rows = append(out.rows, it.buf.emit())
			}
		}
		if it.bpos >= len(it.bucket) {
			if it.node.leftOuter && !it.matched {
				out.rows = append(out.rows, it.buf.pad())
			}
			it.active = false
		}
	}
	return out, nil
}

func (it *hashJoinVec) close() { it.left.close() }
