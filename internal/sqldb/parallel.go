package sqldb

// Morsel-driven intra-query parallelism.
//
// The planner's parallelize pass (run once per compiled plan, so cached
// plans stay immutable) wraps maximal row-local pipeline segments in a
// gatherNode. A segment is a chain of streaming operators — scans,
// filters, projections, and the probe sides of joins — whose left spine
// ends in a sequential scan of a base table: the "driver". At execution
// time a bounded worker pool claims fixed-size rowid ranges (morsels)
// of the driver via an atomic counter; each worker re-opens the segment
// with its evalCtx restricted to the claimed morsel, and the gather
// iterator merges worker outputs strictly in morsel order. Because
// morsels partition the heap in rowid order and are emitted in rowid
// order, parallel execution returns byte-identical results to serial
// execution — document order (heap order) and every downstream
// operator's input order are preserved unconditionally.
//
// Join build sides are loop-invariant across a segment's per-morsel
// re-opens, so they are computed once per execution in a sharedBuilds
// cache (whichever worker arrives first builds; sync.Once makes the
// rest wait) and, for large hash-join builds, partitioned across
// goroutines with an order-preserving bucket merge.
//
// Aggregations over a parallelizable chain run as parallel partial
// aggregation (parallelAggNode) when every aggregate merges exactly:
// COUNT/MIN/MAX always, SUM/AVG only over statically integer-typed
// arguments — float summation is not associative, and reordering it
// would break the battery's byte-identical guarantee.
//
// All mutable state lives in per-execution, per-worker scratchpads:
// worker runStats are folded into the parent's runStats when the
// workers are joined, so the existing metrics registry and EXPLAIN
// ANALYZE see the combined counters (Time then sums across workers and
// reads as CPU time, not wall time). Workers are always joined before
// the gather iterator reports end-of-stream, an error, or close — no
// worker goroutine ever outlives the database lock its query holds.

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

const (
	// morselSize is the number of heap slots (rowids) per morsel.
	morselSize = 1024
	// parallelScanThreshold is the minimum live row count for a scan to
	// drive a parallel segment; smaller tables stay serial.
	parallelScanThreshold = 2048
	// parallelBuildThreshold is the minimum estimated build-side row
	// count for a partitioned hash-join build.
	parallelBuildThreshold = 2048
)

// SetParallelism sets the degree-of-parallelism knob: 0 = automatic
// (GOMAXPROCS), 1 = serial, n>1 = at most n workers per query. The
// change publishes a new state with a bumped schema epoch so cached and
// prepared plans — which bake the parallel/serial decision in — are
// recompiled under the new setting.
func (db *Database) SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	tx := db.beginWrite()
	if n == tx.st.parallelism {
		tx.abort()
		return
	}
	tx.st.parallelism = n
	tx.st.epoch++
	tx.commit(nil)
}

// Parallelism reports the configured knob (0 = automatic).
func (db *Database) Parallelism() int {
	return db.state.Load().parallelism
}

// dop resolves the state's effective degree of parallelism.
func (st *dbState) dop() int {
	if st.parallelism > 0 {
		return st.parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// morselRange restricts one seqScanNode (matched by pointer identity)
// to the rowid range [lo, hi).
type morselRange struct {
	node   *seqScanNode
	lo, hi int
}

// sharedBuilds caches join build sides for one gather execution, keyed
// by operator node. Entries are created under the mutex; the build
// itself runs under the entry's sync.Once so concurrent workers block
// until the first finishes.
type sharedBuilds struct {
	mu sync.Mutex
	m  map[planNode]*buildEntry
}

type buildEntry struct {
	once sync.Once
	rows [][]Value            // nlJoin inner
	ht   map[string][][]Value // hashJoin table
	n    int64                // build-side row count
	err  error
}

func newSharedBuilds() *sharedBuilds {
	return &sharedBuilds{m: map[planNode]*buildEntry{}}
}

func (s *sharedBuilds) entry(n planNode) *buildEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.m[n]
	if e == nil {
		e = &buildEntry{}
		s.m[n] = e
	}
	return e
}

// hashRows builds the hash-join table over rows. With par > 1 and a
// large enough input the build is partitioned: contiguous chunks are
// hashed by concurrent goroutines into private maps, then merged in
// chunk order — so every bucket lists its rows in the original build
// order and probe results match the serial build exactly.
func hashRows(ctx *evalCtx, rows [][]Value, keys []compiledExpr, par int) (map[string][][]Value, error) {
	if par > len(rows)/morselSize {
		par = len(rows) / morselSize
	}
	if par <= 1 || len(rows) < parallelBuildThreshold {
		return hashChunk(ctx, rows, keys)
	}
	chunk := (len(rows) + par - 1) / par
	maps := make([]map[string][][]Value, par)
	errs := make([]error, par)
	var wg sync.WaitGroup
	for p := 0; p < par; p++ {
		lo := p * chunk
		hi := lo + chunk
		if hi > len(rows) {
			hi = len(rows)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(p, lo, hi int) {
			defer wg.Done()
			// Panic barrier: a partition build panic becomes this
			// partition's error so the merge below fails the query
			// instead of killing the process.
			defer func() {
				if r := recover(); r != nil {
					errs[p] = internalError(r)
				}
			}()
			maps[p], errs[p] = hashChunk(ctx, rows[lo:hi], keys)
		}(p, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	ht := maps[0]
	for _, m := range maps[1:] {
		if m == nil {
			continue
		}
		for k, vs := range m {
			ht[k] = append(ht[k], vs...)
		}
	}
	return ht, nil
}

func hashChunk(ctx *evalCtx, rows [][]Value, keys []compiledExpr) (map[string][][]Value, error) {
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

// ---------------------------------------------------------------------------
// Gather: order-preserving exchange over a morsel-parallel segment

type gatherNode struct {
	seg    planNode     // the parallel segment (gather's only child)
	driver *seqScanNode // the scan whose heap is split into morsels
	dop    int          // plan-time worker cap
}

func (n *gatherNode) sch() schema      { return n.seg.sch() }
func (n *gatherNode) estRows() float64 { return n.seg.estRows() }

func (n *gatherNode) open(ctx *evalCtx) (rowIter, error) {
	// Morsels must cover the heap of the version this snapshot sees, not
	// the plan-time version — the table may have grown since planning.
	total := int(ctx.resolveTable(n.driver.tbl).slotCount())
	if min(n.dop, (total+morselSize-1)/morselSize) <= 1 {
		// Run-time serial fallback (the table shrank, or dop is 1).
		return openNode(ctx, n.seg)
	}
	g := &gatherIter{node: n, ctx: ctx}
	g.start(total)
	return g, nil
}

// rewind joins the workers and starts a fresh set over the heap as the
// snapshot now sees it.
func (g *gatherIter) rewind() error {
	g.join()
	g.start(int(g.ctx.resolveTable(g.node.driver.tbl).slotCount()))
	return nil
}

type morselOut struct {
	idx  int
	rows [][]Value
	err  error
}

type gatherIter struct {
	node     *gatherNode
	ctx      *evalCtx
	nMorsels int
	workers  int

	results chan morselOut
	cancel  atomic.Bool
	wg      sync.WaitGroup

	// Reorder state: morsels are emitted strictly in index order.
	pending map[int][][]Value
	nextIdx int
	buf     [][]Value
	bufPos  int

	workerStats []*runStats
	workerRows  []int64
	joined      bool
}

// start resets the reorder state and launches the workers over a heap
// of total slots.
func (g *gatherIter) start(total int) {
	g.nMorsels = (total + morselSize - 1) / morselSize
	g.workers = max(min(g.node.dop, g.nMorsels), 1)
	g.results = make(chan morselOut, g.nMorsels+g.workers)
	g.cancel.Store(false)
	g.pending = map[int][][]Value{}
	g.nextIdx, g.buf, g.bufPos = 0, nil, 0
	g.workerStats = nil
	g.workerRows = make([]int64, g.workers)
	g.joined = false
	shared := newSharedBuilds()
	var next atomic.Int64
	if st := g.ctx.stats; st != nil {
		g.workerStats = make([]*runStats, g.workers)
		for w := range g.workerStats {
			g.workerStats[w] = &runStats{meta: st.meta, ops: make([]OpStats, len(st.ops)), timed: st.timed}
		}
	}
	for w := 0; w < g.workers; w++ {
		g.wg.Add(1)
		go func(w int) {
			defer g.wg.Done()
			// Morsel-worker panic barrier: a panic in this worker
			// cancels its siblings and surfaces as a typed ErrInternal
			// through the ordinary error path, so only this query fails
			// — the channel is buffered for the worst case, the send
			// never blocks, and Gather's join still drains every worker.
			claimed := -1
			defer func() {
				if r := recover(); r != nil {
					g.cancel.Store(true)
					g.results <- morselOut{idx: claimed, err: internalError(r)}
				}
			}()
			wctx := &evalCtx{snap: g.ctx.snap, qctx: g.ctx.qctx, params: g.ctx.params, outer: g.ctx.outer, shared: shared, mem: g.ctx.mem}
			if g.workerStats != nil {
				wctx.stats = g.workerStats[w]
			}
			for !g.cancel.Load() {
				idx := int(next.Add(1)) - 1
				if idx >= g.nMorsels {
					return
				}
				claimed = idx
				if f := testWorkerPanic.Load(); f != nil {
					(*f)(idx)
				}
				lo := idx * morselSize
				hi := lo + morselSize
				if hi > total {
					hi = total
				}
				wctx.morsel = &morselRange{node: g.node.driver, lo: lo, hi: hi}
				rows, err := materialize(wctx, g.node.seg)
				if err != nil {
					g.cancel.Store(true)
					g.results <- morselOut{idx: idx, err: err}
					return
				}
				g.workerRows[w] += int64(len(rows))
				g.results <- morselOut{idx: idx, rows: rows}
			}
		}(w)
	}
}

// testWorkerPanic, when non-nil, runs in every gather worker right
// after it claims a morsel; the fault-injection tests use it to panic
// inside a worker and assert the blast radius is one query.
var testWorkerPanic atomic.Pointer[func(morselIdx int)]

func (g *gatherIter) next() ([]Value, error) {
	for {
		if g.bufPos < len(g.buf) {
			r := g.buf[g.bufPos]
			g.bufPos++
			return r, nil
		}
		if g.nextIdx >= g.nMorsels {
			g.join()
			return nil, nil
		}
		if rows, ok := g.pending[g.nextIdx]; ok {
			delete(g.pending, g.nextIdx)
			g.buf, g.bufPos = rows, 0
			g.nextIdx++
			continue
		}
		out := <-g.results
		if out.err != nil {
			g.join()
			return nil, out.err
		}
		g.pending[out.idx] = out.rows
	}
}

func (g *gatherIter) close() { g.join() }

// join cancels outstanding work, waits for every worker to exit, and
// folds the per-worker scratchpads into the parent execution's stats.
// The result channel is buffered for the worst case, so workers never
// block on send and always observe the cancel flag.
func (g *gatherIter) join() {
	if g.joined {
		return
	}
	g.joined = true
	g.cancel.Store(true)
	g.wg.Wait()
	st := g.ctx.stats
	if st == nil {
		return
	}
	for _, wrs := range g.workerStats {
		st.fold(wrs)
	}
	if s := g.ctx.opStat(g.node); s != nil {
		s.Workers = g.workers
		s.WorkerRows = append([]int64(nil), g.workerRows...)
	}
}

// ---------------------------------------------------------------------------
// Parallel partial aggregation

type parallelAggNode struct {
	seg     planNode     // the aggregation input chain
	driver  *seqScanNode // its morsel source
	groupBy []compiledExpr
	aggs    []aggSpec
	schema  schema
	dop     int
}

func (n *parallelAggNode) sch() schema { return n.schema }

func (n *parallelAggNode) estRows() float64 {
	if len(n.groupBy) == 0 {
		return 1
	}
	return n.seg.estRows()/4 + 1
}

// aggPos is a row's global position: serial execution visits morsels in
// ascending index order, so (morsel, seq-within-morsel) lexicographic
// order is exactly the serial visit order.
type aggPos struct {
	morsel int
	seq    int64
}

func (a aggPos) before(b aggPos) bool {
	if a.morsel != b.morsel {
		return a.morsel < b.morsel
	}
	return a.seq < b.seq
}

// partialGroup is one group's per-worker partial state.
type partialGroup struct {
	keys   []Value
	states []*aggState
	first  aggPos // earliest input row that opened this group
}

type partialResult struct {
	groups map[string]*partialGroup
	err    error
}

func (n *parallelAggNode) newStates() []*aggState {
	st := make([]*aggState, len(n.aggs))
	for i := range st {
		st[i] = &aggState{}
	}
	return st
}

// foldRow folds one input row at position pos into groups.
func (n *parallelAggNode) foldRow(ctx *evalCtx, row []Value, pos aggPos, groups map[string]*partialGroup) error {
	keys := make([]Value, len(n.groupBy))
	var err error
	for i, g := range n.groupBy {
		keys[i], err = g(ctx, row)
		if err != nil {
			return err
		}
	}
	k := distinctKey(keys)
	grp := groups[k]
	if grp == nil {
		if err := ctx.mem.charge(valuesBytes(keys) + int64(len(k)) + int64(len(n.aggs))*64 + 48); err != nil {
			return err
		}
		grp = &partialGroup{keys: keys, states: n.newStates(), first: pos}
		groups[k] = grp
	}
	for i, spec := range n.aggs {
		if spec.arg == nil { // COUNT(*)
			grp.states[i].count++
			continue
		}
		v, err := spec.arg(ctx, row)
		if err != nil {
			return err
		}
		grp.states[i].add(v, spec.distinct)
	}
	return nil
}

// fold opens the segment restricted to the ctx's morsel and folds its
// rows into groups, tagging them with positions starting at
// (morselIdx, 0).
func (n *parallelAggNode) fold(ctx *evalCtx, morselIdx int, groups map[string]*partialGroup) error {
	it, err := openNode(ctx, n.seg)
	if err != nil {
		return err
	}
	defer it.close()
	for seq := int64(0); ; seq++ {
		row, err := it.next()
		if err != nil || row == nil {
			return err
		}
		if err := n.foldRow(ctx, row, aggPos{morsel: morselIdx, seq: seq}, groups); err != nil {
			return err
		}
	}
}

func (n *parallelAggNode) open(ctx *evalCtx) (rowIter, error) {
	return openBuilt(ctx, n.aggregate)
}

// aggregate folds the segment, in parallel when the heap holds more
// than one morsel, and returns the groups in serial first-occurrence
// order.
func (n *parallelAggNode) aggregate(ctx *evalCtx) ([][]Value, error) {
	total := int(ctx.resolveTable(n.driver.tbl).slotCount())
	nMorsels := (total + morselSize - 1) / morselSize
	workers := n.dop
	if workers > nMorsels {
		workers = nMorsels
	}

	var groups map[string]*partialGroup
	if workers <= 1 {
		// Serial fallback: one fold over the whole segment.
		groups = map[string]*partialGroup{}
		if err := n.fold(ctx, 0, groups); err != nil {
			return nil, err
		}
	} else {
		var err error
		groups, err = n.parallelFold(ctx, total, nMorsels, workers)
		if err != nil {
			return nil, err
		}
	}

	// Global aggregation over an empty input produces one row.
	if len(n.groupBy) == 0 && len(groups) == 0 {
		groups[""] = &partialGroup{states: n.newStates()}
	}

	// Emit groups in serial first-occurrence order.
	ordered := make([]*partialGroup, 0, len(groups))
	for _, g := range groups {
		ordered = append(ordered, g)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].first.before(ordered[j].first) })
	out := make([][]Value, 0, len(ordered))
	for _, grp := range ordered {
		row := make([]Value, 0, len(n.groupBy)+len(n.aggs))
		row = append(row, grp.keys...)
		for i, spec := range n.aggs {
			row = append(row, grp.states[i].result(spec.name))
		}
		out = append(out, row)
	}
	return out, nil
}

// parallelFold runs the worker pool: each worker folds its claimed
// morsels into a private group map; the maps are merged here (exact by
// construction — see aggState.merge) keeping the earliest first-seen
// position per group.
func (n *parallelAggNode) parallelFold(ctx *evalCtx, total, nMorsels, workers int) (map[string]*partialGroup, error) {
	shared := newSharedBuilds()
	var next atomic.Int64
	var cancel atomic.Bool
	results := make(chan partialResult, workers)
	var workerStats []*runStats
	if st := ctx.stats; st != nil {
		workerStats = make([]*runStats, workers)
		for w := range workerStats {
			workerStats[w] = &runStats{meta: st.meta, ops: make([]OpStats, len(st.ops)), timed: st.timed}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Panic barrier (see gatherIter.start): the channel holds
			// one slot per worker, so the send never blocks.
			defer func() {
				if r := recover(); r != nil {
					cancel.Store(true)
					results <- partialResult{err: internalError(r)}
				}
			}()
			wctx := &evalCtx{snap: ctx.snap, qctx: ctx.qctx, params: ctx.params, outer: ctx.outer, shared: shared, mem: ctx.mem}
			if workerStats != nil {
				wctx.stats = workerStats[w]
			}
			groups := map[string]*partialGroup{}
			for !cancel.Load() {
				idx := int(next.Add(1)) - 1
				if idx >= nMorsels {
					break
				}
				lo := idx * morselSize
				hi := lo + morselSize
				if hi > total {
					hi = total
				}
				wctx.morsel = &morselRange{node: n.driver, lo: lo, hi: hi}
				if err := n.fold(wctx, idx, groups); err != nil {
					cancel.Store(true)
					results <- partialResult{err: err}
					return
				}
			}
			results <- partialResult{groups: groups}
		}(w)
	}
	wg.Wait()
	close(results)

	if st := ctx.stats; st != nil {
		for _, wrs := range workerStats {
			st.fold(wrs)
		}
		if s := ctx.opStat(n); s != nil {
			s.Workers = workers
		}
	}

	global := map[string]*partialGroup{}
	var firstErr error
	for res := range results {
		if res.err != nil {
			if firstErr == nil {
				firstErr = res.err
			}
			continue
		}
		for k, g := range res.groups {
			gg := global[k]
			if gg == nil {
				global[k] = g
				continue
			}
			if g.first.before(gg.first) {
				gg.first = g.first
			}
			for i := range gg.states {
				gg.states[i].merge(g.states[i])
			}
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return global, nil
}

// ---------------------------------------------------------------------------
// The parallelize pass

// parallelize decorates a freshly compiled top-level plan with parallel
// operators. It runs exactly once per compiled plan, before the plan is
// cached — parallel decisions (like everything else in a plan) are
// immutable afterwards; changing the knob bumps the schema epoch and
// recompiles.
func parallelize(st *dbState, root planNode) planNode {
	dop := st.dop()
	if dop <= 1 {
		return root
	}
	return parallelizeNode(root, dop)
}

func parallelizeNode(n planNode, dop int) planNode {
	// Aggregation over a parallelizable chain: parallel partial
	// aggregation, but only when every aggregate merges exactly.
	if a, ok := n.(*aggNode); ok {
		if d := parallelChainDriver(a.in); d != nil && allExactAggs(a.aggs) {
			markParallelBuilds(a.in, dop)
			return &parallelAggNode{
				seg: a.in, driver: d,
				groupBy: a.groupBy, aggs: a.aggs, schema: a.schema, dop: dop,
			}
		}
	}
	if d := parallelChainDriver(n); d != nil {
		markParallelBuilds(n, dop)
		return &gatherNode{seg: n, driver: d, dop: dop}
	}
	switch n := n.(type) {
	case *filterNode:
		n.in = parallelizeNode(n.in, dop)
	case *projectNode:
		n.in = parallelizeNode(n.in, dop)
	case *cutNode:
		n.in = parallelizeNode(n.in, dop)
	case *sortNode:
		n.in = parallelizeNode(n.in, dop)
	case *limitNode:
		n.in = parallelizeNode(n.in, dop)
	case *distinctNode:
		n.in = parallelizeNode(n.in, dop)
	case *aggNode:
		n.in = parallelizeNode(n.in, dop)
	case *unionAllNode:
		for i := range n.parts {
			n.parts[i] = parallelizeNode(n.parts[i], dop)
		}
	case *nlJoinNode:
		n.left = parallelizeNode(n.left, dop)
	case *indexJoinNode:
		n.left = parallelizeNode(n.left, dop)
	case *hashJoinNode:
		n.left = parallelizeNode(n.left, dop)
		if n.right.estRows() >= parallelBuildThreshold {
			n.buildPar = dop
		}
	}
	return n
}

// parallelChainDriver walks a candidate segment's left spine and
// returns the driving sequential scan, or nil when the segment cannot
// be morsel-parallelized. Chain members are exactly the row-local
// streaming operators: scans, filters, projections, column cuts, and
// the probe (left) sides of joins. Order-sensitive or stateful
// operators — sort, limit, distinct, aggregation, union — and
// non-heap sources (index scans, derived tables, VALUES) break the
// chain.
func parallelChainDriver(n planNode) *seqScanNode {
	switch n := n.(type) {
	case *seqScanNode:
		if n.tbl.live >= parallelScanThreshold {
			return n
		}
		return nil
	case *filterNode:
		return parallelChainDriver(n.in)
	case *projectNode:
		return parallelChainDriver(n.in)
	case *cutNode:
		return parallelChainDriver(n.in)
	case *hashJoinNode:
		return parallelChainDriver(n.left)
	case *indexJoinNode:
		return parallelChainDriver(n.left)
	case *nlJoinNode:
		return parallelChainDriver(n.left)
	}
	return nil
}

// markParallelBuilds enables the partitioned hash-join build for large
// build sides anywhere inside a parallel segment.
func markParallelBuilds(n planNode, dop int) {
	if hj, ok := n.(*hashJoinNode); ok {
		if hj.right.estRows() >= parallelBuildThreshold {
			hj.buildPar = dop
		}
	}
	for _, c := range planChildren(n) {
		markParallelBuilds(c, dop)
	}
}

// allExactAggs reports whether every aggregate in the list merges
// exactly across partial states (see aggSpec.exact).
func allExactAggs(aggs []aggSpec) bool {
	for _, a := range aggs {
		if !a.exact {
			return false
		}
	}
	return true
}
