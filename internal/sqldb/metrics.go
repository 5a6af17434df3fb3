package sqldb

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Per-operator runtime instrumentation and the per-Database metrics
// registry.
//
// Every executed plan is walked once (lazily, cached on the plan) to
// assign each operator node a stable pre-order id; executions then
// carry a runStats scratchpad in the evalCtx and every operator opened
// through openNode is wrapped in a counting iterator. Counting is
// always on (rows, next() calls, opens, join build sizes — a handful of
// increments per row); per-operator wall-clock timing costs two clock
// reads per next() call and is only enabled for EXPLAIN ANALYZE.
//
// At the end of a successful query the scratchpad is folded into the
// database's metricsRegistry: a query-latency histogram keyed by
// normalized SQL template, cumulative per-operator-kind totals, and a
// slow-query ring buffer. The registry is guarded by its own mutex, so
// any number of concurrent readers (cached plans execute under the
// database RLock) can record without losing increments.

// ---------------------------------------------------------------------------
// Per-plan operator metadata

// planOps assigns stable pre-order ids to a plan's operator nodes. It
// is built once per compiled plan and shared by all executions.
type planOps struct {
	index map[planNode]int
	kinds []string
}

// opsMeta returns the plan's operator metadata, building it on first use.
func (p *plan) opsMeta() *planOps {
	p.opsOnce.Do(func() {
		m := &planOps{index: map[planNode]int{}}
		var walk func(n planNode)
		walk = func(n planNode) {
			m.index[n] = len(m.kinds)
			m.kinds = append(m.kinds, opKind(n))
			for _, c := range planChildren(n) {
				walk(c)
			}
		}
		walk(p.root)
		p.ops = m
	})
	return p.ops
}

// planChildren returns an operator's input nodes in display order. It
// is the single tree-shape oracle shared by EXPLAIN rendering and the
// instrumentation walker. Subquery plans compiled inside expressions
// are separate plans, not part of the tree: EXPLAIN renders a filter's
// beneath it (filterNode.subs), and only EXPLAIN ANALYZE counts them
// (runStats.sub).
func planChildren(n planNode) []planNode {
	switch n := n.(type) {
	case *filterNode:
		return []planNode{n.in}
	case *projectNode:
		return []planNode{n.in}
	case *nlJoinNode:
		return []planNode{n.left, n.right}
	case *hashJoinNode:
		return []planNode{n.left, n.right}
	case *indexJoinNode:
		return []planNode{n.left}
	case *sortNode:
		return []planNode{n.in}
	case *limitNode:
		return []planNode{n.in}
	case *distinctNode:
		return []planNode{n.in}
	case *aggNode:
		return []planNode{n.in}
	case *unionAllNode:
		return n.parts
	case *derivedNode:
		return []planNode{n.p.root}
	case *cutNode:
		return []planNode{n.in}
	}
	return nil
}

// opKind names an operator for metrics aggregation and EXPLAIN output.
func opKind(n planNode) string {
	switch n := n.(type) {
	case *seqScanNode:
		return "SeqScan"
	case *indexScanNode:
		return "IndexScan"
	case *filterNode:
		return "Filter"
	case *projectNode:
		return "Project"
	case *nlJoinNode:
		if n.leftOuter {
			return "NestedLoopLeftJoin"
		}
		return "NestedLoopJoin"
	case *hashJoinNode:
		return "HashJoin"
	case *indexJoinNode:
		return "IndexJoin"
	case *sortNode:
		return "Sort"
	case *limitNode:
		return "Limit"
	case *distinctNode:
		return "Distinct"
	case *aggNode:
		return "Aggregate"
	case *indexMinMaxNode:
		return "IndexMinMax"
	case *indexCountNode:
		return "IndexCount"
	case *unionAllNode:
		return "UnionAll"
	case *derivedNode:
		return "Derived"
	case *valuesNode:
		return "Values"
	case *cutNode:
		return "Cut"
	}
	return "Unknown"
}

// ---------------------------------------------------------------------------
// Per-execution counters

// OpStats holds one operator's counters for one execution.
type OpStats struct {
	// Opens counts iterator openings and rewinds (the "loops" of an
	// inner side).
	Opens int64
	// Rows counts rows the operator produced.
	Rows int64
	// Nexts counts next() calls (Rows + end-of-stream probes).
	Nexts int64
	// BuildRows counts rows materialized on a join's build/inner side.
	BuildRows int64
	// Descents counts an index scan's or index join's root-to-leaf
	// B-tree descents; every other probe resumed from the last one's
	// landing position (see probeCursor).
	Descents int64
	// Time is cumulative wall clock inside open/next, inclusive of
	// children. Only populated when timing is enabled (EXPLAIN ANALYZE).
	Time time.Duration
}

// runStats is the per-execution scratchpad. One execution runs on one
// goroutine, so plain increments suffice; cross-query aggregation
// happens in the registry under its mutex.
type runStats struct {
	meta  *planOps
	ops   []OpStats
	timed bool
	// subs holds the counters of the subquery plans the execution ran,
	// kept only under EXPLAIN ANALYZE (timed) for it to render.
	subs map[*plan]*runStats
}

// sub returns the counters of subquery plan p, made on first use; nil
// unless the execution is timed, so plain queries run their subqueries
// uninstrumented.
func (rs *runStats) sub(p *plan) *runStats {
	if rs == nil || !rs.timed {
		return nil
	}
	if s := rs.subs[p]; s != nil {
		return s
	}
	if rs.subs == nil {
		rs.subs = map[*plan]*runStats{}
	}
	s := newRunStats(p, true)
	rs.subs[p] = s
	return s
}

func newRunStats(p *plan, timed bool) *runStats {
	meta := p.opsMeta()
	return &runStats{meta: meta, ops: make([]OpStats, len(meta.kinds)), timed: timed}
}

// opStat returns the mutable counters for a node, or nil when the
// execution is not instrumented or the node is outside the main tree.
func (ctx *evalCtx) opStat(n planNode) *OpStats {
	if ctx.stats == nil {
		return nil
	}
	if id, ok := ctx.stats.meta.index[n]; ok {
		return &ctx.stats.ops[id]
	}
	return nil
}

// openNode opens a plan node, wrapping the iterator with counters when
// the execution is instrumented. Every operator (and materialize) opens
// its inputs through this chokepoint.
func openNode(ctx *evalCtx, n planNode) (rowIter, error) {
	st := ctx.stats
	if st == nil {
		return n.open(ctx)
	}
	id, ok := st.meta.index[n]
	if !ok {
		return n.open(ctx)
	}
	op := &st.ops[id]
	op.Opens++
	var t0 time.Time
	if st.timed {
		t0 = time.Now()
	}
	it, err := n.open(ctx)
	if st.timed {
		op.Time += time.Since(t0)
	}
	if err != nil {
		return nil, err
	}
	return &statIter{in: it, ctx: ctx, op: op, timed: st.timed}, nil
}

// statIter counts rows and next() calls flowing out of one operator.
// Because every execution is instrumented, it doubles as the
// cancellation chokepoint: on a coarse stride it polls the execution
// context and aborts with its error, which propagates through operators
// exactly like any row error.
type statIter struct {
	in    rowIter
	ctx   *evalCtx
	op    *OpStats
	timed bool
	// seen strides the cancellation poll. It is per-iterator, not the
	// shared op.Nexts: an operator re-opened under a nested-loop driver
	// inherits its predecessors' cumulative Nexts, which would make the poll cadence within one open
	// depend on every earlier open. The shared counter stays the
	// accounting truth; the stride is private.
	seen int64
}

func (it *statIter) next() ([]Value, error) {
	if it.seen&255 == 255 {
		if err := it.ctx.canceled(); err != nil {
			return nil, err
		}
		if f := testExecPanic.Load(); f != nil {
			(*f)()
		}
	}
	it.seen++
	var row []Value
	var err error
	if it.timed {
		t0 := time.Now()
		row, err = it.in.next()
		it.op.Time += time.Since(t0)
	} else {
		row, err = it.in.next()
	}
	it.op.Nexts++
	if row != nil {
		it.op.Rows++
	}
	return row, err
}

// testExecPanic, when non-nil, runs on statIter.next's cancellation
// stride (every 256th row an operator returns); the fault-injection
// tests use it to panic inside a running query and assert the blast
// radius is that one query.
var testExecPanic atomic.Pointer[func()]

func (it *statIter) rewind() error {
	it.op.Opens++
	if !it.timed {
		return it.in.rewind()
	}
	t0 := time.Now()
	err := it.in.rewind()
	it.op.Time += time.Since(t0)
	return err
}

func (it *statIter) close() { it.in.close() }

// ---------------------------------------------------------------------------
// SQL template normalization

// NormalizeSQL reduces a statement to its template: literals and
// parameters become '?', whitespace collapses, keywords uppercase.
// Queries differing only in constants share one histogram key. The
// input is returned unchanged when it does not lex.
func NormalizeSQL(sql string) string {
	toks, err := lexSQL(sql)
	if err != nil {
		return strings.TrimSpace(sql)
	}
	var b strings.Builder
	for i, t := range toks {
		if t.kind == tokEOF {
			break
		}
		if i > 0 {
			b.WriteByte(' ')
		}
		switch t.kind {
		case tokInt, tokFloat, tokString, tokParam:
			b.WriteByte('?')
		case tokIdent:
			if identNeedsQuoting(t.text) {
				b.WriteByte('"')
				b.WriteString(t.text)
				b.WriteByte('"')
			} else {
				b.WriteString(t.text)
			}
		default:
			b.WriteString(t.text)
		}
	}
	return b.String()
}

// identNeedsQuoting reports whether an identifier token must be
// re-quoted for the template to lex back to the same token (the lexer
// strips quotes, so "select" or "a b" would otherwise change meaning).
func identNeedsQuoting(s string) bool {
	if s == "" {
		return true
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return true
			}
		default:
			return true
		}
	}
	return sqlKeywords[strings.ToUpper(s)]
}

// ---------------------------------------------------------------------------
// Registry

// latencyBounds are the upper edges of the query-latency histogram
// buckets (powers of four from 4µs); the final bucket is unbounded.
var latencyBounds = [...]time.Duration{
	4 * time.Microsecond,
	16 * time.Microsecond,
	64 * time.Microsecond,
	256 * time.Microsecond,
	1024 * time.Microsecond,
	4096 * time.Microsecond,
	16384 * time.Microsecond,
	65536 * time.Microsecond,
	262144 * time.Microsecond,
	1048576 * time.Microsecond,
}

const latencyBuckets = len(latencyBounds) + 1

func latencyBucket(d time.Duration) int {
	for i, b := range latencyBounds {
		if d <= b {
			return i
		}
	}
	return latencyBuckets - 1
}

const (
	// maxTemplates caps the per-template map; excess templates fold
	// into the overflowTemplate bucket.
	maxTemplates     = 256
	overflowTemplate = "~other"
	// slowLogCap bounds the slow-query ring buffer.
	slowLogCap = 32
	// defaultSlowQueryThreshold flags queries slower than this.
	defaultSlowQueryThreshold = 100 * time.Millisecond
)

type templateEntry struct {
	count uint64
	total time.Duration
	max   time.Duration
	hist  [latencyBuckets]uint64
}

type opEntry struct {
	opens, rows, nexts, buildRows uint64
	time                          time.Duration
}

// SlowQuery is one slow-query log entry.
type SlowQuery struct {
	SQL      string
	Duration time.Duration
	Rows     int
	At       time.Time
}

// metricsRegistry accumulates query metrics for one Database. All
// fields are guarded by mu; recording takes the lock once per query.
type metricsRegistry struct {
	mu            sync.Mutex
	queries       uint64
	queryErrors   uint64
	rows          uint64
	queryTime     time.Duration
	planCompiles  uint64
	planTime      time.Duration
	hist          [latencyBuckets]uint64
	templates     map[string]*templateEntry
	ops           map[string]*opEntry
	slow          [slowLogCap]SlowQuery
	slowLen       int
	slowNext      int
	slowThreshold time.Duration
}

func newMetricsRegistry() *metricsRegistry {
	return &metricsRegistry{
		templates:     map[string]*templateEntry{},
		ops:           map[string]*opEntry{},
		slowThreshold: defaultSlowQueryThreshold,
	}
}

// recordQuery folds one successful execution into the registry.
func (m *metricsRegistry) recordQuery(sql, template string, d time.Duration, rows int, rs *runStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queries++
	m.rows += uint64(rows)
	m.queryTime += d
	m.hist[latencyBucket(d)]++

	te := m.templates[template]
	if te == nil {
		if len(m.templates) >= maxTemplates {
			template = overflowTemplate
			te = m.templates[template]
		}
		if te == nil {
			te = &templateEntry{}
			m.templates[template] = te
		}
	}
	te.count++
	te.total += d
	if d > te.max {
		te.max = d
	}
	te.hist[latencyBucket(d)]++

	if rs != nil {
		for i, op := range rs.ops {
			if op.Opens == 0 {
				continue
			}
			kind := rs.meta.kinds[i]
			oe := m.ops[kind]
			if oe == nil {
				oe = &opEntry{}
				m.ops[kind] = oe
			}
			oe.opens += uint64(op.Opens)
			oe.rows += uint64(op.Rows)
			oe.nexts += uint64(op.Nexts)
			oe.buildRows += uint64(op.BuildRows)
			oe.time += op.Time
		}
	}

	if m.slowThreshold > 0 && d >= m.slowThreshold {
		m.slow[m.slowNext] = SlowQuery{SQL: sql, Duration: d, Rows: rows, At: time.Now()}
		m.slowNext = (m.slowNext + 1) % slowLogCap
		if m.slowLen < slowLogCap {
			m.slowLen++
		}
	}
}

func (m *metricsRegistry) recordQueryError() {
	m.mu.Lock()
	m.queryErrors++
	m.mu.Unlock()
}

// recordPlanCompile accounts one plan compilation (cache miss or
// Prepare) and its wall time.
func (m *metricsRegistry) recordPlanCompile(d time.Duration) {
	m.mu.Lock()
	m.planCompiles++
	m.planTime += d
	m.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Snapshot types

// LatencyBucket is one histogram bucket; Le is the inclusive upper
// bound (0 for the unbounded final bucket).
type LatencyBucket struct {
	Le    time.Duration
	Count uint64
}

// TemplateStats summarizes one normalized SQL template.
type TemplateStats struct {
	Template string
	Count    uint64
	Total    time.Duration
	Max      time.Duration
}

// Mean returns the average latency of the template.
func (t TemplateStats) Mean() time.Duration {
	if t.Count == 0 {
		return 0
	}
	return t.Total / time.Duration(t.Count)
}

// OpTotalStats is the cumulative activity of one operator kind across
// all instrumented executions.
type OpTotalStats struct {
	Kind      string
	Opens     uint64
	Rows      uint64
	Nexts     uint64
	BuildRows uint64
	// Time is cumulative only over timed (EXPLAIN ANALYZE) executions.
	Time time.Duration
}

// MetricsSnapshot is a point-in-time copy of the registry.
type MetricsSnapshot struct {
	Queries     uint64
	QueryErrors uint64
	// Rows is the total result rows returned.
	Rows uint64
	// QueryTime is cumulative end-to-end query latency.
	QueryTime time.Duration
	// PlanCompiles / PlanTime account plan compilation (cache misses
	// and Prepare calls).
	PlanCompiles uint64
	PlanTime     time.Duration
	// Latency is the global query-latency histogram.
	Latency []LatencyBucket
	// Templates lists per-template stats, busiest (by total time) first.
	Templates []TemplateStats
	// Operators lists cumulative per-operator-kind totals, sorted by kind.
	Operators []OpTotalStats
	// SlowQueries lists the retained slow queries, oldest first.
	SlowQueries   []SlowQuery
	SlowThreshold time.Duration
}

func (m *metricsRegistry) snapshot() MetricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := MetricsSnapshot{
		Queries:       m.queries,
		QueryErrors:   m.queryErrors,
		Rows:          m.rows,
		QueryTime:     m.queryTime,
		PlanCompiles:  m.planCompiles,
		PlanTime:      m.planTime,
		SlowThreshold: m.slowThreshold,
	}
	s.Latency = make([]LatencyBucket, latencyBuckets)
	for i := range m.hist {
		if i < len(latencyBounds) {
			s.Latency[i].Le = latencyBounds[i]
		}
		s.Latency[i].Count = m.hist[i]
	}
	for tpl, te := range m.templates {
		s.Templates = append(s.Templates, TemplateStats{
			Template: tpl, Count: te.count, Total: te.total, Max: te.max,
		})
	}
	sort.Slice(s.Templates, func(i, j int) bool {
		if s.Templates[i].Total != s.Templates[j].Total {
			return s.Templates[i].Total > s.Templates[j].Total
		}
		return s.Templates[i].Template < s.Templates[j].Template
	})
	for kind, oe := range m.ops {
		s.Operators = append(s.Operators, OpTotalStats{
			Kind: kind, Opens: oe.opens, Rows: oe.rows, Nexts: oe.nexts,
			BuildRows: oe.buildRows, Time: oe.time,
		})
	}
	sort.Slice(s.Operators, func(i, j int) bool { return s.Operators[i].Kind < s.Operators[j].Kind })
	for i := 0; i < m.slowLen; i++ {
		idx := m.slowNext - m.slowLen + i
		if idx < 0 {
			idx += slowLogCap
		}
		s.SlowQueries = append(s.SlowQueries, m.slow[idx])
	}
	return s
}

// Metrics returns a snapshot of the query metrics registry.
func (db *Database) Metrics() MetricsSnapshot {
	return db.metrics.snapshot()
}
