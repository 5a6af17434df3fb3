package sqldb

// Resource governor: memory accounting against per-query and shared
// engine budgets, plus an admission gate that bounds concurrent query
// execution with a finite wait queue. Both are off by default and cost
// nothing when disabled (nil accountant, nil gate).

import (
	"context"
	"fmt"
	"sync/atomic"
	"unsafe"
)

// memPool is the engine-wide memory budget shared by all concurrently
// executing queries. total <= 0 means unlimited.
type memPool struct {
	total atomic.Int64
	used  atomic.Int64
}

// reserve claims n bytes from the pool; it reports false (claiming
// nothing) when the pool would overflow.
func (p *memPool) reserve(n int64) bool {
	t := p.total.Load()
	if t <= 0 {
		return true
	}
	if p.used.Add(n) > t {
		p.used.Add(-n)
		return false
	}
	return true
}

func (p *memPool) release(n int64) {
	if p.total.Load() > 0 {
		p.used.Add(-n)
	}
}

// memAccountant tracks one query's working-set bytes. Operators charge
// it at their allocation chokepoints (materialize output, hash-join
// builds and output arenas, sort keys, aggregation tables); a charge
// that overruns the query limit or the shared pool trips the exceeded
// flag, which the cancellation chokepoints observe so the query
// unwinds promptly. A nil accountant is a no-op.
type memAccountant struct {
	used     atomic.Int64
	limit    int64 // per-query cap in bytes, 0 = unlimited
	pool     *memPool
	exceeded atomic.Bool
	reason   atomic.Pointer[error]
}

func (m *memAccountant) trip(err error) error {
	m.reason.CompareAndSwap(nil, &err)
	m.exceeded.Store(true)
	return err
}

// charge records n more bytes of working set. Charging is monotonic
// (peak accounting): operators never uncharge mid-query, the whole
// reservation returns to the pool at close.
func (m *memAccountant) charge(n int64) error {
	if m == nil || n <= 0 {
		return nil
	}
	if m.exceeded.Load() {
		return m.err()
	}
	if m.pool != nil && !m.pool.reserve(n) {
		return m.trip(fmt.Errorf("%w: engine budget %d bytes exhausted (query holds %d)",
			ErrMemoryBudgetExceeded, m.pool.total.Load(), m.used.Load()))
	}
	if u := m.used.Add(n); m.limit > 0 && u > m.limit {
		return m.trip(fmt.Errorf("%w: query needs %d bytes, limit %d",
			ErrMemoryBudgetExceeded, u, m.limit))
	}
	return nil
}

// chargeRows is charge for a slice of materialized rows.
func (m *memAccountant) chargeRows(rows [][]Value) error {
	if m == nil || len(rows) == 0 {
		return nil
	}
	var n int64
	for _, r := range rows {
		n += valuesBytes(r)
	}
	return m.charge(n)
}

// err returns the tripping error once exceeded.
func (m *memAccountant) err() error {
	if m == nil || !m.exceeded.Load() {
		return nil
	}
	if p := m.reason.Load(); p != nil {
		return *p
	}
	return ErrMemoryBudgetExceeded
}

// close returns the query's whole reservation to the shared pool.
func (m *memAccountant) close() {
	if m == nil {
		return
	}
	n := m.used.Swap(0)
	if m.pool != nil && n > 0 {
		m.pool.release(n)
	}
}

// valueSize is what one Value occupies, before its text or blob bytes,
// and sliceHeaderSize what the slice holding them adds.
const (
	valueSize       = int64(unsafe.Sizeof(Value{}))
	sliceHeaderSize = int64(unsafe.Sizeof([]Value(nil)))
)

// valuesBytes sizes a materialized []Value (a row, or a group's keys):
// the slice header, every Value, and the text and blob bytes they
// point at. It charges what the working set holds in memory; valueBytes
// is the storage estimate T1 reports.
func valuesBytes(vs []Value) int64 {
	n := sliceHeaderSize + valueSize*int64(len(vs))
	for _, v := range vs {
		if t := v.Type(); t == TypeText || t == TypeBlob {
			n += int64(v.size())
		}
	}
	return n
}

// admissionGate bounds the number of concurrently executing queries.
// Up to cap(slots) queries run at once; up to queueCap more wait
// (context-deadline-aware); beyond that new arrivals are rejected
// immediately with ErrOverloaded.
type admissionGate struct {
	slots    chan struct{}
	queueCap int

	waiting  atomic.Int64
	admitted atomic.Int64
	queued   atomic.Int64
	rejected atomic.Int64
}

func newAdmissionGate(maxConcurrent, maxQueue int) *admissionGate {
	if maxConcurrent <= 0 {
		return nil
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &admissionGate{slots: make(chan struct{}, maxConcurrent), queueCap: maxQueue}
}

// admit blocks until a slot frees (or ctx is done). The returned
// release func must be called exactly once when the query finishes.
func (g *admissionGate) admit(ctx context.Context) (release func(), err error) {
	if g == nil {
		return func() {}, nil
	}
	select {
	case g.slots <- struct{}{}:
		g.admitted.Add(1)
		return g.release, nil
	default:
	}
	// All slots busy: try to queue.
	if int(g.waiting.Add(1)) > g.queueCap {
		g.waiting.Add(-1)
		g.rejected.Add(1)
		return nil, fmt.Errorf("%w (%d running, %d waiting)",
			ErrOverloaded, cap(g.slots), g.queueCap)
	}
	g.queued.Add(1)
	defer g.waiting.Add(-1)
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case g.slots <- struct{}{}:
		g.admitted.Add(1)
		return g.release, nil
	case <-ctx.Done():
		g.rejected.Add(1)
		return nil, ctx.Err()
	}
}

func (g *admissionGate) release() { <-g.slots }

// GovernorStats reports resource-governor activity.
type GovernorStats struct {
	MemoryBudget  int64 // engine-wide budget in bytes (0 = unlimited)
	MemoryUsed    int64 // bytes currently reserved by running queries
	QueryMemLimit int64 // per-query limit in bytes (0 = unlimited)
	MaxConcurrent int   // admission slots (0 = admission disabled)
	MaxQueue      int   // admission wait-queue capacity
	Admitted      int64 // queries admitted (including after queuing)
	Queued        int64 // queries that had to wait for a slot
	Rejected      int64 // queries rejected (queue full or ctx expired while queued)
}

func (g *admissionGate) stats() (maxc, maxq int, admitted, queued, rejected int64) {
	if g == nil {
		return 0, 0, 0, 0, 0
	}
	return cap(g.slots), g.queueCap, g.admitted.Load(), g.queued.Load(), g.rejected.Load()
}
