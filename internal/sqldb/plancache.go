package sqldb

import (
	"sync/atomic"
	"time"

	"repro/internal/lru"
)

// The plan cache maps SQL text to compiled plans so repeated queries
// skip parsing, semantic analysis, index selection and join ordering
// (estimated from B-tree statistics; planning reads no heap page). A
// compiled plan captures raw *table and *tableIndex pointers, so it is
// only valid for the exact schema it was planned against: every entry
// records the database's schema epoch at plan time and is discarded on
// lookup if the epoch has moved. The epoch is bumped by every DDL
// statement — CREATE/DROP TABLE and CREATE/DROP INDEX — which makes the
// stale-plan bug class (reading an orphaned table or a detached index
// after DDL) structurally impossible for cached plans and for Prepared
// statements alike.
//
// Plan nodes are immutable during execution (all per-run state lives in
// iterators), so one cached plan may be executed by any number of
// concurrent lock-free readers; each execution re-resolves table
// versions against its own pinned snapshot when operators open.

// defaultPlanCacheCap bounds the plan cache. Entries are full compiled
// plans, so the bound is deliberately modest: far above the handful of
// statement templates an XPath workload translates to.
const defaultPlanCacheCap = 256

// cachedPlan is one plan cache entry.
type cachedPlan struct {
	p     *plan
	cols  []string
	epoch uint64
}

// planCache wraps the shared LRU with epoch validation and semantic
// hit/miss accounting.
type planCache struct {
	c             *lru.Cache[*cachedPlan]
	hits          atomic.Uint64
	misses        atomic.Uint64
	invalidations atomic.Uint64
}

func newPlanCache(capacity int) *planCache {
	return &planCache{c: lru.New[*cachedPlan](capacity)}
}

// get returns the cached plan for sql if one exists and was compiled at
// the given schema epoch. A stale entry is removed and counted as an
// invalidation (and a miss).
func (pc *planCache) get(sql string, epoch uint64) (*cachedPlan, bool) {
	e, ok := pc.c.Get(sql)
	if !ok {
		pc.misses.Add(1)
		return nil, false
	}
	if e.epoch != epoch {
		pc.c.Remove(sql)
		pc.invalidations.Add(1)
		pc.misses.Add(1)
		return nil, false
	}
	pc.hits.Add(1)
	return e, true
}

func (pc *planCache) put(sql string, e *cachedPlan) { pc.c.Put(sql, e) }

// CacheStats reports the activity of one cache.
type CacheStats struct {
	Capacity int
	Entries  int
	Hits     uint64
	Misses   uint64
	// Evictions counts entries displaced by capacity pressure.
	Evictions uint64
	// Invalidations counts entries discarded because the schema epoch
	// moved.
	Invalidations uint64
}

func (pc *planCache) stats() CacheStats {
	return CacheStats{
		Capacity:      pc.c.Cap(),
		Entries:       pc.c.Len(),
		Hits:          pc.hits.Load(),
		Misses:        pc.misses.Load(),
		Evictions:     pc.c.Evictions(),
		Invalidations: pc.invalidations.Load(),
	}
}

// PlanCacheStats returns the plan cache counters.
func (db *Database) PlanCacheStats() CacheStats {
	return db.plans.stats()
}

// SchemaEpoch returns the current schema version. It advances on every
// DDL statement (CREATE/DROP TABLE, CREATE/DROP INDEX); compiled plans
// and Prepared statements are valid only for the epoch they were
// compiled at.
func (db *Database) SchemaEpoch() uint64 {
	return db.state.Load().epoch
}

// cachedPlanFor returns a plan for sql valid for the snapshot st,
// serving from the plan cache when the schema epoch still matches and
// compiling (and caching) on a miss. The bool reports whether the plan
// came from the cache. verb names the calling API for error messages.
//
// A plan enters the cache only when st's epoch is the published one. A
// transaction's pending state may carry an epoch its own DDL advanced
// to, and an aborted transaction's epoch numbers are reused by the next
// DDL: a plan cached under one could be served for another schema.
func (db *Database) cachedPlanFor(st *dbState, sql, verb string) (*cachedPlan, bool, error) {
	if e, ok := db.plans.get(sql, st.epoch); ok {
		return e, true, nil
	}
	e, err := db.compile(st, sql, verb)
	if err != nil {
		return nil, false, err
	}
	if st.epoch == db.state.Load().epoch {
		db.plans.put(sql, e)
	}
	return e, false, nil
}

// compile parses sql, refuses anything but a SELECT (verb names the
// calling API in the error), plans it against st and records the
// compile time: the one compile path of the plan cache and Prepare.
func (db *Database) compile(st *dbState, sql, verb string) (*cachedPlan, error) {
	start := time.Now()
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, errorf("%s requires a SELECT statement", verb)
	}
	p, sch, err := planSelect(st, sel, nil)
	if err != nil {
		return nil, err
	}
	p.template = NormalizeSQL(sql)
	db.metrics.recordPlanCompile(time.Since(start))
	cols := make([]string, len(sch))
	for i, c := range sch {
		cols[i] = c.name
	}
	return &cachedPlan{p: p, cols: cols, epoch: st.epoch}, nil
}
