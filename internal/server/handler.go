package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/sqldb"
)

// storeSnap is the snapshot pair a pinned session holds: the XML-level
// view plus (through StoreSnapshot.DB) the raw relational snapshot, so
// XPath and direct SQL reads observe the same commit boundary.
type storeSnap struct {
	xml *core.StoreSnapshot
}

func (s *Server) pinStore() *storeSnap { return &storeSnap{xml: s.store.Snapshot()} }

func (sn *storeSnap) release() { sn.xml.Release() }

// QueryRequest is one read request, transport-independent: either an
// XPath query (translated through the store) or direct SQL (the escape
// hatch). TimeoutMS is the client's deadline, clamped server-side.
type QueryRequest struct {
	XPath     string `json:"xpath,omitempty"`
	SQL       string `json:"sql,omitempty"`
	Args      []any  `json:"args,omitempty"`
	Session   string `json:"session,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// MatchJSON is one XPath match on the wire.
type MatchJSON struct {
	ID    int64  `json:"id"`
	Value string `json:"value,omitempty"`
	HasValue bool `json:"has_value"`
}

// QueryResponse is a read result on the wire.
type QueryResponse struct {
	// Matches is set for XPath queries; Columns/Rows for direct SQL.
	Matches []MatchJSON `json:"matches,omitempty"`
	Columns []string    `json:"columns,omitempty"`
	Rows    [][]any     `json:"rows,omitempty"`
	// SQL echoes the translation an XPath query compiled to.
	SQL       string `json:"sql,omitempty"`
	Count     int    `json:"count"`
	ElapsedUS int64  `json:"elapsed_us"`
	// Seq is the pinned commit boundary when the request ran through a
	// pinned session (0 otherwise).
	Seq uint64 `json:"seq,omitempty"`
}

// ExecRequest is one write request (DML/DDL), durably acknowledged.
type ExecRequest struct {
	SQL       string `json:"sql"`
	Args      []any  `json:"args,omitempty"`
	Session   string `json:"session,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// ExecResponse reports a write's effect. The ack implies durability:
// the engine returns only after the commit's WAL fsync.
type ExecResponse struct {
	Affected  int   `json:"affected"`
	ElapsedUS int64 `json:"elapsed_us"`
}

// Error codes on the wire; each maps to one engine (or server)
// condition so clients dispatch without string matching.
const (
	CodeBadRequest   = "bad_request"
	CodeQueryError   = "query_error"
	CodeUnauthorized = "unauthorized"
	CodeUnknownSess  = "unknown_session"
	CodeSessionLimit = "session_limit"
	CodeOverloaded   = "overloaded"
	CodeMemoryBudget = "memory_budget_exceeded"
	CodeTimeout      = "timeout"
	CodeCanceled     = "canceled"
	CodeDegraded     = "degraded_read_only"
	CodeClosed       = "closed"
	CodeShutdown     = "shutting_down"
	CodeInternal     = "internal"
)

// ErrorCode maps an error to its wire code and HTTP status. The order
// matters: ErrReadOnlyDegraded wraps ErrWALFailed, and a closed store
// beats a degraded one.
func ErrorCode(err error) (code string, status int) {
	switch {
	case errors.Is(err, ErrShuttingDown):
		return CodeShutdown, 503
	case errors.Is(err, sqldb.ErrClosed):
		return CodeClosed, 503
	case errors.Is(err, sqldb.ErrOverloaded):
		return CodeOverloaded, 429
	case errors.Is(err, sqldb.ErrMemoryBudgetExceeded):
		return CodeMemoryBudget, 429
	case errors.Is(err, sqldb.ErrWALFailed):
		return CodeDegraded, 503
	case errors.Is(err, ErrUnauthorized):
		return CodeUnauthorized, 401
	case errors.Is(err, ErrUnknownSession):
		return CodeUnknownSess, 404
	case errors.Is(err, ErrTooManySessions):
		return CodeSessionLimit, 429
	case errors.Is(err, context.DeadlineExceeded):
		return CodeTimeout, 504
	case errors.Is(err, context.Canceled):
		return CodeCanceled, 499
	case errors.Is(err, sqldb.ErrInternal):
		return CodeInternal, 500
	case errors.Is(err, errBadRequest):
		return CodeBadRequest, 400
	default:
		return CodeQueryError, 400
	}
}

// Query executes one read request: admission, session resolution,
// deadline, then XPath-or-SQL against the session's pinned snapshot or
// the live published state.
func (s *Server) Query(ctx context.Context, req *QueryRequest) (*QueryResponse, error) {
	end, err := s.begin()
	if err != nil {
		return nil, err
	}
	defer end()
	resp, err := s.doQuery(ctx, req)
	if err != nil {
		s.recordFailure(err)
	}
	return resp, err
}

func (s *Server) doQuery(ctx context.Context, req *QueryRequest) (*QueryResponse, error) {
	if (req.XPath == "") == (req.SQL == "") {
		return nil, fmt.Errorf("%w: exactly one of xpath or sql required", errBadRequest)
	}
	sess, err := s.session(req.Session)
	if err != nil {
		return nil, err
	}
	ctx, cancel := s.reqContext(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
	defer cancel()

	var snap *storeSnap
	if sess != nil {
		snap = sess.pinned()
	}
	start := time.Now()
	resp := &QueryResponse{}
	if snap != nil {
		resp.Seq = snap.xml.Seq()
	}

	if req.XPath != "" {
		var res *core.Result
		if snap != nil {
			res, err = snap.xml.QueryContext(ctx, req.XPath)
		} else {
			res, err = s.store.QueryContext(ctx, req.XPath)
		}
		if err != nil {
			return nil, err
		}
		resp.SQL = res.SQL
		resp.Count = len(res.Matches)
		resp.Matches = make([]MatchJSON, len(res.Matches))
		for i, m := range res.Matches {
			resp.Matches[i] = MatchJSON{ID: m.ID, Value: m.Value, HasValue: m.HasValue}
		}
	} else {
		args, err := toValues(req.Args)
		if err != nil {
			return nil, err
		}
		var rows *sqldb.Rows
		if snap != nil {
			rows, err = snap.xml.DB().QueryContext(ctx, req.SQL, args...)
		} else {
			rows, err = s.store.DB().QueryContext(ctx, req.SQL, args...)
		}
		if err != nil {
			return nil, err
		}
		resp.Columns = rows.Columns
		resp.Count = rows.Len()
		resp.Rows = make([][]any, rows.Len())
		for i, r := range rows.Data {
			out := make([]any, len(r))
			for j, v := range r {
				out[j] = fromValue(v)
			}
			resp.Rows[i] = out
		}
	}
	resp.ElapsedUS = time.Since(start).Microseconds()
	return resp, nil
}

// Exec executes one write request against the live store with
// per-statement durability (the ack follows the WAL fsync) and the
// auto-checkpoint policy.
func (s *Server) Exec(ctx context.Context, req *ExecRequest) (*ExecResponse, error) {
	end, err := s.begin()
	if err != nil {
		return nil, err
	}
	defer end()
	resp, err := s.doExec(ctx, req)
	if err != nil {
		s.recordFailure(err)
	}
	return resp, err
}

func (s *Server) doExec(ctx context.Context, req *ExecRequest) (*ExecResponse, error) {
	if req.SQL == "" {
		return nil, fmt.Errorf("%w: sql required", errBadRequest)
	}
	if _, err := s.session(req.Session); err != nil {
		return nil, err
	}
	ctx, cancel := s.reqContext(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
	defer cancel()
	// The engine's write path is synchronous; honor the deadline at the
	// request boundary (a commit in flight is never abandoned half-acked).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	args, err := toValues(req.Args)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	n, err := s.store.Exec(req.SQL, args...)
	if err != nil {
		return nil, err
	}
	return &ExecResponse{Affected: n, ElapsedUS: time.Since(start).Microseconds()}, nil
}

// HealthStatus is the /health payload: the durability layer's state
// plus the front door's own lifecycle.
type HealthStatus struct {
	State        string    `json:"state"` // ok | degraded | closed
	Cause        string    `json:"cause,omitempty"`
	Since        time.Time `json:"since,omitempty"`
	Degradations uint64    `json:"degradations"`
	Recoveries   uint64    `json:"recoveries"`
	Draining     bool      `json:"draining"`
	Loaded       bool      `json:"loaded"`
	// PoolPressure reports buffer-pool strain when a page cap is set:
	// resident pages : cap. A ratio above 1.0 means pinned pages forced
	// the pool past its cap (queries touching more pages at once than
	// the cap allows).
	PoolPressure float64 `json:"pool_pressure,omitempty"`
}

// HealthCheck reports liveness without counting against admission (a
// load balancer probing /health must see a draining server, not be
// refused by it).
func (s *Server) HealthCheck() HealthStatus {
	h := s.store.Health()
	hs := HealthStatus{
		State:        h.State,
		Cause:        h.Cause,
		Since:        h.Since,
		Degradations: h.Degradations,
		Recoveries:   h.Recoveries,
		Draining:     s.Draining(),
		Loaded:       s.store.Loaded(),
	}
	if bp := s.store.DB().Stats().BufferPool; bp.Cap > 0 {
		hs.PoolPressure = float64(bp.Resident) / float64(bp.Cap)
	}
	return hs
}

// StatsSnapshot is the /stats payload: server counters plus the
// engine's storage, snapshot, governor and durability statistics.
type StatsSnapshot struct {
	Server   Stats              `json:"server"`
	Health   HealthStatus       `json:"health"`
	Scheme   string             `json:"scheme"`
	Tables   int                `json:"tables"`
	Rows     int                `json:"rows"`
	Bytes    int64              `json:"bytes"`
	CommitSeq   uint64          `json:"commit_seq"`
	SchemaEpoch uint64          `json:"schema_epoch"`
	Snapshots  sqldb.SnapshotStats   `json:"snapshots"`
	Governor   sqldb.GovernorStats   `json:"governor"`
	BufferPool sqldb.BufferPoolStats `json:"buffer_pool"`
	Durable    DurableJSON           `json:"durable"`
}

// DurableJSON is the WAL pipeline's counter block on the wire.
type DurableJSON struct {
	Commits     uint64 `json:"commits"`
	Fsyncs      uint64 `json:"fsyncs"`
	Batches     uint64 `json:"batches"`
	MaxBatch    int    `json:"max_batch"`
	WALBytes    int64  `json:"wal_bytes"`
	Checkpoints uint64 `json:"checkpoints"`
}

// StatsCheck gathers the /stats payload (like /health, outside
// admission: stats are how you diagnose an overloaded server).
func (s *Server) StatsCheck() StatsSnapshot {
	dbStats := s.store.DB().Stats()
	dur := s.store.Durable().Stats()
	storage := s.store.Stats()
	return StatsSnapshot{
		Server:      s.ServerStats(),
		Health:      s.HealthCheck(),
		Scheme:      string(storage.Scheme),
		Tables:      storage.Tables,
		Rows:        storage.Rows,
		Bytes:       storage.Bytes,
		CommitSeq:   dbStats.CommitSeq,
		SchemaEpoch: dbStats.SchemaEpoch,
		Snapshots:   dbStats.Snapshots,
		Governor:    dbStats.Governor,
		BufferPool:  dbStats.BufferPool,
		Durable: DurableJSON{
			Commits:     dur.Commits,
			Fsyncs:      dur.Fsyncs,
			Batches:     dur.Batches,
			MaxBatch:    dur.MaxBatch,
			WALBytes:    s.store.Durable().WALSize(),
			Checkpoints: s.store.Durable().Checkpoints(),
		},
	}
}

// errBadRequest roots malformed-request errors so ErrorCode can map
// them to 400/bad_request distinctly from engine query errors.
var errBadRequest = errors.New("server: bad request")

// recordFailure classifies a request failure for the counters.
func (s *Server) recordFailure(err error) {
	if errors.Is(err, sqldb.ErrOverloaded) {
		s.overloaded.Add(1)
	}
	s.failed.Add(1)
}

// toValues converts JSON-decoded arguments to engine values. Numbers
// arrive as json.Number (transports decode with UseNumber) or float64;
// integral values stay integers so index lookups hit typed columns.
func toValues(args []any) ([]sqldb.Value, error) {
	out := make([]sqldb.Value, len(args))
	for i, a := range args {
		v, err := toValue(a)
		if err != nil {
			return nil, fmt.Errorf("%w: arg %d: %v", errBadRequest, i, err)
		}
		out[i] = v
	}
	return out, nil
}

func toValue(a any) (sqldb.Value, error) {
	switch x := a.(type) {
	case nil:
		return sqldb.Null, nil
	case bool:
		return sqldb.NewBool(x), nil
	case string:
		return sqldb.NewText(x), nil
	case float64:
		if x == float64(int64(x)) {
			return sqldb.NewInt(int64(x)), nil
		}
		return sqldb.NewFloat(x), nil
	case json.Number:
		if i, err := strconv.ParseInt(string(x), 10, 64); err == nil {
			return sqldb.NewInt(i), nil
		}
		f, err := x.Float64()
		if err != nil {
			return sqldb.Null, err
		}
		return sqldb.NewFloat(f), nil
	case int:
		return sqldb.NewInt(int64(x)), nil
	case int64:
		return sqldb.NewInt(x), nil
	default:
		return sqldb.Null, fmt.Errorf("unsupported argument type %T", a)
	}
}

// fromValue renders an engine value as a JSON-encodable Go value.
func fromValue(v sqldb.Value) any {
	switch v.Type() {
	case sqldb.TypeNull:
		return nil
	case sqldb.TypeInt:
		return v.Int()
	case sqldb.TypeBool:
		return v.Bool()
	case sqldb.TypeFloat:
		return v.Float()
	case sqldb.TypeText:
		return v.Text()
	case sqldb.TypeBlob:
		return v.Blob()
	default:
		return v.String()
	}
}
