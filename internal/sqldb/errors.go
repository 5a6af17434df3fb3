package sqldb

// Error taxonomy: the load-bearing failure modes of the engine are
// exported sentinel (or typed) errors so callers dispatch with
// errors.Is / errors.As instead of string matching. Message text is
// kept byte-identical to the historical fmt.Errorf strings.

import (
	"errors"
	"fmt"
	"runtime/debug"
)

var (
	// ErrMemoryBudgetExceeded aborts a query whose tracked allocations
	// exceed its memory budget (per-query limit or shared engine pool).
	ErrMemoryBudgetExceeded = errors.New("sqldb: query memory budget exceeded")

	// ErrOverloaded rejects a query when the admission gate's wait
	// queue is full: backpressure instead of collapse.
	ErrOverloaded = errors.New("sqldb: overloaded: admission queue full")

	// ErrInternal marks a query that died to a recovered panic inside
	// the executor. The query fails; the engine and every other query
	// keep running. Use errors.As with *InternalError for the panic
	// value and stack.
	ErrInternal = errors.New("sqldb: internal error")

	// ErrPreparedStale marks a prepared statement invalidated by DDL
	// since Prepare.
	ErrPreparedStale = errors.New("prepared statement is stale")

	// ErrClosed is returned for any commit, checkpoint or recovery
	// attempted after DurableDB.Close: the store is a closed lifecycle
	// edge, not a silently writable in-memory database. Reads keep
	// serving the last published snapshot.
	ErrClosed = errors.New("sqldb: database is closed")

	// ErrReadOnlyDegraded is returned by writes while the durability
	// layer is in degraded read-only mode after a storage fault.
	// It wraps ErrWALFailed so existing errors.Is checks keep passing;
	// reads continue to serve the last published snapshot and
	// DurableDB.Recover retries the log.
	ErrReadOnlyDegraded = fmt.Errorf("%w (degraded: reads still serve the published snapshot; Recover() retries the log)", ErrWALFailed)

	// ErrPageIO marks a failed buffer-pool page read: the pages file
	// could not deliver an evicted page an operation needed. Only that
	// operation fails — the pool, the published snapshot and every
	// other query keep working; a later access retries the read.
	ErrPageIO = errors.New("sqldb: page read failed")

	// ErrUnsupportedSnapshot refuses a dump or data directory whose
	// snapshot was written in an older format; nothing reads those any
	// more, so the document has to be loaded again.
	ErrUnsupportedSnapshot = errors.New("sqldb: unsupported snapshot format")
)

// InternalError carries the recovered panic value and stack from an
// executor panic barrier. It unwraps to ErrInternal.
type InternalError struct {
	PanicValue any
	Stack      []byte
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("sqldb: internal error: query panicked: %v", e.PanicValue)
}

func (e *InternalError) Unwrap() error { return ErrInternal }

// pageIOPanic carries a page-in failure through the executor panic
// barriers: row access has no error return, so the buffer pool panics
// with this value and internalError unwraps it to the typed ErrPageIO
// chain instead of reporting an engine bug.
type pageIOPanic struct{ err error }

// internalError converts a recovered panic value into an *InternalError.
func internalError(r any) error {
	if p, ok := r.(pageIOPanic); ok {
		return p.err
	}
	return &InternalError{PanicValue: r, Stack: debug.Stack()}
}

// recoverToError is the shared panic barrier: install as
//
//	defer recoverToError(&err)
//
// at an execution boundary and a panic below it becomes a typed
// ErrInternal result instead of taking the process down.
func recoverToError(errp *error) {
	if r := recover(); r != nil {
		*errp = internalError(r)
	}
}
