// Package server is the engine's network front door: a concurrent
// query service over one durable XML store, decomposed the way the
// ROADMAP's exemplar suggests — a transport-agnostic handler core
// (handler.go), a session layer with optional pinned snapshots
// (session.go), an HTTP/JSON API and a length-prefixed line protocol
// as two thin transports over the same core (httpapi.go,
// lineproto.go), and an auth seam (auth.go).
//
// The server owns the engine-vs-session state split: the engine holds
// published database state, the WAL and the governor; the server holds
// per-connection state only — pinned snapshots and auth.
// Overload surfaces as typed 429/ErrOverloaded responses (the PR 8
// admission gate does the queueing), degraded read-only mode and the
// closed lifecycle state surface in /health, and graceful shutdown
// stops accepting, drains in-flight requests, releases every session's
// snapshot pins and closes the store exactly once.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Server-level sentinel errors (the engine's taxonomy lives in sqldb).
var (
	// ErrShuttingDown refuses new requests once Shutdown has begun;
	// in-flight requests drain normally.
	ErrShuttingDown = errors.New("server: shutting down")
	// ErrUnknownSession rejects a request naming a session id that was
	// never created or has been released.
	ErrUnknownSession = errors.New("server: unknown session")
	// ErrTooManySessions rejects session creation past Config.MaxSessions.
	ErrTooManySessions = errors.New("server: session limit reached")
	// ErrUnauthorized rejects a request that fails authentication.
	ErrUnauthorized = errors.New("server: unauthorized")
)

// Config tunes a Server.
type Config struct {
	// DefaultTimeout bounds a request that names no deadline of its own
	// (0 = unbounded). MaxTimeout clamps client-supplied deadlines so a
	// client cannot opt out of the server's patience (0 = no clamp).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxSessions bounds concurrently open sessions (0 = 1024).
	MaxSessions int
	// Auth authenticates request tokens; nil serves everyone.
	Auth Authenticator
}

const defaultMaxSessions = 1024

// Server is the front door over one durable store.
type Server struct {
	store *core.DurableStore
	cfg   Config

	// reqMu guards the draining flag and the in-flight request count;
	// idleCond signals Shutdown when the last in-flight request ends.
	// A plain WaitGroup would race Add against Wait, so admission and
	// drain share one mutex.
	reqMu     sync.Mutex
	idleCond  *sync.Cond
	draining  bool
	inflightN int

	sessMu   sync.Mutex
	sessions map[string]*Session
	sessSeq  atomic.Uint64

	// closeOnce makes "close the store exactly once" structural no
	// matter how many transports or Shutdown calls race.
	closeOnce sync.Once
	closeErr  error

	// lnMu tracks line-protocol listeners and live connections so
	// Shutdown can stop accepting and, after the drain, unblock idle
	// readers.
	lnMu      sync.Mutex
	listeners []net.Listener
	conns     map[net.Conn]struct{}

	// Served/refused counters for /stats.
	requests   atomic.Uint64
	refused    atomic.Uint64
	overloaded atomic.Uint64
	failed     atomic.Uint64
}

// New builds a Server over an open durable store. The caller hands
// ownership of the store to the server: Shutdown (or Close) closes it.
func New(store *core.DurableStore, cfg Config) *Server {
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = defaultMaxSessions
	}
	s := &Server{
		store:    store,
		cfg:      cfg,
		sessions: map[string]*Session{},
		conns:    map[net.Conn]struct{}{},
	}
	s.idleCond = sync.NewCond(&s.reqMu)
	return s
}

// Store exposes the underlying durable store (tests, stats).
func (s *Server) Store() *core.DurableStore { return s.store }

// begin admits one request: it is counted in-flight unless the server
// is draining. Callers must call the returned end func when done.
func (s *Server) begin() (end func(), err error) {
	s.reqMu.Lock()
	if s.draining {
		s.reqMu.Unlock()
		s.refused.Add(1)
		return nil, ErrShuttingDown
	}
	s.inflightN++
	s.reqMu.Unlock()
	s.requests.Add(1)
	return func() {
		s.reqMu.Lock()
		s.inflightN--
		if s.inflightN == 0 && s.draining {
			s.idleCond.Broadcast()
		}
		s.reqMu.Unlock()
	}, nil
}

// reqContext derives one request's context: the client deadline clamped
// to MaxTimeout, or DefaultTimeout when the client names none.
func (s *Server) reqContext(parent context.Context, clientTimeout time.Duration) (context.Context, context.CancelFunc) {
	d := clientTimeout
	if d <= 0 {
		d = s.cfg.DefaultTimeout
	}
	if s.cfg.MaxTimeout > 0 && (d <= 0 || d > s.cfg.MaxTimeout) {
		d = s.cfg.MaxTimeout
	}
	if d <= 0 {
		return context.WithCancel(parent)
	}
	return context.WithTimeout(parent, d)
}

// authenticate checks a bearer token against the configured seam.
func (s *Server) authenticate(token string) error {
	if s.cfg.Auth == nil {
		return nil
	}
	if err := s.cfg.Auth.Authenticate(token); err != nil {
		return fmt.Errorf("%w: %v", ErrUnauthorized, err)
	}
	return nil
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.reqMu.Lock()
	defer s.reqMu.Unlock()
	return s.draining
}

// Shutdown is the graceful lifecycle edge: stop accepting (listeners
// close, new requests are refused with ErrShuttingDown), drain
// in-flight requests, release every session's snapshot pins, and close
// the store exactly once — after which any late commit attempt fails
// with the engine's typed sqldb.ErrClosed. ctx bounds the drain; on
// expiry the store is still closed (safe: reads keep serving the
// published snapshot, writes fail typed) and the context error is
// returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.reqMu.Lock()
	s.draining = true
	s.reqMu.Unlock()
	s.closeListeners()

	drained := make(chan struct{})
	go func() {
		s.reqMu.Lock()
		for s.inflightN > 0 {
			s.idleCond.Wait()
		}
		s.reqMu.Unlock()
		close(drained)
	}()
	var drainErr error
	select {
	case <-drained:
	case <-ctx.Done():
		drainErr = fmt.Errorf("server: shutdown drain: %w", ctx.Err())
	}

	s.releaseAllSessions()
	s.closeConns()
	if err := s.closeStore(); err != nil {
		return err
	}
	return drainErr
}

// Close force-closes without waiting for in-flight requests: they keep
// their snapshots (reads finish against immutable versions) while
// writes fail with sqldb.ErrClosed. Idempotent, and safe to call after
// Shutdown.
func (s *Server) Close() error {
	s.reqMu.Lock()
	s.draining = true
	s.reqMu.Unlock()
	s.closeListeners()
	s.releaseAllSessions()
	s.closeConns()
	return s.closeStore()
}

func (s *Server) closeStore() error {
	s.closeOnce.Do(func() { s.closeErr = s.store.Close() })
	return s.closeErr
}

// Stats is the server-level counter block surfaced by /stats.
type Stats struct {
	Sessions   int    `json:"sessions"`
	Requests   uint64 `json:"requests"`
	Refused    uint64 `json:"refused"`
	Overloaded uint64 `json:"overloaded"`
	Failed     uint64 `json:"failed"`
	Draining   bool   `json:"draining"`
}

// ServerStats snapshots the front-door counters.
func (s *Server) ServerStats() Stats {
	s.sessMu.Lock()
	n := len(s.sessions)
	s.sessMu.Unlock()
	return Stats{
		Sessions:   n,
		Requests:   s.requests.Load(),
		Refused:    s.refused.Load(),
		Overloaded: s.overloaded.Load(),
		Failed:     s.failed.Load(),
		Draining:   s.Draining(),
	}
}
