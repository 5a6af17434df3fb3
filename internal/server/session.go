package server

import (
	"fmt"
	"sync"
	"time"
)

// Session is one client's server-side state: an optional pinned
// snapshot for multi-statement consistency (the engine's
// sqldb.AcquireSnapshot / core.StoreSnapshot pin API). Engine state
// never lives here — a session holds only a pin, so releasing it can
// never lose data. Compiled plans live in the engine's own plan cache,
// shared by every request.
//
// A line-protocol connection owns exactly one session (created at
// connect, released at disconnect); HTTP clients create sessions
// explicitly and name them per request.
type Session struct {
	id      string
	srv     *Server
	created time.Time

	mu       sync.Mutex
	snap     *storeSnap // nil when unpinned
	released bool
}

// ID returns the session's identifier.
func (sess *Session) ID() string { return sess.id }

// Pinned reports whether the session holds a pinned snapshot.
func (sess *Session) Pinned() bool {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.snap != nil
}

// CreateSession registers a new session; with pin it immediately pins
// the latest published snapshot so every later read through the session
// observes one consistent commit boundary.
func (s *Server) CreateSession(pin bool) (*Session, error) {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if len(s.sessions) >= s.cfg.MaxSessions {
		return nil, ErrTooManySessions
	}
	id := fmt.Sprintf("s%d-%d", s.sessSeq.Add(1), time.Now().UnixNano()&0xffffff)
	sess := &Session{
		id:      id,
		srv:     s,
		created: time.Now(),
	}
	if pin {
		sess.snap = s.pinStore()
	}
	s.sessions[id] = sess
	return sess, nil
}

// session resolves a request's session id ("" means no session).
func (s *Server) session(id string) (*Session, error) {
	if id == "" {
		return nil, nil
	}
	s.sessMu.Lock()
	sess := s.sessions[id]
	s.sessMu.Unlock()
	if sess == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	return sess, nil
}

// ReleaseSession unpins and forgets a session. Idempotent: a connection
// drop and an explicit close may both release the same session, and the
// engine's snapshot release is itself idempotent, so the double call is
// harmless.
func (s *Server) ReleaseSession(id string) {
	s.sessMu.Lock()
	sess := s.sessions[id]
	delete(s.sessions, id)
	s.sessMu.Unlock()
	if sess != nil {
		sess.release()
	}
}

// releaseAllSessions drops every session's pins (shutdown path).
func (s *Server) releaseAllSessions() {
	s.sessMu.Lock()
	sessions := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.sessions = map[string]*Session{}
	s.sessMu.Unlock()
	for _, sess := range sessions {
		sess.release()
	}
}

func (sess *Session) release() {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.released {
		return
	}
	sess.released = true
	if sess.snap != nil {
		sess.snap.release()
		sess.snap = nil
	}
}

// Pin (re-)pins the session to the latest published snapshot and
// returns the commit sequence it observes. Re-pinning releases the
// previous pin first, so a session's pin count never grows past one.
func (sess *Session) Pin() (uint64, error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.released {
		return 0, ErrUnknownSession
	}
	if sess.snap != nil {
		sess.snap.release()
	}
	sess.snap = sess.srv.pinStore()
	return sess.snap.xml.Seq(), nil
}

// Unpin releases the session's snapshot; later reads see the live
// (latest published) state again. Idempotent.
func (sess *Session) Unpin() {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.snap != nil {
		sess.snap.release()
		sess.snap = nil
	}
}

// pinned returns the session's snapshot pair, or nil when unpinned or
// released. The returned snapshots stay valid even if the session is
// released concurrently (engine snapshots are immutable; release only
// ends metrics tracking), so reads never race a drop.
func (sess *Session) pinned() *storeSnap {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.released {
		return nil
	}
	return sess.snap
}
