package server

import (
	"encoding/json"
	"net"
	"net/http"
	"strings"
)

// errorJSON is the wire shape of every failed request.
type errorJSON struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// sessionRequest creates or releases a session over HTTP.
type sessionRequest struct {
	Pin     bool   `json:"pin,omitempty"`
	Release string `json:"release,omitempty"`
}

type sessionResponse struct {
	Session string `json:"session,omitempty"`
	Seq     uint64 `json:"seq,omitempty"`
	Pinned  bool   `json:"pinned"`
	Released string `json:"released,omitempty"`
}

// Handler returns the HTTP/JSON API over the handler core:
//
//	POST /query    {"xpath":"/site//item"} or {"sql":"SELECT ...","args":[...]}
//	POST /exec     {"sql":"INSERT ...","args":[...]}
//	POST /session  {"pin":true} → {"session":"...","seq":N} | {"release":"id"}
//	GET  /health   durability + lifecycle state (auth-exempt)
//	GET  /stats    server + engine counters
//
// Every endpoint except /health passes the auth seam (Bearer token).
// Request handling, admission, deadlines and error taxonomy all live in
// the transport-agnostic core; this file only decodes and encodes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.withAuth(s.handleQuery))
	mux.HandleFunc("POST /exec", s.withAuth(s.handleExec))
	mux.HandleFunc("POST /session", s.withAuth(s.handleSession))
	mux.HandleFunc("GET /health", s.handleHealth)
	mux.HandleFunc("GET /stats", s.withAuth(s.handleStats))
	return mux
}

// withAuth wraps a handler with bearer-token authentication.
func (s *Server) withAuth(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		token := strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
		if err := s.authenticate(token); err != nil {
			writeError(w, err)
			return
		}
		h(w, r)
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	resp, err := s.Query(r.Context(), &req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	var req ExecRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	resp, err := s.Exec(r.Context(), &req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	var req sessionRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Release != "" {
		s.ReleaseSession(req.Release)
		writeJSON(w, http.StatusOK, sessionResponse{Released: req.Release})
		return
	}
	if s.Draining() {
		writeError(w, ErrShuttingDown)
		return
	}
	sess, err := s.CreateSession(req.Pin)
	if err != nil {
		writeError(w, err)
		return
	}
	resp := sessionResponse{Session: sess.ID(), Pinned: sess.Pinned()}
	if snap := sess.pinned(); snap != nil {
		resp.Seq = snap.xml.Seq()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := s.HealthCheck()
	status := http.StatusOK
	// Load balancers read the status code alone: a degraded (read-only)
	// or draining server must stop attracting writes.
	if h.State != "ok" || h.Draining {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.StatsCheck())
}

// decodeJSON decodes a request body of at most maxFrame bytes, the cap
// the line protocol puts on a frame; a larger body is a bad request.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxFrame))
	dec.UseNumber()
	if err := dec.Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: "malformed JSON: " + err.Error(), Code: CodeBadRequest})
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	code, status := ErrorCode(err)
	writeJSON(w, status, errorJSON{Error: err.Error(), Code: code})
}

// Serve runs the HTTP API on ln until Shutdown closes the listener.
// The returned error is nil on graceful close.
func (s *Server) Serve(ln net.Listener) error {
	s.trackListener(ln)
	hs := &http.Server{Handler: s.Handler()}
	err := hs.Serve(ln)
	if err == http.ErrServerClosed || s.Draining() {
		return nil
	}
	return err
}

// trackListener registers a listener so Shutdown can close it.
func (s *Server) trackListener(ln net.Listener) {
	s.lnMu.Lock()
	s.listeners = append(s.listeners, ln)
	s.lnMu.Unlock()
}

func (s *Server) closeListeners() {
	s.lnMu.Lock()
	lns := s.listeners
	s.listeners = nil
	s.lnMu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
}

func (s *Server) closeConns() {
	s.lnMu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.lnMu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}
