package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sqldb"
	"repro/internal/xmlgen"
)

// f1Queries is the F1 benchmark mix: one query per XPath class.
var f1Queries = []string{
	"/site/categories/category/name",
	"//item/name",
	"/site/people/person[address/city='Berlin']/name",
	"//open_auction[initial > 200]/bidder/increase",
	"/site/open_auctions/open_auction/bidder[1]/increase",
	"//person[profile/@income > 60000]",
}

// newTestStore opens a durable interval store on an in-memory VFS and
// loads a small auction document.
func newTestStore(t *testing.T, opts core.Options) (*core.DurableStore, *sqldb.MemVFS) {
	t.Helper()
	vfs := sqldb.NewMemVFS()
	store, err := core.OpenDurableVFS(core.Interval, vfs, opts, core.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	doc := xmlgen.Auction(xmlgen.Config{Factor: 0.05, Seed: 7})
	if err := store.LoadDocument(doc); err != nil {
		t.Fatal(err)
	}
	return store, vfs
}

func newTestServer(t *testing.T, opts core.Options, cfg Config) (*Server, *sqldb.MemVFS) {
	t.Helper()
	store, vfs := newTestStore(t, opts)
	s := New(store, cfg)
	t.Cleanup(func() { s.Close() })
	return s, vfs
}

// postJSON posts a JSON body and decodes the JSON response, returning
// the HTTP status and the wire error code (empty on success).
func postJSON(t *testing.T, client *http.Client, url, token string, body, out any) (int, string) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", url, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	dec := json.NewDecoder(resp.Body)
	if err := dec.Decode(&raw); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	var code string
	if c, ok := raw["code"]; ok {
		json.Unmarshal(c, &code)
	}
	if out != nil && resp.StatusCode == 200 {
		buf, _ := json.Marshal(raw)
		if err := json.Unmarshal(buf, out); err != nil {
			t.Fatalf("decoding payload: %v", err)
		}
	}
	return resp.StatusCode, code
}

func pinnedCount(s *Server) int {
	return s.Store().DB().Stats().Snapshots.Pinned
}

// TestHTTPRoundTrip exercises the HTTP surface end to end: health,
// XPath query, direct SQL with args, a durable write, and stats.
func TestHTTPRoundTrip(t *testing.T) {
	s, _ := newTestServer(t, core.Options{}, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthStatus
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if h.State != "ok" || !h.Loaded || h.Draining {
		t.Fatalf("health = %+v, want ok/loaded/not draining", h)
	}

	var qr QueryResponse
	status, code := postJSON(t, ts.Client(), ts.URL+"/query", "", QueryRequest{XPath: "//item/name"}, &qr)
	if status != 200 {
		t.Fatalf("xpath query: status %d code %s", status, code)
	}
	if qr.Count == 0 || qr.SQL == "" {
		t.Fatalf("xpath query returned %d matches, sql %q", qr.Count, qr.SQL)
	}

	var sr QueryResponse
	status, _ = postJSON(t, ts.Client(), ts.URL+"/query", "",
		QueryRequest{SQL: "SELECT pre, name FROM accel WHERE kind = ? LIMIT 5", Args: []any{"elem"}}, &sr)
	if status != 200 || sr.Count != 5 || len(sr.Columns) != 2 {
		t.Fatalf("sql query: status %d count %d cols %v", status, sr.Count, sr.Columns)
	}

	var er ExecResponse
	status, _ = postJSON(t, ts.Client(), ts.URL+"/exec", "",
		ExecRequest{SQL: "INSERT INTO accel (pre, parent, size, level, ordinal, kind, name, value) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
			Args: []any{1000000, nil, 0, 99, 1, "marker", "m", "v"}}, &er)
	if status != 200 || er.Affected != 1 {
		t.Fatalf("exec: status %d affected %d", status, er.Affected)
	}

	var st StatsSnapshot
	status, _ = postJSON(t, ts.Client(), ts.URL+"/query", "",
		QueryRequest{SQL: "SELECT pre FROM accel WHERE kind = 'marker'"}, &sr)
	if status != 200 || sr.Count != 1 {
		t.Fatalf("marker readback: status %d count %d", status, sr.Count)
	}
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.Server.Requests < 4 || st.Durable.Commits == 0 || st.Rows == 0 {
		t.Fatalf("stats = %+v", st)
	}

	status, code = postJSON(t, ts.Client(), ts.URL+"/query", "", QueryRequest{}, nil)
	if status != 400 || code != CodeBadRequest {
		t.Fatalf("empty query: status %d code %s, want 400 %s", status, code, CodeBadRequest)
	}

	// A body one byte over the line protocol's frame cap is refused
	// before it is decoded, and the server keeps answering.
	padded := func(n int) QueryRequest {
		return QueryRequest{XPath: "//item[name = '" + strings.Repeat("x", n) + "']"}
	}
	base, err := json.Marshal(padded(0))
	if err != nil {
		t.Fatal(err)
	}
	big := padded(maxFrame + 1 - len(base))
	if payload, _ := json.Marshal(big); len(payload) != maxFrame+1 {
		t.Fatalf("oversized body is %d bytes, want %d", len(payload), maxFrame+1)
	}
	status, code = postJSON(t, ts.Client(), ts.URL+"/query", "", big, nil)
	if status != 400 || code != CodeBadRequest {
		t.Fatalf("oversized body: status %d code %s, want 400 %s", status, code, CodeBadRequest)
	}
	var after QueryResponse
	status, code = postJSON(t, ts.Client(), ts.URL+"/query", "", QueryRequest{XPath: "//item/name"}, &after)
	if status != 200 || after.Count == 0 {
		t.Fatalf("query after oversized body: status %d code %s count %d", status, code, after.Count)
	}
}

// TestConcurrentSessionsF1 is the acceptance load: 64 concurrent
// pinned sessions each running the F1 mix over HTTP, half of them
// leaking their session (never releasing), then a graceful shutdown —
// after which every snapshot pin must be gone and the store closed.
func TestConcurrentSessionsF1(t *testing.T) {
	s, _ := newTestServer(t, core.Options{}, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const sessions = 64
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var sr sessionResponse
			status, code := postJSON(t, ts.Client(), ts.URL+"/session", "", sessionRequest{Pin: true}, &sr)
			if status != 200 {
				errs <- fmt.Errorf("session %d: create status %d code %s", i, status, code)
				return
			}
			if !sr.Pinned || sr.Seq == 0 {
				errs <- fmt.Errorf("session %d: not pinned (%+v)", i, sr)
				return
			}
			for _, q := range f1Queries {
				var qr QueryResponse
				status, code := postJSON(t, ts.Client(), ts.URL+"/query", "",
					QueryRequest{XPath: q, Session: sr.Session}, &qr)
				if status != 200 {
					errs <- fmt.Errorf("session %d: %q status %d code %s", i, q, status, code)
					return
				}
				if qr.Seq != sr.Seq {
					errs <- fmt.Errorf("session %d: query seq %d, pinned seq %d", i, qr.Seq, sr.Seq)
					return
				}
			}
			if i%2 == 0 { // half release cleanly, half leak to shutdown
				postJSON(t, ts.Client(), ts.URL+"/session", "", sessionRequest{Release: sr.Session}, nil)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if n := pinnedCount(s); n != sessions/2 {
		t.Fatalf("pinned before shutdown = %d, want %d leaked", n, sessions/2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if n := pinnedCount(s); n != 0 {
		t.Fatalf("pinned after shutdown = %d, want 0", n)
	}
	if got := s.Store().Durable().Health().State; got != "closed" {
		t.Fatalf("health after shutdown = %q, want closed", got)
	}
}

// TestPinnedSessionConsistency: a pinned session keeps observing its
// commit boundary while live writes land; re-pinning advances it.
func TestPinnedSessionConsistency(t *testing.T) {
	s, _ := newTestServer(t, core.Options{}, Config{})
	sess, err := s.CreateSession(true)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	countMarkers := func(session string) int {
		r, err := s.Query(ctx, &QueryRequest{SQL: "SELECT pre FROM accel WHERE kind = 'marker'", Session: session})
		if err != nil {
			t.Fatal(err)
		}
		return r.Count
	}
	if n := countMarkers(sess.ID()); n != 0 {
		t.Fatalf("pinned pre-write count = %d", n)
	}
	if _, err := s.Exec(ctx, &ExecRequest{
		SQL:  "INSERT INTO accel (pre, parent, size, level, ordinal, kind, name, value) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
		Args: []any{2000000, nil, 0, 99, 1, "marker", "m", "v"},
	}); err != nil {
		t.Fatal(err)
	}
	if n := countMarkers(sess.ID()); n != 0 {
		t.Fatalf("pinned session saw live write: count = %d", n)
	}
	if n := countMarkers(""); n != 1 {
		t.Fatalf("live count = %d, want 1", n)
	}
	if _, err := sess.Pin(); err != nil { // re-pin to latest
		t.Fatal(err)
	}
	if n := countMarkers(sess.ID()); n != 1 {
		t.Fatalf("re-pinned count = %d, want 1", n)
	}
	if n := pinnedCount(s); n != 1 {
		t.Fatalf("pinned = %d, want 1 (re-pin must not leak)", n)
	}
	s.ReleaseSession(sess.ID())
	if n := pinnedCount(s); n != 0 {
		t.Fatalf("pinned after release = %d", n)
	}
}

// TestGracefulShutdownDrain: Shutdown waits for in-flight requests,
// refuses new ones, and closes the store exactly once.
func TestGracefulShutdownDrain(t *testing.T) {
	s, _ := newTestServer(t, core.Options{}, Config{})
	end, err := s.begin() // hold one in-flight request open
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()

	// New requests must be refused while the drain waits on us.
	deadline := time.After(5 * time.Second)
	for !s.Draining() {
		select {
		case <-deadline:
			t.Fatal("shutdown never started draining")
		case <-time.After(time.Millisecond):
		}
	}
	if _, err := s.Query(context.Background(), &QueryRequest{XPath: "//item"}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("query during drain: %v, want ErrShuttingDown", err)
	}
	select {
	case err := <-done:
		t.Fatalf("shutdown returned %v before in-flight request ended", err)
	case <-time.After(50 * time.Millisecond):
	}

	end()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown did not finish after drain")
	}
	if got := s.Store().Durable().Health().State; got != "closed" {
		t.Fatalf("health = %q, want closed", got)
	}
	// Close after Shutdown is idempotent and must not double-close.
	if err := s.Close(); err != nil {
		t.Fatalf("close after shutdown: %v", err)
	}
}

// TestShutdownDrainTimeout: a drain that outlives its context still
// closes the store (writes fail typed afterwards) and reports the
// context error.
func TestShutdownDrainTimeout(t *testing.T) {
	s, _ := newTestServer(t, core.Options{}, Config{})
	end, err := s.begin()
	if err != nil {
		t.Fatal(err)
	}
	defer end()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown with stuck request: %v, want deadline error", err)
	}
	if got := s.Store().Durable().Health().State; got != "closed" {
		t.Fatalf("health = %q, want closed even on drain timeout", got)
	}
}

// TestOverload429: with one admission slot and no queue, a request
// arriving while the slot is held gets the governor's typed rejection,
// mapped to 429/"overloaded" on the wire.
func TestOverload429(t *testing.T) {
	s, _ := newTestServer(t, core.Options{MaxConcurrentQueries: 1, MaxQueuedQueries: 0}, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A self-join on a purpose-built table, sized so the cross product
	// holds the admission slot for a few hundred ms while the probe
	// below arrives.
	if _, err := s.Store().Exec("CREATE TABLE ovl (x INTEGER)"); err != nil {
		t.Fatal(err)
	}
	rows := make([][]sqldb.Value, 1200)
	for i := range rows {
		rows[i] = []sqldb.Value{sqldb.NewInt(int64(i))}
	}
	if _, err := s.Store().DB().BulkInsert("ovl", rows); err != nil {
		t.Fatal(err)
	}
	const slow = "SELECT COUNT(*) FROM ovl a, ovl b WHERE a.x < b.x"
	admitted := func() int64 { return s.Store().DB().Stats().Governor.Admitted }

	var got429 bool
	for round := 0; round < 20 && !got429; round++ {
		before := admitted()
		done := make(chan error, 1)
		go func() {
			_, err := s.Query(context.Background(), &QueryRequest{SQL: slow})
			done <- err
		}()
		// Wait until the slow query actually occupies the slot; if it
		// finishes (or was itself rejected) first, retry the round.
		occupied := false
		for !occupied && len(done) == 0 {
			if admitted() > before {
				occupied = true
			} else {
				time.Sleep(time.Millisecond)
			}
		}
		if occupied {
			status, code := postJSON(t, ts.Client(), ts.URL+"/query", "", QueryRequest{XPath: "//item/name"}, nil)
			if status == 429 && code == CodeOverloaded {
				got429 = true
			}
		}
		if err := <-done; err != nil && !errors.Is(err, sqldb.ErrOverloaded) {
			t.Fatalf("slow query: %v", err)
		}
	}
	if !got429 {
		t.Fatal("no 429/overloaded response while the admission slot was held")
	}
	if st := s.ServerStats(); st.Overloaded == 0 {
		t.Fatalf("server stats did not count overloads: %+v", st)
	}
	// The slot frees afterwards: a normal query succeeds again.
	if status, code := postJSON(t, ts.Client(), ts.URL+"/query", "", QueryRequest{XPath: "//item/name"}, nil); status != 200 {
		t.Fatalf("query after overload cleared: status %d code %s", status, code)
	}
}

// TestPostCloseExecErrClosed: once the durability layer is closed
// underneath the server, writes fail with the engine's typed
// sqldb.ErrClosed and the wire maps it to 503/"closed".
func TestPostCloseExecErrClosed(t *testing.T) {
	s, _ := newTestServer(t, core.Options{}, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if err := s.Store().Durable().Close(); err != nil {
		t.Fatal(err)
	}
	_, err := s.Exec(context.Background(), &ExecRequest{SQL: "INSERT INTO accel (pre, parent, size, level, ordinal, kind, name, value) VALUES (1, NULL, 0, 1, 1, 'k', 'n', 'v')"})
	if !errors.Is(err, sqldb.ErrClosed) {
		t.Fatalf("exec after close: %v, want ErrClosed", err)
	}
	status, code := postJSON(t, ts.Client(), ts.URL+"/exec", "",
		ExecRequest{SQL: "INSERT INTO accel (pre, parent, size, level, ordinal, kind, name, value) VALUES (1, NULL, 0, 1, 1, 'k', 'n', 'v')"}, nil)
	if status != 503 || code != CodeClosed {
		t.Fatalf("exec after close over HTTP: status %d code %s, want 503 %s", status, code, CodeClosed)
	}
	// Reads keep serving the published snapshot.
	var qr QueryResponse
	status, _ = postJSON(t, ts.Client(), ts.URL+"/query", "", QueryRequest{XPath: "//item/name"}, &qr)
	if status != 200 || qr.Count == 0 {
		t.Fatalf("read after close: status %d count %d", status, qr.Count)
	}
	var h HealthStatus
	resp, err := http.Get(ts.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if resp.StatusCode != 503 || h.State != "closed" {
		t.Fatalf("health after close: status %d state %q", resp.StatusCode, h.State)
	}
}

// TestCanceledRequest: a dead client context surfaces as a canceled
// request, not a hung or half-acked one.
func TestCanceledRequest(t *testing.T) {
	s, _ := newTestServer(t, core.Options{}, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.Query(ctx, &QueryRequest{XPath: "//item/name"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled query: %v", err)
	}
	if code, status := ErrorCode(err); code != CodeCanceled || status != 499 {
		t.Fatalf("canceled maps to %s/%d", code, status)
	}
	_, err = s.Exec(ctx, &ExecRequest{SQL: "INSERT INTO accel (pre, parent, size, level, ordinal, kind, name, value) VALUES (1, NULL, 0, 1, 1, 'k', 'n', 'v')"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled exec: %v", err)
	}
}

// TestCrashAckPreservation: every write acknowledged through the
// server survives a simulated power loss and reopen — the server adds
// no buffering in front of the WAL's ack-implies-durable contract.
func TestCrashAckPreservation(t *testing.T) {
	s, vfs := newTestServer(t, core.Options{}, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const writes = 20
	for i := 0; i < writes; i++ {
		status, code := postJSON(t, ts.Client(), ts.URL+"/exec", "",
			ExecRequest{SQL: "INSERT INTO accel (pre, parent, size, level, ordinal, kind, name, value) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
				Args: []any{3000000 + i, nil, 0, 99, i, "marker", "m", fmt.Sprintf("v%d", i)}}, nil)
		if status != 200 {
			t.Fatalf("write %d: status %d code %s", i, status, code)
		}
	}

	// Power-loss the acked state and reopen it.
	crashed := vfs.Clone()
	crashed.Crash(sqldb.CrashLoseUnsynced)
	re, err := core.OpenDurableVFS(core.Interval, crashed, core.Options{}, core.DurableOptions{})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer re.Close()
	rows, err := re.DB().Query("SELECT value FROM accel WHERE kind = 'marker'")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != writes {
		t.Fatalf("recovered %d acked writes, want %d", rows.Len(), writes)
	}
}

// TestAuth: the bearer-token seam rejects missing/bad tokens with 401,
// /health stays reachable for probes, and a valid token serves.
func TestAuth(t *testing.T) {
	s, _ := newTestServer(t, core.Options{}, Config{Auth: NewStaticTokenAuth([]string{"sesame"})})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, code := postJSON(t, ts.Client(), ts.URL+"/query", "", QueryRequest{XPath: "//item"}, nil)
	if status != 401 || code != CodeUnauthorized {
		t.Fatalf("no token: status %d code %s", status, code)
	}
	status, code = postJSON(t, ts.Client(), ts.URL+"/query", "wrong", QueryRequest{XPath: "//item"}, nil)
	if status != 401 || code != CodeUnauthorized {
		t.Fatalf("bad token: status %d code %s", status, code)
	}
	status, _ = postJSON(t, ts.Client(), ts.URL+"/query", "sesame", QueryRequest{XPath: "//item"}, nil)
	if status != 200 {
		t.Fatalf("good token: status %d", status)
	}
	resp, err := http.Get(ts.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("health with auth on: status %d, want exempt 200", resp.StatusCode)
	}
}

// TestSessionLimitAndUnknown: session cap and unknown-id taxonomy.
func TestSessionLimitAndUnknown(t *testing.T) {
	s, _ := newTestServer(t, core.Options{}, Config{MaxSessions: 2})
	if _, err := s.CreateSession(false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateSession(true); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateSession(false); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("over cap: %v", err)
	}
	_, err := s.Query(context.Background(), &QueryRequest{XPath: "//item", Session: "nope"})
	if !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("unknown session: %v", err)
	}
	if code, status := ErrorCode(err); code != CodeUnknownSess || status != 404 {
		t.Fatalf("unknown session maps to %s/%d", code, status)
	}
}

// TestSessionQueryAcrossDDL: an unpinned session's SQL still answers
// after DDL moves the schema epoch (the engine's plan cache re-plans).
func TestSessionQueryAcrossDDL(t *testing.T) {
	s, _ := newTestServer(t, core.Options{}, Config{})
	sess, err := s.CreateSession(false)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := &QueryRequest{SQL: "SELECT pre FROM accel WHERE kind = 'elem' LIMIT 3", Session: sess.ID()}
	if _, err := s.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	// DDL bumps the schema epoch, staling the cached plan.
	if _, err := s.Store().Exec("CREATE INDEX accel_tmp ON accel (ordinal)"); err != nil {
		t.Fatal(err)
	}
	r, err := s.Query(ctx, q)
	if err != nil {
		t.Fatalf("query after DDL: %v (stale plan not re-prepared?)", err)
	}
	if r.Count != 3 {
		t.Fatalf("count after DDL = %d", r.Count)
	}
}
