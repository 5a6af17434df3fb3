package main

// sut.go is the only file that imports the repository. Every symbol of
// the system under test the benchmark touches goes through here, so a
// later change that renames one is a one-file fix. README.md lists this
// surface as frozen.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/sqldb"
	"repro/internal/xmldom"
	"repro/internal/xmlgen"
	"repro/internal/xpath"
)

// scheme names a mapping scheme; only the two durable ones are used.
type scheme = core.SchemeKind

const (
	interval = core.Interval
	dewey    = core.Dewey
)

// shredBatch is the row count the shredders hand to BulkInsert at a
// time (shred.batcher's limit); reinsert replays the same batching.
const shredBatch = 4096

// ---------------------------------------------------------------------------
// Input generation and the DOM oracle

func auctionXML(factor float64, seed uint64) string {
	return xmlgen.AuctionXML(xmlgen.Config{Factor: factor, Seed: seed})
}

// auctionFragments serializes every open_auction subtree of a second,
// independently seeded document: the fragments update.ordered inserts.
func auctionFragments(factor float64, seed uint64) [][]byte {
	doc := xmlgen.Auction(xmlgen.Config{Factor: factor, Seed: seed})
	p := xpath.MustParse("/site/open_auctions/open_auction")
	var out [][]byte
	for _, n := range xpath.Eval(doc, p) {
		out = append(out, []byte(xmldom.SerializeString(n)))
	}
	return out
}

// dom is the reference the relational answers must equal.
type dom struct{ doc *xmldom.Document }

func parseDOM(src string) (*dom, error) {
	doc, err := xmldom.Parse([]byte(src))
	if err != nil {
		return nil, fmt.Errorf("parsing generated document: %w", err)
	}
	return &dom{doc: doc}, nil
}

func (d *dom) serialize() string { return xmldom.SerializeString(d.doc.Root) }

func (d *dom) nodes(query string) ([]*xmldom.Node, error) {
	p, err := xpath.Parse(query)
	if err != nil {
		return nil, fmt.Errorf("parsing %q: %w", query, err)
	}
	return xpath.Eval(d.doc, p), nil
}

// eval returns the pre-order ids of the query's matches: the ids the
// Interval and Dewey stores report for a freshly loaded document.
func (d *dom) eval(query string) ([]int64, error) {
	ns, err := d.nodes(query)
	if err != nil {
		return nil, err
	}
	ids := make([]int64, len(ns))
	for i, n := range ns {
		ids[i] = int64(n.Pre)
	}
	return ids, nil
}

// commonText returns the most frequent text value among the query's
// matches (ties go to the smaller string, so it depends on the document
// alone).
func (d *dom) commonText(query string) (string, error) {
	ns, err := d.nodes(query)
	if err != nil {
		return "", err
	}
	count := map[string]int{}
	best := ""
	for _, n := range ns {
		t := n.Text()
		count[t]++
		if c, b := count[t], count[best]; best == "" || c > b || (c == b && t < best) {
			best = t
		}
	}
	if best == "" {
		return "", fmt.Errorf("no text under %q", query)
	}
	return best, nil
}

// childCount returns the number of children of the query's one match.
func (d *dom) childCount(query string) (int, error) {
	ns, err := d.nodes(query)
	if err != nil {
		return 0, err
	}
	if len(ns) != 1 {
		return 0, fmt.Errorf("%q matches %d nodes, want 1", query, len(ns))
	}
	return len(ns[0].Children), nil
}

// insertChild replays one acknowledged insert on the DOM.
func (d *dom) insertChild(parentQuery string, position int, fragment []byte) error {
	ns, err := d.nodes(parentQuery)
	if err != nil {
		return err
	}
	if len(ns) != 1 {
		return fmt.Errorf("%q matches %d nodes, want 1", parentQuery, len(ns))
	}
	frag, err := xmldom.Parse(fragment)
	if err != nil {
		return fmt.Errorf("parsing fragment: %w", err)
	}
	ns[0].InsertChild(frag.RootElement().Copy(), position)
	return nil
}

// ---------------------------------------------------------------------------
// Counting VFS: the device layer, measured from outside

type ioCounters struct {
	writes, writeBytes, fsyncs, readBytes, walBytes atomic.Int64
}

type ioSnapshot struct {
	writes, writeBytes, fsyncs, readBytes, walBytes int64
}

func (c *ioCounters) snapshot() ioSnapshot {
	return ioSnapshot{c.writes.Load(), c.writeBytes.Load(), c.fsyncs.Load(), c.readBytes.Load(), c.walBytes.Load()}
}

func (a ioSnapshot) sub(b ioSnapshot) ioSnapshot {
	return ioSnapshot{a.writes - b.writes, a.writeBytes - b.writeBytes, a.fsyncs - b.fsyncs, a.readBytes - b.readBytes, a.walBytes - b.walBytes}
}

func (a ioSnapshot) add(b ioSnapshot) ioSnapshot {
	return ioSnapshot{a.writes + b.writes, a.writeBytes + b.writeBytes, a.fsyncs + b.fsyncs, a.readBytes + b.readBytes, a.walBytes + b.walBytes}
}

type countingVFS struct {
	sqldb.VFS
	c *ioCounters
}

func (v countingVFS) wrap(name string, f sqldb.File, err error) (sqldb.File, error) {
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, c: v.c, wal: name == "wal.log"}, nil
}

func (v countingVFS) Create(name string) (sqldb.File, error) {
	f, err := v.VFS.Create(name)
	return v.wrap(name, f, err)
}

func (v countingVFS) Open(name string) (sqldb.File, error) {
	f, err := v.VFS.Open(name)
	return v.wrap(name, f, err)
}

func (v countingVFS) OpenRW(name string) (sqldb.File, error) {
	f, err := v.VFS.OpenRW(name)
	return v.wrap(name, f, err)
}

func (v countingVFS) SyncDir() error {
	v.c.fsyncs.Add(1)
	return v.VFS.SyncDir()
}

type countingFile struct {
	sqldb.File
	c   *ioCounters
	wal bool
}

func (f *countingFile) wrote(n int) {
	f.c.writes.Add(1)
	f.c.writeBytes.Add(int64(n))
	if f.wal {
		f.c.walBytes.Add(int64(n))
	}
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.wrote(n)
	return n, err
}

func (f *countingFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.wrote(n)
	return n, err
}

func (f *countingFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.c.readBytes.Add(int64(n))
	return n, err
}

func (f *countingFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.c.readBytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	f.c.fsyncs.Add(1)
	return f.File.Sync()
}

// ---------------------------------------------------------------------------
// Stores

// store is the query/publish face shared by in-memory and durable
// stores.
type store struct{ st *core.Store }

func openMem(k scheme) (*store, error) {
	st, err := core.Open(k)
	if err != nil {
		return nil, err
	}
	return &store{st: st}, nil
}

func (s *store) loadStream(src string) error {
	return s.st.LoadXMLStream(context.Background(), strings.NewReader(src))
}

func matchIDs(res *core.Result) []int64 {
	ids := make([]int64, len(res.Matches))
	for i, m := range res.Matches {
		ids[i] = m.ID
	}
	return ids
}

func (s *store) query(xp string) ([]int64, error) {
	res, err := s.st.Query(xp)
	if err != nil {
		return nil, err
	}
	return matchIDs(res), nil
}

func (s *store) translate(xp string) (string, error) { return s.st.Translate(xp) }

func (s *store) insert(parentID int64, position int, fragment []byte) error {
	return s.st.InsertXML(parentID, position, fragment)
}

func (s *store) writeXML(w io.Writer) error { return s.st.WriteXML(w) }

// reconstructAndSerialize runs WriteXML's two halves separately and
// returns the time each took.
func (s *store) reconstructAndSerialize(w io.Writer) (reconstruct, serialize time.Duration, err error) {
	t0 := time.Now()
	doc, err := s.st.Reconstruct()
	if err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	err = xmldom.Serialize(w, doc.Root)
	return t1.Sub(t0), time.Since(t1), err
}

func (s *store) rows() int { return s.st.Stats().Rows }

// planMiss compiles the statement without the plan cache; planHit looks
// it up (and renders the cached plan, so it is an upper bound).
func (s *store) planMiss(sql string) error {
	_, err := s.st.DB().Prepare(sql)
	return err
}

func (s *store) planHit(sql string) error {
	_, err := s.st.DB().Explain(sql)
	return err
}

// prepared executes one compiled statement, materializing every row.
type prepared struct{ p *sqldb.Prepared }

func (s *store) prepare(sql string) (*prepared, error) {
	p, err := s.st.DB().Prepare(sql)
	if err != nil {
		return nil, err
	}
	return &prepared{p: p}, nil
}

func (p *prepared) run() (int, error) {
	rows, err := p.p.Query()
	if err != nil {
		return 0, err
	}
	return rows.Len(), nil
}

// examined executes the statement under EXPLAIN ANALYZE and returns the
// rows its scan and join operators produced beside the result size.
func (s *store) examined(sql string) (examined, result int64, err error) {
	ap, err := s.st.DB().ExplainAnalyzePlan(sql)
	if err != nil {
		return 0, 0, err
	}
	for _, op := range ap.Ops {
		if strings.Contains(op.Kind, "Scan") || strings.Contains(op.Kind, "Join") {
			examined += op.Rows
		}
	}
	return examined, int64(ap.Rows), nil
}

// engineCounters are the public counters the per-layer metrics read.
type engineCounters struct {
	commits, fsyncs, checkpoints                        uint64
	poolHits, poolFaults, poolEvictions, poolWritebacks uint64
	planHits, planMisses                                uint64
}

func (a engineCounters) sub(b engineCounters) engineCounters {
	return engineCounters{
		a.commits - b.commits, a.fsyncs - b.fsyncs, a.checkpoints - b.checkpoints,
		a.poolHits - b.poolHits, a.poolFaults - b.poolFaults, a.poolEvictions - b.poolEvictions, a.poolWritebacks - b.poolWritebacks,
		a.planHits - b.planHits, a.planMisses - b.planMisses,
	}
}

func (a engineCounters) add(b engineCounters) engineCounters {
	return engineCounters{
		a.commits + b.commits, a.fsyncs + b.fsyncs, a.checkpoints + b.checkpoints,
		a.poolHits + b.poolHits, a.poolFaults + b.poolFaults, a.poolEvictions + b.poolEvictions, a.poolWritebacks + b.poolWritebacks,
		a.planHits + b.planHits, a.planMisses + b.planMisses,
	}
}

func (s *store) counters() engineCounters {
	pool := s.st.DB().Stats().BufferPool
	plan := s.st.DB().PlanCacheStats()
	return engineCounters{
		poolHits: pool.Hits, poolFaults: pool.Misses, poolEvictions: pool.Evictions, poolWritebacks: pool.Writebacks,
		planHits: plan.Hits, planMisses: plan.Misses,
	}
}

// shredded holds every table's rows of a loaded store.
type shredded struct {
	tables []string
	rows   map[string][][]sqldb.Value
}

func (s *store) shredded() (*shredded, error) {
	sh := &shredded{tables: s.st.DB().TableNames(), rows: map[string][][]sqldb.Value{}}
	for _, t := range sh.tables {
		rows, err := s.st.DB().Query("SELECT * FROM " + t)
		if err != nil {
			return nil, fmt.Errorf("reading back %s: %w", t, err)
		}
		sh.rows[t] = rows.Data
	}
	return sh, nil
}

// reinsert bulk-inserts shredded rows into the fresh tables and indexes
// of a new in-memory store: heap and index maintenance with no XML work.
func reinsert(k scheme, sh *shredded) (time.Duration, error) {
	st, err := core.Open(k)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	for _, t := range sh.tables {
		rows := sh.rows[t]
		for len(rows) > 0 {
			n := min(shredBatch, len(rows))
			if _, err := st.DB().BulkInsert(t, rows[:n]); err != nil {
				return 0, fmt.Errorf("bulk insert into %s: %w", t, err)
			}
			rows = rows[n:]
		}
	}
	return time.Since(t0), nil
}

// durableOpts are the two departures from the default configuration a
// workload or a layer probe may ask for.
type durableOpts struct {
	poolPages int  // core.Options.BufferPoolPages; 0 = all pages resident
	noSync    bool // DurableOptions.NoSync; probes only
}

// durable is a store in a data directory behind the counting VFS.
type durable struct {
	store
	ds *core.DurableStore
	io *ioCounters
}

func openDurableOn(k scheme, fs sqldb.VFS, o durableOpts) (*durable, error) {
	c := &ioCounters{}
	ds, err := core.OpenDurableVFS(k, countingVFS{VFS: fs, c: c},
		core.Options{BufferPoolPages: o.poolPages}, core.DurableOptions{NoSync: o.noSync})
	if err != nil {
		return nil, err
	}
	return &durable{store: store{st: ds.Store}, ds: ds, io: c}, nil
}

// openDurable is core.OpenDurableWith with the OS VFS wrapped for
// counting.
func openDurable(k scheme, dir string, o durableOpts) (*durable, error) {
	fs, err := sqldb.NewOSVFS(dir)
	if err != nil {
		return nil, fmt.Errorf("opening data directory %s: %w", dir, err)
	}
	return openDurableOn(k, fs, o)
}

func (d *durable) loadStream(src string) error {
	return d.ds.LoadXMLStream(context.Background(), strings.NewReader(src))
}

func (d *durable) insert(parentID int64, position int, fragment []byte) error {
	return d.ds.InsertXML(parentID, position, fragment)
}

func (d *durable) checkpoint() error { return d.ds.Checkpoint() }
func (d *durable) close() error      { return d.ds.Close() }

func (d *durable) counters() engineCounters {
	c := d.store.counters()
	st := d.ds.Durable().Stats()
	c.commits, c.fsyncs, c.checkpoints = st.Commits, st.Fsyncs, d.ds.Durable().Checkpoints()
	return c
}

// memDisk is the crash-simulating in-memory VFS.
type memDisk struct{ fs *sqldb.MemVFS }

func newMemDisk() *memDisk { return &memDisk{fs: sqldb.NewMemVFS()} }

func (m *memDisk) open(k scheme) (*durable, error) { return openDurableOn(k, m.fs, durableOpts{}) }

// powerLoss returns a copy of the disk as a power failure would leave
// it: everything not fsynced is gone.
func (m *memDisk) powerLoss() *memDisk {
	c := m.fs.Clone()
	c.Crash(sqldb.CrashLoseUnsynced)
	return &memDisk{fs: c}
}

// ---------------------------------------------------------------------------
// Layer probes with no store behind them

func drainTokens(src string) (int, error) {
	tz := xmldom.NewTokenizer(strings.NewReader(src))
	n := 0
	for {
		tok, err := tz.Next()
		if err != nil {
			return n, err
		}
		if tok.Kind == xmldom.TokEOF {
			return n, nil
		}
		n++
	}
}

func parseXPath(q string) error {
	_, err := xpath.Parse(q)
	return err
}

func parseFragment(frag []byte) error {
	_, err := xmldom.Parse(frag)
	return err
}

// ---------------------------------------------------------------------------
// The front door: in-process server on loopback listeners

type door struct {
	srv      *server.Server
	httpURL  string
	lineAddr string
	served   chan error
}

// serve hands the store to a server (which closes it on shutdown) and
// starts both transports.
func serve(d *durable) (*door, error) {
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lineLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		httpLn.Close()
		return nil, err
	}
	o := &door{
		srv:      server.New(d.ds, server.Config{}),
		httpURL:  "http://" + httpLn.Addr().String() + "/query",
		lineAddr: lineLn.Addr().String(),
		served:   make(chan error, 2), // one send per transport goroutine
	}
	go func() { o.served <- o.srv.Serve(httpLn) }()
	go func() { o.served <- o.srv.ServeLine(lineLn) }()
	return o, nil
}

// query is the handler core called in process: no transport.
func (o *door) query(xp string) ([]int64, error) {
	resp, err := o.srv.Query(context.Background(), &server.QueryRequest{XPath: xp})
	if err != nil {
		return nil, err
	}
	ids := make([]int64, len(resp.Matches))
	for i, m := range resp.Matches {
		ids[i] = m.ID
	}
	return ids, nil
}

// shutdown drains the server, closes the store and waits for both
// transport goroutines.
func (o *door) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := o.srv.Shutdown(ctx)
	for i := 0; i < 2; i++ {
		if serr := <-o.served; serr != nil && err == nil {
			err = serr
		}
	}
	return err
}

// wireMatches is the part of the /query and line-protocol reply the
// clients decode.
type wireMatches struct {
	Matches []struct {
		ID int64 `json:"id"`
	} `json:"matches"`
}

func (w *wireMatches) ids() []int64 {
	ids := make([]int64, len(w.Matches))
	for i, m := range w.Matches {
		ids[i] = m.ID
	}
	return ids
}

// httpClient is one application's keep-alive connection to POST /query.
type httpClient struct {
	c   *http.Client
	url string
}

func (o *door) httpClient() *httpClient {
	return &httpClient{c: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}, url: o.httpURL}
}

func (h *httpClient) query(xp string) ([]int64, error) {
	body, err := json.Marshal(map[string]string{"xpath": xp})
	if err != nil {
		return nil, err
	}
	resp, err := h.c.Post(h.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // diagnostic only
		return nil, fmt.Errorf("POST /query: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var out wireMatches
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("decoding /query reply: %w", err)
	}
	return out.ids(), nil
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

// lineClient is one connection speaking the length-prefixed protocol.
type lineClient struct{ conn net.Conn }

func (o *door) lineClient() (*lineClient, error) {
	conn, err := net.Dial("tcp", o.lineAddr)
	if err != nil {
		return nil, err
	}
	return &lineClient{conn: conn}, nil
}

func (l *lineClient) query(xp string) ([]int64, error) {
	payload, err := json.Marshal(map[string]string{"op": "query", "xpath": xp})
	if err != nil {
		return nil, err
	}
	frame := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(frame, uint32(len(payload)))
	copy(frame[4:], payload)
	if _, err := l.conn.Write(frame); err != nil {
		return nil, err
	}
	var hdr [4]byte
	if _, err := io.ReadFull(l.conn, hdr[:]); err != nil {
		return nil, err
	}
	reply := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(l.conn, reply); err != nil {
		return nil, err
	}
	var out struct {
		Error  string      `json:"error"`
		Result wireMatches `json:"result"`
	}
	if err := json.Unmarshal(reply, &out); err != nil {
		return nil, fmt.Errorf("decoding line reply: %w", err)
	}
	if out.Error != "" {
		return nil, fmt.Errorf("line query: %s", out.Error)
	}
	return out.Result.ids(), nil
}

func (l *lineClient) close() { l.conn.Close() }
