package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sqldb"
	"repro/internal/xmldom"
	"repro/internal/xmlgen"
)

// durableXML publishes the store as a canonical string for state
// comparison ("" when no document is loaded).
func durableXML(t *testing.T, st *Store) string {
	t.Helper()
	if !st.Loaded() {
		return ""
	}
	var b strings.Builder
	if err := st.WriteXML(&b); err != nil {
		t.Fatalf("publish: %v", err)
	}
	return b.String()
}

// sameTranslations holds got to want on every query: the same SQL, or
// the same refusal. It reports the queries both translate.
func sameTranslations(t *testing.T, got, want *Store, queries []string) []string {
	t.Helper()
	var ok []string
	for _, q := range queries {
		gotSQL, gotErr := got.Translate(q)
		wantSQL, wantErr := want.Translate(q)
		if gotSQL != wantSQL || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("%s: translates to\n%s (%v)\nwant\n%s (%v)", q, gotSQL, gotErr, wantSQL, wantErr)
		} else if wantErr == nil {
			ok = append(ok, q)
		}
	}
	return ok
}

// sameAnswers holds got to want on every query: the same translation
// and the same matches.
func sameAnswers(t *testing.T, got, want *Store, queries []string) {
	t.Helper()
	for _, q := range sameTranslations(t, got, want, queries) {
		gotRes, err := got.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		wantRes, err := want.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !reflect.DeepEqual(gotRes.Matches, wantRes.Matches) {
			t.Errorf("%s: %d matches, want %d", q, len(gotRes.Matches), len(wantRes.Matches))
		}
	}
}

// corpusOptions opens kind for the auction documents: Inline needs
// their DTD.
func corpusOptions(kind SchemeKind) Options {
	if kind == Inline {
		return Options{DTD: xmlgen.AuctionDTD, Root: "site"}
	}
	return Options{}
}

// TestDurableStoreLoadReopen reopens a data directory under each
// scheme after a load, and after a checkpoint and an insert (which
// Universal refuses): WAL replay and snapshot plus WAL rebuild the
// document, and a reopened auction store answers the domCorpus like a
// fresh in-memory one.
func TestDurableStoreLoadReopen(t *testing.T) {
	for _, kind := range allSchemes {
		t.Run(string(kind), func(t *testing.T) {
			fs := sqldb.NewMemVFS()
			ds, err := OpenDurableVFS(kind, fs, smallDocOptions(kind), DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if ds.Loaded() {
				t.Fatal("fresh store claims to be loaded")
			}
			if err := ds.LoadXML([]byte(smallDoc)); err != nil {
				t.Fatalf("load: %v", err)
			}
			want := durableXML(t, ds.Store)
			ds.Close()

			// Reopen: WAL replay alone must rebuild the document.
			ds2, err := OpenDurableVFS(kind, fs, smallDocOptions(kind), DurableOptions{})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if !ds2.Loaded() {
				t.Fatal("reopened store lost the document")
			}
			if got := durableXML(t, ds2.Store); got != want {
				t.Fatalf("document changed across reopen:\n%s\nvs\n%s", got, want)
			}
			n, err := ds2.Count(`/bib/book[price < 50]/title`)
			if err != nil {
				t.Fatalf("query after recovery: %v", err)
			}
			if n != 1 {
				t.Fatalf("count after recovery = %d", n)
			}

			// Checkpoint, mutate, reopen again: snapshot + fresh WAL.
			if err := ds2.Checkpoint(); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			res, err := ds2.Query(`/bib`)
			if err != nil || len(res.Matches) != 1 {
				t.Fatalf("root query: %v (%d matches)", err, len(res.Matches))
			}
			frag := `<book year="2010"><title>WAL</title><price>12.50</price></book>`
			if err := ds2.InsertXML(res.Matches[0].ID, 2, []byte(frag)); err != nil && kind != Universal {
				t.Fatalf("insert: %v", err)
			}
			want2 := durableXML(t, ds2.Store)
			ds2.Close()

			ds3, err := OpenDurableVFS(kind, fs, smallDocOptions(kind), DurableOptions{})
			if err != nil {
				t.Fatalf("second reopen: %v", err)
			}
			if got := durableXML(t, ds3.Store); got != want2 {
				t.Fatalf("snapshot+WAL recovery diverged:\n%s\nvs\n%s", got, want2)
			}
			ds3.Close()

			doc := xmlgen.Auction(xmlgen.Config{Factor: 0.01, Seed: 5})
			fresh, err := OpenWith(kind, corpusOptions(kind))
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.LoadDocument(doc); err != nil {
				t.Fatal(err)
			}
			fs = sqldb.NewMemVFS()
			ds, err = OpenDurableVFS(kind, fs, corpusOptions(kind), DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := ds.LoadDocument(doc); err != nil {
				t.Fatal(err)
			}
			ds.Close()
			re, err := OpenDurableVFS(kind, fs, Options{}, DurableOptions{})
			if err != nil {
				t.Fatalf("reopening the auction store: %v", err)
			}
			defer re.Close()
			sameAnswers(t, re.Store, fresh, domCorpus)
		})
	}
}

// TestLoadXMLParseBeforeWrite feeds LoadXML a document truncated in the
// middle of an element: the parse error aborts the load's transaction,
// so both stores refuse it with a *xmldom.ParseError and hold no rows,
// and a reopened durable directory holds none either. InsertXML of a
// truncated fragment is refused the same way, leaving the tables, the
// WAL and the reopened store as they were; comments and PIs around a
// fragment's element are not inserted.
func TestLoadXMLParseBeforeWrite(t *testing.T) {
	src := xmlgen.AuctionXML(xmlgen.Config{Factor: 0.02, Seed: 6})
	cut := len(src)/2 + strings.Index(src[len(src)/2:], "<person") + len("<per")
	truncated := []byte(src[:cut])
	refused := func(t *testing.T, what string, st *Store, err error) {
		t.Helper()
		var perr *xmldom.ParseError
		if !errors.As(err, &perr) {
			t.Fatalf("%s: got %v, want a *xmldom.ParseError", what, err)
		}
		if n := st.DB().TotalRows(); n != 0 || st.Loaded() {
			t.Fatalf("%s: refused load left %d rows (loaded=%v)", what, n, st.Loaded())
		}
	}
	for _, kind := range []SchemeKind{Interval, Dewey} {
		t.Run(string(kind), func(t *testing.T) {
			st, err := Open(kind)
			if err != nil {
				t.Fatal(err)
			}
			refused(t, "Store", st, st.LoadXML(truncated))

			dir := t.TempDir()
			ds, err := OpenDurable(kind, dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			refused(t, "DurableStore", ds.Store, ds.LoadXML(truncated))
			if err := ds.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := OpenDurable(kind, dir, Options{})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if n := re.DB().TotalRows(); n != 0 || re.Loaded() {
				t.Fatalf("reopened directory holds %d rows (loaded=%v)", n, re.Loaded())
			}

			// A truncated fragment fails mid-walk, inside the insert's
			// transaction: no row and no WAL byte is written.
			if err := re.LoadXML([]byte(smallDoc)); err != nil {
				t.Fatal(err)
			}
			res, err := re.Query("/bib")
			if err != nil || len(res.Matches) != 1 {
				t.Fatalf("/bib: %v, %v", res, err)
			}
			bib := res.Matches[0].ID
			tables, wal := tableDump(t, re.Store), re.Durable().WALSize()
			var perr *xmldom.ParseError
			if err := re.InsertXML(bib, 0, []byte(`<c>`)); !errors.As(err, &perr) {
				t.Fatalf("truncated fragment: got %v, want a *xmldom.ParseError", err)
			}
			if tableDump(t, re.Store) != tables || re.Durable().WALSize() != wal {
				t.Fatalf("refused insert changed the tables or the WAL (%d -> %d bytes)", wal, re.Durable().WALSize())
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			again, err := OpenDurable(kind, dir, Options{})
			if err != nil {
				t.Fatalf("second reopen: %v", err)
			}
			defer again.Close()
			if tableDump(t, again.Store) != tables {
				t.Fatal("reopened store differs from the one the refused insert left")
			}
			// Comments and PIs around a fragment's element are dropped.
			if err := again.InsertXML(bib, 0, []byte(`<!--a--><?p q?><c/><!--b-->`)); err != nil {
				t.Fatal(err)
			}
			if got, want := durableXML(t, again.Store), strings.Replace(smallDoc, "<bib>", "<bib><c/>", 1); got != want {
				t.Fatalf("after the insert the store publishes %s, want %s", got, want)
			}
		})
	}
}

// TestDurableStoreSchemeChecks: a data directory written under one
// scheme is refused under each of the other five, and an Inline
// directory is refused under a different DTD but reopens under its own
// or none.
func TestDurableStoreSchemeChecks(t *testing.T) {
	for _, kind := range allSchemes {
		fs := sqldb.NewMemVFS()
		ds, err := OpenDurableVFS(kind, fs, smallDocOptions(kind), DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ds.Close()
		for _, other := range allSchemes {
			if other == kind {
				continue
			}
			if re, err := OpenDurableVFS(other, fs, smallDocOptions(other), DurableOptions{}); err == nil {
				re.Close()
				t.Errorf("%s store opened a %s data directory", other, kind)
			}
		}
	}
	fs := sqldb.NewMemVFS()
	ds, err := OpenDurableVFS(Inline, fs, smallDocOptions(Inline), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ds.Close()
	if _, err := OpenDurableVFS(Inline, fs, Options{DTD: xmlgen.AuctionDTD, Root: "site"}, DurableOptions{}); err == nil {
		t.Error("inline data directory opened under a different DTD")
	}
	for _, opts := range []Options{smallDocOptions(Inline), {}} {
		re, err := OpenDurableVFS(Inline, fs, opts, DurableOptions{})
		if err != nil {
			t.Fatalf("inline reopen with DTD %q: %v", opts.DTD, err)
		}
		re.Close()
	}
}

// TestDurableStoreCrashSweep kills the store at every write-budget
// offset across load / insert / checkpoint and verifies recovery always
// lands on a whole-operation prefix: document loads and subtree inserts
// are group-committed, scheme state rows included, so a crash can never
// surface half a document. Universal refuses inserts: its sweep covers
// the load and the checkpoint. Edge's sweep logs every statement of a
// transaction but its last as a continuation frame, so its load spans
// several frames.
func TestDurableStoreCrashSweep(t *testing.T) {
	for _, kind := range allSchemes {
		t.Run(string(kind), func(t *testing.T) {
			if kind == Edge {
				prev := sqldb.SetTxStreamBytes(0)
				defer sqldb.SetTxStreamBytes(prev)
			}
			durableStoreCrashSweep(t, kind)
		})
	}
}

// sweepDoc is the crash sweep's document: smallDoc cut to one book
// without a price, since the sweep's cost grows with the square of
// the bytes a run writes.
const sweepDoc = `<bib><book year="1994"><title>TCP</title></book></bib>`

func durableStoreCrashSweep(t *testing.T, kind SchemeKind) {
	frag := `<book year="2010"><title>WAL</title></book>`
	opts := smallDocOptions(kind)
	ops := 2
	if kind == Universal {
		ops = 1
	}

	// Baselines: plain in-memory stores after 0, 1, 2 whole ops, plus
	// the root ID the insert op targets (shredding is deterministic, so
	// it is the same in every run).
	base1, err := OpenWith(kind, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := base1.LoadXML([]byte(sweepDoc)); err != nil {
		t.Fatal(err)
	}
	res, err := base1.Query(`/bib`)
	if err != nil || len(res.Matches) != 1 {
		t.Fatalf("root query: %v", err)
	}
	rootID := res.Matches[0].ID
	prefixes := []string{"", durableXML(t, base1)}
	if ops == 2 {
		base2, err := OpenWith(kind, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := base2.LoadXML([]byte(sweepDoc)); err != nil {
			t.Fatal(err)
		}
		if err := base2.InsertXML(rootID, 2, []byte(frag)); err != nil {
			t.Fatal(err)
		}
		prefixes = append(prefixes, durableXML(t, base2))
	}

	run := func(fs sqldb.VFS) int {
		acked := 0
		ds, err := OpenDurableVFS(kind, fs, opts, DurableOptions{})
		if err != nil {
			return 0
		}
		if err := ds.LoadXML([]byte(sweepDoc)); err == nil {
			acked++
			if err := ds.InsertXML(rootID, 2, []byte(frag)); err == nil {
				acked++
			}
		}
		ds.Checkpoint()
		return acked // no Close: simulated kill
	}

	probe := sqldb.NewFaultVFS(sqldb.NewMemVFS(), -1)
	if acked := run(probe); acked != ops {
		t.Fatalf("fault-free run acked %d/%d ops", acked, ops)
	}
	if kind == Edge {
		ds, err := OpenDurableVFS(kind, sqldb.NewMemVFS(), opts, DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.LoadXML([]byte(sweepDoc)); err != nil {
			t.Fatal(err)
		}
		if n := ds.Durable().Stats().Continuations; n < 2 {
			t.Fatalf("the swept load wrote %d continuation frames, want at least 2", n)
		}
		ds.Close()
	}
	total := probe.Written()

	step := int64(1)
	if testing.Short() {
		step = total/97 + 1
	}
	for budget := int64(0); budget <= total; budget += step {
		inner := sqldb.NewMemVFS()
		acked := run(sqldb.NewFaultVFS(inner, budget))
		for _, mode := range []sqldb.CrashMode{sqldb.CrashLoseUnsynced, sqldb.CrashKeepAll} {
			crashed := inner.Clone()
			crashed.Crash(mode)
			ds, err := OpenDurableVFS(kind, crashed, opts, DurableOptions{})
			if err != nil {
				// Acceptable only when the crash predates a working
				// store: a torn scheme setup cannot have acked ops.
				if acked > 0 {
					t.Fatalf("budget %d mode %d: %d acked ops but recovery failed: %v", budget, mode, acked, err)
				}
				continue
			}
			got := durableXML(t, ds.Store)
			k := -1
			for i, p := range prefixes {
				if got == p {
					k = i
					break
				}
			}
			if k < 0 {
				t.Fatalf("budget %d mode %d: recovered document is not a whole-op prefix:\n%s", budget, mode, got)
			}
			if mode == sqldb.CrashLoseUnsynced && k != acked {
				t.Fatalf("budget %d: lose-unsynced recovered prefix %d, acked %d", budget, k, acked)
			}
			if mode == sqldb.CrashKeepAll && (k < acked || k > min(acked+1, ops)) {
				t.Fatalf("budget %d: keep-all recovered prefix %d, acked %d", budget, k, acked)
			}
			// Recovered stores stay writable and queryable.
			if got != "" {
				if _, err := ds.Count(`/bib/book`); err != nil {
					t.Fatalf("budget %d mode %d: query after recovery: %v", budget, mode, err)
				}
			}
			ds.Close()
		}
	}
}

func TestDurableStoreExec(t *testing.T) {
	fs := sqldb.NewMemVFS()
	ds, err := OpenDurableVFS(Interval, fs, Options{}, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.LoadXML([]byte(smallDoc)); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Exec(`CREATE TABLE notes (id INTEGER PRIMARY KEY, body TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Exec(`INSERT INTO notes VALUES (1, 'recovered')`); err != nil {
		t.Fatal(err)
	}
	ds.Close()
	ds2, err := OpenDurableVFS(Interval, fs, Options{}, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := ds2.DB().QueryScalar(`SELECT body FROM notes WHERE id = 1`)
	if err != nil || v.Text() != "recovered" {
		t.Fatalf("direct SQL write lost: %v %q", err, v.Text())
	}
	ds2.Close()
}

// TestDurableStoreConcurrentExecDuringLoad is the end-to-end face of
// the durability contract beside an open document load: a direct SQL
// write waits for the load's transaction and is acknowledged only once
// durable, so a crash that hits before the load commits recovers every
// acknowledged write and none of the half-loaded document. (Before the
// WAL pipeline, such writes sat in the load's group buffer: acked,
// published, and gone on crash.)
func TestDurableStoreConcurrentExecDuringLoad(t *testing.T) {
	for _, mode := range []sqldb.CrashMode{sqldb.CrashLoseUnsynced, sqldb.CrashKeepAll} {
		fs := sqldb.NewMemVFS()
		ds, err := OpenDurableVFS(Interval, fs, Options{}, DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		db := ds.Durable().DB()
		db.MustExec(`CREATE TABLE audit (k INTEGER PRIMARY KEY, note TEXT)`)
		db.MustExec(`INSERT INTO audit VALUES (0, 'acked before the load')`)
		doc, err := xmldom.ParseString(smallDoc)
		if err != nil {
			t.Fatal(err)
		}

		var midLoad *sqldb.MemVFS
		var acked atomic.Int64
		var ackedAtCrash int64
		done := make(chan error, 1)
		txErr := db.Update(func(tx *sqldb.Tx) error {
			if err := ds.scheme.Insert(context.Background(), tx, 0, 0, doc.Tokens()); err != nil {
				return err
			}
			// An auditor on another goroutine records rows while the load
			// is open; each Exec return is a durability ack, which waits
			// for the load to commit.
			go func() {
				for i := 1; i <= 3; i++ {
					if _, err := db.Exec(`INSERT INTO audit VALUES (?, 'acked')`, sqldb.NewInt(int64(i))); err != nil {
						done <- err
						return
					}
					acked.Add(1)
				}
				done <- nil
			}()
			// Give the auditor time to reach the writer slot; nothing
			// below depends on whether it has.
			time.Sleep(5 * time.Millisecond)
			ackedAtCrash = acked.Load()
			midLoad = fs.Clone()
			midLoad.Crash(mode)
			return nil
		})
		if txErr != nil {
			t.Fatalf("mode %v: transactional load: %v", mode, txErr)
		}
		if err := <-done; err != nil {
			t.Fatalf("mode %v: auditor: %v", mode, err)
		}
		if ackedAtCrash != 0 {
			t.Fatalf("mode %v: %d audit rows acknowledged while the load was open", mode, ackedAtCrash)
		}

		rds, err := OpenDurableVFS(Interval, midLoad, Options{}, DurableOptions{})
		if err != nil {
			t.Fatalf("mode %v: mid-load recovery: %v", mode, err)
		}
		if v, err := rds.DB().QueryScalar(`SELECT COUNT(*) FROM audit`); err != nil || v.Int() != 1 {
			t.Fatalf("mode %v: acked audit rows after mid-load crash: %v %v, want 1", mode, v, err)
		}
		if v, err := rds.DB().QueryScalar(`SELECT COUNT(*) FROM accel`); err != nil || v.Int() != 0 {
			t.Fatalf("mode %v: %v document rows leaked from the open load (%v)", mode, v, err)
		}
		rds.Close()

		// Once the load's frame is durable, the whole document is, and so
		// is every audit row acknowledged after it.
		after := fs.Clone()
		after.Crash(mode)
		rds2, err := OpenDurableVFS(Interval, after, Options{}, DurableOptions{})
		if err != nil {
			t.Fatalf("mode %v: post-load recovery: %v", mode, err)
		}
		n, err := rds2.Count(`/bib/book`)
		if err != nil || n != 2 {
			t.Fatalf("mode %v: post-load document query: %d books, %v", mode, n, err)
		}
		if v, err := rds2.DB().QueryScalar(`SELECT COUNT(*) FROM audit`); err != nil || v.Int() != 4 {
			t.Fatalf("mode %v: audit rows after post-load crash: %v %v, want 4", mode, v, err)
		}
		rds2.Close()
		ds.Close()
	}
}

// heapProbeVFS samples the in-use heap, after a collection, the first
// time the WAL is opened — in OpenDurable, the moment the snapshot has
// been restored and its indexes rebuilt.
type heapProbeVFS struct {
	sqldb.VFS
	heap uint64
}

func (v *heapProbeVFS) OpenRW(name string) (sqldb.File, error) {
	if name == "wal.log" && v.heap == 0 {
		v.heap = heapInUse()
	}
	return v.VFS.OpenRW(name)
}

func heapInUse() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapInuse
}

// TestDurableRecoveryHonoursPoolCap reopens a checkpointed store with a
// two-page pool: recovery itself must run under the cap, so the heap
// it holds once the snapshot is restored stays well below an
// unbounded reopen's, which keeps every heap page resident.
func TestDurableRecoveryHonoursPoolCap(t *testing.T) {
	src := xmlgen.AuctionXML(xmlgen.Config{Factor: 0.05, Seed: 3})
	fs := sqldb.NewMemVFS()
	ds, err := OpenDurableVFS(Interval, fs, Options{}, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.LoadXMLStream(context.Background(), strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	if err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ds.Close()
	ds = nil

	reopen := func(pages int) uint64 {
		probe := &heapProbeVFS{VFS: fs}
		base := heapInUse()
		ds, err := OpenDurableVFS(Interval, probe, Options{BufferPoolPages: pages}, DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		if n, err := ds.Count(`//item`); err != nil || n == 0 {
			t.Fatalf("pool %d: query after reopen: %d items, %v", pages, n, err)
		}
		if bp := ds.DB().Stats().BufferPool; bp.Cap != pages {
			t.Fatalf("pool cap %d, want %d", bp.Cap, pages)
		}
		return probe.heap - min(base, probe.heap)
	}
	unbounded, capped := reopen(0), reopen(2)
	if capped*5 > unbounded*4 {
		t.Fatalf("recovery under a two-page pool held %d heap bytes, unbounded %d: the cap did not apply during recovery", capped, unbounded)
	}
}

// dirBytes sums the sizes of the files in dir.
func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		n += info.Size()
	}
	return n
}

// TestPagesFileBoundedUnderRewrites: every Interval insert renumbers the
// whole document, so each checkpoint after one writes every heap page
// afresh. The pages file must not keep the superseded copies: across
// ten inserts the data directory stays within three times its size
// after the load's checkpoint, and reopening it yields the document a
// DOM replay of the inserts produces.
func TestPagesFileBoundedUnderRewrites(t *testing.T) {
	dir := t.TempDir()
	src := xmlgen.AuctionXML(xmlgen.Config{Factor: 0.1, Seed: 11})
	ds, err := OpenDurable(Interval, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.LoadXMLStream(context.Background(), strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	if err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	loaded := dirBytes(t, dir)
	res, err := ds.Query(`/site/open_auctions`)
	if err != nil || len(res.Matches) != 1 {
		t.Fatalf("locating the insert parent: %v (%d matches)", err, len(res.Matches))
	}
	parentID := res.Matches[0].ID

	doc, err := xmldom.Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	parent := doc.RootElement().FirstChildElement("open_auctions")
	for i := 0; i < 10; i++ {
		frag := []byte(fmt.Sprintf(`<open_auction id="added%d"><initial>%d.50</initial></open_auction>`, i, i))
		position := 3 * i
		if err := ds.InsertXML(parentID, position, frag); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if err := ds.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		f, err := xmldom.Parse(frag)
		if err != nil {
			t.Fatal(err)
		}
		parent.InsertChild(f.RootElement().Copy(), position)
		if n := dirBytes(t, dir); n > 3*loaded {
			t.Fatalf("after insert %d the directory holds %d bytes, %.1fx the %d after the load", i, n, float64(n)/float64(loaded), loaded)
		}
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	ds, err = OpenDurable(Interval, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if got, want := durableXML(t, ds.Store), xmldom.SerializeString(doc.Root); got != want {
		t.Fatalf("reopened document (%d bytes) differs from the DOM replay (%d bytes)", len(got), len(want))
	}
}
