package core

import (
	"strings"
	"testing"

	"repro/internal/sqldb"
	"repro/internal/xmlgen"
	"repro/internal/xpath"
)

// TestPlanningReadsNoHeapPage: planning estimates from the B-trees
// alone, so compiling every F1 class pins no heap page. Durable
// Interval and Dewey stores run a 4-page pool from recovery on;
// in-memory Edge and Binary stores have theirs capped after the load,
// over a factor-0.5 document so Binary's per-label tables fill pages.
// A CREATE TABLE bumps the plan epoch so every Prepare plans afresh;
// the pool's hit and miss counters must not move, while running the
// same statements must read pooled pages (so the pool is really
// bounded).
func TestPlanningReadsNoHeapPage(t *testing.T) {
	src := []byte(xmlgen.AuctionXML(xmlgen.Config{Factor: 0.1, Seed: 1}))
	stores := map[SchemeKind]*Store{}
	for _, kind := range []SchemeKind{Interval, Dewey} {
		dir := t.TempDir()
		ds, err := OpenDurable(kind, dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.LoadXML(src); err != nil {
			t.Fatal(err)
		}
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}
		if ds, err = OpenDurable(kind, dir, Options{BufferPoolPages: 4}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		stores[kind] = ds.Store
	}
	for _, kind := range []SchemeKind{Edge, Binary} {
		st, err := Open(kind)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.LoadXML([]byte(xmlgen.AuctionXML(xmlgen.Config{Factor: 0.5, Seed: 1}))); err != nil {
			t.Fatal(err)
		}
		st.DB().SetBufferPool(4)
		stores[kind] = st
	}

	for kind, st := range stores {
		db := st.DB()
		var sqls []string
		for _, q := range f1Queries {
			sql, err := st.Translate(q)
			if err != nil {
				t.Fatalf("%s: %s: %v", kind, q, err)
			}
			sqls = append(sqls, sql)
		}
		if _, err := db.Exec(`CREATE TABLE plan_epoch_bump (x INTEGER)`); err != nil {
			t.Fatal(err)
		}
		before := db.Stats().BufferPool
		prepared := make([]*sqldb.Prepared, len(sqls))
		for i, sql := range sqls {
			p, err := db.Prepare(sql)
			if err != nil {
				t.Fatalf("%s Q%d: %v", kind, i+1, err)
			}
			prepared[i] = p
		}
		after := db.Stats().BufferPool
		if after.Hits != before.Hits || after.Misses != before.Misses {
			t.Errorf("%s: planning the F1 classes took %d pool hits and %d misses, want none",
				kind, after.Hits-before.Hits, after.Misses-before.Misses)
		}
		for _, p := range prepared {
			if _, err := p.Query(); err != nil {
				t.Fatal(err)
			}
		}
		if ran := db.Stats().BufferPool; ran.Hits+ran.Misses == after.Hits+after.Misses {
			t.Errorf("%s: running the F1 classes read no pooled page; the pool is not bounded", kind)
		}
	}
}

// TestOldNameIndexesStillAnswer: a data directory whose accel table was
// created with the earlier name indexes, (name, pre) and (kind, pre),
// keeps them, since reopening a directory runs no Setup. The F1
// classes plan over them and answer as the DOM does; no migration.
func TestOldNameIndexesStillAnswer(t *testing.T) {
	fs := sqldb.NewMemVFS()
	ddb, err := sqldb.OpenDurable(fs, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ddl := range []string{
		`CREATE TABLE accel (pre INTEGER NOT NULL, parent INTEGER, size INTEGER NOT NULL, level INTEGER NOT NULL,
			ordinal INTEGER NOT NULL, kind TEXT NOT NULL, name TEXT, value TEXT)`,
		`CREATE INDEX accel_pre ON accel (pre)`,
		`CREATE INDEX accel_parent ON accel (parent, ordinal)`,
		`CREATE INDEX accel_name_pre ON accel (name, pre)`,
		`CREATE INDEX accel_kind_pre ON accel (kind, pre)`,
	} {
		if _, err := ddb.DB().Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	if err := ddb.Close(); err != nil {
		t.Fatal(err)
	}
	ds, err := OpenDurableVFS(Interval, fs, Options{}, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	doc := xmlgen.Auction(xmlgen.Config{Factor: 0.05, Seed: 3})
	if err := ds.LoadDocument(doc); err != nil {
		t.Fatal(err)
	}
	sql, err := ds.Translate("//item/name")
	if err != nil {
		t.Fatal(err)
	}
	if plan, err := ds.DB().Explain(sql); err != nil || !strings.Contains(plan, "accel_name_pre") {
		t.Errorf("//item/name does not probe the directory's (name, pre) index: %v\n%s", err, plan)
	}
	for _, q := range f1Queries {
		res, err := ds.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want := xpath.Eval(doc, xpath.MustParse(q))
		if len(res.Matches) != len(want) {
			t.Fatalf("%s: %d matches, the DOM gives %d", q, len(res.Matches), len(want))
		}
		for i, n := range want {
			if res.Matches[i].ID != int64(n.Pre) {
				t.Fatalf("%s: match %d is node %d, the DOM gives %d", q, i, res.Matches[i].ID, n.Pre)
			}
		}
	}
}
