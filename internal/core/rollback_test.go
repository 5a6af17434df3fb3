package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/sqldb"
	"repro/internal/xmldom"
	"repro/internal/xmlgen"
)

// cancelAfterCtx reports cancellation from its n+1-th Err check on: a
// load it bounds flushes its first n insert batches, then stops partway
// through the document. probe, when set, runs at every check.
type cancelAfterCtx struct {
	context.Context
	checks atomic.Int64
	probe  func()
}

func cancelAfter(n int64) *cancelAfterCtx {
	c := &cancelAfterCtx{Context: context.Background()}
	c.checks.Store(n)
	return c
}

func (c *cancelAfterCtx) Err() error {
	if c.probe != nil {
		c.probe()
	}
	if c.checks.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestCanceledLoadLeavesNothing cancels a document load after its first
// insert batches, under every scheme, in memory and in a data
// directory, through LoadDocumentContext and through LoadXMLStream;
// Universal also refuses a recursive document. The load is one
// transaction, so it leaves no row, table, state row or WAL byte and no
// loaded store behind: after a second load, the store's tables and its
// translations of the domCorpus are a fresh store's, and so are its
// answers to the F1 mix. The durable stream loads log every statement
// but their last as a continuation frame, so Binary's and Inline's,
// which make several statements before the cancel, cancel after writing
// some: the abort truncates them away.
func TestCanceledLoadLeavesNothing(t *testing.T) {
	doc := xmlgen.Auction(xmlgen.Config{Factor: 0.05, Seed: 11})
	text := xmldom.SerializeString(doc.Root)
	recursive, err := xmldom.ParseString(`<a><zzz q="1"><a/></zzz></a>`)
	if err != nil {
		t.Fatal(err)
	}
	type store struct {
		*Store
		walSize func() int64
		conts   func() uint64 // continuation frames written so far
	}
	fresh := map[SchemeKind]*Store{} // one loaded fresh store per scheme
	opens := map[string]func(t *testing.T) store{}
	for _, kind := range allSchemes {
		opens["mem/"+string(kind)] = func(t *testing.T) store {
			st, err := OpenWith(kind, corpusOptions(kind))
			if err != nil {
				t.Fatal(err)
			}
			return store{st, func() int64 { return 0 }, nil}
		}
		opens["durable/"+string(kind)] = func(t *testing.T) store {
			ds, err := OpenDurableVFS(kind, sqldb.NewMemVFS(), corpusOptions(kind), DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ds.Close() })
			return store{ds.Store, ds.Durable().WALSize, func() uint64 { return ds.Durable().Stats().Continuations }}
		}
	}
	for name, open := range opens {
		t.Run(name, func(t *testing.T) {
			st := open(t)
			tables, rows := st.DB().TableNames(), st.DB().TotalRows()
			wal := st.walSize()
			leftNothing := func(what string) {
				t.Helper()
				if n := st.DB().TotalRows() - rows; n != 0 {
					t.Errorf("%s left %d rows", what, n)
				}
				if got := st.DB().TableNames(); !reflect.DeepEqual(got, tables) {
					t.Errorf("%s left tables %v, want %v", what, got, tables)
				}
				if n := st.walSize() - wal; n != 0 {
					t.Errorf("%s wrote %d WAL bytes", what, n)
				}
				if st.Loaded() {
					t.Errorf("%s marked the store loaded", what)
				}
			}
			// Universal writes this document in one batch: cancel it there.
			ctx := cancelAfter(1)
			if st.Kind() == Universal {
				ctx = cancelAfter(0)
			}
			if err := st.LoadDocumentContext(ctx, doc); !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled load: %v, want context.Canceled", err)
			}
			if ctx.checks.Load() >= 0 {
				t.Fatal("the load finished before the context canceled it")
			}
			leftNothing("canceled load")

			if st.conts != nil {
				prev := sqldb.SetTxStreamBytes(0)
				defer sqldb.SetTxStreamBytes(prev)
			}
			// Binary's partitions and Inline's tables make several
			// statements before the cancel, so each streams a frame.
			streams := st.Kind() == Binary || st.Kind() == Inline
			switch st.Kind() {
			case Universal:
				ctx = cancelAfter(0)
			case Inline:
				ctx = cancelAfter(2)
			default:
				ctx = cancelAfter(1)
			}
			var conts uint64
			var peak int64
			ctx.probe = func() {
				if st.conts != nil {
					conts, peak = st.conts(), max(peak, st.walSize())
				}
			}
			if err := st.LoadXMLStream(ctx, strings.NewReader(text)); !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled stream load: %v, want context.Canceled", err)
			}
			if ctx.checks.Load() >= 0 {
				t.Fatal("the stream load finished before the context canceled it")
			}
			if st.conts != nil && streams && (conts == 0 || peak <= wal) {
				t.Fatalf("the stream load canceled after %d continuation frames (WAL peak %d, base %d), want one written", conts, peak, wal)
			}
			leftNothing("canceled stream load")
			if st.Kind() == Universal {
				if err := st.LoadDocument(recursive); err == nil || !strings.Contains(err.Error(), "recursive") {
					t.Fatalf("recursive document: %v, want a refusal", err)
				}
				leftNothing("refused load")
			}

			if err := st.LoadDocument(doc); err != nil {
				t.Fatalf("second load: %v", err)
			}
			want := fresh[st.Kind()]
			if want == nil {
				w, err := OpenWith(st.Kind(), corpusOptions(st.Kind()))
				if err != nil {
					t.Fatal(err)
				}
				if err := w.LoadDocument(doc); err != nil {
					t.Fatal(err)
				}
				want, fresh[st.Kind()] = w, w
			}
			for _, name := range want.DB().TableNames() {
				if got, want := st.DB().TableDef(name), want.DB().TableDef(name); !reflect.DeepEqual(got, want) {
					t.Errorf("table %s is %+v, a fresh store's %+v", name, got, want)
				}
			}
			if got, want := st.DB().TableNames(), want.DB().TableNames(); !reflect.DeepEqual(got, want) {
				t.Errorf("tables %v, a fresh store's %v", got, want)
			}
			sameTranslations(t, st.Store, want, domCorpus)
			sameAnswers(t, st.Store, want, f1Queries)
		})
	}
}
