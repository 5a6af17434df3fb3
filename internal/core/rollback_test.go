package core

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/sqldb"
	"repro/internal/xmlgen"
	"repro/internal/xpath"
)

// cancelAfterCtx reports cancellation from its n+1-th Err check on: a
// load it bounds flushes its first n insert batches, then stops partway
// through the document.
type cancelAfterCtx struct {
	context.Context
	checks atomic.Int64
}

func cancelAfter(n int64) *cancelAfterCtx {
	c := &cancelAfterCtx{Context: context.Background()}
	c.checks.Store(n)
	return c
}

func (c *cancelAfterCtx) Err() error {
	if c.checks.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestCanceledLoadLeavesNothing cancels a document load after its first
// insert batches. The load is one transaction, so it leaves no row, no
// WAL byte and no loaded flag — and no partition Binary created for it —
// and a second load of the same document answers F1 like the DOM.
func TestCanceledLoadLeavesNothing(t *testing.T) {
	doc := xmlgen.Auction(xmlgen.Config{Factor: 0.05, Seed: 11})
	type store struct {
		*Store
		walSize func() int64
	}
	opens := map[string]func(t *testing.T) store{}
	for _, kind := range []SchemeKind{Binary, Interval, Dewey} {
		opens["mem/"+string(kind)] = func(t *testing.T) store {
			st, err := Open(kind)
			if err != nil {
				t.Fatal(err)
			}
			return store{st, func() int64 { return 0 }}
		}
	}
	for _, kind := range []SchemeKind{Interval, Dewey} {
		opens["durable/"+string(kind)] = func(t *testing.T) store {
			ds, err := OpenDurableVFS(kind, sqldb.NewMemVFS(), Options{}, DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ds.Close() })
			return store{ds.Store, ds.Durable().WALSize}
		}
	}
	for name, open := range opens {
		t.Run(name, func(t *testing.T) {
			st := open(t)
			tables := st.DB().TableNames()
			wal := st.walSize()
			ctx := cancelAfter(1)
			if err := st.LoadDocumentContext(ctx, doc); !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled load: %v, want context.Canceled", err)
			}
			if ctx.checks.Load() >= 0 {
				t.Fatal("the load finished before the context canceled it")
			}
			if n := st.DB().TotalRows(); n != 0 {
				t.Errorf("canceled load left %d rows", n)
			}
			if got := st.DB().TableNames(); !reflect.DeepEqual(got, tables) {
				t.Errorf("canceled load left tables %v, want %v", got, tables)
			}
			if n := st.walSize() - wal; n != 0 {
				t.Errorf("canceled load wrote %d WAL bytes", n)
			}
			if st.Loaded() {
				t.Error("canceled load marked the store loaded")
			}

			if err := st.LoadDocument(doc); err != nil {
				t.Fatalf("second load: %v", err)
			}
			for _, q := range f1Queries {
				res, err := st.Query(q)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				var got, want []int64
				for _, m := range res.Matches {
					got = append(got, m.ID)
				}
				for _, n := range xpath.Eval(doc, xpath.MustParse(q)) {
					want = append(want, int64(n.Pre))
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: store matched %d nodes, DOM %d", q, len(got), len(want))
				}
			}
		})
	}
}
