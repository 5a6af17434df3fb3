package sqldb_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/sqldb"
	"repro/internal/xmlgen"
)

// TestLoadedTreesEqualReopened: after a durable load and a checkpoint,
// every index of an Interval and a Dewey store (none of them unique)
// has the node count, distinct-prefix counts and entries of the same
// store reopened, whose trees the restore builds bottom-up. A load that
// went back to inserting row by row leaves more, half-full nodes.
func TestLoadedTreesEqualReopened(t *testing.T) {
	doc := xmlgen.Auction(xmlgen.Config{Factor: 0.2, Seed: 7})
	for _, kind := range []core.SchemeKind{core.Interval, core.Dewey} {
		t.Run(string(kind), func(t *testing.T) {
			fs := sqldb.NewMemVFS()
			ds, err := core.OpenDurableVFS(kind, fs, core.Options{}, core.DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := ds.LoadDocument(doc); err != nil {
				t.Fatal(err)
			}
			if err := ds.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			loaded := sqldb.IndexShapes(ds.DB())
			if err := ds.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := core.OpenDurableVFS(kind, fs, core.Options{}, core.DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			reopened := sqldb.IndexShapes(re.DB())
			if len(loaded) != len(reopened) || len(loaded) < 3 {
				t.Fatalf("%d indexes loaded, %d reopened", len(loaded), len(reopened))
			}
			for name, want := range reopened {
				got := loaded[name]
				if got.Nodes != want.Nodes {
					t.Errorf("index %s: %d nodes loaded, %d reopened", name, got.Nodes, want.Nodes)
				}
				if !reflect.DeepEqual(got.Distinct, want.Distinct) {
					t.Errorf("index %s: distinct prefixes %v loaded, %v reopened", name, got.Distinct, want.Distinct)
				}
				if !reflect.DeepEqual(got.Keys, want.Keys) || !reflect.DeepEqual(got.Rids, want.Rids) {
					t.Errorf("index %s: %d entries loaded, %d reopened, or they differ", name, len(got.Keys), len(want.Keys))
				}
			}
		})
	}
}
