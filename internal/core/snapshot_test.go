package core

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/xmlgen"
)

// Snapshot-isolation differential: a writer performs ordered subtree
// inserts while readers pin snapshots at commit boundaries and
// reconstruct the document from them concurrently. The XML produced
// from the snapshot pinned after insert k must be byte-identical to a
// serial store that replayed exactly the first k inserts — no torn
// reads, no rows from later commits. Every insert brings an element and
// an attribute label the document lacked, so a snapshot also has to
// translate and reconstruct against the scheme state it pinned (Binary's
// partitions, Edge's and Binary's label paths). Run under `go test
// -race` for the schemes that take ordered inserts.

const snapBaseDoc = `<site><regions><namerica><item id="i1"><name>one</name><quantity>1</quantity></item><item id="i2"><name>two</name><quantity>2</quantity></item></namerica></regions><people><person id="p1"><name>alice</name></person></people></site>`

func snapFragment(i int) []byte {
	return []byte(fmt.Sprintf(`<item id="n%d"><name>new-%d</name><quantity>%d</quantity><zz%d q%d="%d">x</zz%d></item>`, i, i, i, i, i, i, i))
}

// snapCount is the query each snapshot also counts: it reaches the
// labels the inserts bring.
const snapCount = `//item/*`

// openSnapStore opens a store under kind and loads the shared base
// document.
func openSnapStore(t *testing.T, kind SchemeKind) *Store {
	t.Helper()
	st, err := Open(kind)
	if err != nil {
		t.Fatalf("open %s: %v", kind, err)
	}
	if err := st.LoadXML([]byte(snapBaseDoc)); err != nil {
		t.Fatalf("load %s: %v", kind, err)
	}
	return st
}

// snapParent returns the node id of the insert target. Node ids are
// pre-order ranks of the originally loaded document, so the id is
// identical across independently loaded stores.
func snapParent(t *testing.T, st *Store) int64 {
	t.Helper()
	res, err := st.Query(`/site/regions/namerica`)
	if err != nil || len(res.Matches) != 1 {
		t.Fatalf("locating insert parent: %v (%d matches)", err, len(res.Matches))
	}
	return res.Matches[0].ID
}

func TestSnapshotReconstructDuringUpdates(t *testing.T) {
	const inserts = 12
	for _, kind := range []SchemeKind{Edge, Binary, Interval, Dewey} {
		t.Run(string(kind), func(t *testing.T) {
			st := openSnapStore(t, kind)
			parent := snapParent(t, st)

			// Serial baselines: replay(k) is the document after
			// exactly the first k inserts, on an untouched store.
			replay := make([][]byte, inserts+1)
			counts := make([]int, inserts+1)
			for k := 0; k <= inserts; k++ {
				base := openSnapStore(t, kind)
				for i := 0; i < k; i++ {
					if err := base.InsertXML(snapParent(t, base), 2+i, snapFragment(i)); err != nil {
						t.Fatalf("baseline insert %d: %v", i, err)
					}
				}
				var buf bytes.Buffer
				if err := base.WriteXML(&buf); err != nil {
					t.Fatalf("baseline reconstruct %d: %v", k, err)
				}
				replay[k] = buf.Bytes()
				n, err := base.Count(snapCount)
				if err != nil {
					t.Fatalf("baseline count %d: %v", k, err)
				}
				counts[k] = n
			}

			type pinned struct {
				k    int
				snap *StoreSnapshot
			}
			snaps := make(chan pinned, inserts+1)
			var wg sync.WaitGroup
			errc := make(chan error, 5)

			// Writer: pin a snapshot at every commit boundary, then
			// keep inserting while readers reconstruct the older
			// versions.
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(snaps)
				snaps <- pinned{0, st.Snapshot()}
				for i := 0; i < inserts; i++ {
					if err := st.InsertXML(parent, 2+i, snapFragment(i)); err != nil {
						errc <- fmt.Errorf("live insert %d: %w", i, err)
						return
					}
					snaps <- pinned{i + 1, st.Snapshot()}
				}
			}()

			// Dirty reader: unsynchronized queries against the live
			// store mid-insert; any result is fine, errors are not.
			stop := make(chan struct{})
			var dirtyWG sync.WaitGroup
			dirtyWG.Add(2)
			// Unpinned reader: the Store's own WriteXML and Count each
			// read one commit, so each output is some serial replay's.
			go func() {
				defer dirtyWG.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					var buf bytes.Buffer
					if err := st.WriteXML(&buf); err != nil {
						errc <- fmt.Errorf("unpinned reconstruct: %w", err)
						return
					}
					if !slices.ContainsFunc(replay, func(r []byte) bool { return bytes.Equal(r, buf.Bytes()) }) {
						errc <- fmt.Errorf("unpinned WriteXML matches no commit's document: %s", buf.Bytes())
						return
					}
					n, err := st.Count(snapCount)
					if err != nil {
						errc <- fmt.Errorf("unpinned count: %w", err)
						return
					}
					if !slices.Contains(counts, n) {
						errc <- fmt.Errorf("unpinned Count(%s) = %d matches no commit's count %v", snapCount, n, counts)
						return
					}
				}
			}()
			go func() {
				defer dirtyWG.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := st.Query(`/site/regions/namerica/item/name`); err != nil {
						errc <- fmt.Errorf("dirty reader: %w", err)
						return
					}
				}
			}()

			// Snapshot readers: reconstruct each pinned version while
			// the writer races ahead.
			var mu sync.Mutex
			got := map[int][]byte{}
			seqs := map[int]uint64{}
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for p := range snaps {
						var buf bytes.Buffer
						err := p.snap.WriteXML(&buf)
						seq := p.snap.Seq()
						if err != nil {
							errc <- fmt.Errorf("snapshot reconstruct k=%d: %w", p.k, err)
							return
						}
						n, err := p.snap.Count(snapCount)
						p.snap.Release()
						if err != nil {
							errc <- fmt.Errorf("snapshot count k=%d: %w", p.k, err)
							return
						}
						if n != counts[p.k] {
							errc <- fmt.Errorf("snapshot k=%d counts %d for %s, serial replay %d", p.k, n, snapCount, counts[p.k])
							return
						}
						mu.Lock()
						got[p.k] = buf.Bytes()
						seqs[p.k] = seq
						mu.Unlock()
					}
				}()
			}

			// Wait for the writer and snapshot readers, then stop
			// the dirty reader and surface any worker error.
			wg.Wait()
			close(stop)
			dirtyWG.Wait()
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}

			for k := 0; k <= inserts; k++ {
				if !bytes.Equal(got[k], replay[k]) {
					t.Errorf("k=%d (seq %d): snapshot XML diverges from serial replay\n snap: %s\n want: %s",
						k, seqs[k], got[k], replay[k])
				}
				if k > 0 && seqs[k] <= seqs[k-1] {
					t.Errorf("snapshot seq not increasing: seq[%d]=%d seq[%d]=%d", k-1, seqs[k-1], k, seqs[k])
				}
			}
		})
	}
}

// TestQueryContextCancel checks the cancellation satellite end to end:
// a context that is already canceled must abort execution inside the
// engine and surface context.Canceled.
func TestQueryContextCancel(t *testing.T) {
	doc := xmlgen.Auction(xmlgen.Config{Factor: 0.05, Seed: 7})
	st, err := Open(Interval)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.LoadDocument(doc); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = st.QueryContext(ctx, `//open_auction[bidder/increase > 20]`)
	if err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Errorf("canceled query returned %v, want context.Canceled", err)
	}
	// The same query still works with a live context.
	if _, err := st.QueryContext(context.Background(), `//open_auction[bidder/increase > 20]`); err != nil {
		t.Errorf("query after cancellation: %v", err)
	}
}
