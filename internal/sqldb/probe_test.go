package sqldb

import (
	"math/rand"
	"testing"
)

// probeTree builds a tree of n entries whose keys are short strings
// over a three-letter alphabet, so bounds of different lengths sharing
// a prefix ('a', 'ab', 'b') are the common case. Trees past 64*65
// entries have three levels. With incremental set, the tree grows by
// Insert (splits, a copy-on-write generation bump) and loses every
// fifth entry to Delete, leaving underfull and empty leaves.
func probeTree(rng *rand.Rand, n int, incremental bool) *btree {
	key := func() string {
		b := make([]byte, 1+rng.Intn(3))
		for i := range b {
			b[i] = "abc"[rng.Intn(3)]
		}
		return string(b)
	}
	if !incremental {
		entries := make([]btreeEntry, n)
		for i := range entries {
			entries[i] = btreeEntry{key: key(), rid: int64(i)}
		}
		t, _, _ := buildBtree(1, 1, entries)
		return t
	}
	t := newBtree(1, 1)
	var keys []string
	for i := 0; i < n; i++ {
		if i == n/2 {
			t = t.beginWrite(2)
		}
		k := key()
		keys = append(keys, k)
		t.Insert(k, int64(i))
	}
	for i := 0; i < n; i += 5 {
		t.Delete(keys[i], int64(i))
	}
	return t
}

// sameLanding reports whether two cursors stand on the same entry, or
// are both past the end.
func sameLanding(a, b *btreeCursor) bool {
	if a.valid() != b.valid() {
		return false
	}
	return !a.valid() || a.entry() == b.entry()
}

// runProbes drives one probe cursor through the probes script — each
// probe a length byte (low two bits: bound length 0..3; bit 2:
// strict; bit 3: insert an entry first, and bit 4 delete the tree's
// first entry, shifting the leaf the finger may stand in) and that
// many alphabet bytes — and requires every landing to equal a fresh
// descent's.
func runProbes(t *testing.T, tree *btree, script []byte) {
	t.Helper()
	var p probeCursor
	next := int64(1 << 40)
	for len(script) > 0 {
		op := script[0]
		script = script[1:]
		n := min(int(op&3), len(script))
		bound := make([]byte, n)
		for i := range bound {
			bound[i] = "abc"[script[i]%3]
		}
		script = script[n:]
		strict := int(op>>2) & 1
		if op&8 != 0 {
			tree.Insert(string(bound)+"b", next)
			next++
		}
		if op&16 != 0 {
			if c := tree.seek(""); c.valid() {
				tree.Delete(c.entry().key, c.entry().rid)
			}
		}
		p.seek(tree, string(bound), strict)
		want := tree.descend(string(bound), strict)
		if !sameLanding(&p.btreeCursor, &want) {
			got := "end"
			if p.valid() {
				got = p.entry().key
			}
			t.Fatalf("probe %q strict=%d landed on %s, a fresh descent on %v", bound, strict, got, want.frames)
		}
		// Walk a few entries, as a join does, before the next probe.
		for k := 0; k < int(op>>5) && p.valid(); k++ {
			p.advance()
		}
	}
}

// probeCorners are the probe scripts around bounds of different byte
// lengths sharing a prefix: a strict 'a' then an inclusive 'ab' lands
// before where 'a' did and must descend afresh, an inclusive 'a' then
// a strict 'ab' resumes, and so on, plus probes past the last key.
var probeCorners = [][]byte{
	{1 | 4, 0, 2, 0, 1},                     // ('a', >) then ('ab', >=)
	{1, 0, 2 | 4, 0, 1},                     // ('a', >=) then ('ab', >)
	{2 | 4, 0, 1, 1, 0},                     // ('ab', >) then ('a', >=)
	{2, 0, 1, 1 | 4, 0},                     // ('ab', >=) then ('a', >)
	{1, 0, 2, 0, 1, 1, 1},                   // 'a', 'ab', 'b' ascending
	{1, 1, 2, 0, 1, 1, 0},                   // 'b', 'ab', 'a' descending
	{3 | 4, 2, 2, 2, 3, 2, 2, 2},            // ('ccc', >) past the end, twice
	{0, 0 | 4, 1 | 4, 2},                    // empty bounds, then ('c', >)
	{1 | 8, 0, 1 | 16, 0, 1, 0},             // inserts and deletes between probes
	{1, 1, 1 | 16, 1},                       // 'b', then 'b' again once an entry before it is gone
	{1 | 0xe0, 0, 1 | 4, 0, 2 | 0xe0, 0, 0}, // walk the range before the next probe
	{1 | 0xe0, 1, 1 | 0xe0, 1, 1, 1},        // the same start again, after walking its range
}

func FuzzProbeOrder(f *testing.F) {
	for _, c := range probeCorners {
		for _, size := range []uint16{1, 40, 300, 5000} {
			f.Add(uint64(size), size, false, c)
		}
		f.Add(uint64(7), uint16(5000), true, c)
	}
	f.Fuzz(func(t *testing.T, seed uint64, size uint16, incremental bool, script []byte) {
		rng := rand.New(rand.NewSource(int64(seed)))
		runProbes(t, probeTree(rng, int(size)%6000, incremental), script)
	})
}

// TestProbeCursorRandomScripts runs long random probe scripts over
// trees of one leaf, two levels and three levels, built in bulk and
// incrementally.
func TestProbeCursorRandomScripts(t *testing.T) {
	for _, size := range []int{1, 50, 2000, 5000} {
		for _, incr := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(size)))
			tree := probeTree(rng, size, incr)
			script := make([]byte, 4000)
			for i := range script {
				script[i] = byte(rng.Intn(256)) &^ 0x18 // no writes: keep the tree fixed
			}
			runProbes(t, tree, script)
		}
	}
}

// TestProbeCursorResumesForward checks the finger pays off: ascending
// probes over a three-level tree descend once, descending ones every
// time.
func TestProbeCursorResumesForward(t *testing.T) {
	entries := make([]btreeEntry, 10000)
	for i := range entries {
		entries[i] = btreeEntry{key: intKey(int64(i / 2)), rid: int64(i)}
	}
	tree, _, _ := buildBtree(1, 1, entries)
	var up, down probeCursor
	var upDescents, downDescents int
	for i := int64(0); i < 5000; i++ {
		if up.seek(tree, intKey(i), 0) {
			upDescents++
		}
		if !up.valid() || up.entry().rid != 2*i {
			t.Fatalf("ascending probe %d landed wrong", i)
		}
		if down.seek(tree, intKey(4999-i), 0) {
			downDescents++
		}
		if !down.valid() || down.entry().rid != 2*(4999-i) {
			t.Fatalf("descending probe %d landed wrong", i)
		}
	}
	if upDescents != 1 || downDescents != 5000 {
		t.Fatalf("descents: ascending %d (want 1), descending %d (want 5000)", upDescents, downDescents)
	}
}
