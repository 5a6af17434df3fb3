package sqldb

import (
	"cmp"
	"slices"
)

// B+tree index over packed composite keys (keycodec.go). Entries are
// (key, rowid) pairs; rowid acts as a tiebreaker so duplicate keys are
// supported. Every node holds its keys as one packedKeys run — a
// leaf's entries, an inner node's separators — whose arrays hold no Go
// pointers and store the bytes the run's keys share once. An inner
// node records how many entries each child subtree holds, so a key
// range is counted from the two root-to-leaf paths that bound it
// (rank, countRange) without visiting the leaves between them.
//
// The tree is copy-on-write: every node carries the generation that
// created it, and a writer first calls beginWrite to obtain a private
// tree handle stamped with a fresh generation. Mutations path-copy any
// node from an older generation before touching it, so all nodes
// reachable from a previously published root stay immutable and
// lock-free readers can walk them while the writer works. Nodes the
// writer itself created (same generation) are mutated in place.

const btreeOrder = 64 // max entries per node

// btreeEntry is one (key, rowid) pair outside the tree: a bulk build's
// input, or a separator on its way up to an inner node.
type btreeEntry struct {
	key string // packed key columns
	rid int64
}

// compareEntries orders two entries by key, then rowid.
func compareEntries(a, b btreeEntry) int {
	if c := keyCompare(a.key, b.key); c != 0 {
		return c
	}
	return cmp.Compare(a.rid, b.rid)
}

type btreeNode struct {
	gen      uint64
	leaf     bool
	keys     packedKeys   // in leaf: data; in inner: separator keys
	children []*btreeNode // inner only; len = keys.len()+1
	counts   []int        // inner only: entries under each child
}

// size returns the number of entries under n.
func (n *btreeNode) size() int {
	if n.leaf {
		return n.keys.len()
	}
	s := 0
	for _, c := range n.counts {
		s += c
	}
	return s
}

// btree is the index structure. A given handle is not safe for
// concurrent mutation; the Database serializes writers, and readers
// only ever see published (immutable) handles.
//
// The tree keeps distinct-prefix counts per key column (distinct[L-1] =
// number of distinct L-column key prefixes). buildBtree counts them
// exactly; Insert and Delete then maintain them by comparing the entry
// with its in-leaf neighbors, which miscounts slightly at leaf
// boundaries — fine for the planner's cardinality estimates, their only
// consumer.
type btree struct {
	gen      uint64
	root     *btreeNode
	size     int
	distinct []int // one count per key column
	// mods counts the Inserts and Deletes made through this handle. A
	// probe cursor's finger is only good while it is unchanged (see
	// probeCursor).
	mods uint64
}

// newBtree returns an empty tree over keys of width columns.
func newBtree(gen uint64, width int) *btree {
	return &btree{gen: gen, root: &btreeNode{gen: gen, leaf: true}, distinct: make([]int, width)}
}

// beginWrite returns a private handle for a writer at generation gen.
// The handle shares all nodes with the receiver; mutations through it
// copy shared nodes on first touch and never disturb the original.
func (t *btree) beginWrite(gen uint64) *btree {
	return &btree{
		gen:      gen,
		root:     t.root,
		size:     t.size,
		distinct: append([]int(nil), t.distinct...),
	}
}

// mutable returns n if it already belongs to this writer's generation,
// else a copy stamped with it. The caller must link the returned node
// in place of n (path copying).
func (t *btree) mutable(n *btreeNode) *btreeNode {
	if n.gen == t.gen {
		return n
	}
	c := &btreeNode{gen: t.gen, leaf: n.leaf, keys: n.keys.clone()}
	if len(n.children) > 0 {
		c.children = append([]*btreeNode(nil), n.children...)
		c.counts = append([]int(nil), n.counts...)
	}
	return c
}

// DistinctPrefix estimates the number of distinct L-column key prefixes.
func (t *btree) DistinctPrefix(l int) int {
	if l < 1 || l > len(t.distinct) {
		return t.size
	}
	d := t.distinct[l-1]
	if d < 1 {
		d = 1
	}
	return d
}

// Insert adds (key, rid); the tree copies key's bytes and does not
// retain key. Duplicate (key, rid) pairs are ignored.
func (t *btree) Insert(key string, rid int64) {
	t.mods++
	t.root = t.mutable(t.root)
	promoted, right := t.insertInto(t.root, key, rid, true)
	if right != nil {
		t.root = &btreeNode{
			gen:      t.gen,
			leaf:     false,
			keys:     packKeys([]btreeEntry{promoted}),
			children: []*btreeNode{t.root, right},
			counts:   []int{t.root.size(), right.size()},
		}
	}
}

// insertInto performs the recursive insert into n, which the caller has
// already made mutable; last says n is the tree's rightmost node at its
// level. On split it returns the promoted separator and the new right
// sibling.
func (t *btree) insertInto(n *btreeNode, key string, rid int64, last bool) (btreeEntry, *btreeNode) {
	if n.leaf {
		i := n.keys.search(key, rid, 0)
		if i < n.keys.len() && n.keys.equal(i, key, rid) {
			return btreeEntry{}, nil // duplicate
		}
		t.size++
		t.countPrefixes(key, &n.keys, i, 1)
		if n.keys.len() < btreeOrder {
			n.keys.insert(i, key, rid)
			return btreeEntry{}, nil
		}
		right := t.splitLeaf(n, i, last)
		if left := n.keys.len(); i > left || left == btreeOrder {
			right.keys.insert(i-left, key, rid)
		} else {
			n.keys.insert(i, key, rid)
		}
		// Leaf split promotes a copy of the right node's first entry.
		return btreeEntry{key: right.keys.key(0), rid: right.keys.rid(0)}, right
	}
	i := n.keys.search(key, rid, 1)
	child := t.mutable(n.children[i])
	n.children[i] = child
	before := t.size
	promoted, right := t.insertInto(child, key, rid, last && i == n.keys.len())
	n.counts[i] += t.size - before
	if right == nil {
		return btreeEntry{}, nil
	}
	n.keys.insert(i, promoted.key, promoted.rid)
	n.children = slices.Insert(n.children, i+1, right)
	rc := right.size()
	n.counts[i] -= rc
	n.counts = slices.Insert(n.counts, i+1, rc)
	if n.keys.len() <= btreeOrder {
		return btreeEntry{}, nil
	}
	return t.splitInner(n)
}

// splitLeaf splits the full leaf n before the entry that goes at
// position i is placed, and returns the new right sibling. An insert
// past the end of the tree's last leaf (ascending keys) leaves n full
// and starts the sibling empty, laid out for as many keys and key bytes
// as n holds, in n's widths; any other splits n in half, each half laid
// out for exactly its own entries.
func (t *btree) splitLeaf(n *btreeNode, i int, last bool) *btreeNode {
	right := &btreeNode{gen: t.gen, leaf: true}
	if k := &n.keys; last && i == k.len() {
		right.keys = layout("", btreeOrder, k.ew, k.rw, 0, len(k.b)-k.keyAt())
		if cap(k.b)-len(k.b) > k.sufLen()/8 || int(k.c) > k.len() {
			*k = k.slice(0, k.len())
		}
		return right
	}
	mid := n.keys.len() / 2
	right.keys = n.keys.slice(mid, n.keys.len())
	n.keys = n.keys.slice(0, mid)
	return right
}

func (t *btree) splitInner(n *btreeNode) (btreeEntry, *btreeNode) {
	mid := n.keys.len() / 2
	promoted := btreeEntry{key: n.keys.key(mid), rid: n.keys.rid(mid)}
	right := &btreeNode{gen: t.gen, leaf: false}
	right.keys = n.keys.slice(mid+1, n.keys.len())
	right.children = append(right.children, n.children[mid+1:]...)
	right.counts = append(right.counts, n.counts[mid+1:]...)
	n.keys = n.keys.slice(0, mid)
	n.children = n.children[: mid+1 : mid+1]
	n.counts = n.counts[: mid+1 : mid+1]
	return promoted, right
}

// Delete removes (key, rid). Underfull nodes are tolerated (no rebalance);
// the tree stays correct and scans skip empty leaves. Returns whether the
// entry existed. key is not retained.
func (t *btree) Delete(key string, rid int64) bool {
	// Probe first so a missing entry does not path-copy for nothing.
	n := t.root
	for !n.leaf {
		n = n.children[n.keys.search(key, rid, 1)]
	}
	i := n.keys.search(key, rid, 0)
	if i >= n.keys.len() || !n.keys.equal(i, key, rid) {
		return false
	}
	t.mods++
	t.root = t.mutable(t.root)
	n = t.root
	for !n.leaf {
		ci := n.keys.search(key, rid, 1)
		c := t.mutable(n.children[ci])
		n.children[ci] = c
		n.counts[ci]--
		n = c
	}
	i = n.keys.search(key, rid, 0)
	n.keys.delete(i)
	t.countPrefixes(key, &n.keys, i, -1)
	t.size--
	return true
}

// countPrefixes adds delta to the count of every prefix of key that
// neither leaf neighbor shares: leaf is the leaf without key, and i the
// position key goes to (+1) or left (-1).
func (t *btree) countPrefixes(key string, leaf *packedKeys, i, delta int) {
	shared := 0 // the most leading bytes key shares with a neighbor
	for j := max(i-1, 0); j < min(i+1, leaf.len()); j++ {
		shared = max(shared, leaf.sharedLen(j, key))
	}
	end := 0
	for l := range t.distinct {
		if end <= shared {
			end = keyColumnEnd(key, end)
		}
		if end > shared && t.distinct[l]+delta >= 0 {
			t.distinct[l] += delta
		}
	}
}

// Len returns the number of entries.
func (t *btree) Len() int { return t.size }

// extreme returns the rowid holding the least (max false) or greatest
// non-NULL value of the leading key column; ok is false when there is
// none. Values equal under Compare share one encoding but can differ in
// form (0.0 and -0.0), so the caller reads the value from the row: of
// the equal run this picks the lowest rowid, which is what an aggregate
// over a rowid-order scan keeps.
func (t *btree) extreme(max bool) (rid int64, ok bool) {
	var c btreeCursor
	var buf [keyScratch]byte
	if max {
		leaf := t.root.lastLeaf()
		if leaf == nil {
			return 0, false
		}
		last := keyView(leaf.keys.appendKey(buf[:0], leaf.keys.len()-1))
		if last[0] == keyNull {
			return 0, false
		}
		c = t.seek(last[:keyColumnEnd(last, 0)])
	} else {
		c = t.seekAfter(nullColumn)
	}
	if !c.valid() {
		return 0, false
	}
	rid = c.rid()
	// Equal keys sort by rowid, but equal leading values of a wider key
	// sort by the later columns first; only numbers have several forms.
	if len(t.distinct) > 1 {
		pre, suf := c.key()
		key := keyView(append(append(buf[:0], pre...), suf...))
		if key[0] == keyNumber {
			lead := key[:keyColumnEnd(key, 0)]
			for c.advance(); c.valid(); c.advance() {
				if pre, suf := c.key(); !hasPrefixParts(pre, suf, lead) {
					break
				}
				rid = min(rid, c.rid())
			}
		}
	}
	return rid, true
}

// lastLeaf returns the rightmost leaf under n that holds an entry,
// skipping the empty leaves deletes leave behind; nil when there is
// none.
func (n *btreeNode) lastLeaf() *btreeNode {
	if n.leaf {
		if n.keys.len() == 0 {
			return nil
		}
		return n
	}
	for i := len(n.children) - 1; i >= 0; i-- {
		if l := n.children[i].lastLeaf(); l != nil {
			return l
		}
	}
	return nil
}

// sortEntries sorts entries by key, then rowid. An index rebuild's keys
// lie in an arena in rowid order, so comparing two keys is two cache
// misses. Instead the entries are put in rowid order (as a rebuild
// collects them already) and radix-sorted, stably, on a fixed-width
// abbreviation of their keys (abbreviate); each run that ties on it and
// whose keys go on sorts again on their next bytes. No two keys are
// compared.
func sortEntries(entries []btreeEntry) {
	if len(entries) < 2 {
		return
	}
	byRid := func(a, b btreeEntry) int { return cmp.Compare(a.rid, b.rid) }
	if !slices.IsSortedFunc(entries, byRid) {
		slices.SortFunc(entries, byRid)
	}
	s := make([]abbrEntry, len(entries))
	for i := range s {
		s[i].i = i
	}
	sortAbbreviated(s, make([]abbrEntry, len(s)), entries, 0)
	sorted := make([]btreeEntry, len(entries))
	for k, a := range s {
		sorted[k] = entries[a.i]
	}
	copy(entries, sorted)
}

// abbrEntry is an entry's index and its key's current abbreviation.
type abbrEntry struct {
	abbr uint64
	i    int
}

// abbrBytes is how many key bytes an abbreviation holds.
const abbrBytes = 7

// abbreviate returns key's bytes from off on as a word that orders as
// they do: abbrBytes bytes big-endian (zero past the key's end), then a
// low byte counting those that are the key's (abbrBytes+1 when the key
// goes on), so a key sorts before any longer key it is a prefix of.
func abbreviate(key string, off int) uint64 {
	if len(key)-off > abbrBytes {
		k := key[off : off+8]
		w := uint64(k[0])<<56 | uint64(k[1])<<48 | uint64(k[2])<<40 | uint64(k[3])<<32 |
			uint64(k[4])<<24 | uint64(k[5])<<16 | uint64(k[6])<<8 | uint64(k[7])
		return w&^0xff | (abbrBytes + 1)
	}
	w := uint64(len(key) - off)
	for i, c := range []byte(key[off:]) {
		w |= uint64(c) << (56 - 8*i)
	}
	return w
}

// sortAbbreviated stably sorts s, whose keys agree before byte off, by
// the rest of their keys; tmp is scratch of s's length.
func sortAbbreviated(s, tmp []abbrEntry, entries []btreeEntry, off int) {
	for k := range s {
		s[k].abbr = abbreviate(entries[s[k].i].key, off)
	}
	radixSort(s, tmp)
	for lo := 0; lo < len(s); {
		hi := lo + 1
		for hi < len(s) && s[hi].abbr == s[lo].abbr {
			hi++
		}
		// Equal words whose keys end inside them are equal keys, which
		// the stable sort left in rowid order.
		if hi-lo > 1 && s[lo].abbr&0xff > abbrBytes {
			sortAbbreviated(s[lo:hi], tmp[lo:hi], entries, off+abbrBytes)
		}
		lo = hi
	}
}

// radixSort stably sorts s by abbr, least significant byte first,
// skipping the bytes every word shares; tmp is scratch of s's length.
func radixSort(s, tmp []abbrEntry) {
	if len(s) < 64 {
		slices.SortStableFunc(s, func(a, b abbrEntry) int { return cmp.Compare(a.abbr, b.abbr) })
		return
	}
	var counts [8][256]int
	for _, e := range s {
		for d := range counts {
			counts[d][byte(e.abbr>>(8*d))]++
		}
	}
	src, dst := s, tmp
	for d := range counts {
		c := &counts[d]
		if c[byte(src[0].abbr>>(8*d))] == len(src) {
			continue
		}
		pos := 0
		for b, n := range c {
			c[b], pos = pos, pos+n
		}
		for _, e := range src {
			b := byte(e.abbr >> (8 * d))
			dst[c[b]] = e
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
}

// buildBtree builds a tree at generation gen bottom-up from entries,
// which it sorts in place: full leaves are packed from runs of the
// sorted array, inner levels are packed above them, and the
// distinct-prefix counts are exact. The tree copies every key it keeps,
// so neither entries nor the bytes their keys view are retained. When
// two entries share a key, dup is the least rowid that has an equal key
// at a lower rowid.
func buildBtree(gen uint64, width int, entries []btreeEntry) (t *btree, dup int64, hasDup bool) {
	sortEntries(entries)
	t = newBtree(gen, width)
	t.size = len(entries)
	for i, e := range entries {
		// Columns before the first byte e differs from its predecessor
		// in are shared; every later prefix is new.
		common, end := 0, 0
		if i > 0 {
			n := commonPrefixLen(entries[i-1].key, e.key)
			for common < width {
				next := keyColumnEnd(e.key, end)
				if next > n {
					break
				}
				common, end = common+1, next
			}
			if common == width && (!hasDup || e.rid < dup) {
				dup, hasDup = e.rid, true
			}
		}
		for l := common; l < width; l++ {
			t.distinct[l]++
		}
	}
	if len(entries) == 0 {
		return t, dup, hasDup
	}
	level := make([]*btreeNode, 0, (len(entries)+btreeOrder-1)/btreeOrder)
	// first[i] is the least entry under level[i]: the separator to its
	// left one level up.
	first := make([]btreeEntry, 0, cap(level))
	for lo := 0; lo < len(entries); lo += btreeOrder {
		hi := min(lo+btreeOrder, len(entries))
		level = append(level, &btreeNode{gen: gen, leaf: true, keys: packKeys(entries[lo:hi])})
		first = append(first, entries[lo])
	}
	for len(level) > 1 {
		// Spread the level evenly over as few parents as hold it, so
		// every parent has at least two children.
		parents := (len(level) + btreeOrder) / (btreeOrder + 1)
		up := make([]*btreeNode, parents)
		upFirst := make([]btreeEntry, parents)
		lo := 0
		for k := range up {
			hi := lo + (len(level)-lo)/(parents-k)
			counts := make([]int, hi-lo)
			for i, c := range level[lo:hi] {
				counts[i] = c.size()
			}
			up[k] = &btreeNode{
				gen:      gen,
				keys:     packKeys(first[lo+1 : hi]),
				children: level[lo:hi:hi],
				counts:   counts,
			}
			upFirst[k] = first[lo]
			lo = hi
		}
		level, first = up, upFirst
	}
	t.root = level[0]
	return t, dup, hasDup
}

// cursorFrame is one level of a cursor's root-to-leaf path. For an
// inner node, pos is the index of the child the cursor descended into;
// for the leaf it is the current entry index.
type cursorFrame struct {
	node *btreeNode
	pos  int
}

// btreeCursor walks leaf entries in key order. Leaves carry no sibling
// links (copy-on-write would dangle them), so the cursor keeps the full
// descent path and climbs it to step across leaf boundaries. The zero
// value is an exhausted (invalid) cursor.
type btreeCursor struct {
	frames []cursorFrame
}

// seek positions the cursor at the first entry whose key prefix is >=
// bound, comparing only len(bound) bytes (prefix semantics). An empty
// bound seeks to the first entry.
func (t *btree) seek(bound string) btreeCursor { return t.descend(bound, 0) }

// seekAfter positions at the first entry whose key prefix is > bound.
func (t *btree) seekAfter(bound string) btreeCursor { return t.descend(bound, 1) }

// descend walks root to leaf, taking at each node the first position
// whose key prefix compares above bound by at least strict (0: >=,
// 1: >), and normalizes the cursor onto a valid entry.
func (t *btree) descend(bound string, strict int) btreeCursor {
	var c btreeCursor
	c.descend(t, bound, strict)
	return c
}

// descend is btree.descend into c's own frame storage.
func (c *btreeCursor) descend(t *btree, bound string, strict int) {
	c.frames = c.frames[:0]
	n := t.root
	for {
		lo := n.keys.bisectAbove(bound, strict)
		c.frames = append(c.frames, cursorFrame{node: n, pos: lo})
		if n.leaf {
			break
		}
		n = n.children[lo]
	}
	c.skipEmpty()
}

// rank returns the number of entries before the position descend(bound,
// strict) lands on: the entries whose key prefix compares below bound
// (strict 0) or at-or-below it (strict 1). It reads the inner nodes on
// one root-to-leaf path and the leaf at its end, nothing else.
func (t *btree) rank(bound string, strict int) int {
	r := 0
	n := t.root
	for {
		lo := n.keys.bisectAbove(bound, strict)
		if n.leaf {
			return r + lo
		}
		for _, c := range n.counts[:lo] {
			r += c
		}
		n = n.children[lo]
	}
}

// countRange returns the number of entries an index range holds: those
// from the first whose key prefix compares to from by at least after
// (0: >=, 1: >) up to stop. It reads two root-to-leaf paths.
func (t *btree) countRange(from string, after int, stop keyBound) int {
	end := t.size
	if stop.key != "" {
		strict := 0
		if stop.incl {
			strict = 1
		}
		end = t.rank(stop.key, strict)
	}
	return max(end-t.rank(from, after), 0)
}

// countTo returns how many entries lie from the cursor's position up
// to stop, without moving the cursor. It reads the leaf the cursor
// stands on and, only when the range runs past that leaf, the inner
// nodes on the cursor's path and one path down to where the range ends:
// a subtree wholly inside the range is added from its parent's count,
// unvisited.
func (c *btreeCursor) countTo(stop *keyBound) int {
	if !c.valid() {
		return 0
	}
	top := c.frames[len(c.frames)-1]
	k := stop.firstPassed(&top.node.keys, top.pos)
	n := k - top.pos
	if k < top.node.keys.len() {
		return n
	}
	// Child j of an inner node lies between separators j-1 and j, so it
	// is wholly inside the range when separator j is not past stop; the
	// first child that is not ends the range inside it. The last child's
	// right edge is the parent's business: count its inside prefix and
	// climb on only if that is all of it.
	for l := len(c.frames) - 2; l >= 0; l-- {
		node := c.frames[l].node
		m := node.keys.len()
		for j := c.frames[l].pos + 1; j <= m; j++ {
			if j < m && !stop.passed(&node.keys, j) {
				n += node.counts[j]
				continue
			}
			p := stop.prefix(node.children[j])
			n += p
			if j < m || p < node.counts[j] {
				return n
			}
		}
	}
	return n
}

// skipEmpty normalizes the cursor so its top frame is a leaf with a
// valid entry index, climbing and re-descending across leaf boundaries
// (and over empty leaves, which deletes tolerate) as needed. When the
// tree is exhausted the frame stack empties and the cursor is invalid.
func (c *btreeCursor) skipEmpty() {
	for len(c.frames) > 0 {
		top := &c.frames[len(c.frames)-1]
		if top.node.leaf {
			if top.pos < top.node.keys.len() {
				return
			}
			c.frames = c.frames[:len(c.frames)-1]
			continue
		}
		if top.pos+1 <= top.node.keys.len() {
			top.pos++
			n := top.node.children[top.pos]
			for !n.leaf {
				c.frames = append(c.frames, cursorFrame{node: n, pos: 0})
				n = n.children[0]
			}
			c.frames = append(c.frames, cursorFrame{node: n, pos: 0})
			continue
		}
		c.frames = c.frames[:len(c.frames)-1]
	}
}

// valid reports whether the cursor points at an entry.
func (c *btreeCursor) valid() bool {
	if len(c.frames) == 0 {
		return false
	}
	top := c.frames[len(c.frames)-1]
	return top.node.leaf && top.pos < top.node.keys.len()
}

// key returns the current entry's key in two parts, its leaf's shared
// prefix and its own suffix: views into the leaf, good only until the
// tree next changes. The caller must check valid first.
func (c *btreeCursor) key() (pre, suf string) {
	top := c.frames[len(c.frames)-1]
	return top.node.keys.pre(), top.node.keys.suf(top.pos)
}

// rid returns the current entry's rowid; the caller must check valid
// first.
func (c *btreeCursor) rid() int64 {
	top := c.frames[len(c.frames)-1]
	return top.node.keys.rid(top.pos)
}

// advance moves to the next entry in key order.
func (c *btreeCursor) advance() {
	c.frames[len(c.frames)-1].pos++
	c.skipEmpty()
}

// probeCursor is the cursor of an operator that probes one index again
// and again — an index join once per outer row, a rewound index scan or
// index count once per execution of its subquery. It owns its frame
// storage for the whole execution, so a probe allocates nothing, and
// keeps a finger: the path its last probe landed on. A probe whose
// range starts at or after the last one's gallops forward from the
// finger, climbing only as far as the levels whose right edge the new
// start lies beyond; any other probe descends from the root. Outer
// rows in key order — the usual case, since index scans and joins emit
// pre order — thus make a child step one forward pass over the index.
//
// The finger is only good for the tree it points into, unchanged: the
// copy-on-write tree a snapshot reads never changes, but a statement
// that reads the table it writes (UPDATE t SET c = (SELECT … FROM t))
// mutates its private handle in place, which bumps btree.mods and
// forces a fresh descent.
type probeCursor struct {
	btreeCursor
	finger []cursorFrame // landing path of the last probe; empty: past the end
	from   []byte        // the last probe's start bound
	strict int
	tree   *btree // the tree the last probe ran in; nil before the first
	mods   uint64
}

// seek positions the cursor at the first entry of t whose key prefix
// compares above bound by at least strict (0: >=, 1: >), exactly where
// t.descend(bound, strict) lands, and reports whether it descended from
// the root rather than resuming from the finger.
func (p *probeCursor) seek(t *btree, bound string, strict int) (descended bool) {
	if p.tree == t && p.mods == t.mods && startsNoEarlier(keyView(p.from), p.strict, bound, strict) {
		p.frames = append(p.frames[:0], p.finger...)
		if strict == p.strict && bound == keyView(p.from) {
			return false // the same start again (siblings' counts): the finger is the landing
		}
		if len(p.frames) > 0 {
			p.resume(bound, strict)
		}
	} else {
		p.btreeCursor.descend(t, bound, strict)
		p.tree, p.mods = t, t.mods
		descended = true
	}
	p.finger = append(p.finger[:0], p.frames...)
	p.from = append(p.from[:0], bound...)
	p.strict = strict
	return descended
}

// startsNoEarlier reports whether a range starting at (bound, strict)
// begins at or after one starting at (prev, prevStrict) in every tree:
// whether every key the earlier start skips, the new one skips too.
//
// Seen as a cut in key order, a start (b, 0) skips exactly the keys
// below b, and (b, 1) the keys below b and every key b is a prefix of —
// a cut at b followed by an endless run of 0xff bytes. Two cuts whose
// bounds differ at some byte order by that byte, whatever their lengths
// and strictness. When one bound is a prefix of the other the lengths
// matter: the shorter bound a and the longer a+r give the cut order
// a < a+r <= (a+r)·0xff… <= a·0xff…. So after (a, 0) any start at a+r
// is no earlier, but after (a, 1) — which already skipped every key
// under a — a start at a+r lies behind and must descend afresh.
func startsNoEarlier(prev string, prevStrict int, bound string, strict int) bool {
	n := min(len(prev), len(bound))
	if c := keyCompare(prev[:n], bound[:n]); c != 0 {
		return c < 0
	}
	switch {
	case len(prev) == len(bound):
		return prevStrict <= strict
	case len(prev) < len(bound):
		return prevStrict == 0
	default:
		return strict == 1
	}
}

// resume moves the cursor, standing on the finger, forward to the first
// entry whose key prefix compares above bound by at least strict. It
// climbs from the leaf while the node's last entry still compares
// below — the target then lies right of the node's subtree — gallops
// along the level it stops at, and descends from there, galloping from
// each node's start: the target sits close to the finger, so near the
// front of the subtree that follows it.
func (p *probeCursor) resume(bound string, strict int) {
	l := len(p.frames) - 1
	for ; l > 0; l-- {
		f := p.frames[l]
		if last := f.node.keys.len() - 1; last >= f.pos {
			if c, _ := f.node.keys.cmpBound(last, bound); c >= strict {
				break
			}
		}
	}
	f := &p.frames[l]
	f.pos = f.node.keys.firstAbove(f.pos, bound, strict)
	p.frames = p.frames[:l+1]
	for n := f.node; !n.leaf; {
		n = n.children[p.frames[len(p.frames)-1].pos]
		p.frames = append(p.frames, cursorFrame{node: n, pos: n.keys.firstAbove(0, bound, strict)})
	}
	p.skipEmpty()
}
