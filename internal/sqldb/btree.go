package sqldb

import (
	"slices"
	"strings"
)

// B+tree index over packed composite keys (keycodec.go). Entries are
// (key, rowid) pairs; rowid acts as a tiebreaker so duplicate keys are
// supported. An inner node records how many entries each child
// subtree holds, so a key range is counted from the two root-to-leaf
// paths that bound it (rank, countRange) without visiting the leaves
// between them.
//
// The tree is copy-on-write: every node carries the generation that
// created it, and a writer first calls beginWrite to obtain a private
// tree handle stamped with a fresh generation. Mutations path-copy any
// node from an older generation before touching it, so all nodes
// reachable from a previously published root stay immutable and
// lock-free readers can walk them while the writer works. Nodes the
// writer itself created (same generation) are mutated in place.

const btreeOrder = 64 // max entries per node

type btreeEntry struct {
	key string // packed key columns
	rid int64
}

type btreeNode struct {
	gen      uint64
	leaf     bool
	entries  []btreeEntry // in leaf: data; in inner: separator keys
	children []*btreeNode // inner only; len = len(entries)+1
	counts   []int        // inner only: entries under each child
}

// size returns the number of entries under n.
func (n *btreeNode) size() int {
	if n.leaf {
		return len(n.entries)
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
	c := &btreeNode{gen: t.gen, leaf: n.leaf}
	c.entries = append([]btreeEntry(nil), n.entries...)
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

func compareEntry(a btreeEntry, key string, rid int64) int {
	if c := strings.Compare(a.key, key); c != 0 {
		return c
	}
	switch {
	case a.rid < rid:
		return -1
	case a.rid > rid:
		return 1
	default:
		return 0
	}
}

// lowerBound returns the first index i in n.entries with
// compareEntry(entries[i], key, rid) >= 0.
func (n *btreeNode) lowerBound(key string, rid int64) int {
	lo, hi := 0, len(n.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if compareEntry(n.entries[mid], key, rid) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childIndex returns the inner-node child to descend to for an exact
// (key, rid). Separators are copies of their right subtree's first
// entry, so an entry equal to a separator lives in the RIGHT child:
// descend left of the first separator strictly greater than the key.
func (n *btreeNode) childIndex(key string, rid int64) int {
	lo, hi := 0, len(n.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if compareEntry(n.entries[mid], key, rid) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Insert adds (key, rid) and keeps key. Duplicate (key, rid) pairs are
// ignored.
func (t *btree) Insert(key string, rid int64) {
	t.mods++
	t.root = t.mutable(t.root)
	promoted, right := t.insertInto(t.root, key, rid, true)
	if right != nil {
		t.root = &btreeNode{
			gen:      t.gen,
			leaf:     false,
			entries:  []btreeEntry{promoted},
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
		i := n.lowerBound(key, rid)
		if i < len(n.entries) && compareEntry(n.entries[i], key, rid) == 0 {
			return btreeEntry{}, nil // duplicate
		}
		e := btreeEntry{key: key, rid: rid}
		t.size++
		t.countPrefixes(key, n.entries, i, 1)
		if len(n.entries) < btreeOrder {
			n.entries = slices.Insert(n.entries, i, e)
			return btreeEntry{}, nil
		}
		right := t.splitLeaf(n, i, last)
		if i > len(n.entries) || len(n.entries) == btreeOrder {
			right.entries = slices.Insert(right.entries, i-len(n.entries), e)
		} else {
			n.entries = slices.Insert(n.entries, i, e)
		}
		// Leaf split promotes a copy of the right node's first entry.
		return right.entries[0], right
	}
	i := n.childIndex(key, rid)
	child := t.mutable(n.children[i])
	n.children[i] = child
	before := t.size
	promoted, right := t.insertInto(child, key, rid, last && i == len(n.entries))
	n.counts[i] += t.size - before
	if right == nil {
		return btreeEntry{}, nil
	}
	n.entries = slices.Insert(n.entries, i, promoted)
	n.children = slices.Insert(n.children, i+1, right)
	rc := right.size()
	n.counts[i] -= rc
	n.counts = slices.Insert(n.counts, i+1, rc)
	if len(n.entries) <= btreeOrder {
		return btreeEntry{}, nil
	}
	return t.splitInner(n)
}

// splitLeaf splits the full leaf n before the entry that goes at
// position i is placed, and returns the new right sibling. An insert
// past the end of the tree's last leaf (ascending keys) leaves n full
// and starts the sibling empty; any other splits n in half, each half
// in an array of its own size.
func (t *btree) splitLeaf(n *btreeNode, i int, last bool) *btreeNode {
	right := &btreeNode{gen: t.gen, leaf: true}
	if last && i == len(n.entries) {
		return right
	}
	mid := len(n.entries) / 2
	right.entries = slices.Clone(n.entries[mid:])
	n.entries = slices.Clone(n.entries[:mid])
	return right
}

func (t *btree) splitInner(n *btreeNode) (btreeEntry, *btreeNode) {
	mid := len(n.entries) / 2
	promoted := n.entries[mid]
	right := &btreeNode{gen: t.gen, leaf: false}
	right.entries = append(right.entries, n.entries[mid+1:]...)
	right.children = append(right.children, n.children[mid+1:]...)
	right.counts = append(right.counts, n.counts[mid+1:]...)
	n.entries = n.entries[:mid:mid]
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
		n = n.children[n.childIndex(key, rid)]
	}
	i := n.lowerBound(key, rid)
	if i >= len(n.entries) || compareEntry(n.entries[i], key, rid) != 0 {
		return false
	}
	t.mods++
	t.root = t.mutable(t.root)
	n = t.root
	for !n.leaf {
		ci := n.childIndex(key, rid)
		c := t.mutable(n.children[ci])
		n.children[ci] = c
		n.counts[ci]--
		n = c
	}
	i = n.lowerBound(key, rid)
	n.entries = slices.Delete(n.entries, i, i+1)
	t.countPrefixes(key, n.entries, i, -1)
	t.size--
	return true
}

// countPrefixes adds delta to the count of every prefix of key that
// neither leaf neighbor shares: entries is the leaf without key, and i
// the position key goes to (+1) or left (-1).
func (t *btree) countPrefixes(key string, entries []btreeEntry, i, delta int) {
	near := entries[max(i-1, 0):min(i+1, len(entries))]
	end := 0
	for l := range t.distinct {
		end = keyColumnEnd(key, end)
		shared := false
		for _, e := range near {
			shared = shared || strings.HasPrefix(e.key, key[:end])
		}
		if !shared && t.distinct[l]+delta >= 0 {
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
	if max {
		last, ok := t.root.last()
		if !ok || last.key[0] == keyNull {
			return 0, false
		}
		c = t.seek(last.key[:keyColumnEnd(last.key, 0)])
	} else {
		c = t.seekAfter(nullColumn)
	}
	if !c.valid() {
		return 0, false
	}
	best := c.entry()
	// Equal keys sort by rowid, but equal leading values of a wider key
	// sort by the later columns first; only numbers have several forms.
	if len(t.distinct) > 1 && best.key[0] == keyNumber {
		lead := best.key[:keyColumnEnd(best.key, 0)]
		for c.advance(); c.valid() && strings.HasPrefix(c.entry().key, lead); c.advance() {
			if e := c.entry(); e.rid < best.rid {
				best = e
			}
		}
	}
	return best.rid, true
}

// last returns the greatest entry under n, skipping the empty leaves
// deletes leave behind.
func (n *btreeNode) last() (btreeEntry, bool) {
	if n.leaf {
		if len(n.entries) == 0 {
			return btreeEntry{}, false
		}
		return n.entries[len(n.entries)-1], true
	}
	for i := len(n.children) - 1; i >= 0; i-- {
		if e, ok := n.children[i].last(); ok {
			return e, true
		}
	}
	return btreeEntry{}, false
}

// buildBtree builds a tree at generation gen bottom-up from entries,
// which it sorts in place and then owns: full leaves are windows onto
// the one sorted array, inner levels are packed above them, and the
// distinct-prefix counts are exact. When two entries share a key, dup
// is the least rowid that has an equal key at a lower rowid.
func buildBtree(gen uint64, width int, entries []btreeEntry) (t *btree, dup int64, hasDup bool) {
	slices.SortFunc(entries, func(a, b btreeEntry) int { return compareEntry(a, b.key, b.rid) })
	t = newBtree(gen, width)
	t.size = len(entries)
	for i, e := range entries {
		// Columns before the first byte e differs from its predecessor
		// in are shared; every later prefix is new.
		common, end := 0, 0
		if i > 0 {
			prev := entries[i-1].key
			n := 0
			for n < len(prev) && n < len(e.key) && prev[n] == e.key[n] {
				n++
			}
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
	for lo := 0; lo < len(entries); lo += btreeOrder {
		hi := min(lo+btreeOrder, len(entries))
		level = append(level, &btreeNode{gen: gen, leaf: true, entries: entries[lo:hi:hi]})
	}
	// first[i] is the least entry under level[i]: the separator to its
	// left one level up.
	first := make([]btreeEntry, len(level))
	for i, n := range level {
		first[i] = n.entries[0]
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
				entries:  slices.Clone(first[lo+1 : hi]),
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
		lo := bisectAbove(n.entries, 0, bound, strict)
		c.frames = append(c.frames, cursorFrame{node: n, pos: lo})
		if n.leaf {
			break
		}
		n = n.children[lo]
	}
	c.skipEmpty()
}

// firstAbove returns the first index i >= from of entries whose key
// prefix compares above bound by at least strict, len(entries) when
// there is none; the entries before from are not looked at. It gallops
// — from, from+1, from+3, from+7, … — and then bisects the last step,
// so a position k entries on costs O(log k) comparisons.
func firstAbove(entries []btreeEntry, from int, bound string, strict int) int {
	lo, hi, step := from, from, 1
	for hi < len(entries) && prefixCompare(entries[hi].key, bound) < strict {
		lo = hi + 1
		hi += step
		step *= 2
	}
	return bisectAbove(entries[:min(hi, len(entries))], lo, bound, strict)
}

// bisectAbove is firstAbove by binary search over entries[lo:].
func bisectAbove(entries []btreeEntry, lo int, bound string, strict int) int {
	hi := len(entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if prefixCompare(entries[mid].key, bound) < strict {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// rank returns the number of entries before the position descend(bound,
// strict) lands on: the entries whose key prefix compares below bound
// (strict 0) or at-or-below it (strict 1). It reads the inner nodes on
// one root-to-leaf path and the leaf at its end, nothing else.
func (t *btree) rank(bound string, strict int) int {
	r := 0
	n := t.root
	for {
		lo := bisectAbove(n.entries, 0, bound, strict)
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

// skipEmpty normalizes the cursor so its top frame is a leaf with a
// valid entry index, climbing and re-descending across leaf boundaries
// (and over empty leaves, which deletes tolerate) as needed. When the
// tree is exhausted the frame stack empties and the cursor is invalid.
func (c *btreeCursor) skipEmpty() {
	for len(c.frames) > 0 {
		top := &c.frames[len(c.frames)-1]
		if top.node.leaf {
			if top.pos < len(top.node.entries) {
				return
			}
			c.frames = c.frames[:len(c.frames)-1]
			continue
		}
		if top.pos+1 <= len(top.node.entries) {
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
	return top.node.leaf && top.pos < len(top.node.entries)
}

// entry returns the current entry; caller must check valid first.
func (c *btreeCursor) entry() btreeEntry {
	top := c.frames[len(c.frames)-1]
	return top.node.entries[top.pos]
}

// advance moves to the next entry in key order.
func (c *btreeCursor) advance() {
	c.frames[len(c.frames)-1].pos++
	c.skipEmpty()
}

// probeCursor is the cursor of an operator that probes one index again
// and again — an index join once per outer row, a rewound index scan
// once per execution of its subquery. It owns its frame storage for the
// whole execution, so a probe allocates nothing, and keeps a finger:
// the path its last probe landed on. A probe whose range starts at or
// after the last one's gallops forward from the finger, climbing only
// as far as the levels whose right edge the new start lies beyond;
// any other probe descends from the root. Outer rows in key order — the
// usual case, since index scans and joins emit pre order — thus make a
// child step one forward pass over the index.
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
	if c := strings.Compare(prev[:n], bound[:n]); c != 0 {
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
		last := len(f.node.entries) - 1
		if last >= f.pos && prefixCompare(f.node.entries[last].key, bound) >= strict {
			break
		}
	}
	f := &p.frames[l]
	f.pos = firstAbove(f.node.entries, f.pos, bound, strict)
	p.frames = p.frames[:l+1]
	for n := f.node; !n.leaf; {
		n = n.children[p.frames[len(p.frames)-1].pos]
		p.frames = append(p.frames, cursorFrame{node: n, pos: firstAbove(n.entries, 0, bound, strict)})
	}
	p.skipEmpty()
}
