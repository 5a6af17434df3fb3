package sqldb

// B+tree index over composite Value keys. Entries are (key, rowid) pairs;
// rowid acts as a tiebreaker so duplicate keys are supported.
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
	key []Value
	rid int64
}

type btreeNode struct {
	gen      uint64
	leaf     bool
	entries  []btreeEntry // in leaf: data; in inner: separator keys
	children []*btreeNode // inner only; len = len(entries)+1
}

// btree is the index structure. A given handle is not safe for
// concurrent mutation; the Database serializes writers, and readers
// only ever see published (immutable) handles.
//
// The tree maintains approximate distinct-prefix counts per key column
// (distinct[L-1] = number of distinct L-column key prefixes). They are
// maintained by comparing each inserted/deleted entry with its in-leaf
// neighbors, which miscounts slightly at leaf boundaries — fine for the
// planner's cardinality estimates, their only consumer.
type btree struct {
	gen      uint64
	root     *btreeNode
	size     int
	width    int
	distinct []int
}

func newBtree(gen uint64) *btree {
	return &btree{gen: gen, root: &btreeNode{gen: gen, leaf: true}}
}

// beginWrite returns a private handle for a writer at generation gen.
// The handle shares all nodes with the receiver; mutations through it
// copy shared nodes on first touch and never disturb the original.
func (t *btree) beginWrite(gen uint64) *btree {
	return &btree{
		gen:      gen,
		root:     t.root,
		size:     t.size,
		width:    t.width,
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

// compareKeys orders composite keys elementwise; a shorter key that is a
// prefix of a longer one compares equal on the shared prefix, then the
// shorter sorts first. rid breaks full-key ties.
func compareKeys(a, b []Value) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

func compareEntry(a btreeEntry, key []Value, rid int64) int {
	if c := compareKeys(a.key, key); c != 0 {
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
func (n *btreeNode) lowerBound(key []Value, rid int64) int {
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
func (n *btreeNode) childIndex(key []Value, rid int64) int {
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

// Insert adds (key, rid). Duplicate (key, rid) pairs are ignored.
func (t *btree) Insert(key []Value, rid int64) {
	t.root = t.mutable(t.root)
	promoted, right := t.insertInto(t.root, key, rid)
	if right != nil {
		t.root = &btreeNode{
			gen:      t.gen,
			leaf:     false,
			entries:  []btreeEntry{promoted},
			children: []*btreeNode{t.root, right},
		}
	}
}

// insertInto performs the recursive insert into n, which the caller has
// already made mutable. On split it returns the promoted separator and
// the new right sibling.
func (t *btree) insertInto(n *btreeNode, key []Value, rid int64) (btreeEntry, *btreeNode) {
	if n.leaf {
		i := n.lowerBound(key, rid)
		if i < len(n.entries) && compareEntry(n.entries[i], key, rid) == 0 {
			return btreeEntry{}, nil // duplicate
		}
		n.entries = append(n.entries, btreeEntry{})
		copy(n.entries[i+1:], n.entries[i:])
		n.entries[i] = btreeEntry{key: key, rid: rid}
		t.size++
		t.countInsert(n, i, key)
		if len(n.entries) <= btreeOrder {
			return btreeEntry{}, nil
		}
		return t.splitLeaf(n)
	}
	i := n.childIndex(key, rid)
	child := t.mutable(n.children[i])
	n.children[i] = child
	promoted, right := t.insertInto(child, key, rid)
	if right == nil {
		return btreeEntry{}, nil
	}
	n.entries = append(n.entries, btreeEntry{})
	copy(n.entries[i+1:], n.entries[i:])
	n.entries[i] = promoted
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
	if len(n.entries) <= btreeOrder {
		return btreeEntry{}, nil
	}
	return t.splitInner(n)
}

func (t *btree) splitLeaf(n *btreeNode) (btreeEntry, *btreeNode) {
	mid := len(n.entries) / 2
	right := &btreeNode{gen: t.gen, leaf: true}
	right.entries = append(right.entries, n.entries[mid:]...)
	n.entries = n.entries[:mid:mid]
	// Leaf split promotes a copy of the right node's first entry.
	return right.entries[0], right
}

func (t *btree) splitInner(n *btreeNode) (btreeEntry, *btreeNode) {
	mid := len(n.entries) / 2
	promoted := n.entries[mid]
	right := &btreeNode{gen: t.gen, leaf: false}
	right.entries = append(right.entries, n.entries[mid+1:]...)
	right.children = append(right.children, n.children[mid+1:]...)
	n.entries = n.entries[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	return promoted, right
}

// Delete removes (key, rid). Underfull nodes are tolerated (no rebalance);
// the tree stays correct and scans skip empty leaves. Returns whether the
// entry existed.
func (t *btree) Delete(key []Value, rid int64) bool {
	// Probe first so a missing entry does not path-copy for nothing.
	n := t.root
	for !n.leaf {
		n = n.children[n.childIndex(key, rid)]
	}
	i := n.lowerBound(key, rid)
	if i >= len(n.entries) || compareEntry(n.entries[i], key, rid) != 0 {
		return false
	}
	t.root = t.mutable(t.root)
	n = t.root
	for !n.leaf {
		ci := n.childIndex(key, rid)
		c := t.mutable(n.children[ci])
		n.children[ci] = c
		n = c
	}
	i = n.lowerBound(key, rid)
	t.countDelete(n, i, key)
	n.entries = append(n.entries[:i], n.entries[i+1:]...)
	t.size--
	return true
}

// countInsert updates distinct-prefix counts after placing key at
// position i of leaf n.
func (t *btree) countInsert(n *btreeNode, i int, key []Value) {
	if t.width == 0 {
		t.width = len(key)
		t.distinct = make([]int, t.width)
	}
	for l := 1; l <= t.width && l <= len(key); l++ {
		prefix := key[:l]
		predSame := i > 0 && prefixCompare(n.entries[i-1].key, prefix) == 0
		succSame := i+1 < len(n.entries) && prefixCompare(n.entries[i+1].key, prefix) == 0
		if !predSame && !succSame {
			t.distinct[l-1]++
		}
	}
}

// countDelete updates distinct-prefix counts before removing position i
// of leaf n.
func (t *btree) countDelete(n *btreeNode, i int, key []Value) {
	for l := 1; l <= t.width && l <= len(key); l++ {
		prefix := key[:l]
		predSame := i > 0 && prefixCompare(n.entries[i-1].key, prefix) == 0
		succSame := i+1 < len(n.entries) && prefixCompare(n.entries[i+1].key, prefix) == 0
		if !predSame && !succSame && t.distinct[l-1] > 0 {
			t.distinct[l-1]--
		}
	}
}

// Len returns the number of entries.
func (t *btree) Len() int { return t.size }

// extreme returns the least (max false) or greatest non-NULL value of
// the leading key column, or NULL when there is none. Values that
// compare equal can differ in representation (0.0 and -0.0); of those
// it returns the one with the lowest rowid, which is what an aggregate
// over a rowid-order scan keeps.
func (t *btree) extreme(max bool) Value {
	var c btreeCursor
	if max {
		last, ok := t.root.last()
		if !ok || last.key[0].IsNull() {
			return Null
		}
		c = t.seek(last.key[:1])
	} else {
		c = t.seekAfter([]Value{Null})
	}
	if !c.valid() {
		return Null
	}
	best := c.entry()
	// Equal keys sort by rowid, but equal leading values of a wider key
	// sort by the later columns first; only numbers have several forms.
	if len(best.key) > 1 && best.key[0].T.isNumeric() {
		v := best.key[0]
		for c.advance(); c.valid() && Compare(c.entry().key[0], v) == 0; c.advance() {
			if e := c.entry(); e.rid < best.rid {
				best = e
			}
		}
	}
	return best.key[0]
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

// seek positions the cursor at the first entry with key >= bound,
// comparing only len(bound) key columns (prefix semantics). A nil bound
// seeks to the first entry.
func (t *btree) seek(bound []Value) btreeCursor {
	var c btreeCursor
	n := t.root
	for {
		i := 0
		if bound != nil {
			i = prefixLowerBound(n.entries, bound)
		}
		c.frames = append(c.frames, cursorFrame{node: n, pos: i})
		if n.leaf {
			break
		}
		n = n.children[i]
	}
	c.skipEmpty()
	return c
}

// seekAfter positions at the first entry with key prefix > bound.
func (t *btree) seekAfter(bound []Value) btreeCursor {
	var c btreeCursor
	n := t.root
	for {
		i := prefixUpperBound(n.entries, bound)
		c.frames = append(c.frames, cursorFrame{node: n, pos: i})
		if n.leaf {
			break
		}
		n = n.children[i]
	}
	c.skipEmpty()
	return c
}

// prefixCompare compares the first len(bound) columns of key to bound.
func prefixCompare(key, bound []Value) int {
	n := len(bound)
	if len(key) < n {
		n = len(key)
	}
	for i := 0; i < n; i++ {
		if c := Compare(key[i], bound[i]); c != 0 {
			return c
		}
	}
	if len(key) < len(bound) {
		return -1
	}
	return 0
}

func prefixLowerBound(entries []btreeEntry, bound []Value) int {
	lo, hi := 0, len(entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if prefixCompare(entries[mid].key, bound) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func prefixUpperBound(entries []btreeEntry, bound []Value) int {
	lo, hi := 0, len(entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if prefixCompare(entries[mid].key, bound) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
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
