package sqldb

import (
	"bytes"
	"sync"
	"sync/atomic"
)

// table is one published version of a relation's heap storage: rows
// addressed by rowid, with nil tombstones for deleted rows, held in
// fixed-size pages. Secondary structures (B-tree indexes) reference
// rows by rowid.
//
// Versions are copy-on-write. A writer calls beginWrite for a private
// version at a fresh generation; deletes and updates copy the touched
// page on first write, while inserts fill slots at rowids beyond every
// published version's count — slots no published reader ever visits —
// so appends go straight into the shared tail page without copying.
// Published versions are immutable below their own count and are read
// without any lock.
type table struct {
	def     *TableDef
	key     string // lowercased name: the catalog key, used for snapshot resolution
	gen     uint64
	pages   []*heapPage
	count   int64 // allocated row slots; the next rowid
	live    int
	indexes []*tableIndex
	pkIndex *tableIndex // non-nil when the table has a primary key
	bytes   int64       // rough payload size, maintained incrementally
	// sealq collects pages that became full (immutable) during the
	// current writer transaction; commit hands them to the buffer pool
	// once the version publishes. Never copied by beginWrite.
	sealq []*heapPage
}

const (
	heapPageShift = 9
	heapPageSize  = 1 << heapPageShift
	heapPageMask  = heapPageSize - 1
)

// pageFrame is a page's resident form, plain or sealed. A writer builds
// plain frames (tail pages, copy-on-write copies) and stores rows
// straight into rows. A page seals once, when it enters the buffer pool
// (see pageStore.add): from then on its frame is its checked image
// alone, the payload its pages file holds, and where each slot starts
// in it — whether sealed from a plain frame or faulted back in from
// disk. Readers go through row, never through rows or img directly.
type pageFrame struct {
	rows *[heapPageSize][]Value // a plain frame's rows; nil once sealed
	img  []byte                 // a sealed frame's payload (see pagefile.go)
	// offs[i] is where slot i starts in img, plus one; 0 for a tombstone.
	offs [heapPageSize]uint32
}

// row returns slot i's row, nil when deleted. A plain frame returns the
// stored row. A sealed frame decodes the slot into *scratch, grown when
// too short, so the row is valid until the caller reuses scratch; with
// a nil scratch it decodes into a row the caller owns. Either way the
// row's TEXT and BLOB values point into stored bytes and stay valid.
func (f *pageFrame) row(i int, scratch *[]Value) []Value {
	if f.rows != nil {
		return f.rows[i]
	}
	off := f.offs[i]
	switch {
	case off == 0:
		return nil
	case scratch == nil:
		return decodeSlotInto(nil, f.img, int(off-1))
	}
	*scratch = decodeSlotInto(*scratch, f.img, int(off-1))
	return *scratch
}

// has reports whether slot i holds a row, without decoding it.
func (f *pageFrame) has(i int) bool {
	if f.rows != nil {
		return f.rows[i] != nil
	}
	return f.offs[i] != 0
}

// clone returns a plain copy of f for a copy-on-write writer. A sealed
// frame's rows are decoded into one block, each row's capacity ending
// with it.
func (f *pageFrame) clone() *pageFrame {
	c := &pageFrame{rows: new([heapPageSize][]Value)}
	if f.rows != nil {
		*c.rows = *f.rows
		return c
	}
	n := 0
	for _, off := range f.offs {
		if off != 0 {
			n += slotWidth(f.img, int(off-1))
		}
	}
	block := make([]Value, n)
	for i, off := range f.offs {
		if off != 0 {
			w := slotWidth(f.img, int(off-1))
			c.rows[i] = decodeSlotInto(block[:w:w], f.img, int(off-1))
			block = block[w:]
		}
	}
	return c
}

// heapPage holds a fixed run of row slots behind one level of
// indirection: res points at the resident frame, or is nil when the
// buffer pool evicted the page to its pages file. Identity matters —
// copy-on-write versions share page objects, and the pool tracks
// residency per object.
type heapPage struct {
	gen uint64
	res atomic.Pointer[pageFrame]
	// mu serializes fault-ins of this page (never held together with
	// another page's mu).
	mu   sync.Mutex
	pins atomic.Int32
	ref  atomic.Bool // clock reference bit
	// Pool bookkeeping, owned by the pageStore (see bufferpool.go).
	store  atomic.Pointer[pageStore]
	pooled bool
	file   *pageFile // pages file holding the image; nil = no on-disk copy yet
	pid    int64     // 1-based first slot of the image in file
	slots  int32     // image chain length in file slots
}

// newHeapPage allocates a resident page for generation gen.
func newHeapPage(gen uint64) *heapPage {
	p := &heapPage{gen: gen}
	p.res.Store(&pageFrame{rows: new([heapPageSize][]Value)})
	return p
}

// frame returns the page's resident frame, faulting it in from the
// pages file when evicted (panics pageIOPanic on IO failure, which the
// executor barriers convert to ErrPageIO).
func (p *heapPage) frame() *pageFrame {
	if f := p.res.Load(); f != nil {
		return f
	}
	ps := p.store.Load()
	if ps == nil {
		panic(pageIOPanic{errorf("%w: evicted page has no store", ErrPageIO)})
	}
	return ps.faultIn(p)
}

type tableIndex struct {
	def  IndexDef
	tree *btree
	// deferred, when non-nil, collects the entries a transaction's
	// inserts owe tree, which is still empty; Tx.settle builds the tree
	// from them bottom-up before anything reads or rewrites the index.
	deferred *indexBuild
}

func newTable(def *TableDef, gen uint64) *table {
	t := &table{def: def, key: lowerName(def.Name), gen: gen}
	if len(def.PrimaryKey) > 0 {
		pk := &tableIndex{
			def: IndexDef{
				Name:    def.Name + "_pk",
				Table:   def.Name,
				Columns: def.PrimaryKey,
				Unique:  true,
			},
			tree: newBtree(gen, len(def.PrimaryKey)),
		}
		t.pkIndex = pk
		t.indexes = append(t.indexes, pk)
	}
	return t
}

// beginWrite returns a private version of the table for a writer at
// generation gen. The version shares pages and index nodes with the
// receiver until individually written.
func (t *table) beginWrite(gen uint64) *table {
	nt := &table{
		def:   t.def,
		key:   t.key,
		gen:   gen,
		pages: append([]*heapPage(nil), t.pages...),
		count: t.count,
		live:  t.live,
		bytes: t.bytes,
	}
	nt.indexes = make([]*tableIndex, len(t.indexes))
	for i, idx := range t.indexes {
		nidx := &tableIndex{def: idx.def, tree: idx.tree.beginWrite(gen)}
		if b := idx.deferred; b != nil {
			// The copy's slices share the receiver's arrays up to its
			// lengths, so a failed statement's entries go with its
			// version.
			nb := *b
			nb.idx = nidx
			nidx.deferred = &nb
		}
		nt.indexes[i] = nidx
		if idx == t.pkIndex {
			nt.pkIndex = nidx
		}
	}
	return nt
}

// row returns the row at rid (nil when deleted), decoded into *scratch
// or, with a nil scratch, into a row of the caller's own (see
// pageFrame.row). rid must be < count. Unpinned: the frame pointer
// keeps the page's bytes alive even if the pool evicts the page
// immediately after.
func (t *table) row(rid int64, scratch *[]Value) []Value {
	return t.pages[rid>>heapPageShift].frame().row(int(rid&heapPageMask), scratch)
}

// has reports whether rid holds a live row, decoding nothing.
func (t *table) has(rid int64) bool {
	return t.pages[rid>>heapPageShift].frame().has(int(rid & heapPageMask))
}

// rowRef is row for scans: it keeps the containing page pinned in *ref
// across consecutive calls, re-pinning only when the scan crosses into
// another page. Callers release the ref when the scan closes.
func (t *table) rowRef(rid int64, ref *pageRef, scratch *[]Value) []Value {
	p := t.pages[rid>>heapPageShift]
	if ref.p != p {
		ref.pin(p)
	}
	return ref.f.row(int(rid&heapPageMask), scratch)
}

// slotCount returns the number of allocated rowids; rowids in [0,
// slotCount) are addressable and nil slots are tombstones.
func (t *table) slotCount() int64 { return t.count }

// fullPages returns how many of the table's pages are completely
// allocated (every slot's rowid is below count) and therefore sealed
// or seal-eligible.
func (t *table) fullPages() int {
	return int(t.count >> heapPageShift)
}

// noteSealable queues a full page for the buffer pool; commit
// registers it once the version publishes.
func (t *table) noteSealable(p *heapPage) {
	t.sealq = append(t.sealq, p)
}

// writableFrame returns the frame of the page holding rid, copying the
// page first when it belongs to an older generation. Only delete and
// update go through here: they overwrite slots below a published count
// that lock-free readers may be visiting. A copied full page is
// immediately seal-eligible (it can never fill further).
func (t *table) writableFrame(rid int64) *pageFrame {
	pi := rid >> heapPageShift
	p := t.pages[pi]
	if p.gen == t.gen {
		// Created by this writer: never sealed, so always resident.
		return p.res.Load()
	}
	src := p.frame()
	np := &heapPage{gen: t.gen}
	np.res.Store(src.clone())
	t.pages[pi] = np
	if int(pi) < t.fullPages() {
		t.noteSealable(np)
	}
	return np.res.Load()
}

// valueBytes estimates the storage footprint of a value, used for the
// database-size experiment (T1).
func valueBytes(v Value) int64 {
	switch v.Type() {
	case TypeNull:
		return 1
	case TypeText, TypeBlob:
		return int64(v.size()) + 4
	default:
		return 8
	}
}

func (t *table) rowBytes(row []Value) int64 {
	var n int64
	for _, v := range row {
		n += valueBytes(v)
	}
	return n
}

// keyValues returns idx's key columns of row, for error messages.
func (idx *tableIndex) keyValues(row []Value) []Value {
	key := make([]Value, len(idx.def.Columns))
	for i, c := range idx.def.Columns {
		key[i] = row[c]
	}
	return key
}

// insertBatch inserts rows (already coerced and validated) in order.
func (t *table) insertBatch(rows [][]Value) error {
	for _, row := range rows {
		if _, err := t.insert(row); err != nil {
			return err
		}
	}
	return nil
}

// insert appends a row (already coerced and validated) and maintains all
// indexes. It returns the new rowid.
func (t *table) insert(row []Value) (int64, error) {
	var buf [keyScratch]byte
	// The primary key index comes first, so it is checked first.
	for _, idx := range t.indexes {
		if !idx.def.Unique {
			continue
		}
		if rid, ok := t.lookupUnique(idx, appendRowKey(buf[:0], idx.def.Columns, row)); ok && t.has(rid) {
			if idx == t.pkIndex {
				return 0, errorf("table %s: duplicate primary key %v", t.def.Name, idx.keyValues(row))
			}
			return 0, errorf("table %s: unique index %s violated", t.def.Name, idx.def.Name)
		}
	}
	rid := t.count
	pi := int(rid >> heapPageShift)
	if pi == len(t.pages) {
		t.pages = append(t.pages, newHeapPage(t.gen))
		if pi > 0 {
			// The previous tail page just became (or was already)
			// full; queue it for the pool. Registration dedupes.
			t.noteSealable(t.pages[pi-1])
		}
	}
	// The slot is beyond every published count, so writing the shared
	// tail page directly is invisible to readers (see type comment).
	// The tail page is never full, hence never sealed, hence resident.
	t.pages[pi].res.Load().rows[rid&heapPageMask] = row
	t.count++
	t.live++
	t.bytes += t.rowBytes(row)
	for _, idx := range t.indexes {
		if idx.deferred != nil {
			idx.deferred.add(row, rid)
		} else {
			idx.tree.Insert(keyView(appendRowKey(buf[:0], idx.def.Columns, row)), rid)
		}
	}
	return rid, nil
}

// deferIndexes arms a deferred build on every non-unique index whose
// tree is empty, so the rows inserted next are collected for one
// bottom-up build instead of going into the tree one by one. Unique
// indexes keep per-row maintenance: a violation must surface at the
// statement. It reports whether any index defers.
func (t *table) deferIndexes() bool {
	armed := false
	for _, idx := range t.indexes {
		if idx.deferred == nil && !idx.def.Unique && idx.tree.Len() == 0 {
			idx.deferred = &indexBuild{idx: idx}
		}
		armed = armed || idx.deferred != nil
	}
	return armed
}

// settle builds every deferred index of t at t's generation.
func (t *table) settle() {
	for _, idx := range t.indexes {
		if b := idx.deferred; b != nil {
			idx.deferred = nil
			// Only a unique index can fail to build, and none defers.
			_ = b.finish(t)
		}
	}
}

// lookupUnique finds a rowid whose full index key equals key.
func (t *table) lookupUnique(idx *tableIndex, key []byte) (int64, bool) {
	k := keyView(key)
	c := idx.tree.seek(k)
	if !c.valid() {
		return 0, false
	}
	if pre, suf := c.key(); !equalParts(pre, suf, k) {
		return 0, false
	}
	return c.rid(), true
}

// delete tombstones the row at rid, whose current image the caller
// passes as row, and removes its index entries.
func (t *table) delete(rid int64, row []Value) {
	var buf [keyScratch]byte
	for _, idx := range t.indexes {
		idx.tree.Delete(keyView(appendRowKey(buf[:0], idx.def.Columns, row)), rid)
	}
	t.bytes -= t.rowBytes(row)
	t.writableFrame(rid).rows[rid&heapPageMask] = nil
	t.live--
}

// update replaces the row at rid, whose current image the caller
// passes as old, maintaining indexes.
func (t *table) update(rid int64, old, row []Value) error {
	var buf, oldBuf [keyScratch]byte
	for _, idx := range t.indexes {
		if !idx.def.Unique {
			continue
		}
		newKey := appendRowKey(buf[:0], idx.def.Columns, row)
		if bytes.Equal(newKey, appendRowKey(oldBuf[:0], idx.def.Columns, old)) {
			continue
		}
		if other, ok := t.lookupUnique(idx, newKey); ok && other != rid && t.has(other) {
			return errorf("table %s: unique index %s violated by update", t.def.Name, idx.def.Name)
		}
	}
	for _, idx := range t.indexes {
		idx.tree.Delete(keyView(appendRowKey(buf[:0], idx.def.Columns, old)), rid)
	}
	t.bytes += t.rowBytes(row) - t.rowBytes(old)
	t.writableFrame(rid).rows[rid&heapPageMask] = row
	for _, idx := range t.indexes {
		idx.tree.Insert(keyView(appendRowKey(buf[:0], idx.def.Columns, row)), rid)
	}
	return nil
}

// addIndex builds a new secondary index over existing rows.
func (t *table) addIndex(def IndexDef) (*tableIndex, error) {
	idx := &tableIndex{def: def}
	b := indexBuild{idx: idx, entries: make([]btreeEntry, 0, t.live)}
	var ref pageRef
	defer ref.release()
	var scratch []Value
	for rid := int64(0); rid < t.count; rid++ {
		if row := t.rowRef(rid, &ref, &scratch); row != nil {
			b.add(row, rid)
		}
	}
	if err := b.finish(t); err != nil {
		return nil, err
	}
	t.indexes = append(t.indexes, idx)
	return idx, nil
}

// indexBuild collects one index's (key, rowid) entries and builds its
// tree bottom-up: from a scan (CREATE INDEX on a populated table, and
// snapshot restore), or from a transaction's inserts into an empty table
// (see deferIndexes). Keys are packed back to back in chunks that never
// grow past their first capacity, so an entry views its key where it was
// written and no key straddles two chunks. The tree copies the keys, so
// the chunks are dropped once it is built.
type indexBuild struct {
	idx     *tableIndex
	entries []btreeEntry
	chunk   []byte // the newest key chunk
	key     []byte // scratch: the key being added
}

// Key chunks start at keyChunkMin bytes, so a small table's index costs
// little, and double up to keyChunkMax; a longer key gets a chunk of
// its own size.
const (
	keyChunkMin = 256
	keyChunkMax = 64 << 10
)

func (b *indexBuild) add(row []Value, rid int64) {
	b.key = appendRowKey(b.key[:0], b.idx.def.Columns, row)
	if len(b.key) > cap(b.chunk)-len(b.chunk) {
		b.chunk = make([]byte, 0, max(min(2*cap(b.chunk), keyChunkMax), keyChunkMin, len(b.key)))
	}
	start := len(b.chunk)
	b.chunk = append(b.chunk, b.key...)
	b.entries = append(b.entries, btreeEntry{key: keyView(b.chunk[start:]), rid: rid})
}

// finish installs the built tree at t's generation. A unique index
// with two equal keys fails, naming the key of the later row.
func (b *indexBuild) finish(t *table) error {
	entries := b.entries
	b.entries, b.chunk, b.key = nil, nil, nil
	tree, dup, hasDup := buildBtree(t.gen, len(b.idx.def.Columns), entries)
	if hasDup && b.idx.def.Unique {
		return errorf("table %s: cannot build unique index %s: duplicate key %v", t.def.Name, b.idx.def.Name, b.idx.keyValues(t.row(dup, nil)))
	}
	b.idx.tree = tree
	return nil
}

// index returns the table's index named name (case-sensitive match on
// the definition name), used to re-resolve plan-time index choices
// against the version a query snapshot actually sees.
func (t *table) index(name string) *tableIndex {
	for _, idx := range t.indexes {
		if idx.def.Name == name {
			return idx
		}
	}
	return nil
}

// findIndex returns an index whose leading key columns cover cols in
// order, preferring the shortest such index.
func (t *table) findIndex(cols []int) *tableIndex {
	var best *tableIndex
	for _, idx := range t.indexes {
		if len(idx.def.Columns) < len(cols) {
			continue
		}
		match := true
		for i, c := range cols {
			if idx.def.Columns[i] != c {
				match = false
				break
			}
		}
		if match && (best == nil || len(idx.def.Columns) < len(best.def.Columns)) {
			best = idx
		}
	}
	return best
}
