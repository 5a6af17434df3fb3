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

// pageFrame is the in-memory image of a page's row slots. The row
// array is a true array (not a slice) so a frame copy duplicates every
// slot header and concurrent readers of the old frame never observe
// the copy.
type pageFrame struct {
	rows [heapPageSize][]Value
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
	seal   uint64    // commit seq whose WAL fsync must cover eviction
	file   *pageFile // pages file holding the image; nil = no on-disk copy yet
	pid    int64     // 1-based first slot of the image in file
	slots  int32     // image chain length in file slots
}

// newHeapPage allocates a resident page for generation gen.
func newHeapPage(gen uint64) *heapPage {
	p := &heapPage{gen: gen}
	p.res.Store(&pageFrame{})
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
		nt.indexes[i] = nidx
		if idx == t.pkIndex {
			nt.pkIndex = nidx
		}
	}
	return nt
}

// row returns the row at rid (nil when deleted). rid must be < count.
// Unpinned: the frame pointer keeps the page's rows alive even if the
// pool evicts the page immediately after.
func (t *table) row(rid int64) []Value {
	return t.pages[rid>>heapPageShift].frame().rows[rid&heapPageMask]
}

// rowRef is row for scans: it keeps the containing page pinned in *ref
// across consecutive calls, re-pinning only when the scan crosses into
// another page. Callers release the ref when the scan closes.
func (t *table) rowRef(rid int64, ref *pageRef) []Value {
	p := t.pages[rid>>heapPageShift]
	if ref.p != p {
		ref.pin(p)
	}
	return ref.f.rows[rid&heapPageMask]
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
	np.res.Store(&pageFrame{rows: src.rows})
	t.pages[pi] = np
	if int(pi) < t.fullPages() {
		t.noteSealable(np)
	}
	return np.res.Load()
}

// valueBytes estimates the storage footprint of a value, used for the
// database-size experiment (T1).
func valueBytes(v Value) int64 {
	switch v.t {
	case TypeNull:
		return 1
	case TypeInt, TypeFloat, TypeBool:
		return 8
	case TypeText:
		return int64(v.n) + 4
	case TypeBlob:
		return int64(v.n) + 4
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

// insert appends a row (already coerced and validated) and maintains all
// indexes. It returns the new rowid.
func (t *table) insert(row []Value) (int64, error) { return t.insertKeyed(row, nil) }

// insertBatch inserts rows (already coerced and validated) in order.
// Each index's keys for the whole batch are encoded into one string, so
// a bulk load makes one key allocation per index, not one per row and
// index, and the long-lived keys do not interleave with the load's
// short-lived allocations. A key outlives a delete of its row only as
// part of that string.
func (t *table) insertBatch(rows [][]Value) error {
	n := len(t.indexes)
	keys := make([]string, len(rows)*n)
	var enc []byte
	ends := make([]int, len(rows))
	for i, idx := range t.indexes {
		enc = enc[:0]
		for r, row := range rows {
			enc = appendRowKey(enc, idx.def.Columns, row)
			ends[r] = len(enc)
		}
		all, start := string(enc), 0
		for r, end := range ends {
			keys[r*n+i] = all[start:end]
			start = end
		}
	}
	for r, row := range rows {
		if _, err := t.insertKeyed(row, keys[r*n:(r+1)*n]); err != nil {
			return err
		}
	}
	return nil
}

// insertKeyed is insert with the row's index keys given, keys[i] for
// t.indexes[i]; nil encodes them here.
func (t *table) insertKeyed(row []Value, keys []string) (int64, error) {
	var buf [keyScratch]byte
	// The primary key index comes first, so it is checked first.
	for _, idx := range t.indexes {
		if !idx.def.Unique {
			continue
		}
		if rid, ok := t.lookupUnique(idx, appendRowKey(buf[:0], idx.def.Columns, row)); ok && t.row(rid) != nil {
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
	for i, idx := range t.indexes {
		if keys != nil {
			idx.tree.Insert(keys[i], rid)
		} else {
			idx.tree.Insert(string(appendRowKey(buf[:0], idx.def.Columns, row)), rid)
		}
	}
	return rid, nil
}

// lookupUnique finds a rowid whose full index key equals key.
func (t *table) lookupUnique(idx *tableIndex, key []byte) (int64, bool) {
	k := keyView(key)
	c := idx.tree.seek(k)
	if !c.valid() || c.entry().key != k {
		return 0, false
	}
	return c.entry().rid, true
}

// delete tombstones the row at rid and removes index entries.
func (t *table) delete(rid int64) {
	row := t.row(rid)
	if row == nil {
		return
	}
	var buf [keyScratch]byte
	for _, idx := range t.indexes {
		idx.tree.Delete(keyView(appendRowKey(buf[:0], idx.def.Columns, row)), rid)
	}
	t.bytes -= t.rowBytes(row)
	t.writableFrame(rid).rows[rid&heapPageMask] = nil
	t.live--
}

// update replaces the row at rid, maintaining indexes.
func (t *table) update(rid int64, row []Value) error {
	old := t.row(rid)
	if old == nil {
		return errorf("table %s: update of deleted row %d", t.def.Name, rid)
	}
	var buf, oldBuf [keyScratch]byte
	for _, idx := range t.indexes {
		if !idx.def.Unique {
			continue
		}
		newKey := appendRowKey(buf[:0], idx.def.Columns, row)
		if bytes.Equal(newKey, appendRowKey(oldBuf[:0], idx.def.Columns, old)) {
			continue
		}
		if other, ok := t.lookupUnique(idx, newKey); ok && other != rid && t.row(other) != nil {
			return errorf("table %s: unique index %s violated by update", t.def.Name, idx.def.Name)
		}
	}
	for _, idx := range t.indexes {
		idx.tree.Delete(keyView(appendRowKey(buf[:0], idx.def.Columns, old)), rid)
	}
	t.bytes += t.rowBytes(row) - t.rowBytes(old)
	t.writableFrame(rid).rows[rid&heapPageMask] = row
	for _, idx := range t.indexes {
		idx.tree.Insert(string(appendRowKey(buf[:0], idx.def.Columns, row)), rid)
	}
	return nil
}

// addIndex builds a new secondary index over existing rows.
func (t *table) addIndex(def IndexDef) (*tableIndex, error) {
	idx := &tableIndex{def: def}
	b := indexBuild{idx: idx}
	var ref pageRef
	defer ref.release()
	for rid := int64(0); rid < t.count; rid++ {
		if row := t.rowRef(rid, &ref); row != nil {
			b.add(row, rid)
		}
	}
	if err := b.finish(t); err != nil {
		return nil, err
	}
	t.indexes = append(t.indexes, idx)
	return idx, nil
}

// indexBuild collects one index's (key, rowid) entries from a scan, the
// keys packed back to back in one arena, and builds its tree bottom-up
// (CREATE INDEX on a populated table, and snapshot restore).
type indexBuild struct {
	idx   *tableIndex
	arena []byte
	ends  []int // ends[i] is where entry i's key ends in arena
	rids  []int64
}

func (b *indexBuild) add(row []Value, rid int64) {
	b.arena = appendRowKey(b.arena, b.idx.def.Columns, row)
	b.ends = append(b.ends, len(b.arena))
	b.rids = append(b.rids, rid)
}

// finish installs the built tree at t's generation. A unique index
// with two equal keys fails, naming the key of the later row.
func (b *indexBuild) finish(t *table) error {
	keys := string(b.arena) // exact size: the arena's spare capacity is dropped
	entries := make([]btreeEntry, len(b.rids))
	start := 0
	for i, end := range b.ends {
		entries[i] = btreeEntry{key: keys[start:end], rid: b.rids[i]}
		start = end
	}
	b.arena, b.ends, b.rids = nil, nil, nil
	tree, dup, hasDup := buildBtree(t.gen, len(b.idx.def.Columns), entries)
	if hasDup && b.idx.def.Unique {
		return errorf("table %s: cannot build unique index %s: duplicate key %v", t.def.Name, b.idx.def.Name, b.idx.keyValues(t.row(dup)))
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
