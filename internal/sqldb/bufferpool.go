package sqldb

// The buffer pool holds every sealed heap page and bounds how many stay
// resident in memory. Pages enter the pool when the statement that
// filled them commits into its Update transaction (see table.sealq),
// before the transaction publishes, or when a one-statement
// transaction publishes (see Tx.gen0). Once pooled they are immutable
// — inserts only touch the unsealed tail page and deletes/updates
// copy-on-write a fresh page for the writer's generation — so eviction
// is simply dropping the in-memory frame after an (at most once per
// pages file) writeback, and a later access faults the frame back in
// by rowid. A cap of 0 means unbounded: pages are pooled, so a
// checkpoint references them in the pages file like any other, but
// nothing is ever evicted and the pool keeps no eviction ring.
//
// Shadow pages: a page of a transaction still open may be written back
// and evicted like any other. Its image goes to a fresh slot, and only
// a checkpoint references slots, of the published state's pages alone:
// until the commit publishes (after its WAL fsync) no snapshot names
// the slot, and an abort or a crash leaves it dead, for a later
// compaction to drop. When every candidate is pinned the pool grows
// past its cap instead of blocking: memory pressure never deadlocks the
// engine.
//
// Fault-in failures panic with pageIOPanic, which the executor and
// writer panic barriers convert to ErrPageIO: the one operation fails,
// the pool and the published snapshot stay intact, and a later access
// retries the read.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// pagesFiles are the two names a durable database's pages file
// alternates between: a checkpoint that compacts copies the live pages
// from one into the other (see pageStore.checkpoint).
var pagesFiles = [2]string{"pages.0.db", "pages.1.db"}

func otherPagesFile(name string) string {
	if name == pagesFiles[0] {
		return pagesFiles[1]
	}
	return pagesFiles[0]
}

// pageFile is one pages file: an append-only array of slots (see
// pagefile.go). Every written page records the pageFile holding its
// image, so a page keeps reading the file it was written to after the
// pool moves on to a fresh one.
type pageFile struct {
	name string // name in the data directory; "" for a temp spill file
	f    File
	next int64 // next free 0-based slot
}

// tempPageFile backs non-durable databases' spill: an unlinked temp
// file the OS reclaims when the handle closes (process exit). Durable
// databases keep their pages files in the data directory instead.
func tempPageFile() (*pageFile, error) {
	f, err := os.CreateTemp("", "xrdb-spill-*")
	if err != nil {
		return nil, err
	}
	os.Remove(f.Name())
	return &pageFile{f: f}, nil
}

// openPageFile opens name for appending after its existing slots.
func openPageFile(fs VFS, name string) (*pageFile, error) {
	f, err := fs.OpenRW(name)
	if err != nil {
		return nil, err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &pageFile{name: name, f: f, next: (size + pageSlotSize - 1) / pageSlotSize}, nil
}

// write appends one page image holding payload and returns its slot
// chain.
func (pf *pageFile) write(payload []byte) (pid int64, slots int32, err error) {
	pid = pf.next + 1
	if _, err := pf.f.WriteAt(framePageImage(pid, payload), pf.next*pageSlotSize); err != nil {
		return 0, 0, err
	}
	n := pageSlotsFor(len(payload))
	pf.next += int64(n)
	return pid, int32(n), nil
}

// read returns the validated payload of the page image at pid. The
// chain of the file's last image ends at end of file, so a short read
// is fine as long as it holds the whole payload.
func (pf *pageFile) read(pid int64, slots int32) ([]byte, error) {
	img := make([]byte, int64(slots)*pageSlotSize)
	n, err := pf.f.ReadAt(img, (pid-1)*pageSlotSize)
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return nil, err
	}
	return pageImagePayload(pid, img[:n])
}

// pageStore is the buffer pool plus its pages file.
type pageStore struct {
	mu sync.Mutex
	// cap is the resident-page target; 0 means unbounded.
	cap atomic.Int64
	// fs is the data directory of a durable database; nil for a
	// non-durable one, which spills to a temp file.
	fs VFS
	// cur is the pages file new images are appended to, opened lazily
	// on the first write.
	cur *pageFile
	// installed is the pages file the snapshot on disk names (nil when
	// it names none). Its name is never unlinked or recreated: a
	// checkpoint moves to the other name, and recovery makes it current
	// again after a failed checkpoint left cur on that other name.
	installed *pageFile
	// clock is the ring of resident pooled pages the eviction hand
	// sweeps; it exists only while the pool is bounded. Evicted pages
	// leave the ring and re-enter on fault-in, so dead pages (dropped
	// tables, superseded versions) cannot accumulate.
	clock  []*heapPage
	hand   int
	closed bool

	spilled   int64 // page images in the current pages file
	spillErrs uint64

	hits       atomic.Uint64
	misses     atomic.Uint64
	evictions  atomic.Uint64
	writebacks atomic.Uint64
	readErrs   atomic.Uint64
	pinned     atomic.Int64
	pinnedHW   atomic.Int64
	// over is set while a bounded pool is above its cap; the release
	// of the last pin then evicts again.
	over atomic.Bool
}

// BufferPoolStats is the pool's health block in Database.Stats().
type BufferPoolStats struct {
	// Cap is the resident-page target (0 = unbounded).
	Cap int
	// Resident counts the pages a bounded pool holds in memory (0 when
	// unbounded: every page stays resident and none is tracked).
	// Spilled counts page images in the current pages file; SpillBytes
	// is that file's size.
	Resident   int
	Spilled    int64
	SpillBytes int64
	// Hits/Misses count a bounded pool's page lookups at scan
	// page-crossing granularity (a hit pins a resident page, a miss
	// faults one in from disk).
	Hits   uint64
	Misses uint64
	// Evictions counts dropped frames; Writebacks counts pages written
	// to make room (each at most once per pages file — sealed pages are
	// immutable). A checkpoint's page writes are not writebacks.
	Evictions  uint64
	Writebacks uint64
	// PinnedHighWater is the most pages simultaneously pinned in a
	// bounded pool.
	Pinned          int64
	PinnedHighWater int64
	// ReadErrors counts failed fault-ins (each fails exactly one
	// operation); SpillErrors counts failed writebacks (the page just
	// stays resident).
	ReadErrors  uint64
	SpillErrors uint64
}

func newPageStore() *pageStore { return &pageStore{} }

func (ps *pageStore) bounded() bool { return ps.cap.Load() > 0 }

// setCap changes the resident-page target. A pool that was unbounded
// kept no ring, so becoming bounded enrolls the resident pages live()
// lists — the published state's — before evicting down to the cap.
func (ps *pageStore) setCap(pages int, live func() []*heapPage) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	pages = max(pages, 0)
	wasBounded := ps.bounded()
	ps.cap.Store(int64(pages))
	switch {
	case pages == 0:
		ps.clock, ps.hand = nil, 0
	case !wasBounded:
		for _, p := range live() {
			if p.pooled && p.res.Load() != nil {
				ps.clock = append(ps.clock, p)
			}
		}
	}
	ps.evictLocked()
}

// fileLocked returns the current pages file, opening it on first use.
func (ps *pageStore) fileLocked() (pf *pageFile, err error) {
	switch {
	case ps.cur != nil:
	case ps.fs != nil:
		ps.cur, err = openPageFile(ps.fs, pagesFiles[0])
	default:
		ps.cur, err = tempPageFile()
	}
	return ps.cur, err
}

// attach resolves the pages file a snapshot being restored names and
// makes it both installed and current. After a failed checkpoint, cur
// may be the other name, holding images no snapshot references: it is
// garbage, and pages still pointing into it keep their handle.
func (ps *pageStore) attach(name string) (*pageFile, error) {
	if name != pagesFiles[0] && name != pagesFiles[1] {
		return nil, errorf("snapshot names unknown pages file %q", name)
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	pf := ps.installed
	switch {
	case pf != nil && pf.name == name:
	case ps.cur != nil && ps.cur.name == name:
		pf = ps.cur
	default:
		if _, err := ps.fs.Size(name); err != nil {
			return nil, fmt.Errorf("sqldb: pages file %s: %w", name, err)
		}
		var err error
		if pf, err = openPageFile(ps.fs, name); err != nil {
			return nil, err
		}
	}
	// The restore adopts the snapshot's pages, which recounts them.
	ps.installed, ps.cur, ps.spilled = pf, pf, 0
	return pf, nil
}

// reinstall makes the pages file the installed snapshot names current
// again, as restoring that snapshot would: after a failed checkpoint
// moved to the other name, that file holds images no snapshot
// references, and the next checkpoint must not unlink the installed
// one to reuse its name. Durable pools only.
func (ps *pageStore) reinstall() {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.installed != nil {
		ps.cur = ps.installed
	}
}

func (ps *pageStore) stats() BufferPoolStats {
	ps.mu.Lock()
	s := BufferPoolStats{
		Cap:         int(ps.cap.Load()),
		Resident:    len(ps.clock),
		Spilled:     ps.spilled,
		SpillErrors: ps.spillErrs,
	}
	if ps.cur != nil {
		s.SpillBytes = ps.cur.next * pageSlotSize
	}
	ps.mu.Unlock()
	s.Hits = ps.hits.Load()
	s.Misses = ps.misses.Load()
	s.Evictions = ps.evictions.Load()
	s.Writebacks = ps.writebacks.Load()
	s.Pinned = ps.pinned.Load()
	s.PinnedHighWater = ps.pinnedHW.Load()
	s.ReadErrors = ps.readErrs.Load()
	return s
}

// add seals a page into the pool: its frame becomes its image (see
// pageFrame), encoded outside the pool lock. Idempotent: the same
// shared page object may be noted by several writers (the tx that
// filled it, a checkpoint straggler walk, a copy-on-write of a full
// page).
func (ps *pageStore) add(p *heapPage) {
	sealed := sealing(p)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.addLocked(p, sealed)
	ps.evictLocked()
}

// sealing returns the sealed form of p's full plain frame, or nil when
// p is sealed already: only a pooled page is sealed or evicted.
func sealing(p *heapPage) *pageFrame {
	f := p.res.Load()
	if f == nil || f.rows == nil {
		return nil
	}
	s := &pageFrame{}
	s.img = encodeRows(f.rows[:], &s.offs)
	return s
}

func (ps *pageStore) addLocked(p *heapPage, sealed *pageFrame) {
	if p.pooled {
		return
	}
	p.res.Store(sealed)
	p.pooled = true
	p.store.Store(ps)
	p.ref.Store(true)
	if ps.bounded() {
		ps.clock = append(ps.clock, p)
	}
}

// adopt registers a page a snapshot says is already in pf at slot pid.
// The page is not resident, so it joins the clock ring only when first
// faulted in; until then it costs no memory.
func (ps *pageStore) adopt(p *heapPage, pf *pageFile, pid int64, slots int32) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	p.pooled = true
	p.file, p.pid, p.slots = pf, pid, slots
	p.store.Store(ps)
	ps.spilled++
}

// checkpoint gives every page of pages (a state's full pages, in table
// order) an image in one pages file and returns that file's name and
// the pages' slot chains for the snapshot to reference. Pages already
// in the current file are referenced in place; the rest — never
// written, or written to another file — are appended to it. When the
// current file holds more dead slots than live ones, a fresh file under
// the name the installed snapshot does not use becomes current first, so
// every page is copied and the old file's slots are left behind; the
// fresh file is created by unlinking that name first, so an evicted page
// of an older pinned version keeps reading the file it was written to.
// The caller syncs before installing the snapshot, then calls install.
func (ps *pageStore) checkpoint(pages []*heapPage) (string, []savedPage, error) {
	if len(pages) == 0 {
		return "", nil, nil
	}
	ps.mu.Lock()
	if cur := ps.cur; cur != nil && cur.name != "" {
		var live int64
		for _, p := range pages {
			if p.file == cur && p.pid != 0 {
				live += int64(p.slots)
			}
		}
		if cur.next-live > live {
			name := otherPagesFile(cur.name)
			if ps.installed != nil {
				name = otherPagesFile(ps.installed.name)
			}
			_ = ps.fs.Remove(name)
			f, err := ps.fs.Create(name)
			if err != nil {
				ps.mu.Unlock()
				return "", nil, fmt.Errorf("sqldb: creating pages file %s: %w", name, err)
			}
			ps.cur, ps.spilled = &pageFile{name: name, f: f}, 0
		}
	}
	ps.mu.Unlock()
	var name string
	refs := make([]savedPage, len(pages))
	for i, p := range pages {
		// A page that filled exactly at the last commit is not sealed
		// until the next insert; it is immutable already.
		sealed := sealing(p)
		ps.mu.Lock()
		ps.addLocked(p, sealed)
		if p.file != ps.cur || p.pid == 0 {
			if err := ps.copyLocked(p); err != nil {
				ps.mu.Unlock()
				return "", nil, fmt.Errorf("sqldb: checkpoint page write: %w", err)
			}
		}
		refs[i] = savedPage{Pid: p.pid, Slots: p.slots}
		name = ps.cur.name
		ps.mu.Unlock()
	}
	return name, refs, nil
}

// copyLocked appends p's image to the current pages file: the resident
// frame's, or copied from the file p was written to.
func (ps *pageStore) copyLocked(p *heapPage) error {
	if f := p.res.Load(); f != nil {
		return ps.writeLocked(p, f.img)
	}
	payload, err := p.file.read(p.pid, p.slots)
	if err != nil {
		return err
	}
	return ps.writeLocked(p, payload)
}

// writeLocked appends payload as p's image to the current pages file
// and points p at it.
func (ps *pageStore) writeLocked(p *heapPage, payload []byte) error {
	pf, err := ps.fileLocked()
	if err != nil {
		return err
	}
	pid, slots, err := pf.write(payload)
	if err != nil {
		return err
	}
	p.file, p.pid, p.slots = pf, pid, slots
	ps.spilled++
	return nil
}

// install records that the snapshot just installed names pages file
// name ("" when it inlines every page) and deletes the other name, which
// that snapshot references nothing in. Durable pools only.
func (ps *pageStore) install(name string) {
	ps.mu.Lock()
	ps.installed = nil
	if ps.cur != nil && ps.cur.name == name {
		ps.installed = ps.cur
	}
	ps.mu.Unlock()
	if name != "" {
		_ = ps.fs.Remove(otherPagesFile(name))
	}
}

// evictLocked sweeps the clock hand until the resident count is within
// cap or no page is evictable (pinned, or referenced this sweep). Two
// full sweeps bound the walk: the
// first clears reference bits, the second takes victims. over is
// published before the sweep, so a pin released after the sweep passed
// its page sees it and sweeps again (pageRef.release): a bounded pool
// that parallel pins pushed past its cap returns to it once they go.
func (ps *pageStore) evictLocked() {
	limit := int(ps.cap.Load())
	if limit <= 0 || len(ps.clock) <= limit {
		ps.over.Store(false)
		return
	}
	ps.over.Store(true)
	budget := 2 * len(ps.clock)
	for len(ps.clock) > limit && budget > 0 {
		if ps.hand >= len(ps.clock) {
			ps.hand = 0
		}
		p := ps.clock[ps.hand]
		budget--
		if p.ref.CompareAndSwap(true, false) || p.pins.Load() > 0 {
			ps.hand++
			continue
		}
		if p.pid == 0 {
			if !ps.spillLocked(p) {
				ps.hand++
				continue
			}
			ps.writebacks.Add(1)
		}
		// Drop the frame and remove the page from the ring. In-flight
		// readers that already loaded the frame pointer keep it alive;
		// eviction only severs the pool's reference.
		p.res.Store(nil)
		ps.evictions.Add(1)
		last := len(ps.clock) - 1
		ps.clock[ps.hand] = ps.clock[last]
		ps.clock[last] = nil
		ps.clock = ps.clock[:last]
	}
	ps.over.Store(len(ps.clock) > limit)
}

// evict is evictLocked under the pool lock.
func (ps *pageStore) evict() {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.evictLocked()
}

// spillLocked writes p's frame back to the current pages file.
// Reports whether the page now has an on-disk copy.
func (ps *pageStore) spillLocked(p *heapPage) bool {
	if ps.closed {
		return false
	}
	f := p.res.Load()
	if f == nil {
		return false
	}
	if err := ps.writeLocked(p, f.img); err != nil {
		ps.spillErrs++
		return false
	}
	return true
}

// sync makes the current pages file durable (a no-op before the first
// write).
func (ps *pageStore) sync() error {
	ps.mu.Lock()
	pf := ps.cur
	ps.mu.Unlock()
	if pf == nil {
		return nil
	}
	return pf.f.Sync()
}

// close fsyncs the pages file but keeps the handle open: reads must
// keep serving the published snapshot after Close, and an evicted page
// can only be served from disk. Further spills are refused (the pool
// grows instead).
func (ps *pageStore) close() error {
	ps.mu.Lock()
	ps.closed = true
	ps.mu.Unlock()
	return ps.sync()
}

// faultIn loads an evicted page's frame from its pages file: the image
// is checked in full and becomes the frame (see scanPagePayload). p.mu
// serializes concurrent faults of the same page; the read itself runs
// without the pool lock.
func (ps *pageStore) faultIn(p *heapPage) *pageFrame {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f := p.res.Load(); f != nil {
		return f
	}
	if ps.bounded() {
		ps.misses.Add(1)
	}
	ps.mu.Lock()
	pf, pid, slots := p.file, p.pid, p.slots
	ps.mu.Unlock()
	if pf == nil {
		ps.readErrs.Add(1)
		panic(pageIOPanic{errorf("%w: page has no on-disk copy", ErrPageIO)})
	}
	payload, err := pf.read(pid, slots)
	var f *pageFrame
	if err == nil {
		f, err = scanPagePayload(pid, payload, heapPageSize)
	}
	if err != nil {
		ps.readErrs.Add(1)
		panic(pageIOPanic{errorf("%w: page %d: %v", ErrPageIO, pid, err)})
	}
	p.ref.Store(true)
	ps.mu.Lock()
	if ps.bounded() {
		ps.clock = append(ps.clock, p)
	}
	p.res.Store(f)
	ps.evictLocked()
	ps.mu.Unlock()
	return f
}

// pageRef holds one pinned page across a scan's row accesses; release
// must be called when the scan closes or crosses to another page. It is
// the only way to pin a page. A bounded pool counts the pin in its
// statistics, and the ref remembers that pool so release balances the
// count even if the page was sealed, or the cap changed, in between; an
// unbounded pool pays no shared atomics per page crossing.
type pageRef struct {
	p       *heapPage
	f       *pageFrame
	counted *pageStore
}

// pin releases the page r holds, if any, pins p instead and returns its
// resident frame, faulting it in if needed.
func (r *pageRef) pin(p *heapPage) *pageFrame {
	// release's body, spelled out: this runs at every page crossing,
	// and release itself is over the inlining budget.
	if ps := r.counted; r.unpin() && ps.over.Load() {
		ps.evict()
	}
	p.pins.Add(1)
	p.ref.Store(true)
	r.p = p
	ps := p.store.Load()
	if ps != nil && ps.bounded() {
		r.counted = ps
		n := ps.pinned.Add(1)
		for {
			hw := ps.pinnedHW.Load()
			if n <= hw || ps.pinnedHW.CompareAndSwap(hw, n) {
				break
			}
		}
	}
	if r.f = p.res.Load(); r.f != nil {
		if r.counted != nil {
			ps.hits.Add(1)
		}
		return r.f
	}
	// Not resident: only pooled pages are ever evicted, so the store is
	// set. Release the pin if the fault-in panics (ErrPageIO) so a
	// failed read never leaves the page unevictable.
	ok := false
	defer func() {
		if !ok {
			r.release()
		}
	}()
	if ps == nil {
		panic(pageIOPanic{errorf("%w: evicted page has no store", ErrPageIO)})
	}
	r.f = ps.faultIn(p)
	ok = true
	return r.f
}

// release unpins the page r holds, if any. The release that drops a
// bounded pool's last pin evicts again if pins held the pool above its
// cap (see evictLocked).
func (r *pageRef) release() {
	if ps := r.counted; r.unpin() && ps.over.Load() {
		ps.evict()
	}
}

// unpin drops the pin r holds, if any, and reports whether it was a
// bounded pool's last pin.
func (r *pageRef) unpin() (last bool) {
	if r.p != nil {
		r.p.pins.Add(-1)
		if r.counted != nil {
			last = r.counted.pinned.Add(-1) == 0
		}
		*r = pageRef{}
	}
	return last
}
