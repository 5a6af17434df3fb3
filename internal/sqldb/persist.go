package sqldb

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
)

// Snapshot persistence. A snapshot records the whole database — table
// and index definitions plus every heap page — in one sealed envelope:
//
//	"xmlrdb-snapshot-v4\n" | u32 payload length | gob payload | u32 CRC32
//
// so a truncated or bit-flipped snapshot is detected with a clear error
// instead of being half-loaded. Each page is either inline (its page
// payload, pagefile.go's encoding) or a {Pid, Slots} reference into the
// pages file the snapshot names. A checkpoint (durable.go) references
// every full page, so it writes only what changed since the last one,
// and inlines the unsealed tails; Save inlines every page, so a
// standalone dump is a single file. LoadFrom and OpenDurable read the
// same format through restoreSnapshot, which adopts referenced pages
// lazily and rebuilds the indexes with one scan and a sort.

// snapshotMagic opens every snapshot. Snapshots written by older
// versions of this package (v1 bare gob streams, v2 row dumps, v3 paged
// checkpoints with 32 KiB slots) carry other magics and are refused
// with ErrUnsupportedSnapshot.
const (
	snapshotMagic       = "xmlrdb-snapshot-v4\n"
	snapshotMagicFamily = "xmlrdb-snapshot-"
)

type savedColumn struct {
	Name    string
	Type    Type
	NotNull bool
}

// savedPage is one heap page: Inline holds its payload, or Pid/Slots
// name its slot chain in the snapshot's pages file.
type savedPage struct {
	Pid    int64
	Slots  int32
	Inline []byte
}

type savedTable struct {
	Name       string
	Columns    []savedColumn
	PrimaryKey []int
	// Count is the allocated rowid count, tombstones included; Pages
	// covers rowids 0..Count-1, 512 to a page.
	Count int64
	Pages []savedPage
	// Indexes lists secondary index definitions (the primary key index
	// is re-derived); every tree is rebuilt by one scan on load.
	Indexes []IndexDef
}

type snapshot struct {
	// Seq is the last WAL commit sequence the snapshot contains; WAL
	// replay skips records at or below it.
	Seq uint64
	// PagesFile names the pages file the references point into; empty
	// when every page is inline.
	PagesFile string
	Tables    []savedTable
}

// Save writes a standalone snapshot of the current published state —
// one atomic pointer read, no lock, so writers keep committing while it
// serializes. Every page is inlined; evicted pages fault in through the
// pool to be encoded.
func (db *Database) Save(w io.Writer) error {
	_, err := writeSnapshot(w, db.state.Load(), nil)
	return err
}

// writeSnapshot serializes one immutable state version. With ps nil
// every page is inlined. Otherwise every full page is given an image in
// ps's current pages file and referenced there (the caller must sync the
// pages file before installing the snapshot); only tails are inlined.
// It returns the pages file the snapshot names.
func writeSnapshot(w io.Writer, state *dbState, ps *pageStore) (string, error) {
	names := make([]string, 0, len(state.tables))
	for n := range state.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	snap := snapshot{Seq: state.seq}
	var full []*heapPage
	for _, n := range names {
		t := state.tables[n]
		st := savedTable{
			Name: t.def.Name,
			// append to a nil base keeps "no primary key" as nil, so a
			// restored def stays structurally identical to the original.
			PrimaryKey: append([]int(nil), t.def.PrimaryKey...),
			Count:      t.count,
			Pages:      make([]savedPage, len(t.pages)),
		}
		for _, c := range t.def.Columns {
			st.Columns = append(st.Columns, savedColumn{Name: c.Name, Type: c.Type, NotNull: c.NotNull})
		}
		inlineFrom := 0
		if ps != nil {
			inlineFrom = t.fullPages()
			full = append(full, t.pages[:inlineFrom]...)
		}
		if err := inlinePages(t, st.Pages, inlineFrom); err != nil {
			return "", fmt.Errorf("sqldb: snapshot of %s: %w", t.def.Name, err)
		}
		for _, idx := range t.indexes {
			if idx != t.pkIndex {
				st.Indexes = append(st.Indexes, idx.def)
			}
		}
		snap.Tables = append(snap.Tables, st)
	}
	if ps != nil {
		name, refs, err := ps.checkpoint(full, state.seq)
		if err != nil {
			return "", err
		}
		snap.PagesFile = name
		for _, st := range snap.Tables {
			refs = refs[copy(st.Pages[:st.Count>>heapPageShift], refs):]
		}
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&snap); err != nil {
		return "", err
	}
	return snap.PagesFile, writeSealed(w, payload.Bytes())
}

// inlinePages encodes t's pages from index `from` on into out, each
// bounded to the rowids the table has allocated. The pin faults an
// evicted page in; a failed read becomes an error.
func inlinePages(t *table, out []savedPage, from int) (err error) {
	defer recoverToError(&err)
	var ref pageRef
	defer ref.release()
	for pi := from; pi < len(t.pages); pi++ {
		n := int(min(t.count-int64(pi)<<heapPageShift, heapPageSize))
		out[pi].Inline = encodePageFrame(ref.pin(t.pages[pi]), n)
	}
	return nil
}

// writeSealed wraps payload in the sealed snapshot envelope:
// magic | u32 length | payload | u32 CRC32.
func writeSealed(w io.Writer, payload []byte) error {
	if _, err := io.WriteString(w, snapshotMagic); err != nil {
		return err
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc32.ChecksumIEEE(payload))
	_, err := w.Write(trailer[:])
	return err
}

// openSealed validates a sealed envelope and returns its payload.
func openSealed(data []byte) ([]byte, error) {
	if !bytes.HasPrefix(data, []byte(snapshotMagic)) {
		if bytes.Contains(data, []byte(snapshotMagicFamily)) {
			return nil, fmt.Errorf("%w (written by an older version): reload the document", ErrUnsupportedSnapshot)
		}
		return nil, errorf("not a database snapshot")
	}
	body := data[len(snapshotMagic):]
	if len(body) < 8 {
		return nil, errorf("snapshot truncated (no payload header)")
	}
	n := int64(binary.LittleEndian.Uint32(body))
	if n > int64(len(body))-8 {
		return nil, errorf("snapshot truncated (payload %d bytes, have %d)", n, int64(len(body))-8)
	}
	if n < int64(len(body))-8 {
		return nil, errorf("snapshot has %d trailing bytes", int64(len(body))-8-n)
	}
	payload := body[4 : 4+n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(body[4+n:]) {
		return nil, errorf("snapshot corrupt (CRC mismatch)")
	}
	return payload, nil
}

// LoadFrom rebuilds a database from a snapshot written by Save.
func LoadFrom(r io.Reader) (*Database, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("sqldb: reading snapshot: %w", err)
	}
	db, _, err := restoreSnapshot(data, newPageStore())
	return db, err
}

// restoreSnapshot rebuilds a database on pool from snapshot bytes (nil
// for an empty database) and reports the WAL sequence it contains.
// Referenced pages are adopted into the pool without being read; inline
// full pages are pooled resident. Every index (primary key included) is
// then rebuilt bottom-up from one scan, which faults pages through the
// pool under its cap — so recovery holds no more pages than the cap
// allows.
func restoreSnapshot(data []byte, pool *pageStore) (*Database, uint64, error) {
	db := New()
	db.pool = pool
	if data == nil {
		return db, 0, nil
	}
	payload, err := openSealed(data)
	if err != nil {
		return nil, 0, err
	}
	var snap snapshot
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap); err != nil {
		return nil, 0, fmt.Errorf("sqldb: decoding snapshot: %w", err)
	}
	var pf *pageFile
	if snap.PagesFile != "" {
		if pf, err = pool.attach(snap.PagesFile); err != nil {
			return nil, 0, err
		}
	}
	st := db.state.Load()
	gen := db.gen.Add(1)
	for _, sv := range snap.Tables {
		t, err := restoreTable(sv, pool, pf, gen, snap.Seq)
		if err != nil {
			return nil, 0, fmt.Errorf("sqldb: snapshot table %s: %w", sv.Name, err)
		}
		for _, idx := range t.indexes {
			if idx != t.pkIndex {
				st.indexes[lowerName(idx.def.Name)] = &idx.def
			}
		}
		st.tables[t.key] = t
	}
	db.setSeq(snap.Seq)
	return db, snap.Seq, nil
}

// restoreTable rebuilds one table version from its snapshot record.
func restoreTable(sv savedTable, pool *pageStore, pf *pageFile, gen, seq uint64) (*table, error) {
	def := TableDef{Name: sv.Name, PrimaryKey: append([]int(nil), sv.PrimaryKey...)}
	for _, c := range sv.Columns {
		def.Columns = append(def.Columns, Column{Name: c.Name, Type: c.Type, NotNull: c.NotNull})
	}
	t := newTable(&def, gen)
	if n := int64(len(sv.Pages)); sv.Count < 0 || sv.Count > n<<heapPageShift || sv.Count <= (n-1)<<heapPageShift {
		return nil, errorf("%d pages for %d rows", n, sv.Count)
	}
	full := int(sv.Count >> heapPageShift)
	for pi, sp := range sv.Pages {
		p := &heapPage{gen: gen}
		switch {
		case sp.Inline == nil:
			if pf == nil || pi >= full || sp.Pid <= 0 || sp.Slots <= 0 {
				return nil, errorf("bad page reference %d", pi)
			}
			pool.adopt(p, pf, sp.Pid, sp.Slots, seq)
		default:
			limit := int(min(sv.Count-int64(pi)<<heapPageShift, heapPageSize))
			f, err := decodePagePayload(int64(pi), sp.Inline, limit)
			if err != nil {
				return nil, err
			}
			p.res.Store(f)
			if pi < full {
				pool.add(p, seq)
			}
		}
		t.pages = append(t.pages, p)
	}
	t.count = sv.Count
	for _, idef := range sv.Indexes {
		d := idef
		d.Columns = append([]int{}, idef.Columns...)
		t.indexes = append(t.indexes, &tableIndex{def: d})
	}
	builds := make([]indexBuild, len(t.indexes))
	for i, idx := range t.indexes {
		builds[i].idx = idx
	}
	// One scan collects every index's keys and the live/byte counts; the
	// trees are then built by sorting. The barrier turns a failed page
	// read into a load error instead of a panic.
	if err := func() (err error) {
		defer recoverToError(&err)
		var ref pageRef
		defer ref.release()
		for rid := int64(0); rid < t.count; rid++ {
			row := t.rowRef(rid, &ref)
			if row == nil {
				continue
			}
			if len(row) != len(def.Columns) {
				return errorf("row %d has %d columns, want %d", rid, len(row), len(def.Columns))
			}
			t.live++
			t.bytes += t.rowBytes(row)
			for i := range builds {
				builds[i].add(row, rid)
			}
		}
		for i := range builds {
			if err := builds[i].finish(t); err != nil {
				return err
			}
		}
		return nil
	}(); err != nil {
		return nil, fmt.Errorf("rebuilding indexes: %w", err)
	}
	return t, nil
}
