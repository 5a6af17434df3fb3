package sqldb

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
	"unsafe"
)

// Write-ahead log. Every committed mutation — DML effect batches and
// DDL — is appended as one length-prefixed, CRC32-checksummed frame
// and fsynced before the commit is acknowledged. Recovery replays the
// log over the last good snapshot and truncates at the first torn or
// corrupt frame, so a crash at any byte boundary loses at most the
// unacknowledged tail.
//
// Records are logical *effects*, not statements: inserts log the rows
// that landed, deletes log the deleted row images, updates log
// (old, new) image pairs. Replay therefore never re-runs the planner
// and is deterministic regardless of how the rows were produced. Each
// record carries a monotonic sequence number; snapshots record the
// last sequence they contain, and replay skips records at or below it,
// which is what makes checkpoint rotation crash-safe (a crash between
// "snapshot renamed" and "log truncated" merely replays no-ops).
//
// A group frame packs several records into one frame with a single
// CRC: either the whole group survives recovery or none of it does.
// The durability layer uses groups to make multi-statement operations
// (document load, subtree insertion) crash-atomic.

// walOp enumerates the logical record kinds.
type walOp uint8

const (
	opCreateTable walOp = iota + 1
	opCreateIndex
	opDropTable
	opDropIndex
	opInsert
	opDelete
	opUpdate
	opGroup
)

// walRecord is one logical WAL entry.
type walRecord struct {
	Op  walOp
	Seq uint64
	// Table targets opInsert/opDelete/opUpdate/opDropTable; Name is the
	// index name for opDropIndex.
	Table string
	Name  string
	Def   *TableDef
	Index *IndexDef
	// Rows holds inserted rows (opInsert), deleted row images
	// (opDelete) or new row images (opUpdate).
	Rows [][]Value
	// OldRows holds the pre-update images for opUpdate, pairwise with
	// Rows.
	OldRows [][]Value
	// Group holds the member records of an opGroup frame.
	Group []*walRecord
}

// maxSeq returns the highest sequence number in the record (descending
// into groups).
func (r *walRecord) maxSeq() uint64 {
	s := r.Seq
	for _, g := range r.Group {
		if gs := g.maxSeq(); gs > s {
			s = gs
		}
	}
	return s
}

// ---------------------------------------------------------------------------
// Binary codec
//
// The encoding is deliberately compact and self-delimiting: varints
// for lengths and integers, a one-byte tag per value. gob would work
// but re-transmits type descriptors per frame; a byte-offset crash
// sweep over the log is ~5x cheaper with this codec.

type walEncoder struct{ b []byte }

func (e *walEncoder) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *walEncoder) varint(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *walEncoder) byte(v byte)      { e.b = append(e.b, v) }
func (e *walEncoder) bytes(p []byte)   { e.uvarint(uint64(len(p))); e.b = append(e.b, p...) }
func (e *walEncoder) str(s string)     { e.uvarint(uint64(len(s))); e.b = append(e.b, s...) }

func (e *walEncoder) value(v Value) {
	e.byte(byte(v.t))
	switch v.t {
	case TypeNull:
	case TypeInt, TypeBool:
		e.varint(v.i())
	case TypeFloat:
		e.b = binary.LittleEndian.AppendUint64(e.b, v.n)
	case TypeText:
		e.str(v.s())
	case TypeBlob:
		e.bytes(v.Blob())
	}
}

func (e *walEncoder) rows(rows [][]Value) {
	e.uvarint(uint64(len(rows)))
	for _, row := range rows {
		e.uvarint(uint64(len(row)))
		for _, v := range row {
			e.value(v)
		}
	}
}

func (e *walEncoder) tableDef(d *TableDef) {
	e.str(d.Name)
	e.uvarint(uint64(len(d.Columns)))
	for _, c := range d.Columns {
		e.str(c.Name)
		e.byte(byte(c.Type))
		if c.NotNull {
			e.byte(1)
		} else {
			e.byte(0)
		}
	}
	e.uvarint(uint64(len(d.PrimaryKey)))
	for _, pk := range d.PrimaryKey {
		e.uvarint(uint64(pk))
	}
}

func (e *walEncoder) indexDef(d *IndexDef) {
	e.str(d.Name)
	e.str(d.Table)
	if d.Unique {
		e.byte(1)
	} else {
		e.byte(0)
	}
	e.uvarint(uint64(len(d.Columns)))
	for _, c := range d.Columns {
		e.uvarint(uint64(c))
	}
}

// encodeRecordPayload appends the record's payload (no frame) to dst.
func encodeRecordPayload(dst []byte, rec *walRecord) []byte {
	e := &walEncoder{b: dst}
	e.byte(byte(rec.Op))
	e.uvarint(rec.Seq)
	switch rec.Op {
	case opCreateTable:
		e.tableDef(rec.Def)
	case opCreateIndex:
		e.indexDef(rec.Index)
	case opDropTable:
		e.str(rec.Table)
	case opDropIndex:
		e.str(rec.Name)
	case opInsert, opDelete:
		e.str(rec.Table)
		e.rows(rec.Rows)
	case opUpdate:
		e.str(rec.Table)
		e.rows(rec.OldRows)
		e.rows(rec.Rows)
	case opGroup:
		e.uvarint(uint64(len(rec.Group)))
		for _, g := range rec.Group {
			sub := encodeRecordPayload(nil, g)
			e.bytes(sub)
		}
	}
	return e.b
}

type walDecoder struct {
	b   []byte
	off int
	// text, when non-nil, is an arena that TEXT and BLOB bytes are
	// appended to instead of being copied value by value; it must have
	// room for every text byte still to be decoded.
	text []byte
}

func (d *walDecoder) fail() error { return errorf("wal: corrupt record at offset %d", d.off) }

func (d *walDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, d.fail()
	}
	d.off += n
	return v, nil
}

func (d *walDecoder) varint() (int64, error) {
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		return 0, d.fail()
	}
	d.off += n
	return v, nil
}

func (d *walDecoder) byte() (byte, error) {
	if d.off >= len(d.b) {
		return 0, d.fail()
	}
	v := d.b[d.off]
	d.off++
	return v, nil
}

func (d *walDecoder) bytes() ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.b)-d.off) {
		return nil, d.fail()
	}
	p := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return p, nil
}

func (d *walDecoder) str() (string, error) {
	p, err := d.bytes()
	return string(p), err
}

func (d *walDecoder) value() (Value, error) {
	tag, err := d.byte()
	if err != nil {
		return Null, err
	}
	switch Type(tag) {
	case TypeNull:
		return Null, nil
	case TypeInt:
		i, err := d.varint()
		return NewInt(i), err
	case TypeBool:
		i, err := d.varint()
		return boolBits(i), err
	case TypeFloat:
		if len(d.b)-d.off < 8 {
			return Null, d.fail()
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
		d.off += 8
		return NewFloat(f), nil
	case TypeText, TypeBlob:
		p, err := d.bytes()
		if err != nil {
			return Null, err
		}
		return d.textValue(Type(tag), p), nil
	default:
		return Null, d.fail()
	}
}

// textValue returns a TEXT or BLOB holding a copy of p, in the text
// arena when there is one.
func (d *walDecoder) textValue(t Type, p []byte) Value {
	switch {
	case d.text == nil && t == TypeText:
		return NewText(string(p))
	case d.text == nil:
		return NewBlob(append([]byte(nil), p...))
	case len(p) == 0:
		return Value{t: t}
	}
	start := len(d.text)
	d.text = append(d.text, p...)
	return Value{t: t, p: unsafe.Pointer(&d.text[start]), n: uint64(len(p))}
}

func (d *walDecoder) rows() ([][]Value, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	// Every row costs at least one byte, so the count cannot exceed the
	// remaining buffer; this bounds allocation on corrupt input.
	if n > uint64(len(d.b)-d.off) {
		return nil, d.fail()
	}
	rows := make([][]Value, 0, n)
	for i := uint64(0); i < n; i++ {
		nc, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if nc > uint64(len(d.b)-d.off) {
			return nil, d.fail()
		}
		row := make([]Value, 0, nc)
		for j := uint64(0); j < nc; j++ {
			v, err := d.value()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func (d *walDecoder) tableDef() (*TableDef, error) {
	name, err := d.str()
	if err != nil {
		return nil, err
	}
	nc, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if nc > uint64(len(d.b)-d.off) {
		return nil, d.fail()
	}
	def := &TableDef{Name: name}
	for i := uint64(0); i < nc; i++ {
		cn, err := d.str()
		if err != nil {
			return nil, err
		}
		ct, err := d.byte()
		if err != nil {
			return nil, err
		}
		nn, err := d.byte()
		if err != nil {
			return nil, err
		}
		def.Columns = append(def.Columns, Column{Name: cn, Type: Type(ct), NotNull: nn != 0})
	}
	np, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if np > uint64(len(d.b)-d.off)+1 {
		return nil, d.fail()
	}
	for i := uint64(0); i < np; i++ {
		pk, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if pk >= uint64(len(def.Columns)) {
			return nil, d.fail()
		}
		def.PrimaryKey = append(def.PrimaryKey, int(pk))
	}
	return def, nil
}

func (d *walDecoder) indexDef() (*IndexDef, error) {
	name, err := d.str()
	if err != nil {
		return nil, err
	}
	tbl, err := d.str()
	if err != nil {
		return nil, err
	}
	uq, err := d.byte()
	if err != nil {
		return nil, err
	}
	nc, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if nc > uint64(len(d.b)-d.off)+1 {
		return nil, d.fail()
	}
	def := &IndexDef{Name: name, Table: tbl, Unique: uq != 0}
	for i := uint64(0); i < nc; i++ {
		c, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		def.Columns = append(def.Columns, int(c))
	}
	return def, nil
}

// decodeRecordPayload parses one record payload. depth guards group
// nesting on corrupt input.
func decodeRecordPayload(p []byte, depth int) (*walRecord, error) {
	d := &walDecoder{b: p}
	op, err := d.byte()
	if err != nil {
		return nil, err
	}
	seq, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	rec := &walRecord{Op: walOp(op), Seq: seq}
	switch rec.Op {
	case opCreateTable:
		rec.Def, err = d.tableDef()
	case opCreateIndex:
		rec.Index, err = d.indexDef()
	case opDropTable:
		rec.Table, err = d.str()
	case opDropIndex:
		rec.Name, err = d.str()
	case opInsert, opDelete:
		if rec.Table, err = d.str(); err == nil {
			rec.Rows, err = d.rows()
		}
	case opUpdate:
		if rec.Table, err = d.str(); err == nil {
			if rec.OldRows, err = d.rows(); err == nil {
				rec.Rows, err = d.rows()
			}
		}
	case opGroup:
		if depth >= 2 {
			return nil, errorf("wal: group nesting too deep")
		}
		var n uint64
		if n, err = d.uvarint(); err != nil {
			return nil, err
		}
		if n > uint64(len(d.b)-d.off)+1 {
			return nil, d.fail()
		}
		for i := uint64(0); i < n; i++ {
			sub, serr := d.bytes()
			if serr != nil {
				return nil, serr
			}
			g, serr := decodeRecordPayload(sub, depth+1)
			if serr != nil {
				return nil, serr
			}
			rec.Group = append(rec.Group, g)
		}
	default:
		return nil, errorf("wal: unknown record op %d", op)
	}
	if err != nil {
		return nil, err
	}
	if d.off != len(d.b) {
		return nil, errorf("wal: %d trailing bytes in record", len(d.b)-d.off)
	}
	return rec, nil
}

// ---------------------------------------------------------------------------
// Framing

// walFrameOverhead is the per-frame header: u32 payload length, u32
// CRC32 (IEEE) of the payload.
const walFrameOverhead = 8

// maxWALFrame bounds a single frame; anything larger is treated as
// corruption rather than a multi-gigabyte allocation.
const maxWALFrame = 1 << 30

// appendFrame frames a payload: length, CRC, bytes.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// nextWALFrame validates the frame at data[off:] and returns its
// payload. A short header or payload, a zero or oversized length and a
// CRC mismatch all end the log there (ok false).
func nextWALFrame(data []byte, off int) (payload []byte, ok bool) {
	if len(data)-off < walFrameOverhead {
		return nil, false
	}
	n := int(binary.LittleEndian.Uint32(data[off:]))
	crc := binary.LittleEndian.Uint32(data[off+4:])
	if n == 0 || n > maxWALFrame || n > len(data)-off-walFrameOverhead {
		return nil, false
	}
	payload = data[off+walFrameOverhead : off+walFrameOverhead+n]
	return payload, crc32.ChecksumIEEE(payload) == crc
}

// walFrame is one frame that passed its CRC and whose header parses:
// its raw bytes (header included, so rotation can copy it verbatim) and
// the highest sequence number it carries.
type walFrame struct {
	raw    []byte
	maxSeq uint64
}

// scanWALFrames walks the valid prefix of a WAL image for rotation,
// reading only each record's op and sequence number (and, in a group,
// its members' headers) — never the rows. It stops at the first frame
// that fails its CRC or whose header does not parse.
func scanWALFrames(data []byte) (frames []walFrame, goodLen int64) {
	off := 0
	for {
		payload, ok := nextWALFrame(data, off)
		if !ok {
			break
		}
		seq, err := payloadMaxSeq(payload, 0)
		if err != nil {
			break
		}
		n := walFrameOverhead + len(payload)
		frames = append(frames, walFrame{raw: data[off : off+n], maxSeq: seq})
		off += n
	}
	return frames, int64(off)
}

// payloadMaxSeq reads a record payload's op and sequence number and
// returns the highest sequence it carries, descending into a group's
// member payloads. depth guards group nesting on corrupt input.
func payloadMaxSeq(p []byte, depth int) (uint64, error) {
	d := &walDecoder{b: p}
	op, err := d.byte()
	if err != nil {
		return 0, err
	}
	seq, err := d.uvarint()
	if err != nil || walOp(op) != opGroup {
		return seq, err
	}
	if depth >= 2 {
		return 0, errorf("wal: group nesting too deep")
	}
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	for i := uint64(0); i < n; i++ {
		sub, err := d.bytes()
		if err != nil {
			return 0, err
		}
		gs, err := payloadMaxSeq(sub, depth+1)
		if err != nil {
			return 0, err
		}
		seq = max(seq, gs)
	}
	return seq, nil
}

// scanWAL parses the valid prefix of a WAL image and returns the
// decoded records with group frames flattened, ordered by sequence
// number. The first torn frame (short header or payload), CRC mismatch,
// zero/oversized length or undecodable payload ends the scan.
// Corruption never yields an error — the log is simply truncated at
// the last good frame, which is exactly the recovery semantics a torn
// tail needs. Group frames land in the file when the group closes,
// which may be after later independent commits; sequence numbers
// restore commit order for replay.
func scanWAL(data []byte) (records []*walRecord, goodLen int64) {
	off := 0
	for {
		payload, ok := nextWALFrame(data, off)
		if !ok {
			break
		}
		rec, err := decodeRecordPayload(payload, 0)
		if err != nil {
			break
		}
		if rec.Op == opGroup {
			records = append(records, rec.Group...)
		} else {
			records = append(records, rec)
		}
		off += walFrameOverhead + len(payload)
	}
	sort.SliceStable(records, func(i, j int) bool { return records[i].Seq < records[j].Seq })
	return records, int64(off)
}

// ---------------------------------------------------------------------------
// Replay

// applyRecord replays one logical record against the database. The
// commit logger must not be attached while replaying (records would be
// re-logged); OpenDurable attaches it only after recovery completes.
func (db *Database) applyRecord(rec *walRecord) error {
	switch rec.Op {
	case opCreateTable:
		return db.CreateTableDef(*rec.Def)
	case opCreateIndex:
		return db.createIndexDef(*rec.Index)
	case opDropTable:
		return db.dropTable(rec.Table)
	case opDropIndex:
		return db.dropIndex(rec.Name)
	case opInsert:
		return db.applyInsert(rec.Table, rec.Rows)
	case opDelete:
		return db.applyDelete(rec.Table, rec.Rows)
	case opUpdate:
		return db.applyUpdate(rec.Table, rec.OldRows, rec.Rows)
	case opGroup:
		for _, g := range rec.Group {
			if err := db.applyRecord(g); err != nil {
				return err
			}
		}
		return nil
	}
	return errorf("wal: unknown record op %d", rec.Op)
}

// applyInsert replays an insert-effect batch: rows are already coerced
// and were valid when logged.
func (db *Database) applyInsert(tableName string, rows [][]Value) error {
	tx := db.beginWrite()
	tbl := tx.wtable(tableName)
	if tbl == nil {
		tx.abort()
		return errorf("wal: insert into missing table %s", tableName)
	}
	for _, row := range rows {
		if len(row) != len(tbl.def.Columns) {
			tx.abort()
			return errorf("wal: insert arity mismatch for %s", tableName)
		}
		if _, err := tbl.insert(row); err != nil {
			tx.abort()
			return fmt.Errorf("sqldb: wal replay: %w", err)
		}
	}
	return tx.commit(nil)
}

// rowImageKey renders a row as a comparable byte string for image
// matching during replay.
func rowImageKey(row []Value) string {
	e := &walEncoder{}
	e.uvarint(uint64(len(row)))
	for _, v := range row {
		e.value(v)
	}
	return string(e.b)
}

// imageIndex maps row images to the live rowids currently holding
// them, so replaying a large delete/update batch is linear, not
// quadratic.
func imageIndex(tbl *table) map[string][]int64 {
	m := map[string][]int64{}
	var ref pageRef
	defer ref.release()
	for rid := int64(0); rid < tbl.slotCount(); rid++ {
		row := tbl.rowRef(rid, &ref)
		if row == nil {
			continue
		}
		k := rowImageKey(row)
		m[k] = append(m[k], rid)
	}
	return m
}

func popImage(m map[string][]int64, key string) (int64, bool) {
	rids := m[key]
	if len(rids) == 0 {
		return 0, false
	}
	rid := rids[len(rids)-1]
	if len(rids) == 1 {
		delete(m, key)
	} else {
		m[key] = rids[:len(rids)-1]
	}
	return rid, true
}

// applyDelete replays a delete-effect batch by matching row images.
func (db *Database) applyDelete(tableName string, images [][]Value) error {
	tx := db.beginWrite()
	tbl := tx.wtable(tableName)
	if tbl == nil {
		tx.abort()
		return errorf("wal: delete from missing table %s", tableName)
	}
	idx := imageIndex(tbl)
	for _, img := range images {
		rid, ok := popImage(idx, rowImageKey(img))
		if !ok {
			tx.abort()
			return errorf("wal: delete image not found in %s", tableName)
		}
		tbl.delete(rid)
	}
	return tx.commit(nil)
}

// applyUpdate replays an update-effect batch of (old, new) image pairs.
func (db *Database) applyUpdate(tableName string, oldImages, newImages [][]Value) error {
	tx := db.beginWrite()
	tbl := tx.wtable(tableName)
	if tbl == nil {
		tx.abort()
		return errorf("wal: update of missing table %s", tableName)
	}
	if len(oldImages) != len(newImages) {
		tx.abort()
		return errorf("wal: update image pair mismatch for %s", tableName)
	}
	idx := imageIndex(tbl)
	for i, img := range oldImages {
		rid, ok := popImage(idx, rowImageKey(img))
		if !ok {
			tx.abort()
			return errorf("wal: update image not found in %s", tableName)
		}
		newRow := newImages[i]
		if len(newRow) != len(tbl.def.Columns) {
			tx.abort()
			return errorf("wal: update arity mismatch for %s", tableName)
		}
		if err := tbl.update(rid, newRow); err != nil {
			tx.abort()
			return fmt.Errorf("sqldb: wal replay: %w", err)
		}
		k := rowImageKey(newRow)
		idx[k] = append(idx[k], rid)
	}
	return tx.commit(nil)
}
