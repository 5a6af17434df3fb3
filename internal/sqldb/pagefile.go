package sqldb

// On-disk heap-page format. A pages file is an append-only array of
// fixed-size slots; a page occupies one or more consecutive slots (a
// chain) depending on its encoded size. Only the chain's first slot
// carries a header:
//
//	u32  CRC32 (IEEE) of the payload
//	u64  page id — the 1-based index of this first slot, cross-checked
//	     on read so a stale pointer can never deliver the wrong page
//	u32  payload length in bytes
//
// The payload is the page's row slots in order, each encoded as a
// uvarint column count biased by one (0 = nil tombstone, n+1 = n
// columns) followed by the WAL value codec for every column; a
// snapshot inlines the same payload for pages it does not reference.
// Sealed pages are immutable, so a page is written into a file at most
// once and slots are never reused in place. A checkpoint that finds
// more dead than live bytes in the current file copies the live pages
// into a fresh one (pageStore.checkpoint), which bounds the file.

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"slices"
	"unsafe"
)

const (
	// pageSlotSize is the fixed on-disk slot granule. 4 KiB keeps the
	// padding of a chain's last slot under 4 KiB per page; a typical
	// 512-row page of shredded tuples chains across a few slots.
	pageSlotSize = 4 * 1024
	// pageSlotHeader is the first-slot header: CRC, page id, length.
	pageSlotHeader = 4 + 8 + 4
)

// pageSlotsFor returns how many consecutive slots a payload needs.
func pageSlotsFor(payloadLen int) int {
	return (payloadLen + pageSlotHeader + pageSlotSize - 1) / pageSlotSize
}

// encodeRows renders row slots as a page payload and records in offs,
// when non-nil, where each live slot starts plus one. The payload is
// returned as an exact copy: a sealed page keeps it as its resident
// form, so any slack would stay allocated as long as the page.
func encodeRows(rows [][]Value, offs *[heapPageSize]uint32) []byte {
	e := &walEncoder{}
	for i, row := range rows {
		if row == nil {
			e.uvarint(0)
			continue
		}
		if offs != nil {
			offs[i] = uint32(len(e.b)) + 1
		}
		e.uvarint(uint64(len(row)) + 1)
		for _, v := range row {
			e.value(v)
		}
	}
	return slices.Clone(e.b)
}

// framePageImage wraps a payload in the slot chain image written at
// slot pid (1-based): header + payload. The rest of the chain's last
// slot is never written, so a read of the last image in a file may stop
// short at end of file.
func framePageImage(pid int64, payload []byte) []byte {
	img := make([]byte, pageSlotHeader+len(payload))
	binary.LittleEndian.PutUint32(img[0:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint64(img[4:], uint64(pid))
	binary.LittleEndian.PutUint32(img[12:], uint32(len(payload)))
	copy(img[pageSlotHeader:], payload)
	return img
}

// pageImagePayload validates a slot chain image read from slot pid and
// returns its payload.
func pageImagePayload(pid int64, img []byte) ([]byte, error) {
	if len(img) < pageSlotHeader {
		return nil, errorf("pagefile: short page %d: %d bytes", pid, len(img))
	}
	crc := binary.LittleEndian.Uint32(img[0:])
	gotPid := binary.LittleEndian.Uint64(img[4:])
	plen := binary.LittleEndian.Uint32(img[12:])
	if gotPid != uint64(pid) {
		return nil, errorf("pagefile: page id mismatch: slot %d holds page %d", pid, gotPid)
	}
	if int(plen) > len(img)-pageSlotHeader {
		return nil, errorf("pagefile: page %d length %d exceeds chain", pid, plen)
	}
	payload := img[pageSlotHeader : pageSlotHeader+int(plen)]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, errorf("pagefile: page %d checksum mismatch", pid)
	}
	return payload, nil
}

// A faulted page's frame is its checked payload (see pageFrame).
// scanPagePayload is the check: one pass over the payload that records
// where every live slot starts and applies every bound and tag check a
// decode would, so a corrupt page fails when it is faulted in, on the
// one operation that needed it, and never on a later row access.
// Decoded TEXT and BLOB values point into the image, which is
// allocated per read and owned by the frame alone.

// scanPagePayload checks at most limit row slots of a page payload and
// returns a sealed frame over it; more slots than that is corruption.
// No row is decoded.
func scanPagePayload(pid int64, payload []byte, limit int) (*pageFrame, error) {
	if uint64(len(payload)) >= math.MaxUint32 { // slot offsets are stored plus one in 32 bits
		return nil, errorf("pagefile: page %d: payload too large (%d bytes)", pid, len(payload))
	}
	f := &pageFrame{img: payload}
	b := payload
	for i, off := 0, 0; off < len(b); i++ {
		if i == limit {
			return nil, errorf("pagefile: page %d: more than %d row slots", pid, limit)
		}
		start := off
		nc, n := pageUvarint(b, off)
		if n <= 0 {
			return nil, errorf("pagefile: page %d slot %d: corrupt", pid, i)
		}
		off += n
		if nc == 0 {
			continue // tombstone
		}
		nc--
		if nc > uint64(len(b)-off)+1 {
			return nil, errorf("pagefile: page %d slot %d: corrupt arity", pid, i)
		}
		for ; nc > 0; nc-- {
			if off = skipValue(b, off); off < 0 {
				return nil, errorf("pagefile: page %d slot %d: corrupt value", pid, i)
			}
		}
		f.offs[i] = uint32(start) + 1
	}
	return f, nil
}

// skipValue returns the offset just past the WAL-codec value at off, or
// -1 where walDecoder.value would fail or where a varint is longer than
// the encoder writes it.
func skipValue(b []byte, off int) int {
	if off+1 >= len(b) {
		if off+1 == len(b) && b[off] == byte(TypeNull) {
			return off + 1
		}
		return -1
	}
	switch Type(b[off]) {
	case TypeNull:
		return off + 1
	case TypeInt, TypeBool:
		off++
		for i := off; i < len(b) && i-off < binary.MaxVarintLen64; i++ {
			if c := b[i]; c < 0x80 {
				if i > off && (c == 0 || i-off == binary.MaxVarintLen64-1 && c > 1) {
					return -1
				}
				return i + 1
			}
		}
	case TypeFloat:
		if len(b)-off > 8 {
			return off + 9
		}
	case TypeText, TypeBlob:
		if l := int(b[off+1]); l < 0x80 {
			if l <= len(b)-off-2 {
				return off + 2 + l
			}
		} else if l, n := pageUvarint(b, off+1); n > 0 && l <= uint64(len(b)-off-1-n) {
			return off + 1 + n + int(l)
		}
	}
	return -1
}

// pageUvarint reads the uvarint at b[off:]. n <= 0 where
// binary.Uvarint fails, and also for an encoding longer than needed:
// the encoder never writes one, and rejecting it keeps a checked
// payload the one encoding of its rows.
func pageUvarint(b []byte, off int) (v uint64, n int) {
	v, n = binary.Uvarint(b[off:])
	if n > 1 && b[off+n-1] == 0 {
		return 0, -1
	}
	return v, n
}

// slotWidth is the column count of the live row slot starting at off of
// a checked payload.
func slotWidth(b []byte, off int) int {
	nc, _ := binary.Uvarint(b[off:])
	return int(nc - 1)
}

// decodeSlotInto decodes the live row slot starting at off of a payload
// scanPagePayload checked, so it meets no malformed byte, into dst's
// array when it holds the row's columns, and into a new row of exactly
// their number when it does not (or is nil). Its TEXT and BLOB values
// point into the payload.
func decodeSlotInto(dst []Value, b []byte, off int) []Value {
	// Most arities, lengths and integers are one byte: those skip the
	// call to binary.Uvarint.
	nc, n := uint64(b[off]), 1
	if nc >= 0x80 {
		nc, n = binary.Uvarint(b[off:])
	}
	off += n
	if dst == nil || uint64(cap(dst)) < nc-1 {
		dst = make([]Value, nc-1)
	}
	row := dst[:nc-1]
	for j := range row {
		t := Type(b[off])
		off++
		switch t {
		case TypeNull:
			row[j] = Null
		case TypeInt, TypeBool:
			u, n := uint64(b[off]), 1
			if u >= 0x80 {
				u, n = binary.Uvarint(b[off:])
			}
			off += n
			row[j] = tagged(t, u>>1^-(u&1)) // zigzag, as binary.Varint
		case TypeFloat:
			row[j] = tagged(t, binary.LittleEndian.Uint64(b[off:]))
			off += 8
		case TypeText, TypeBlob:
			l, n := uint64(b[off]), 1
			if l >= 0x80 {
				l, n = binary.Uvarint(b[off:])
			}
			off += n
			var p unsafe.Pointer
			if l > 0 {
				p = unsafe.Pointer(&b[off])
			}
			row[j] = bytesValue(t, p, l)
			off += int(l)
		}
	}
	return row
}
