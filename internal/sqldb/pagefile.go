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

// encodePageFrame renders a frame's first n row slots as a page
// payload. n bounds the encoded slots to the table's allocated rowids
// so a partial tail page never persists junk beyond the heap.
func encodePageFrame(f *pageFrame, n int) []byte {
	e := &walEncoder{}
	for i := 0; i < n; i++ {
		row := f.rows[i]
		if row == nil {
			e.uvarint(0)
			continue
		}
		e.uvarint(uint64(len(row)) + 1)
		for _, v := range row {
			e.value(v)
		}
	}
	return e.b
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

// decodePagePayload decodes at most limit row slots of a page payload
// into a fresh frame; more slots than that is corruption.
//
// A page decodes into two arenas: every row is a capacity-capped window
// of one []Value, and every TEXT or BLOB points into one byte arena.
// Those bytes are copied out of the payload, so an arena of the
// payload's length never reallocates under the values pointing into it.
func decodePagePayload(pid int64, payload []byte, limit int) (*pageFrame, error) {
	d := &walDecoder{b: payload, text: make([]byte, 0, len(payload))}
	f := &pageFrame{}
	var vals []Value
	for i := 0; d.off < len(d.b); i++ {
		if i == limit {
			return nil, errorf("pagefile: page %d: more than %d row slots", pid, limit)
		}
		nc, err := d.uvarint()
		if err != nil {
			return nil, errorf("pagefile: page %d slot %d: corrupt", pid, i)
		}
		if nc == 0 {
			continue // tombstone
		}
		nc--
		rest := len(d.b) - d.off
		if nc > uint64(rest)+1 {
			return nil, errorf("pagefile: page %d slot %d: corrupt arity", pid, i)
		}
		if n := int(nc); n > len(vals) {
			// Size the arena for every remaining slot at this arity; a
			// value takes at least one payload byte, which caps the guess.
			vals = make([]Value, min((limit-i)*n, rest+1))
		}
		row := vals[:nc:nc]
		vals = vals[nc:]
		for j := range row {
			v, err := d.value()
			if err != nil {
				return nil, errorf("pagefile: page %d slot %d: corrupt value", pid, i)
			}
			row[j] = v
		}
		f.rows[i] = row
	}
	return f, nil
}
