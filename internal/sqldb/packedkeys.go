package sqldb

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"strings"
)

// packedKeys is a B-tree node's sorted run of (key, rowid) pairs — a
// leaf's entries or an inner node's separators — in one array that
// holds no Go pointer, so the garbage collector never scans it and a
// node's keys are one allocation however many it holds. The array
// holds, in order:
//
//   - offs: c+1 offsets of ew bytes each; key i's suffix lies between
//     offs[i] and offs[i+1] among the suffix bytes, and offs[0] is 0;
//   - rids: c rowids of rw bytes each, as their excess over base;
//   - runPad bytes, so that every field reads as one 4- or 8-byte load;
//   - prefix: the bytes every key of the run starts with, stored once;
//   - suffix: each key's bytes after the prefix, back to back, up to
//     len(b); the capacity past that is room for more.
//
// n of the c entry slots are used. The widths are the node's own: ew is
// 1, 2 or 4 bytes, enough for the suffix bytes the run holds, and rw 1,
// 2, 4 or 8, enough for its rowids' spread above base, which is at most
// every rowid of the run. A run packed whole (a bottom-up build, a
// split) takes the narrowest widths and its least rowid as base. All
// little-endian. An insert that finds no room, or needs a wider field
// or a lower base, lays the run out again in a new array (repack); a
// delete never does. Offsets are at most 32 bits, so a run holds at
// most 4 GiB of suffix bytes, 64 keys of 64 MiB. The zero value is an
// empty run.
//
// The prefix is always the longest the run's first and last keys
// share, which for keys in order is the longest all of them share. It
// shrinks when a key that does not share it joins at either end, and
// grows when an end key leaves or a split parts the run.
//
// A run owns its array: no two runs share one, so a run changes in
// place, and copy-on-write copies it (clone). Key bytes are copied in;
// nothing a caller passes is retained.
type packedKeys struct {
	b      []byte
	base   int64  // every rowid is base plus its stored excess
	ka, sa uint32 // where the prefix and the suffix bytes start in b
	n, c   uint16 // entries held, entries there is room for
	ew, rw uint8  // bytes per offset, per rowid excess
}

// runPad is how many bytes follow a run's rowids, so that an 8-byte load
// at the last rowid or at the last offset but one stays inside the
// array.
const runPad = 7

func (r *packedKeys) len() int { return int(r.n) }

// ridAt returns where the rowids start in b, past the offsets, keyAt
// where the prefix starts and sufAt where the suffix bytes do.
func (r *packedKeys) ridAt() int { return (int(r.c) + 1) * int(r.ew) }

func (r *packedKeys) keyAt() int { return int(r.ka) }

func (r *packedKeys) sufAt() int { return int(r.sa) }

// pre returns the shared prefix and suf key i's suffix, as views into
// the run that are good only until it next changes.
func (r *packedKeys) pre() string { return keyView(r.b[r.ka:r.sa]) }

func (r *packedKeys) suf(i int) string {
	// Offsets i and i+1 are read as one eight-byte load.
	w := uint(r.ew)
	x := binary.LittleEndian.Uint64(r.b[i*int(w):])
	m := widthMask[w&15]
	sa := uint64(r.sa)
	return keyView(r.b[sa+x&m : sa+x>>(8*w&63)&m])
}

// sufLen returns how many suffix bytes the run holds.
func (r *packedKeys) sufLen() int { return len(r.b) - r.sufAt() }

// start returns where key i's suffix starts among the suffix bytes, and
// end where it ends.
func (r *packedKeys) start(i int) int { return r.off(i) }

func (r *packedKeys) end(i int) int { return r.off(i + 1) }

// off returns offset i, read as four bytes and masked to the width.
func (r *packedKeys) off(i int) int {
	return int(binary.LittleEndian.Uint32(r.b[i*int(r.ew):]) & uint32(widthMask[r.ew&15]))
}

// widthMask keeps the low w bytes of a word, by w.
var widthMask = [16]uint64{1: 0xff, 2: 0xffff, 4: 0xffff_ffff, 8: 0xffff_ffff_ffff_ffff}

func (r *packedKeys) setEnd(i, end int) { putUintAt(r.b, (i+1)*int(r.ew), r.ew, uint64(end)) }

// addEnds adds d to the ends of keys [from, to).
func (r *packedKeys) addEnds(from, to, d int) {
	b := r.b
	switch r.ew {
	case 1:
		for j := from + 1; j <= to; j++ {
			b[j] += byte(d)
		}
	case 2:
		for o := 2 * (from + 1); o <= 2*to; o += 2 {
			binary.LittleEndian.PutUint16(b[o:], binary.LittleEndian.Uint16(b[o:])+uint16(d))
		}
	default:
		for o := 4 * (from + 1); o <= 4*to; o += 4 {
			binary.LittleEndian.PutUint32(b[o:], binary.LittleEndian.Uint32(b[o:])+uint32(d))
		}
	}
}

// rid returns entry i's rowid, its excess read as eight bytes and
// masked to the width.
func (r *packedKeys) rid(i int) int64 {
	x := binary.LittleEndian.Uint64(r.b[r.ridAt()+i*int(r.rw):])
	return r.base + int64(x&widthMask[r.rw&15])
}

func (r *packedKeys) setRid(i int, rid int64) {
	putUintAt(r.b, r.ridAt()+i*int(r.rw), r.rw, uint64(rid-r.base))
}

// moveSlots moves the offsets and rowids of entries [from, to) by one
// slot: up (d = 1) to open slot from, or down (d = -1) over slot
// from-1. Opened offsets are set by the caller.
func (r *packedKeys) moveSlots(from, to, d int) {
	ew, ro, rw := int(r.ew), r.ridAt(), int(r.rw)
	copy(r.b[(from+1+d)*ew:(to+1+d)*ew], r.b[(from+1)*ew:(to+1)*ew])
	copy(r.b[ro+(from+d)*rw:ro+(to+d)*rw], r.b[ro+from*rw:ro+to*rw])
}

// holds reports whether rid fits the run's rowid field.
func (r *packedKeys) holds(rid int64) bool {
	return rid >= r.base && widthFor(uint64(rid-r.base)) <= r.rw
}

// ridRange returns the least and greatest rowid of entries [lo, hi),
// which must not be empty.
func (r *packedKeys) ridRange(lo, hi int) (least, most int64) {
	least, most = r.rid(lo), r.rid(lo)
	for i := lo + 1; i < hi; i++ {
		least, most = min(least, r.rid(i)), max(most, r.rid(i))
	}
	return least, most
}

// putUintAt writes v as a w-byte number at b[o:].
func putUintAt(b []byte, o int, w uint8, v uint64) {
	switch w {
	case 1:
		b[o] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b[o:], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b[o:], uint32(v))
	default:
		binary.LittleEndian.PutUint64(b[o:], v)
	}
}

// widthFor returns the fewest of 1, 2, 4 and 8 bytes that hold v.
func widthFor(v uint64) uint8 {
	switch {
	case v <= math.MaxUint8:
		return 1
	case v <= math.MaxUint16:
		return 2
	case v <= math.MaxUint32:
		return 4
	}
	return 8
}

// key returns key i as a string of its own.
func (r *packedKeys) key(i int) string { return r.pre() + r.suf(i) }

// appendKey appends key i to dst.
func (r *packedKeys) appendKey(dst []byte, i int) []byte {
	return append(append(dst, r.pre()...), r.suf(i)...)
}

// equal reports whether entry i is (key, rid).
func (r *packedKeys) equal(i int, key string, rid int64) bool {
	return r.rid(i) == rid && equalParts(r.pre(), r.suf(i), key)
}

// search returns the first index i whose entry compares to (key, rid)
// by at least strict (0: >=, 1: >).
func (r *packedKeys) search(key string, rid int64, strict int) int {
	lo, hi := 0, r.len()
	// Unless key starts with the prefix, the prefix alone orders it
	// against every key of the run.
	p := r.pre()
	if !strings.HasPrefix(key, p) {
		if p < key {
			return hi
		}
		return lo
	}
	rest := key[len(p):]
	// Keys often come in order — a document loads in document order —
	// so the last entry is tried first.
	if hi == 0 || r.cmpRest(hi-1, rest, rid) < strict {
		return hi
	}
	hi--
	for lo < hi {
		mid := (lo + hi) / 2
		if r.cmpRest(mid, rest, rid) < strict {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// cmpRest orders entry i against (key, rid) for a key that starts with
// the prefix and goes on with rest.
func (r *packedKeys) cmpRest(i int, rest string, rid int64) int {
	if c := keyCompare(r.suf(i), rest); c != 0 {
		return c
	}
	return cmp.Compare(r.rid(i), rid)
}

// cmpBound returns prefixCompare(key i, bound); all reports that the
// prefix alone decided it, so every key of the run compares alike.
func (r *packedKeys) cmpBound(i int, bound string) (c int, all bool) {
	rest, c, decided := r.cutBound(bound)
	if decided {
		return c, true
	}
	return prefixCompare(r.suf(i), rest), false
}

// cutBound compares bound with the run's prefix. When that decides how
// every key of the run compares to bound under prefixCompare, decided
// is set and c is the result; else each key compares as its suffix
// does to rest.
func (r *packedKeys) cutBound(bound string) (rest string, c int, decided bool) {
	p := r.pre()
	if len(bound) <= len(p) {
		return "", prefixCompare(p, bound), true
	}
	if c := keyCompare(p, bound[:len(p)]); c != 0 {
		return "", c, true
	}
	return bound[len(p):], 0, false
}

// bisectAbove returns the first index whose key prefix compares above
// bound by at least strict (0: >=, 1: >), r.len() when there is none.
func (r *packedKeys) bisectAbove(bound string, strict int) int {
	rest, c, decided := r.cutBound(bound)
	if decided {
		if c < strict {
			return r.len()
		}
		return 0
	}
	return r.bisectRest(0, r.len(), rest, strict)
}

// bisectRest is bisectAbove past the cut, over [lo, hi): it compares
// suffixes to rest.
func (r *packedKeys) bisectRest(lo, hi int, rest string, strict int) int {
	for lo < hi {
		mid := (lo + hi) / 2
		if prefixCompare(r.suf(mid), rest) < strict {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// firstAbove is bisectAbove over the keys from from on, for a target
// near from: it gallops — from, from+1, from+3, from+7, … — and then bisects the
// last step, so a position k keys on costs O(log k) comparisons.
func (r *packedKeys) firstAbove(from int, bound string, strict int) int {
	rest, c, decided := r.cutBound(bound)
	if decided {
		if c < strict {
			return r.len()
		}
		return from
	}
	lo, hi, step := from, from, 1
	for hi < r.len() && prefixCompare(r.suf(hi), rest) < strict {
		lo = hi + 1
		hi += step
		step *= 2
	}
	return r.bisectRest(lo, min(hi, r.len()), rest, strict)
}

// sharedLen returns the number of leading bytes key i and key share.
func (r *packedKeys) sharedLen(i int, key string) int {
	p := r.pre()
	if n := commonPrefixLen(p, key); n < len(p) {
		return n
	}
	return len(p) + commonPrefixLen(r.suf(i), key[len(p):])
}

// insert puts (key, rid) at position i, which must keep the run in
// order.
func (r *packedKeys) insert(i int, key string, rid int64) {
	if r.len() == 0 {
		// A run a split left empty has its room and widths laid out; any
		// other starts with room for four entries, as repack grows one.
		if r.c == 0 || cap(r.b) < r.keyAt()+len(key) {
			*r = layout(key, 4, 1, 1, rid, 0)
		} else {
			r.b = append(r.b[:r.keyAt()], key...)
			r.sa, r.base = uint32(len(r.b)), rid
		}
		r.push("", rid)
		return
	}
	// A key between two of the run's keys shares their prefix; one at
	// either end may not, and the prefix is cut to what it shares.
	p := r.pre()
	m := len(p)
	if !strings.HasPrefix(key, p) {
		m = commonPrefixLen(key, p)
	}
	cut := len(p) - m
	size := r.sufLen() + r.len()*cut + len(key) - m
	checkRunBytes(size)
	if r.len() == int(r.c) || r.keyAt()+m+size > cap(r.b) || widthFor(uint64(size)) > r.ew || !r.holds(rid) {
		r.repack(size, rid)
	}
	if cut > 0 {
		r.cutPrefix(m)
	}
	rest := key[m:]
	n, at, count := len(rest), r.start(i), r.len()
	r.b = r.b[:len(r.b)+n]
	s := r.b[r.sufAt():]
	copy(s[at+n:], s[at:len(s)-n])
	copy(s[at:], rest)
	r.moveSlots(i, count, 1)
	r.n++
	r.addEnds(i+1, r.len(), n)
	r.setEnd(i, at+n)
	r.setRid(i, rid)
}

// repack lays the run out again in a new array, for an insert of rid
// after which it holds size suffix bytes: offsets wide enough for size,
// rowids for rid, room for a quarter more entries when the run is full
// (an inner node holds one more than the order before it splits) and a
// quarter more suffix bytes when they do not fit. A run grows by a
// quarter, not by the doubling append does: a leaf a split left half
// full often takes only a key or two more, when a key arrives after
// others that sort above it. Fields that keep their width and base are
// copied whole.
func (r *packedKeys) repack(size int, rid int64) {
	n, c := r.len(), int(r.c)
	if n == c {
		c = max(n+1, min(n+max(n/4, 4), btreeOrder+1))
	}
	room := cap(r.b) - r.sufAt()
	if size > room {
		room = max(size, r.sufLen()+r.sufLen()/4)
	}
	base, rw := r.base, max(r.rw, widthFor(uint64(rid-r.base)))
	if rid < r.base {
		_, most := r.ridRange(0, n)
		base, rw = rid, widthFor(uint64(most-rid))
	}
	out := layout(r.pre(), c, max(r.ew, widthFor(uint64(size))), rw, base, room)
	out.b = append(out.b, r.b[r.sufAt():]...)
	out.n = r.n
	if out.ew == r.ew {
		copy(out.b, r.b[:(n+1)*int(r.ew)])
	} else {
		for j := range n {
			out.setEnd(j, r.end(j))
		}
	}
	if out.base == r.base && out.rw == r.rw {
		copy(out.b[out.ridAt():], r.b[r.ridAt():r.ridAt()+n*int(r.rw)])
	} else {
		for j := range n {
			out.setRid(j, r.rid(j))
		}
	}
	*r = out
}

// cutPrefix cuts the prefix to its first m bytes in place, moving the
// rest to the front of every suffix; the array must have room for them
// and the offsets width.
func (r *packedKeys) cutPrefix(m int) {
	from, sa := r.sufAt(), r.keyAt()+m
	cut := from - sa
	r.b = r.b[:sa+r.sufLen()+r.len()*cut]
	// Last key first: a key lands at or right of where it lay, on bytes
	// of later keys, which have moved already. The cut bytes are read in
	// place to the end: key 0, which lands where it lay, writes them
	// over themselves.
	for j := r.len() - 1; j >= 0; j-- {
		start, end := r.start(j), r.end(j)
		to := sa + start + j*cut
		copy(r.b[to+cut:], r.b[from+start:from+end])
		copy(r.b[to:to+cut], r.b[sa:from])
		r.setEnd(j, end+(j+1)*cut)
	}
	r.sa = uint32(sa)
}

// delete removes entry i.
func (r *packedKeys) delete(i int) {
	start, end := r.start(i), r.end(i)
	s := r.b[r.sufAt():]
	copy(s[start:], s[end:])
	r.b = r.b[:len(r.b)-(end-start)]
	r.moveSlots(i+1, r.len(), -1)
	r.n--
	r.addEnds(i, r.len(), start-end)
	switch {
	case r.n == 0:
		r.b, r.sa = r.b[:r.keyAt()], r.ka
	case i == 0 || i == r.len():
		r.grow()
	}
}

// grow extends the prefix by the bytes the first and last suffixes
// share, cutting them from the front of every suffix. The first
// suffix's bytes follow the prefix, so the prefix takes them where they
// lie.
func (r *packedKeys) grow() {
	g := commonPrefixLen(r.suf(0), r.suf(r.len()-1))
	if g == 0 {
		return
	}
	from := r.sufAt()
	sa := from + g
	w, start := 0, 0
	for j := range r.len() {
		end := r.end(j)
		w += copy(r.b[sa+w:], r.b[from+start+g:from+end])
		start = end
		r.setEnd(j, w)
	}
	r.b, r.sa = r.b[:sa+w], uint32(sa)
}

// layout returns an empty run under prefix with room for c entries and
// room suffix bytes, its offsets ew bytes wide and its rowids base plus
// rw bytes.
func layout(prefix string, c int, ew, rw uint8, base int64, room int) packedKeys {
	at := (c+1)*int(ew) + c*int(rw) + runPad
	if c > math.MaxUint16 || uint64(at+len(prefix)) > math.MaxUint32 {
		panic(errorf("index node of %d keys under a %d-byte prefix is over what a node addresses", c, len(prefix)))
	}
	b := make([]byte, at+len(prefix), at+len(prefix)+room)
	copy(b[at:], prefix)
	return packedKeys{b: b, base: base, ka: uint32(at), sa: uint32(len(b)), c: uint16(c), ew: ew, rw: rw}
}

// push appends an entry whose suffix is suf after the run's last; the
// run must have a slot for it and fields wide enough.
func (r *packedKeys) push(suf string, rid int64) {
	r.b = append(r.b, suf...)
	r.n++
	r.setEnd(r.len()-1, r.sufLen())
	r.setRid(r.len()-1, rid)
}

// slice returns entries [lo, hi) as a run of their own, laid out for
// exactly them.
func (r *packedKeys) slice(lo, hi int) packedKeys {
	if lo == hi {
		return packedKeys{}
	}
	g := commonPrefixLen(r.suf(lo), r.suf(hi-1))
	size := r.end(hi-1) - r.start(lo) - (hi-lo)*g
	least, most := r.ridRange(lo, hi)
	out := layout(r.pre()+r.suf(lo)[:g], hi-lo, widthFor(uint64(size)), widthFor(uint64(most-least)), least, size)
	for j := lo; j < hi; j++ {
		out.push(r.suf(j)[g:], r.rid(j))
	}
	return out
}

// clone returns a copy of r that shares no array with it.
func (r *packedKeys) clone() packedKeys {
	c := *r
	c.b = slices.Clone(r.b)
	return c
}

// packKeys packs entries, which must be in order, into a run laid out
// for exactly them.
func packKeys(entries []btreeEntry) packedKeys {
	if len(entries) == 0 {
		return packedKeys{}
	}
	p := commonPrefixLen(entries[0].key, entries[len(entries)-1].key)
	size := 0
	least, most := entries[0].rid, entries[0].rid
	for _, e := range entries {
		size += len(e.key) - p
		least, most = min(least, e.rid), max(most, e.rid)
	}
	checkRunBytes(size)
	r := layout(entries[0].key[:p], len(entries), widthFor(uint64(size)), widthFor(uint64(most-least)), least, size)
	for _, e := range entries {
		r.push(e.key[p:], e.rid)
	}
	return r
}

// checkRunBytes panics when a run would hold more suffix bytes than its
// 32-bit offsets address.
func checkRunBytes(n int) {
	if uint64(n) > math.MaxUint32 {
		panic(errorf("index node would hold %d bytes of keys, over the 4 GiB a node addresses", n))
	}
}

// commonPrefixLen returns the number of leading bytes a and b share.
func commonPrefixLen(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
