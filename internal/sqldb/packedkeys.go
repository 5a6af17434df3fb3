package sqldb

import (
	"cmp"
	"math"
	"slices"
	"strings"
)

// packedKeys is a B-tree node's sorted run of (key, rowid) pairs — a
// leaf's entries or an inner node's separators — in four arrays that
// hold no Go pointers, so the garbage collector never scans them and a
// run costs four slice headers however many keys it holds:
//
//   - prefix: the bytes every key of the run starts with, stored once;
//   - suffix: each key's bytes after the prefix, back to back;
//   - ends: ends[i] is where key i's suffix ends in suffix;
//   - rids: the rowids.
//
// The prefix is always the longest the run's first and last keys
// share, which for keys in order is the longest all of them share. It
// shrinks when a key that does not share it joins at either end, and
// grows when an end key leaves or a split parts the run.
//
// A run owns its arrays: no two runs share one, so a run changes in
// place, and copy-on-write copies all four (clone). Where a run
// allocates prefix and suffix together, one array holds both (carve).
// Key bytes are copied in; nothing a caller passes is retained. Offsets
// are 32-bit, so a run holds at most 4 GiB of suffix bytes, 64 keys of
// 64 MiB.
type packedKeys struct {
	prefix []byte
	suffix []byte
	ends   []uint32
	rids   []int64
}

func (r *packedKeys) len() int { return len(r.rids) }

// pre returns the shared prefix and suf key i's suffix, as views into
// the run that are good only until it next changes.
func (r *packedKeys) pre() string { return keyView(r.prefix) }

func (r *packedKeys) suf(i int) string { return keyView(r.suffix[r.start(i):r.ends[i]]) }

// start returns where key i's suffix starts in suffix.
func (r *packedKeys) start(i int) int {
	if i == 0 {
		return 0
	}
	return int(r.ends[i-1])
}

// key returns key i as a string of its own.
func (r *packedKeys) key(i int) string { return r.pre() + r.suf(i) }

// appendKey appends key i to dst.
func (r *packedKeys) appendKey(dst []byte, i int) []byte {
	return append(append(dst, r.prefix...), r.suf(i)...)
}

// equal reports whether entry i is (key, rid).
func (r *packedKeys) equal(i int, key string, rid int64) bool {
	return r.rids[i] == rid && equalParts(r.pre(), r.suf(i), key)
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
	return cmp.Compare(r.rids[i], rid)
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
		r.prefix = append(r.prefix[:0], key...)
		r.ends = append(r.ends, 0)
		r.rids = append(r.rids, rid)
		return
	}
	// A key between two of the run's keys shares their prefix; one at
	// either end may not.
	if !strings.HasPrefix(key, r.pre()) {
		r.shrink(commonPrefixLen(key, r.pre()), len(key))
	}
	rest := key[len(r.prefix):]
	n, at := len(rest), r.start(i)
	checkRunBytes(len(r.suffix) + n)
	r.reserve(n)
	r.suffix = append(r.suffix, rest...)
	copy(r.suffix[at+n:], r.suffix[at:])
	copy(r.suffix[at:], rest)
	r.ends = append(r.ends, 0)
	copy(r.ends[i+1:], r.ends[i:])
	r.ends[i] = uint32(at)
	for j, end := range r.ends[i:] {
		r.ends[i+j] = end + uint32(n)
	}
	r.rids = append(r.rids, 0)
	copy(r.rids[i+1:], r.rids[i:])
	r.rids[i] = rid
}

// reserve makes room for one more key of n suffix bytes. A run grows
// by a quarter, not by the doubling append does: a leaf a split left
// half full often takes only a key or two more, when a key arrives
// after others that sort above it.
func (r *packedKeys) reserve(n int) {
	if len(r.ends) == cap(r.ends) || len(r.rids) == cap(r.rids) {
		c := min(r.len()+max(r.len()/4, 4), btreeOrder+1) // an inner node holds one more before it splits
		r.ends = append(make([]uint32, 0, c), r.ends...)
		r.rids = append(make([]int64, 0, c), r.rids...)
	}
	if cap(r.suffix)-len(r.suffix) < n {
		var suffix []byte
		r.prefix, suffix = carve(r.pre(), len(r.suffix)+max(n, len(r.suffix)/4))
		r.suffix = append(suffix, r.suffix...)
	}
}

// carve returns one new array holding prefix, then room for n suffix
// bytes, as a run's prefix and empty suffix. The prefix's capacity ends
// with it, so neither half writes over the other, and a run that
// carves again drops its old array whole.
func carve(prefix string, n int) (pre, suf []byte) {
	b := make([]byte, len(prefix), len(prefix)+n)
	copy(b, prefix)
	return b[:len(prefix):len(prefix)], b[len(prefix):]
}

// shrink cuts the prefix to its first m bytes, moving the rest to the
// front of every suffix; the new suffix array has room for extra more
// bytes.
func (r *packedKeys) shrink(m, extra int) {
	tail := r.prefix[m:]
	size := len(r.suffix) + r.len()*len(tail)
	checkRunBytes(size)
	prefix, buf := carve(r.pre()[:m], size+extra)
	start := 0
	for j, end := range r.ends {
		buf = append(append(buf, tail...), r.suffix[start:end]...)
		start = int(end)
		r.ends[j] = uint32(len(buf))
	}
	r.prefix, r.suffix = prefix, buf
}

// delete removes entry i.
func (r *packedKeys) delete(i int) {
	start, end := r.start(i), int(r.ends[i])
	r.suffix = slices.Delete(r.suffix, start, end)
	r.ends = slices.Delete(r.ends, i, i+1)
	for j := i; j < len(r.ends); j++ {
		r.ends[j] -= uint32(end - start)
	}
	r.rids = slices.Delete(r.rids, i, i+1)
	switch {
	case r.len() == 0:
		r.prefix = r.prefix[:0]
	case i == 0 || i == r.len():
		r.grow()
	}
}

// grow extends the prefix by the bytes the first and last suffixes
// share, cutting them from the front of every suffix.
func (r *packedKeys) grow() {
	g := commonPrefixLen(r.suf(0), r.suf(r.len()-1))
	if g == 0 {
		return
	}
	r.prefix = append(r.prefix, r.suffix[:g]...)
	w, start := 0, 0
	for j, end := range r.ends {
		w += copy(r.suffix[w:], r.suffix[start+g:end])
		start = int(end)
		r.ends[j] = uint32(w)
	}
	r.suffix = r.suffix[:w]
}

// slice returns entries [lo, hi) as a run of their own, in arrays of
// exactly their size.
func (r *packedKeys) slice(lo, hi int) packedKeys {
	if lo == hi {
		return packedKeys{}
	}
	g := commonPrefixLen(r.suf(lo), r.suf(hi-1))
	out := packedKeys{
		ends: make([]uint32, hi-lo),
		rids: slices.Clone(r.rids[lo:hi]),
	}
	out.prefix, out.suffix = carve(r.pre()+r.suf(lo)[:g], int(r.ends[hi-1])-r.start(lo)-(hi-lo)*g)
	for j := lo; j < hi; j++ {
		out.suffix = append(out.suffix, r.suf(j)[g:]...)
		out.ends[j-lo] = uint32(len(out.suffix))
	}
	return out
}

// clone returns a copy of r that shares no array with it.
func (r *packedKeys) clone() packedKeys {
	return packedKeys{
		prefix: slices.Clone(r.prefix),
		suffix: slices.Clone(r.suffix),
		ends:   slices.Clone(r.ends),
		rids:   slices.Clone(r.rids),
	}
}

// packKeys packs entries, which must be in order, into a run of
// exactly their size.
func packKeys(entries []btreeEntry) packedKeys {
	if len(entries) == 0 {
		return packedKeys{}
	}
	p := commonPrefixLen(entries[0].key, entries[len(entries)-1].key)
	size := 0
	for _, e := range entries {
		size += len(e.key) - p
	}
	checkRunBytes(size)
	r := packedKeys{
		ends: make([]uint32, len(entries)),
		rids: make([]int64, len(entries)),
	}
	r.prefix, r.suffix = carve(entries[0].key[:p], size)
	for i, e := range entries {
		r.suffix = append(r.suffix, e.key[p:]...)
		r.ends[i] = uint32(len(r.suffix))
		r.rids[i] = e.rid
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
