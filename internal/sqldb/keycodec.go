package sqldb

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"unsafe"
)

// Packed index keys. A B-tree entry's key is every key column encoded
// into one byte string, so comparing two keys is one keyCompare and
// a key that names its first l columns is a byte prefix of the full key.
// That works because each column's encoding is self-delimiting and
// prefix-free: two different values never share an encoding that is a
// prefix of the other's, so the first differing byte of two keys falls
// inside the first differing column and orders it.
//
// A column is one tag byte that fixes the band, then the payload:
//
//	NULL    keyNull                          sorts before everything
//	number  keyNumber | ordered value, 1-10 bytes | 2-byte tiebreak if |v| >= 2^53
//	text    keyText   | escaped bytes | 0x00 0x01
//	blob    keyBlob   | escaped bytes | 0x00 0x01
//
// Text and blob escape each 0x00 as 0x00 0xFF, so the 0x00 0x01
// terminator sorts below any continuation and "a" < "a\x00" < "ab".
//
// INTEGER, REAL and BOOLEAN share the number band and sort by exact
// value: 3, 3.0 and TRUE/1 encode to identical bytes, as do 0.0 and
// -0.0, so values equal under Compare tie and break by rowid. The
// ordered value is the number rounded to float64 in an order-preserving
// 64-bit form, written seven bits to a byte with its trailing zero bits
// left off (appendOrderedFloat): an integer's float64 is mostly
// trailing zeros, so a node id or an ordinal takes three to six bytes,
// not eight. Integers that float64 cannot hold (beyond ±2^53) carry
// their distance from that float in the tiebreak, so they keep their
// integer order. Where Compare itself is not a total order the codec
// picks one:
//
//   - An integer beyond ±2^53 compares with a REAL exactly (the hash
//     join's equality), where Compare rounds the integer to REAL first:
//     9007199254740993 sorts after 9007199254740992.0 instead of tying.
//   - BOOLEAN sorts in the number band, before every TEXT, where
//     Compare's type-tag fallback puts it after TEXT.
//   - NaN sorts below -Inf; Compare calls it equal to every number.
//
// The planner never probes across type classes with a bound whose type
// it knows (boundTypeOK), so these orders are reached only through
// parameters of a surprising type and REAL bounds on huge integers.
const (
	keyNull   = 0x01
	keyNumber = 0x02
	keyText   = 0x03
	keyBlob   = 0x04
)

// nullColumn is a NULL key column's encoding.
const nullColumn = "\x01"

// keyScratch sizes the stack buffers keys are encoded into; a key that
// does not fit spills to the heap.
const keyScratch = 64

// twoPow53 is where float64 stops holding every integer.
const twoPow53 = 1 << 53

// appendKeyValue appends v's key encoding to dst.
func appendKeyValue(dst []byte, v Value) []byte {
	switch v.Type() {
	case TypeInt, TypeBool:
		f := float64(v.i())
		dst = appendOrderedFloat(append(dst, keyNumber), f)
		if math.Abs(f) >= twoPow53 {
			dst = appendTiebreak(dst, intTiebreak(v.i(), f))
		}
		return dst
	case TypeFloat:
		f := v.f()
		dst = appendOrderedFloat(append(dst, keyNumber), f)
		if math.Abs(f) >= twoPow53 {
			dst = appendTiebreak(dst, 0)
		}
		return dst
	case TypeText:
		return appendEscaped(append(dst, keyText), v.s())
	case TypeBlob:
		return appendEscaped(append(dst, keyBlob), v.s())
	default:
		return append(dst, keyNull)
	}
}

// appendRowKey appends the key of row under the index columns cols.
func appendRowKey(dst []byte, cols []int, row []Value) []byte {
	for _, c := range cols {
		dst = appendKeyValue(dst, row[c])
	}
	return dst
}

// appendOrderedFloat appends f in an order-preserving form: the 64-bit
// word whose unsigned order is f's numeric order (positives get the
// sign bit set, negatives are complemented; -0.0 is folded into 0.0 and
// every NaN into the one code below -Inf), seven bits to a byte from
// the top, each byte's low bit set when bits follow, and the word's
// trailing zero bits dropped. Comparing two such encodings bytewise
// orders their words: at the first byte they differ in, either the
// seven bits differ, and the low bit cannot outweigh them, or only the
// low bit does, and the one that stops there has nothing but zeros
// left. The last byte is the only one with a clear low bit, so no
// encoding is a prefix of another.
func appendOrderedFloat(dst []byte, f float64) []byte {
	var u uint64
	switch {
	case f != f:
		u = 0
	case f == 0:
		u = 1 << 63
	default:
		u = math.Float64bits(f)
		if u>>63 == 0 {
			u |= 1 << 63
		} else {
			u = ^u
		}
	}
	var b [10]byte
	n := 0
	for ; ; n++ {
		b[n] = byte(u>>57)<<1 | 1
		if u <<= 7; u == 0 {
			break
		}
	}
	b[n] &^= 1
	return append(dst, b[:n+1]...)
}

// orderedWord decodes the word appendOrderedFloat wrote at the front of
// b and returns it with the bytes it took (len(b) when it runs off).
func orderedWord(b string) (u uint64, n int) {
	for shift := 57; n < len(b); shift -= 7 {
		g := uint64(b[n] >> 1)
		if shift >= 0 {
			u |= g << shift
		} else {
			u |= g >> -shift
		}
		if n++; b[n-1]&1 == 0 {
			break
		}
	}
	return u, n
}

// orderedFloat inverts appendOrderedFloat's mapping (NaN for code 0).
func orderedFloat(u uint64) float64 {
	if u>>63 == 1 {
		return math.Float64frombits(u &^ (1 << 63))
	}
	return math.Float64frombits(^u)
}

// intTiebreak is i minus its float64 rounding f; |f| >= 2^53, so the
// difference is at most half a float64 step there, within ±512.
func intTiebreak(i int64, f float64) int64 {
	if f >= 1<<63 {
		// f is 2^63, one past int64's range: i - 2^63 without overflow.
		return i - math.MaxInt64 - 1
	}
	return i - int64(f)
}

func appendTiebreak(dst []byte, d int64) []byte {
	return binary.BigEndian.AppendUint16(dst, uint16(d+1<<15))
}

// appendEscaped appends s with 0x00 escaped and the terminator.
func appendEscaped(dst []byte, s string) []byte {
	for {
		i := strings.IndexByte(s, 0)
		if i < 0 {
			break
		}
		dst = append(append(dst, s[:i]...), 0x00, 0xFF)
		s = s[i+1:]
	}
	return append(append(dst, s...), 0x00, 0x01)
}

// keyColumnEnd returns the offset just past the column that starts at
// off in key (len(key) when the encoding runs off the end).
func keyColumnEnd(key string, off int) int {
	if off >= len(key) {
		return len(key)
	}
	switch key[off] {
	case keyNumber:
		u, n := orderedWord(key[off+1:])
		end := off + 1 + n
		if math.Abs(orderedFloat(u)) >= twoPow53 {
			end += 2
		}
		return min(end, len(key))
	case keyText, keyBlob:
		for i := off + 1; i+1 < len(key); i++ {
			if key[i] == 0x00 {
				if key[i+1] == 0x01 {
					return i + 2
				}
				i++ // an escaped 0x00
			}
		}
		return len(key)
	default:
		return off + 1
	}
}

// keyView returns b's bytes as a string without copying. The caller
// must not modify b while the string is in use, and must not store it.
func keyView(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// prefixCompare compares the leading len(bound) bytes of key to bound:
// with bound the encoding of l key columns, it orders key's first l
// columns against them. A key shorter than bound that matches all its
// bytes sorts first.
func prefixCompare(key, bound string) int {
	if len(key) > len(bound) {
		key = key[:len(bound)]
	}
	return keyCompare(key, bound)
}

// keyCompare is strings.Compare for keys. strings.Compare calls into
// assembly the escape analysis cannot see through, so a key it compared
// went to the heap: a stack key buffer then cost each row inserted, and
// each unique check, an allocation. bytes.Compare runs the same code
// and is known not to keep its arguments.
func keyCompare(a, b string) int {
	return bytes.Compare(unsafe.Slice(unsafe.StringData(a), len(a)), unsafe.Slice(unsafe.StringData(b), len(b)))
}

// equalParts reports whether pre+suf is key, without building pre+suf.
func equalParts(pre, suf, key string) bool {
	return len(pre)+len(suf) == len(key) && hasPrefixParts(pre, suf, key)
}

// hasPrefixParts is strings.HasPrefix(pre+suf, p), without building
// pre+suf.
func hasPrefixParts(pre, suf, p string) bool {
	if len(p) <= len(pre) {
		return pre[:len(p)] == p
	}
	return pre == p[:len(pre)] && strings.HasPrefix(suf, p[len(pre):])
}
