// Package sqldb implements an embedded relational database engine with a
// SQL subset, B-tree indexes, and a Volcano-style iterator executor.
//
// It is the storage substrate for the xmlrdb shredding schemes: XML
// documents are decomposed into tuples stored here, and XPath queries are
// compiled into the SQL dialect this package executes.
//
// The engine is deliberately self-contained (stdlib only) and in-memory;
// durability and recovery are out of scope for the reproduction. A
// Database is safe for concurrent readers; writers take a coarse lock.
package sqldb

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unsafe"
)

// Type enumerates the SQL value types supported by the engine.
type Type int

// Supported SQL types.
const (
	TypeNull Type = iota
	TypeInt
	TypeFloat
	TypeText
	TypeBool
	TypeBlob
)

// String returns the SQL spelling of the type.
func (t Type) String() string {
	switch t {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return "INTEGER"
	case TypeFloat:
		return "REAL"
	case TypeText:
		return "TEXT"
	case TypeBool:
		return "BOOLEAN"
	case TypeBlob:
		return "BLOB"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Value is a single SQL value. The zero Value is NULL.
//
// A Value is 16 bytes, a pointer and a word, and its type tag is
// folded into them. NULL has a nil pointer. An INTEGER, REAL or
// BOOLEAN, and an empty TEXT or BLOB, points at its type's element of
// typeTags, and the word holds all 64 bits of an INTEGER's or BOOLEAN's
// integer or a REAL's math.Float64bits. A non-empty TEXT or BLOB points
// at its bytes, and the word holds the length, with blobBit set for a
// BLOB. An empty TEXT's word is 0, and an empty BLOB's is 0 when its
// bytes are nil and blobBit when they are an empty slice. A text Value
// decoded from a heap page points into that page's image and keeps the
// whole image alive.
// Values are not comparable with ==, which would compare text by
// address (as reflect.DeepEqual does); use Compare, or Identical for an
// exact match.
type Value struct {
	_ [0]func()
	p unsafe.Pointer
	n uint64
}

// typeTags gives every type whose Value does not point at bytes an
// address of its own; TypeNull's element is never pointed at.
var typeTags [TypeBlob + 1]byte

// blobBit marks a BLOB's length word (not that of an empty BLOB made
// from a nil slice or decoded, whose tag tells its type).
const blobBit = 1 << 63

// tagged returns the Value of type t whose pointer is t's tag.
func tagged(t Type, n uint64) Value { return Value{p: unsafe.Pointer(&typeTags[t]), n: n} }

// Null is the SQL NULL value.
var Null = Value{}

// NewInt returns an INTEGER value.
func NewInt(i int64) Value { return tagged(TypeInt, uint64(i)) }

// NewFloat returns a REAL value.
func NewFloat(f float64) Value { return tagged(TypeFloat, math.Float64bits(f)) }

// NewText returns a TEXT value.
func NewText(s string) Value {
	if len(s) == 0 {
		return tagged(TypeText, 0)
	}
	return Value{p: unsafe.Pointer(unsafe.StringData(s)), n: uint64(len(s))}
}

// NewBool returns a BOOLEAN value.
func NewBool(b bool) Value {
	if b {
		return tagged(TypeBool, 1)
	}
	return tagged(TypeBool, 0)
}

// boolBits returns a BOOLEAN holding i; the WAL codec stores a
// BOOLEAN's bits as an integer and reads back whatever it finds.
func boolBits(i int64) Value { return tagged(TypeBool, uint64(i)) }

// NewBlob returns a BLOB value. The slice is not copied; a nil slice
// and an empty one both make an empty BLOB, which Blob returns as it
// was given.
func NewBlob(b []byte) Value {
	switch {
	case b == nil:
		return tagged(TypeBlob, 0)
	case len(b) == 0:
		return tagged(TypeBlob, blobBit)
	}
	return Value{p: unsafe.Pointer(unsafe.SliceData(b)), n: uint64(len(b)) | blobBit}
}

// bytesValue returns a TEXT or BLOB (t) whose bytes start at p and run
// n long; p is not read when n is 0.
func bytesValue(t Type, p unsafe.Pointer, n uint64) Value {
	switch {
	case n == 0:
		return tagged(t, 0)
	case t == TypeBlob:
		return Value{p: p, n: n | blobBit}
	default:
		return Value{p: p, n: n}
	}
}

// Type returns the value's type tag.
func (v Value) Type() Type {
	if d := uintptr(v.p) - uintptr(unsafe.Pointer(&typeTags)); d < uintptr(len(typeTags)) {
		return Type(d)
	}
	if v.p == nil {
		return TypeNull
	}
	if v.n&blobBit != 0 {
		return TypeBlob
	}
	return TypeText
}

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.p == nil }

// i, f and s read the payload of an INTEGER/BOOLEAN, a REAL and a
// TEXT/BLOB; they do not check the tag. size is a TEXT's or BLOB's
// byte length.
func (v Value) i() int64   { return int64(v.n) }
func (v Value) f() float64 { return math.Float64frombits(v.n) }
func (v Value) s() string  { return unsafe.String((*byte)(v.p), v.size()) }
func (v Value) size() int  { return int(v.n &^ blobBit) }

// Blob returns a BLOB's bytes (nil for any other type, and for an
// empty BLOB made from a nil slice or decoded). The slice aliases the
// value's storage and must not be modified.
func (v Value) Blob() []byte {
	if v.n == 0 || v.Type() != TypeBlob {
		return nil
	}
	return unsafe.Slice((*byte)(v.p), v.size())
}

// Identical reports whether a and b are the same value exactly: same
// type tag, same integer or float bits, same bytes. Unlike Compare it
// tells 3 from 3.0, 0.0 from -0.0, and one NaN payload from another.
func Identical(a, b Value) bool {
	t := a.Type()
	if t != b.Type() {
		return false
	}
	switch t {
	case TypeText, TypeBlob:
		return a.s() == b.s()
	case TypeNull:
		return true
	default:
		return a.n == b.n
	}
}

// IdenticalRows reports whether two row sets are Identical value by
// value.
func IdenticalRows(a, b [][]Value) bool {
	return slices.EqualFunc(a, b, func(x, y []Value) bool { return slices.EqualFunc(x, y, Identical) })
}

// Bool reports the truth of v under SQL semantics: NULL and zero values
// are false, everything else true.
func (v Value) Bool() bool {
	switch v.Type() {
	case TypeInt, TypeBool:
		return v.n != 0
	case TypeFloat:
		return v.f() != 0
	case TypeText, TypeBlob:
		return v.size() != 0
	default:
		return false
	}
}

// Int returns the value coerced to int64 (0 for non-numeric).
func (v Value) Int() int64 {
	switch v.Type() {
	case TypeInt, TypeBool:
		return v.i()
	case TypeFloat:
		return int64(v.f())
	case TypeText:
		s := strings.TrimSpace(v.s())
		i, err := strconv.ParseInt(s, 10, 64)
		if err == nil {
			return i
		}
		f, err := strconv.ParseFloat(s, 64)
		if err == nil {
			return int64(f)
		}
	}
	return 0
}

// Float returns the value coerced to float64 (0 for non-numeric).
func (v Value) Float() float64 {
	switch v.Type() {
	case TypeInt, TypeBool:
		return float64(v.i())
	case TypeFloat:
		return v.f()
	case TypeText:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.s()), 64)
		if err == nil {
			return f
		}
	}
	return 0
}

// Text returns the value rendered as a string (SQL CAST ... AS TEXT).
func (v Value) Text() string {
	switch v.Type() {
	case TypeInt:
		return strconv.FormatInt(v.i(), 10)
	case TypeFloat:
		return strconv.FormatFloat(v.f(), 'g', -1, 64)
	case TypeText:
		return v.s()
	case TypeBool:
		if v.n != 0 {
			return "true"
		}
		return "false"
	case TypeBlob:
		return string(v.Blob())
	default:
		return ""
	}
}

// String implements fmt.Stringer with SQL literal syntax.
func (v Value) String() string {
	switch v.Type() {
	case TypeNull:
		return "NULL"
	case TypeText:
		return "'" + strings.ReplaceAll(v.s(), "'", "''") + "'"
	case TypeBlob:
		return fmt.Sprintf("X'%x'", v.Blob())
	default:
		return v.Text()
	}
}

// isNumeric reports whether the type participates in numeric coercion.
func (t Type) isNumeric() bool {
	return t == TypeInt || t == TypeFloat || t == TypeBool
}

// Compare orders two values. NULL sorts before everything; numeric types
// compare numerically across Int/Float/Bool; Text compares bytewise;
// mixed non-numeric types order by type tag. The result is -1, 0 or +1.
func Compare(a, b Value) int {
	at, bt := a.Type(), b.Type()
	if at == TypeNull || bt == TypeNull {
		switch {
		case at == TypeNull && bt == TypeNull:
			return 0
		case at == TypeNull:
			return -1
		default:
			return 1
		}
	}
	if at.isNumeric() && bt.isNumeric() {
		if at == TypeFloat || bt == TypeFloat {
			af, bf := a.Float(), b.Float()
			switch {
			case af < bf:
				return -1
			case af > bf:
				return 1
			default:
				return 0
			}
		}
		switch {
		case a.i() < b.i():
			return -1
		case a.i() > b.i():
			return 1
		default:
			return 0
		}
	}
	if at == bt && (at == TypeText || at == TypeBlob) {
		return strings.Compare(a.s(), b.s())
	}
	// Mixed incomparable types: order by type tag so sorting is total.
	switch {
	case at < bt:
		return -1
	case at > bt:
		return 1
	default:
		return 0
	}
}

// Equal reports whether two values compare equal (non-NULL semantics;
// callers implement SQL NULL = NULL -> unknown separately).
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// compareSQL implements SQL comparison: if either operand is NULL the
// result is unknown (ok=false).
func compareSQL(a, b Value) (cmp int, ok bool) {
	if a.IsNull() || b.IsNull() {
		return 0, false
	}
	// TEXT vs numeric: coerce text to number when it parses, mirroring
	// the loose typing XML-shredded value columns need.
	at, bt := a.Type(), b.Type()
	if at == TypeText && bt.isNumeric() {
		if f, err := strconv.ParseFloat(strings.TrimSpace(a.s()), 64); err == nil {
			a = NewFloat(f)
		}
	}
	if bt == TypeText && at.isNumeric() {
		if f, err := strconv.ParseFloat(strings.TrimSpace(b.s()), 64); err == nil {
			b = NewFloat(f)
		}
	}
	return Compare(a, b), true
}

// addValues implements SQL + with numeric promotion; NULL propagates.
// Integer arithmetic never wraps: a result outside int64's range is
// computed in REAL instead, as SQLite does.
func addValues(a, b Value) Value {
	if a.IsNull() || b.IsNull() {
		return Null
	}
	if a.Type() == TypeFloat || b.Type() == TypeFloat {
		return NewFloat(a.Float() + b.Float())
	}
	x, y := a.Int(), b.Int()
	if s := x + y; (s > x) == (y > 0) {
		return NewInt(s)
	}
	return NewFloat(float64(x) + float64(y))
}

func subValues(a, b Value) Value {
	if a.IsNull() || b.IsNull() {
		return Null
	}
	if a.Type() == TypeFloat || b.Type() == TypeFloat {
		return NewFloat(a.Float() - b.Float())
	}
	x, y := a.Int(), b.Int()
	if d := x - y; (d < x) == (y > 0) {
		return NewInt(d)
	}
	return NewFloat(float64(x) - float64(y))
}

func mulValues(a, b Value) Value {
	if a.IsNull() || b.IsNull() {
		return Null
	}
	if a.Type() == TypeFloat || b.Type() == TypeFloat {
		return NewFloat(a.Float() * b.Float())
	}
	x, y := a.Int(), b.Int()
	if x == 0 || y == 0 {
		return NewInt(0)
	}
	if p := x * y; p/y == x && !(y == -1 && x == math.MinInt64) {
		return NewInt(p)
	}
	return NewFloat(float64(x) * float64(y))
}

func divValues(a, b Value) Value {
	if a.IsNull() || b.IsNull() {
		return Null
	}
	if a.Type() == TypeFloat || b.Type() == TypeFloat {
		bf := b.Float()
		if bf == 0 {
			return Null
		}
		return NewFloat(a.Float() / bf)
	}
	ai, bi := a.Int(), b.Int()
	if bi == 0 {
		return Null
	}
	if bi == -1 && ai == math.MinInt64 {
		return NewFloat(-float64(ai))
	}
	return NewInt(ai / bi)
}

func modValues(a, b Value) Value {
	if a.IsNull() || b.IsNull() {
		return Null
	}
	if a.Type() == TypeFloat || b.Type() == TypeFloat {
		bf := b.Float()
		if bf == 0 {
			return Null
		}
		return NewFloat(math.Mod(a.Float(), bf))
	}
	bi := b.Int()
	if bi == 0 {
		return Null
	}
	return NewInt(a.Int() % bi)
}

// negValue implements unary minus.
func negValue(a Value) Value {
	switch a.Type() {
	case TypeInt, TypeBool:
		if a.i() == math.MinInt64 {
			return NewFloat(-float64(a.i()))
		}
		return NewInt(-a.i())
	case TypeFloat:
		return NewFloat(-a.f())
	case TypeNull:
		return Null
	default:
		return NewFloat(-a.Float())
	}
}

// coerceTo converts v to the declared column type t for storage.
// NULL stays NULL; lossless where possible, best-effort otherwise.
func coerceTo(v Value, t Type) Value {
	if v.IsNull() {
		return Null
	}
	switch t {
	case TypeInt:
		if v.Type() == TypeInt {
			return v
		}
		return NewInt(v.Int())
	case TypeFloat:
		if v.Type() == TypeFloat {
			return v
		}
		return NewFloat(v.Float())
	case TypeText:
		if v.Type() == TypeText {
			return v
		}
		return NewText(v.Text())
	case TypeBool:
		return NewBool(v.Bool())
	case TypeBlob:
		if v.Type() == TypeBlob {
			return v
		}
		return NewBlob([]byte(v.Text()))
	default:
		return v
	}
}

// likeMatch implements SQL LIKE with % and _ wildcards and an optional
// escape character (0 means none). Matching is case-sensitive, which is
// what the Dewey prefix translations rely on.
//
// Every token but % consumes exactly one byte, so on a mismatch it is
// enough to let the last % absorb one more byte and resume after it:
// the match is iterative and O(len(s)·len(pattern)) at worst.
func likeMatch(s, p string, escape byte) bool {
	si, pi := 0, 0
	starP, starS := -1, 0 // resume point after the last %, and its byte in s
	for si < len(s) {
		if pi < len(p) {
			switch c := p[pi]; {
			case escape != 0 && c == escape && pi+1 < len(p):
				if s[si] == p[pi+1] {
					si, pi = si+1, pi+2
					continue
				}
			case c == '%':
				pi++
				starP, starS = pi, si
				continue
			case c == '_' || c == s[si]:
				si, pi = si+1, pi+1
				continue
			}
		}
		if starP < 0 {
			return false
		}
		starS++
		si, pi = starS, starP
	}
	// s is used up: only %s may remain (an escape pair needs a byte).
	for ; pi < len(p); pi++ {
		if p[pi] != '%' || (escape != 0 && p[pi] == escape && pi+1 < len(p)) {
			return false
		}
	}
	return true
}

// likePrefix returns the literal prefix of a LIKE pattern (up to the
// first wildcard) and whether the pattern is prefix-shaped (literal
// followed by a single trailing %), which allows index range scans.
func likePrefix(pattern string, escape byte) (prefix string, prefixOnly bool) {
	var b strings.Builder
	i := 0
	for i < len(pattern) {
		c := pattern[i]
		if escape != 0 && c == escape && i+1 < len(pattern) {
			b.WriteByte(pattern[i+1])
			i += 2
			continue
		}
		if c == '%' || c == '_' {
			break
		}
		b.WriteByte(c)
		i++
	}
	prefix = b.String()
	prefixOnly = i < len(pattern) && pattern[i] == '%' && i == len(pattern)-1
	return prefix, prefixOnly
}
