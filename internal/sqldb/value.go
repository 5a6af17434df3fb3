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
// A Value is 24 bytes: a type tag, one 8-byte word and one pointer.
// The word holds an INTEGER's or BOOLEAN's bits, a REAL's
// math.Float64bits, or a TEXT's or BLOB's byte length; the pointer
// addresses the text or blob bytes. A text Value decoded from a heap
// page points into that page's text arena and keeps the whole arena
// alive. Values are not comparable with ==, which would compare text by
// address (as reflect.DeepEqual does); use Compare, or Identical for an
// exact match.
type Value struct {
	_ [0]func()
	p unsafe.Pointer
	n uint64
	t Type
}

// Null is the SQL NULL value.
var Null = Value{}

// NewInt returns an INTEGER value.
func NewInt(i int64) Value { return Value{t: TypeInt, n: uint64(i)} }

// NewFloat returns a REAL value.
func NewFloat(f float64) Value { return Value{t: TypeFloat, n: math.Float64bits(f)} }

// NewText returns a TEXT value.
func NewText(s string) Value {
	return Value{t: TypeText, p: unsafe.Pointer(unsafe.StringData(s)), n: uint64(len(s))}
}

// NewBool returns a BOOLEAN value.
func NewBool(b bool) Value {
	if b {
		return Value{t: TypeBool, n: 1}
	}
	return Value{t: TypeBool}
}

// boolBits returns a BOOLEAN holding i; the WAL codec stores a
// BOOLEAN's bits as an integer and reads back whatever it finds.
func boolBits(i int64) Value { return Value{t: TypeBool, n: uint64(i)} }

// NewBlob returns a BLOB value. The slice is not copied.
func NewBlob(b []byte) Value {
	return Value{t: TypeBlob, p: unsafe.Pointer(unsafe.SliceData(b)), n: uint64(len(b))}
}

// Type returns the value's type tag.
func (v Value) Type() Type { return v.t }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.t == TypeNull }

// i, f and s read the payload of an INTEGER/BOOLEAN, a REAL and a
// TEXT/BLOB; they do not check the tag.
func (v Value) i() int64   { return int64(v.n) }
func (v Value) f() float64 { return math.Float64frombits(v.n) }
func (v Value) s() string  { return unsafe.String((*byte)(v.p), int(v.n)) }

// Blob returns a BLOB's bytes (nil for any other type). The slice
// aliases the value's storage and must not be modified.
func (v Value) Blob() []byte {
	if v.t != TypeBlob {
		return nil
	}
	return unsafe.Slice((*byte)(v.p), int(v.n))
}

// Identical reports whether a and b are the same value exactly: same
// type tag, same integer or float bits, same bytes. Unlike Compare it
// tells 3 from 3.0, 0.0 from -0.0, and one NaN payload from another.
func Identical(a, b Value) bool {
	if a.t != b.t {
		return false
	}
	switch a.t {
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
	switch v.t {
	case TypeInt, TypeBool:
		return v.n != 0
	case TypeFloat:
		return v.f() != 0
	case TypeText, TypeBlob:
		return v.n != 0
	default:
		return false
	}
}

// Int returns the value coerced to int64 (0 for non-numeric).
func (v Value) Int() int64 {
	switch v.t {
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
	switch v.t {
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
	switch v.t {
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
	switch v.t {
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
	if a.t == TypeNull || b.t == TypeNull {
		switch {
		case a.t == TypeNull && b.t == TypeNull:
			return 0
		case a.t == TypeNull:
			return -1
		default:
			return 1
		}
	}
	if a.t.isNumeric() && b.t.isNumeric() {
		if a.t == TypeFloat || b.t == TypeFloat {
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
	if a.t == TypeText && b.t == TypeText {
		return strings.Compare(a.s(), b.s())
	}
	if a.t == TypeBlob && b.t == TypeBlob {
		return strings.Compare(a.s(), b.s())
	}
	// Mixed incomparable types: order by type tag so sorting is total.
	switch {
	case a.t < b.t:
		return -1
	case a.t > b.t:
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
	if a.t == TypeNull || b.t == TypeNull {
		return 0, false
	}
	// TEXT vs numeric: coerce text to number when it parses, mirroring
	// the loose typing XML-shredded value columns need.
	if a.t == TypeText && b.t.isNumeric() {
		if f, err := strconv.ParseFloat(strings.TrimSpace(a.s()), 64); err == nil {
			a = NewFloat(f)
		}
	}
	if b.t == TypeText && a.t.isNumeric() {
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
	if a.t == TypeFloat || b.t == TypeFloat {
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
	if a.t == TypeFloat || b.t == TypeFloat {
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
	if a.t == TypeFloat || b.t == TypeFloat {
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
	if a.t == TypeFloat || b.t == TypeFloat {
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
	if a.t == TypeFloat || b.t == TypeFloat {
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
	switch a.t {
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
		if v.t == TypeInt {
			return v
		}
		return NewInt(v.Int())
	case TypeFloat:
		if v.t == TypeFloat {
			return v
		}
		return NewFloat(v.Float())
	case TypeText:
		if v.t == TypeText {
			return v
		}
		return NewText(v.Text())
	case TypeBool:
		return NewBool(v.Bool())
	case TypeBlob:
		if v.t == TypeBlob {
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
