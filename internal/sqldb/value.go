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
	"strconv"
	"strings"
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
type Value struct {
	T Type
	I int64
	F float64
	S string
	B []byte
}

// Null is the SQL NULL value.
var Null = Value{T: TypeNull}

// NewInt returns an INTEGER value.
func NewInt(i int64) Value { return Value{T: TypeInt, I: i} }

// NewFloat returns a REAL value.
func NewFloat(f float64) Value { return Value{T: TypeFloat, F: f} }

// NewText returns a TEXT value.
func NewText(s string) Value { return Value{T: TypeText, S: s} }

// NewBool returns a BOOLEAN value.
func NewBool(b bool) Value {
	if b {
		return Value{T: TypeBool, I: 1}
	}
	return Value{T: TypeBool}
}

// NewBlob returns a BLOB value. The slice is not copied.
func NewBlob(b []byte) Value { return Value{T: TypeBlob, B: b} }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.T == TypeNull }

// Bool reports the truth of v under SQL semantics: NULL and zero values
// are false, everything else true.
func (v Value) Bool() bool {
	switch v.T {
	case TypeNull:
		return false
	case TypeInt, TypeBool:
		return v.I != 0
	case TypeFloat:
		return v.F != 0
	case TypeText:
		return v.S != ""
	case TypeBlob:
		return len(v.B) != 0
	default:
		return false
	}
}

// Int returns the value coerced to int64 (0 for non-numeric).
func (v Value) Int() int64 {
	switch v.T {
	case TypeInt, TypeBool:
		return v.I
	case TypeFloat:
		return int64(v.F)
	case TypeText:
		i, err := strconv.ParseInt(strings.TrimSpace(v.S), 10, 64)
		if err == nil {
			return i
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(v.S), 64)
		if err == nil {
			return int64(f)
		}
	}
	return 0
}

// Float returns the value coerced to float64 (0 for non-numeric).
func (v Value) Float() float64 {
	switch v.T {
	case TypeInt, TypeBool:
		return float64(v.I)
	case TypeFloat:
		return v.F
	case TypeText:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.S), 64)
		if err == nil {
			return f
		}
	}
	return 0
}

// Text returns the value rendered as a string (SQL CAST ... AS TEXT).
func (v Value) Text() string {
	switch v.T {
	case TypeNull:
		return ""
	case TypeInt:
		return strconv.FormatInt(v.I, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TypeText:
		return v.S
	case TypeBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case TypeBlob:
		return string(v.B)
	default:
		return ""
	}
}

// String implements fmt.Stringer with SQL literal syntax.
func (v Value) String() string {
	switch v.T {
	case TypeNull:
		return "NULL"
	case TypeText:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	case TypeBlob:
		return fmt.Sprintf("X'%x'", v.B)
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
	if a.T == TypeNull || b.T == TypeNull {
		switch {
		case a.T == TypeNull && b.T == TypeNull:
			return 0
		case a.T == TypeNull:
			return -1
		default:
			return 1
		}
	}
	if a.T.isNumeric() && b.T.isNumeric() {
		if a.T == TypeFloat || b.T == TypeFloat {
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
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		default:
			return 0
		}
	}
	if a.T == TypeText && b.T == TypeText {
		return strings.Compare(a.S, b.S)
	}
	if a.T == TypeBlob && b.T == TypeBlob {
		return strings.Compare(string(a.B), string(b.B))
	}
	// Mixed incomparable types: order by type tag so sorting is total.
	switch {
	case a.T < b.T:
		return -1
	case a.T > b.T:
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
	if a.T == TypeNull || b.T == TypeNull {
		return 0, false
	}
	// TEXT vs numeric: coerce text to number when it parses, mirroring
	// the loose typing XML-shredded value columns need.
	if a.T == TypeText && b.T.isNumeric() {
		if f, err := strconv.ParseFloat(strings.TrimSpace(a.S), 64); err == nil {
			a = NewFloat(f)
		}
	}
	if b.T == TypeText && a.T.isNumeric() {
		if f, err := strconv.ParseFloat(strings.TrimSpace(b.S), 64); err == nil {
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
	if a.T == TypeFloat || b.T == TypeFloat {
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
	if a.T == TypeFloat || b.T == TypeFloat {
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
	if a.T == TypeFloat || b.T == TypeFloat {
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
	if a.T == TypeFloat || b.T == TypeFloat {
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
	if a.T == TypeFloat || b.T == TypeFloat {
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
	switch a.T {
	case TypeInt, TypeBool:
		if a.I == math.MinInt64 {
			return NewFloat(-float64(a.I))
		}
		return NewInt(-a.I)
	case TypeFloat:
		return NewFloat(-a.F)
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
		if v.T == TypeInt {
			return v
		}
		return NewInt(v.Int())
	case TypeFloat:
		if v.T == TypeFloat {
			return v
		}
		return NewFloat(v.Float())
	case TypeText:
		if v.T == TypeText {
			return v
		}
		return NewText(v.Text())
	case TypeBool:
		return NewBool(v.Bool())
	case TypeBlob:
		if v.T == TypeBlob {
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
func likeMatch(s, pattern string, escape byte) bool {
	return likeRec(s, pattern, escape)
}

func likeRec(s, p string, esc byte) bool {
	for len(p) > 0 {
		c := p[0]
		if esc != 0 && c == esc && len(p) > 1 {
			if len(s) == 0 || s[0] != p[1] {
				return false
			}
			s, p = s[1:], p[2:]
			continue
		}
		switch c {
		case '%':
			// Collapse consecutive wildcards.
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(s[i:], p, esc) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			s, p = s[1:], p[1:]
		default:
			if len(s) == 0 || s[0] != c {
				return false
			}
			s, p = s[1:], p[1:]
		}
	}
	return len(s) == 0
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
