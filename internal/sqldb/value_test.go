package sqldb

import (
	"encoding/hex"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

// layoutCorners are the values TestValueLayout pushes through every
// codec: a NaN with payload bits, -0.0, the int64 extremes, an integer
// float64 cannot hold, empty text beside NULL, an empty blob, text with
// a 0x00, and a BOOLEAN whose stored integer is neither 0 nor 1.
func layoutCorners() []Value {
	return []Value{
		NewFloat(math.Float64frombits(0x7ff8000000000001)),
		NewFloat(math.Copysign(0, -1)),
		NewInt(math.MaxInt64),
		NewInt(-math.MaxInt64),
		NewInt(math.MinInt64),
		NewInt(1<<53 + 1),
		NewText(""),
		Null,
		NewBlob([]byte{}),
		NewText("a\x00b"),
		NewBool(true),
		boolBits(5),
	}
}

// The corners' WAL value codec and index key encodings, as written by
// the 64-byte Value this layout replaced: stored bytes must not change.
const (
	layoutWALHex = "02010000000000f87f02000000000000008001feffffffffffffffff0101fdffffffffffffffff01" +
		"01ffffffffffffffffff01018280808080808020030000050003036100620402040a"
	layoutKeyHex = "02000000000000000002800000000000000002c3e00000000000007fff023c1fffffffffffff8001" +
		"023c1fffffffffffff800002c340000000000000800103000101040001036100ff62000102bff000000000000002c014000000000000"
)

// TestValueLayout pins the 24-byte Value and its codecs: the corner
// values encode to the same WAL and key bytes as before, and decode
// back identical both value by value (the WAL path) and as page rows
// (the arena path).
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 24 {
		t.Fatalf("Value is %d bytes, want 24", got)
	}
	corners := layoutCorners()
	e := &walEncoder{}
	var key []byte
	for _, v := range corners {
		e.value(v)
		key = appendKeyValue(key, v)
	}
	if got := hex.EncodeToString(e.b); got != layoutWALHex {
		t.Fatalf("WAL encoding changed:\n got %s\nwant %s", got, layoutWALHex)
	}
	if got := hex.EncodeToString(key); got != layoutKeyHex {
		t.Fatalf("key encoding changed:\n got %s\nwant %s", got, layoutKeyHex)
	}
	for off, i := 0, 0; off < len(key); i++ {
		end := keyColumnEnd(string(key), off)
		if end <= off || !strings.HasPrefix(string(key[off:]), string(appendKeyValue(nil, corners[i]))) {
			t.Fatalf("key column %d does not delimit at %d..%d", i, off, end)
		}
		off = end
	}

	d := &walDecoder{b: e.b}
	for i, want := range corners {
		got, err := d.value()
		if err != nil || !Identical(got, want) {
			t.Fatalf("WAL value %d: got %v (%v), want %v", i, got, err, want)
		}
	}
	f := &pageFrame{}
	f.rows[0], f.rows[2] = corners, corners[6:]
	page, err := decodePagePayload(1, encodePageFrame(f, 3), heapPageSize)
	if err != nil {
		t.Fatal(err)
	}
	if page.rows[1] != nil || !IdenticalRows(page.rows[:3:3], [][]Value{corners, nil, corners[6:]}) {
		t.Fatalf("page rows: got %v, want %v", page.rows[:3], f.rows[:3])
	}
	if cap(page.rows[0]) != len(corners) {
		t.Fatalf("page row capacity %d, want %d: rows must not share tails", cap(page.rows[0]), len(corners))
	}

	nan := page.rows[0][0]
	if bits := math.Float64bits(nan.Float()); bits != 0x7ff8000000000001 {
		t.Errorf("NaN payload read back as %#x", bits)
	}
	if !math.Signbit(page.rows[0][1].Float()) {
		t.Error("-0.0 lost its sign")
	}
	if v := page.rows[0][6]; v.IsNull() || v.Type() != TypeText || v.Text() != "" {
		t.Errorf("empty text read back as %v", v)
	}
	if v := page.rows[0][8]; v.Type() != TypeBlob || len(v.Blob()) != 0 {
		t.Errorf("empty blob read back as %v", v)
	}
	if v := page.rows[0][11]; v.Type() != TypeBool || v.Int() != 5 || !v.Bool() || v.Text() != "true" {
		t.Errorf("BOOLEAN 5 read back as %v (int %d)", v, v.Int())
	}
	// Pairs that Compare ties, or that differ only in type: none is
	// identical.
	for _, c := range [][2]Value{
		{NewFloat(0), NewFloat(math.Copysign(0, -1))},
		{NewInt(3), NewFloat(3)},
		{NewInt(1), NewBool(true)},
		{NewText(""), Null},
		{NewText("ab"), NewBlob([]byte("ab"))},
	} {
		if Identical(c[0], c[1]) {
			t.Errorf("Identical(%v, %v) = true", c[0], c[1])
		}
	}
}

func TestValueConstructorsAndAccessors(t *testing.T) {
	cases := []struct {
		v       Value
		isNull  bool
		i       int64
		f       float64
		s       string
		boolish bool
	}{
		{Null, true, 0, 0, "", false},
		{NewInt(42), false, 42, 42, "42", true},
		{NewInt(0), false, 0, 0, "0", false},
		{NewFloat(2.5), false, 2, 2.5, "2.5", true},
		{NewText("7.5"), false, 7, 7.5, "7.5", true},
		{NewText(""), false, 0, 0, "", false},
		{NewText("abc"), false, 0, 0, "abc", true},
		{NewBool(true), false, 1, 1, "true", true},
		{NewBool(false), false, 0, 0, "false", false},
	}
	for _, c := range cases {
		if c.v.IsNull() != c.isNull {
			t.Errorf("%v IsNull = %v", c.v, c.v.IsNull())
		}
		if c.v.Int() != c.i {
			t.Errorf("%v Int = %d, want %d", c.v, c.v.Int(), c.i)
		}
		if c.v.Float() != c.f {
			t.Errorf("%v Float = %g, want %g", c.v, c.v.Float(), c.f)
		}
		if c.v.Text() != c.s {
			t.Errorf("%v Text = %q, want %q", c.v, c.v.Text(), c.s)
		}
		if c.v.Bool() != c.boolish {
			t.Errorf("%v Bool = %v, want %v", c.v, c.v.Bool(), c.boolish)
		}
	}
}

func TestCompareSemantics(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Null, Null, 0},
		{Null, NewInt(0), -1},
		{NewInt(1), Null, 1},
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewFloat(2.5), 1},
		{NewFloat(2.5), NewInt(3), -1},
		{NewBool(true), NewInt(1), 0},
		{NewText("a"), NewText("b"), -1},
		{NewText("b"), NewText("b"), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Property: Compare is antisymmetric and transitive over random values.
func TestCompareProperties(t *testing.T) {
	gen := func(seed int64) Value {
		switch seed % 4 {
		case 0:
			return Null
		case 1:
			return NewInt(seed % 100)
		case 2:
			return NewFloat(float64(seed%100) / 3)
		default:
			return NewText(string(rune('a' + seed%26)))
		}
	}
	anti := func(x, y int64) bool {
		a, b := gen(x), gen(y)
		return Compare(a, b) == -Compare(b, a)
	}
	if err := quick.Check(anti, nil); err != nil {
		t.Errorf("antisymmetry: %v", err)
	}
	trans := func(x, y, z int64) bool {
		a, b, c := gen(x), gen(y), gen(z)
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 {
			return Compare(a, c) <= 0
		}
		return true
	}
	if err := quick.Check(trans, nil); err != nil {
		t.Errorf("transitivity: %v", err)
	}
}

func TestCompareSQLNullAndCoercion(t *testing.T) {
	if _, ok := compareSQL(Null, NewInt(1)); ok {
		t.Error("NULL comparison must be unknown")
	}
	if _, ok := compareSQL(NewInt(1), Null); ok {
		t.Error("NULL comparison must be unknown")
	}
	// Text-vs-number coercion.
	if cmp, ok := compareSQL(NewText("250.00"), NewInt(250)); !ok || cmp != 0 {
		t.Errorf("'250.00' vs 250: cmp=%d ok=%v", cmp, ok)
	}
	if cmp, ok := compareSQL(NewText("99.5"), NewInt(250)); !ok || cmp >= 0 {
		t.Errorf("'99.5' vs 250: cmp=%d ok=%v", cmp, ok)
	}
}

func TestArithmetic(t *testing.T) {
	if v := addValues(NewInt(2), NewInt(3)); v.t != TypeInt || v.i() != 5 {
		t.Errorf("2+3 = %v", v)
	}
	if v := addValues(NewInt(2), NewFloat(0.5)); v.t != TypeFloat || v.f() != 2.5 {
		t.Errorf("2+0.5 = %v", v)
	}
	if v := addValues(Null, NewInt(1)); !v.IsNull() {
		t.Errorf("NULL+1 = %v", v)
	}
	if v := divValues(NewInt(7), NewInt(2)); v.Int() != 3 {
		t.Errorf("7/2 = %v (integer division)", v)
	}
	if v := divValues(NewInt(7), NewInt(0)); !v.IsNull() {
		t.Errorf("7/0 = %v, want NULL", v)
	}
	if v := modValues(NewInt(7), NewInt(4)); v.Int() != 3 {
		t.Errorf("7%%4 = %v", v)
	}
	if v := mulValues(NewFloat(1.5), NewInt(4)); v.Float() != 6 {
		t.Errorf("1.5*4 = %v", v)
	}
	if v := negValue(NewFloat(2.5)); v.f() != -2.5 {
		t.Errorf("-2.5 = %v", v)
	}
	if v := modValues(NewFloat(7.5), NewFloat(2)); math.Abs(v.Float()-1.5) > 1e-9 {
		t.Errorf("7.5 mod 2 = %v", v)
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		esc  byte
		want bool
	}{
		{"hello", "hello", 0, true},
		{"hello", "h%", 0, true},
		{"hello", "%llo", 0, true},
		{"hello", "h_llo", 0, true},
		{"hello", "h___o", 0, true},
		{"hello", "h__l", 0, false},
		{"hello", "%", 0, true},
		{"", "%", 0, true},
		{"", "_", 0, false},
		{"a%b", `a\%b`, '\\', true},
		{"aXb", `a\%b`, '\\', false},
		{"a_b", `a\_b`, '\\', true},
		{"abcabc", "%abc", 0, true},
		{"abcabc", "abc%abc", 0, true},
		{"hello", "HELLO", 0, false}, // case sensitive
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p, c.esc); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

// likeRef is the recursive matcher likeMatch replaced. It recurses once
// per % and position, so it is exponential in the number of %s; it stays
// here as the reference semantics FuzzLike checks against.
func likeRef(s, p string, esc byte) bool {
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
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRef(s[i:], p, esc) {
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

// FuzzLike checks likeMatch against likeRef on short inputs (24 bytes
// of text, 8 of pattern), escape characters included.
func FuzzLike(f *testing.F) {
	for _, c := range []struct {
		s, p string
		esc  byte
	}{
		{"hello", "h%o", 0},
		{"abcabc", "%b_c", 0},
		{"aaab", "%a%b", 0},
		{"a%b", `a\%b`, '\\'},
		{`a\`, `a\`, '\\'},
		{"a%", "a%%", '%'},
		{"a_", "a__", '_'},
		{"xax", "%x%", 'x'},
		{"", "%", 0},
	} {
		f.Add(c.s, c.p, c.esc)
	}
	f.Fuzz(func(t *testing.T, s, p string, esc byte) {
		s, p = s[:min(len(s), 24)], p[:min(len(p), 8)]
		if got, want := likeMatch(s, p, esc), likeRef(s, p, esc); got != want {
			t.Fatalf("likeMatch(%q, %q, %q) = %v, reference %v", s, p, esc, got, want)
		}
	})
}

// TestLikeWorstCase is the regression for the exponential matcher: six
// %s against 10,000 bytes took seconds and could not be canceled.
func TestLikeWorstCase(t *testing.T) {
	s := strings.Repeat("a", 10000)
	start := time.Now()
	if likeMatch(s, "%a%a%a%a%a%b", 0) {
		t.Fatal("matched a pattern ending in b")
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Fatalf("LIKE over 10,000 bytes took %v, want < 50ms", d)
	}
}

func TestLikePrefix(t *testing.T) {
	cases := []struct {
		p          string
		prefix     string
		prefixOnly bool
	}{
		{"abc%", "abc", true},
		{"abc", "abc", false},
		{"abc%def", "abc", false},
		{"%abc", "", false},
		{"a_c%", "a", false},
		{`a\%b%`, "a%b", true},
	}
	for _, c := range cases {
		esc := byte(0)
		if c.p == `a\%b%` {
			esc = '\\'
		}
		prefix, only := likePrefix(c.p, esc)
		if prefix != c.prefix || only != c.prefixOnly {
			t.Errorf("likePrefix(%q) = (%q, %v), want (%q, %v)", c.p, prefix, only, c.prefix, c.prefixOnly)
		}
	}
}

func TestCoerceTo(t *testing.T) {
	if v := coerceTo(NewText("42"), TypeInt); v.t != TypeInt || v.i() != 42 {
		t.Errorf("coerce '42' to int = %v", v)
	}
	if v := coerceTo(NewInt(42), TypeText); v.t != TypeText || v.s() != "42" {
		t.Errorf("coerce 42 to text = %v", v)
	}
	if v := coerceTo(Null, TypeInt); !v.IsNull() {
		t.Errorf("coerce NULL = %v", v)
	}
	if v := coerceTo(NewFloat(2.9), TypeInt); v.i() != 2 {
		t.Errorf("coerce 2.9 to int = %v", v)
	}
}

func TestSuccString(t *testing.T) {
	if s, ok := succString("abc"); !ok || s != "abd" {
		t.Errorf("succ(abc) = %q %v", s, ok)
	}
	if s, ok := succString("ab\xff"); !ok || s != "ac" {
		t.Errorf("succ(ab\\xff) = %q %v", s, ok)
	}
	if _, ok := succString("\xff\xff"); ok {
		t.Error("succ(all-0xff) must report no bound")
	}
	// Property: prefix <= s with that prefix < succ(prefix).
	prop := func(p, tail string) bool {
		if p == "" {
			return true
		}
		succ, ok := succString(p)
		if !ok {
			return true
		}
		s := p + tail
		return p <= s && s < succ
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Errorf("succ bound property: %v", err)
	}
}
