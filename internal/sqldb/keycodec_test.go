package sqldb

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"slices"
	"strings"
	"testing"
)

// compareKeys is the reference order of composite keys: elementwise
// Compare, then the shorter key first.
func compareKeys(a, b []Value) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a), len(b))
}

// valuePrefixCompare is the reference prefix compare: the first
// len(bound) columns of key against bound, a shorter key first.
func valuePrefixCompare(key, bound []Value) int {
	if len(key) > len(bound) {
		key = key[:len(bound)]
	}
	return compareKeys(key, bound)
}

// codecOrder is the order keycodec.go documents: NULL, then every
// number by exact value with NaN lowest, then TEXT, then BLOB.
func codecOrder(x, y Value) int {
	band := func(v Value) int {
		switch {
		case v.IsNull():
			return 0
		case v.T.isNumeric():
			return 1
		case v.T == TypeText:
			return 2
		default:
			return 3
		}
	}
	bx, by := band(x), band(y)
	if bx != by {
		return cmp.Compare(bx, by)
	}
	if bx != 1 {
		return Compare(x, y) // NULLs, or two texts or two blobs
	}
	xNaN, yNaN := x.T == TypeFloat && math.IsNaN(x.F), y.T == TypeFloat && math.IsNaN(y.F)
	if xNaN || yNaN {
		return cmp.Compare(b2i(!xNaN), b2i(!yNaN))
	}
	return exactNumber(x).Cmp(exactNumber(y))
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func exactNumber(v Value) *big.Float {
	if v.T == TypeFloat {
		return new(big.Float).SetFloat64(v.F)
	}
	return new(big.Float).SetInt64(v.I)
}

func codecCompareKeys(a, b []Value) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := codecOrder(a[i], b[i]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a), len(b))
}

// documentedDeparture reports whether x and y are one of the pairs
// where Compare is not a total order and the codec picks its own: an
// integer float64 cannot hold against the REAL it rounds to, BOOLEAN
// against TEXT, and NaN against a number.
func documentedDeparture(x, y Value) bool {
	isNaN := func(v Value) bool { return v.T == TypeFloat && math.IsNaN(v.F) }
	if x.T.isNumeric() && y.T.isNumeric() && (isNaN(x) || isNaN(y)) {
		return true
	}
	pair := func(a, b Type) bool { return x.T == a && y.T == b || x.T == b && y.T == a }
	if pair(TypeBool, TypeText) {
		return true
	}
	if pair(TypeInt, TypeFloat) || pair(TypeBool, TypeFloat) {
		i, f := x, y
		if i.T == TypeFloat {
			i, f = y, x
		}
		return float64(i.I) == f.F && exactNumber(i).Cmp(exactNumber(f)) != 0
	}
	return false
}

func encodeTuple(vals []Value) string {
	var b []byte
	for _, v := range vals {
		b = appendKeyValue(b, v)
	}
	return string(b)
}

// Fuzz input: sig's byte i types column i — its low nibble for tuple a,
// its high nibble for b (0: the same type as a) — over INTEGER, REAL,
// TEXT, BOOLEAN, BLOB. a and b are value streams: per column a flag
// byte (0: NULL), then 8 bytes for a number, 1 for a boolean, or a
// length byte and that many bytes for text and blobs.
var fuzzKeyTypes = []Type{TypeInt, TypeFloat, TypeText, TypeBool, TypeBlob}

const fuzzKeyMaxColumns = 4

func fuzzKeyTypesOf(sig string) (ta, tb []Type) {
	for i := 0; i < len(sig) && i < fuzzKeyMaxColumns; i++ {
		a := fuzzKeyTypes[int(sig[i]&0x0F)%len(fuzzKeyTypes)]
		b := a
		if hi := sig[i] >> 4; hi != 0 {
			b = fuzzKeyTypes[int(hi-1)%len(fuzzKeyTypes)]
		}
		ta, tb = append(ta, a), append(tb, b)
	}
	return ta, tb
}

func fuzzKeyValues(types []Type, data []byte) []Value {
	take := func(n int) []byte {
		out := make([]byte, n)
		data = data[copy(out, data):]
		return out
	}
	vals := make([]Value, len(types))
	for i, t := range types {
		if take(1)[0] == 0 {
			vals[i] = Null
			continue
		}
		switch t {
		case TypeInt:
			vals[i] = NewInt(int64(binary.BigEndian.Uint64(take(8))))
		case TypeFloat:
			vals[i] = NewFloat(math.Float64frombits(binary.BigEndian.Uint64(take(8))))
		case TypeBool:
			vals[i] = NewBool(take(1)[0]&1 == 1)
		case TypeText:
			vals[i] = NewText(string(take(int(take(1)[0] % 16))))
		case TypeBlob:
			vals[i] = NewBlob(take(int(take(1)[0] % 16)))
		}
	}
	return vals
}

// addKeySeed adds the pair (a, b) to the corpus: the inverse of
// fuzzKeyTypesOf and fuzzKeyValues (a NULL column takes the other
// side's type, INTEGER when both are NULL).
func addKeySeed(f *testing.F, a, b []Value) {
	code := func(v, other Value) byte {
		t := v.T
		if t == TypeNull {
			t = other.T
		}
		return byte(max(slices.Index(fuzzKeyTypes, t), 0))
	}
	stream := func(v Value) []byte {
		switch v.T {
		case TypeNull:
			return []byte{0}
		case TypeInt:
			return binary.BigEndian.AppendUint64([]byte{1}, uint64(v.I))
		case TypeFloat:
			return binary.BigEndian.AppendUint64([]byte{1}, math.Float64bits(v.F))
		case TypeBool:
			return []byte{1, byte(v.I)}
		case TypeText:
			return append([]byte{1, byte(len(v.S))}, v.S...)
		default:
			return append([]byte{1, byte(len(v.B))}, v.B...)
		}
	}
	var sig, da, db []byte
	for i := range a {
		sig = append(sig, code(a[i], b[i])|(code(b[i], a[i])+1)<<4)
		da, db = append(da, stream(a[i])...), append(db, stream(b[i])...)
	}
	f.Add(string(sig), da, db)
}

// keyCorners pairs the values the codec has to order carefully.
func keyCorners() [][2]Value {
	negZero := math.Copysign(0, -1)
	big := int64(1) << 53
	return [][2]Value{
		{Null, NewText("")},
		{NewFloat(0), NewFloat(negZero)},
		{NewInt(0), NewFloat(negZero)},
		{NewFloat(math.Inf(1)), NewFloat(math.MaxFloat64)},
		{NewFloat(math.Inf(-1)), NewFloat(-math.MaxFloat64)},
		{NewFloat(math.NaN()), NewFloat(math.Inf(-1))},
		{NewFloat(math.NaN()), NewFloat(math.NaN())},
		{NewInt(math.MinInt64), NewInt(math.MaxInt64)},
		{NewInt(math.MaxInt64), NewFloat(math.Exp2(63))},
		{NewInt(math.MinInt64), NewFloat(-math.Exp2(63))},
		{NewInt(big + 1), NewFloat(float64(big))},
		{NewInt(big - 1), NewFloat(float64(big))},
		{NewInt(-big - 1), NewFloat(-float64(big))},
		{NewInt(big + 1), NewInt(big)},
		{NewInt(3), NewFloat(3)},
		{NewInt(3), NewFloat(3.5)},
		{NewText("a\x00"), NewText("a")},
		{NewText("a\x00b"), NewText("a\x01")},
		{NewText("\xff"), NewText("\xff\xff")},
		{NewText("ab"), NewBlob([]byte("ab"))},
		{NewBlob([]byte{0}), NewBlob(nil)},
		{NewBool(true), NewInt(1)},
		{NewBool(false), NewInt(0)},
		{NewBool(true), NewFloat(0.5)},
		{NewBool(true), NewText("true")},
		{NewBool(false), NewText("")},
	}
}

// FuzzKeyOrder checks the packed key codec against the reference
// comparators: key order is compareKeys's wherever Compare is a total
// order and the documented codec order everywhere, a byte-prefix
// compare of encodings is valuePrefixCompare's, and keyColumnEnd splits
// a key into exactly its columns' encodings.
func FuzzKeyOrder(f *testing.F) {
	for _, c := range keyCorners() {
		addKeySeed(f, c[:1], c[1:])
		addKeySeed(f, c[1:], c[:1])
		// Behind an equal leading column, and ahead of a deciding one.
		lead := NewText("k")
		addKeySeed(f, []Value{lead, c[0]}, []Value{lead, c[1]})
		addKeySeed(f, []Value{c[0], NewInt(1)}, []Value{c[1], NewInt(2)})
	}
	f.Fuzz(func(t *testing.T, sig string, da, db []byte) {
		ta, tb := fuzzKeyTypesOf(sig)
		a, b := fuzzKeyValues(ta, da), fuzzKeyValues(tb, db)
		ka, kb := encodeTuple(a), encodeTuple(b)

		departs := false
		for i := range a {
			if c, want := Compare(a[i], b[i]), codecOrder(a[i], b[i]); c != want {
				if !documentedDeparture(a[i], b[i]) {
					t.Fatalf("codec order of %v and %v is %d, Compare says %d", a[i], b[i], want, c)
				}
				departs = true
			}
		}
		got := strings.Compare(ka, kb)
		if want := codecCompareKeys(a, b); got != want {
			t.Fatalf("enc(%v) vs enc(%v) = %d, codec order %d", a, b, got, want)
		}
		if want := compareKeys(a, b); !departs && got != want {
			t.Fatalf("enc(%v) vs enc(%v) = %d, compareKeys %d", a, b, got, want)
		}
		for l := 0; l <= len(b); l++ {
			got := prefixCompare(ka, encodeTuple(b[:l]))
			if want := codecCompareKeys(a[:min(l, len(a))], b[:l]); got != want {
				t.Fatalf("prefix %d: enc(%v) vs enc(%v) = %d, codec order %d", l, a, b[:l], got, want)
			}
			if want := valuePrefixCompare(a, b[:l]); !departs && got != want {
				t.Fatalf("prefix %d: enc(%v) vs enc(%v) = %d, valuePrefixCompare %d", l, a, b[:l], got, want)
			}
		}
		end := 0
		for i, v := range a {
			next := keyColumnEnd(ka, end)
			if col := encodeTuple([]Value{v}); ka[end:next] != col {
				t.Fatalf("column %d of enc(%v) splits as %q, encodes as %q", i, a, ka[end:next], col)
			}
			end = next
		}
		if end != len(ka) {
			t.Fatalf("enc(%v) has %d bytes past its columns", a, len(ka)-end)
		}
	})
}

// TestKeyOrderDeparturesVsSeqScan runs the bounds where Compare is not
// a total order through an index probe and through a seq-scan filter
// over the same rows. Everywhere else the two agree; here the probe
// follows the codec's documented order: integers against REAL exactly
// (as the hash join does), where the filter rounds the integer, and
// BOOLEAN below every TEXT, where the filter puts it above.
func TestKeyOrderDeparturesVsSeqScan(t *testing.T) {
	db := New()
	for _, tbl := range []string{"t", "u"} {
		db.MustExec(fmt.Sprintf(`CREATE TABLE %s (i INTEGER, b BOOLEAN)`, tbl))
	}
	db.MustExec(`CREATE INDEX t_i ON t (i)`)
	db.MustExec(`CREATE INDEX t_b ON t (b)`)
	big := int64(1) << 53
	ints := []int64{math.MinInt64, -big - 1, -big, 5, big - 1, big, big + 1, big + 2, math.MaxInt64}
	for k, i := range ints {
		for _, tbl := range []string{"t", "u"} {
			db.MustExec(fmt.Sprintf(`INSERT INTO %s VALUES (?, ?)`, tbl), NewInt(i), NewBool(k%2 == 0))
		}
	}
	query := func(tbl, cond string, arg Value) string {
		sql := fmt.Sprintf(`SELECT i FROM %s WHERE %s ORDER BY i`, tbl, cond)
		plan, err := db.Explain(sql, arg)
		if err != nil {
			t.Fatal(err)
		}
		if indexed := strings.Contains(plan, "IndexScan"); indexed != (tbl == "t") {
			t.Fatalf("%s: index scan %v, plan:\n%s", sql, indexed, plan)
		}
		rows, err := db.Query(sql, arg)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, r := range rows.Data {
			out = append(out, r[0].String())
		}
		return strings.Join(out, " ")
	}
	list := func(is ...int64) string {
		var out []string
		for _, i := range is {
			out = append(out, fmt.Sprint(i))
		}
		return strings.Join(out, " ")
	}
	all := list(ints...)
	for _, c := range []struct {
		cond        string
		arg         Value
		probe, scan string
	}{
		{"i = ?", NewFloat(5), list(5), list(5)},
		{"i < ?", NewFloat(5.5), list(math.MinInt64, -big-1, -big, 5), list(math.MinInt64, -big-1, -big, 5)},
		{"i = ?", NewFloat(float64(big - 1)), list(big - 1), list(big - 1)},
		{"b = ?", NewInt(1), list(math.MinInt64, -big, big-1, big+1, math.MaxInt64), list(math.MinInt64, -big, big-1, big+1, math.MaxInt64)},
		// 2^53+1 rounds to 2^53, so the filter calls them equal.
		{"i = ?", NewFloat(float64(big)), list(big), list(big, big+1)},
		{"i > ?", NewFloat(float64(big)), list(big+1, big+2, math.MaxInt64), list(big+2, math.MaxInt64)},
		{"i <= ?", NewFloat(-float64(big)), list(math.MinInt64, -big-1, -big), list(math.MinInt64, -big-1, -big)},
		// MaxInt64 rounds up to 2^63.
		{"i >= ?", NewFloat(math.Exp2(63)), "", list(math.MaxInt64)},
		{"i < ?", NewFloat(math.Exp2(63)), all, list(ints[:len(ints)-1]...)},
		// Compare puts BOOLEAN after TEXT; the codec, before.
		{"b < ?", NewText("x"), all, ""},
		{"b > ?", NewText("x"), "", all},
	} {
		if got := query("t", c.cond, c.arg); got != c.probe {
			t.Errorf("probe %s with %v: got [%s], want [%s]", c.cond, c.arg, got, c.probe)
		}
		if got := query("u", c.cond, c.arg); got != c.scan {
			t.Errorf("filter %s with %v: got [%s], want [%s]", c.cond, c.arg, got, c.scan)
		}
	}
}
