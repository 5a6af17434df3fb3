package server

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/sqldb"
)

// TestValueLayoutJSON pins how result values reach the wire: the corner
// values of sqldb's TestValueLayout through fromValue and the JSON
// encoder, and what toValue makes of that text again. NaN has no JSON
// spelling, -0 comes back as the integer 0, and a blob travels as
// base64 text.
func TestValueLayoutJSON(t *testing.T) {
	for _, c := range []struct {
		v    sqldb.Value
		wire string // "" when the encoder refuses the value
		back sqldb.Value
	}{
		{sqldb.NewFloat(math.Float64frombits(0x7ff8000000000001)), "", sqldb.Null},
		{sqldb.NewFloat(math.Copysign(0, -1)), "-0", sqldb.NewInt(0)},
		{sqldb.NewFloat(2.5), "2.5", sqldb.NewFloat(2.5)},
		{sqldb.NewInt(math.MaxInt64), "9223372036854775807", sqldb.NewInt(math.MaxInt64)},
		{sqldb.NewInt(-math.MaxInt64), "-9223372036854775807", sqldb.NewInt(-math.MaxInt64)},
		{sqldb.NewInt(1<<53 + 1), "9007199254740993", sqldb.NewInt(1<<53 + 1)},
		{sqldb.NewText(""), `""`, sqldb.NewText("")},
		{sqldb.NewText("a\x00b"), `"a\u0000b"`, sqldb.NewText("a\x00b")},
		{sqldb.Null, "null", sqldb.Null},
		{sqldb.NewBlob([]byte{}), `""`, sqldb.NewText("")},
		{sqldb.NewBlob(nil), "null", sqldb.Null},
		{sqldb.NewBlob([]byte{0, 1, 2}), `"AAEC"`, sqldb.NewText("AAEC")},
		{sqldb.NewBool(true), "true", sqldb.NewBool(true)},
		{sqldb.NewBool(false), "false", sqldb.NewBool(false)},
	} {
		wire, err := json.Marshal(fromValue(c.v))
		if c.wire == "" {
			if err == nil {
				t.Errorf("%v: encoded as %s, want an encoder error", c.v, wire)
			}
			continue
		}
		if err != nil || string(wire) != c.wire {
			t.Errorf("%v: wire %s (%v), want %s", c.v, wire, err, c.wire)
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(wire))
		dec.UseNumber()
		var a any
		if err := dec.Decode(&a); err != nil {
			t.Fatal(err)
		}
		if back, err := toValue(a); err != nil || !sqldb.Identical(back, c.back) {
			t.Errorf("%v: wire %s reads back as %v (%v), want %v", c.v, wire, back, err, c.back)
		}
	}
}
